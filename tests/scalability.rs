//! E7 — Section VII's scalability claims, validated functionally (the
//! benchmark's `core.view_build_callers_ms_p50` and
//! `core.view_build_flat_ms_p50` rows time view construction):
//!
//! * lazy Callers View construction materializes a small fraction of the
//!   eager tree until expansion is requested;
//! * building the Callers or Flat View costs one pass over the CCT and an
//!   expansion the union of its instances' chains, however deep the
//!   recursion — a 100 000-level recursive chain here, and (`#[ignore]`d,
//!   release, `scripts/ci.sh`) a 10⁶-node database under 2 s a view;
//! * hot-path-driven expansion touches only the nodes along the path;
//! * streaming summarization handles many ranks with memory proportional
//!   to nodes × metrics, not ranks;
//! * sparse metric storage holds only non-zero entries.

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_expdb::{bin2, open_lazy};
use callpath_parallel::{run_spmd, summarize_ranks, SpmdConfig};
use callpath_profiler::{Costs, Counter, ExecConfig, Op, ProgramBuilder};
use callpath_viewer::{render, Command, ExpandMode, RenderConfig, Session};
use callpath_workloads::generator::random_experiment;
use callpath_workloads::synth::{synth_model, SynthConfig};
use std::time::Instant;

#[test]
fn lazy_callers_view_materializes_a_fraction() {
    let exp = random_experiment(3, 20_000, 60);
    let lazy = CallersView::build(&exp);
    let mut eager = lazy.clone();
    eager.fully_expand(&exp);
    assert!(
        lazy.tree.len() * 10 <= eager.tree.len(),
        "lazy {} vs eager {} nodes",
        lazy.tree.len(),
        eager.tree.len()
    );
    assert!(
        lazy.tree.heap_bytes() < eager.tree.heap_bytes(),
        "lazy {}B vs eager {}B",
        lazy.tree.heap_bytes(),
        eager.tree.heap_bytes()
    );
}

#[test]
fn hot_path_expansion_is_narrow() {
    let exp = random_experiment(5, 20_000, 60);
    let mut view = View::callers(&exp);
    let before = view.node_count();
    let roots = view.roots();
    // Hot-path the heaviest top-level entry.
    let mut sorted = roots.clone();
    sort_by_column(&view, &mut sorted, ColumnId(0));
    let path = view.hot_path(sorted[0], ColumnId(0), HotPathConfig::default());
    let after = view.node_count();
    let mut eager = CallersView::build(&exp);
    eager.fully_expand(&exp);
    let eager = eager.tree.len();
    assert!(!path.is_empty());
    assert!(
        (after - before) * 5 < eager,
        "hot path materialized {} of {} eager nodes",
        after - before,
        eager
    );
}

#[test]
fn summarization_scales_in_ranks_without_keeping_them() {
    // 256 simulated ranks of a small program; summaries must be exact.
    let mut b = ProgramBuilder::new("many");
    let f = b.file("m.c");
    let main = b.declare("main", f, 1);
    b.body(main, vec![Op::work(2, Costs::cycles(1_000))]);
    b.entry(main);
    let n_ranks = 256;
    let scales: Vec<f64> = (0..n_ranks).map(|r| 1.0 + (r % 4) as f64).collect();
    let exec = ExecConfig {
        jitter_seed: None,
        ..ExecConfig::single(Counter::Cycles, 1)
    };
    let run = run_spmd(&b.build(), &SpmdConfig::new(scales, exec));
    let s = summarize_ranks(&run.experiment, &[Counter::Cycles], &run.rank_direct);
    let root = run.experiment.cct.root();
    let w = s.get(root, MetricId(0));
    assert_eq!(w.count() as usize, n_ranks);
    assert_eq!(w.min(), 1_000.0);
    assert_eq!(w.max(), 4_000.0);
    assert!((w.mean() - 2_500.0).abs() < 1e-9);
}

#[test]
fn sparse_storage_is_proportional_to_nonzeros() {
    // Sorted arrays, the sparse shape, against a node-indexed vector.
    let mut sparse = MetricVec::Csr(CsrColumn::new());
    let mut dense = MetricVec::dense(1_000_000);
    for i in 0..100u32 {
        sparse.add(i * 10_000, 1.0);
        dense.add(i * 10_000, 1.0);
    }
    assert_eq!(sparse.nonzero_count(), 100);
    assert!(
        sparse.heap_bytes() * 100 < dense.heap_bytes(),
        "sparse {}B vs dense {}B",
        sparse.heap_bytes(),
        dense.heap_bytes()
    );
    // The borrowed iterators agree entry-for-entry.
    assert!(sparse.nonzero_sorted().eq(dense.nonzero_sorted()));
}

#[test]
fn large_cct_views_build_and_agree() {
    // A 100k-node CCT: all three views build, and the program total is
    // consistent everywhere.
    let exp = random_experiment(11, 100_000, 100);
    let total = exp.raw.total(MetricId(0));
    let ccv_total = exp.columns.get(ColumnId(0), exp.cct.root().0);
    assert!((ccv_total - total).abs() < 1e-6 * total);

    let flat = View::flat(&exp);
    let flat_total: f64 = flat
        .roots()
        .iter()
        .map(|&r| flat.value(ColumnId(0), r))
        .sum();
    assert!((flat_total - total).abs() < 1e-6 * total);

    let callers = View::callers(&exp);
    // Entry procedure's top-level inclusive equals the program total.
    let main_entry = callers
        .roots()
        .into_iter()
        .find(|&r| callers.label(r) == "proc_0000")
        .unwrap();
    assert!((callers.value(ColumnId(0), main_entry) - total).abs() < 1e-6 * total);
}

/// `a → b → a → b → …`, 100 000 frames deep, all cost on one statement at
/// the bottom. Each procedure has 50 000 activations, all but one below
/// another: deciding exposure by walking every activation's ancestors is
/// instances × depth = 5 × 10⁹ steps per set, so finishing is the
/// assertion. On the default test thread stack: nothing recurses.
#[test]
fn a_hundred_thousand_recursive_levels_build_expand_and_render() {
    const DEPTH: u32 = 100_000;
    let mut names = NameTable::new();
    let file = names.file("ab.c");
    let module = names.module("ab");
    let procs = [names.proc("a"), names.proc("b")];
    let mut cct = Cct::new(names);
    let mut at = cct.root();
    for i in 0..DEPTH {
        let proc = procs[i as usize % 2];
        let def = SourceLoc::new(file, 10 + 10 * (i % 2));
        let call_site = (i > 0).then(|| SourceLoc::new(file, 5 + 10 * (i % 2)));
        at = cct.add_child(
            at,
            ScopeKind::Frame {
                proc,
                module,
                def,
                call_site,
            },
        );
    }
    let loc = SourceLoc::new(file, 12);
    let leaf = cct.add_child(at, ScopeKind::Stmt { loc });
    let mut raw = RawMetrics::new(StorageKind::Csr);
    let cycles = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
    raw.add_cost(cycles, leaf, 100.0);
    let exp = Experiment::build(cct, raw, StorageKind::Csr);
    let (incl, excl) = (ColumnId(0), ColumnId(1));

    let mut callers = View::callers(&exp);
    let top = callers.roots()[0];
    assert_eq!(callers.label(top), "a");
    assert_eq!(callers.value(incl, top), 100.0, "the outermost a");
    // a←b: every a but the outermost, of which the second is exposed;
    // then a←b←a, every a again — the outermost has a caller now.
    let lines = callers.children(top);
    assert_eq!(lines.len(), 1);
    assert_eq!(callers.label(lines[0]), "b");
    assert_eq!(callers.value(incl, lines[0]), 100.0);
    let next = callers.children(lines[0]);
    assert_eq!(next.len(), 1);
    assert_eq!(callers.value(incl, next[0]), 100.0);
    assert_eq!(callers.value(excl, next[0]), 0.0, "the cost is b's");
    let two_lines_up = RenderConfig {
        expand: ExpandMode::Levels(3),
        ..RenderConfig::default()
    };
    let text = render(&mut callers, &two_lines_up);
    assert_eq!(text.lines().count(), 2 + 6, "{text}");
    assert_eq!(text.matches("1.00e2 100.0%").count(), 6, "{text}");

    // Module, file, both procedures, and inside each its call of the
    // other, 50 000 instances a row; inside b also the statement, the
    // one row with an exclusive cost (a recursive procedure's is its
    // exposed activations', and the outermost b has none).
    let mut flat = View::flat(&exp);
    let interiors = RenderConfig {
        expand: ExpandMode::Levels(4),
        ..RenderConfig::default()
    };
    let text = render(&mut flat, &interiors);
    assert_eq!(text.lines().count(), 2 + 4 + 3, "{text}");
    assert_eq!(text.matches("1.00e2 100.0%").count(), 7 + 1, "{text}");
}

/// E7 at scale: on a 10⁶-node database, switching an interactive session
/// to the Callers View and to the Flat View — build, first column, sort,
/// first render — takes under two seconds each (40.8 s for
/// `View::callers` alone before exposure came out of one pass over the
/// CCT). Release only:
/// `cargo test --release --test scalability -- --ignored --nocapture`.
#[test]
#[ignore = "a release-build timing; scripts/ci.sh runs it"]
fn million_node_view_switches_take_under_two_seconds() {
    let model = synth_model(&SynthConfig {
        n_nodes: 1_000_000,
        n_metrics: 8,
        nnz_per_metric: 1024,
        n_procs: 2000,
        ..SynthConfig::default()
    });
    let exp = open_lazy(bin2::write_v21(&model)).unwrap();
    let mut session = Session::new(&exp, SourceStore::new());
    for kind in [ViewKind::Callers, ViewKind::Flat] {
        let start = Instant::now();
        let nodes = match kind {
            ViewKind::Callers => View::callers(&exp),
            _ => View::flat(&exp),
        }
        .node_count();
        let built = start.elapsed();
        let start = Instant::now();
        session.apply(Command::SwitchView(kind)).unwrap();
        let text = session.render();
        let took = start.elapsed();
        println!(
            "{}: {nodes} nodes built in {:.1} ms; build + first render ({} rows, {} columns) {:.1} ms",
            kind.title(),
            built.as_secs_f64() * 1e3,
            text.lines().count() - 2,
            exp.columns.column_count(),
            took.as_secs_f64() * 1e3
        );
        assert!(took.as_secs_f64() < 2.0, "{}: {took:?}", kind.title());
    }
}
