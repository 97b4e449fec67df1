//! E7 — Section VII's scalability claims, validated functionally (the
//! timing side lives in the Criterion benches):
//!
//! * lazy Callers View construction materializes a small fraction of the
//!   eager tree until expansion is requested;
//! * hot-path-driven expansion touches only the nodes along the path;
//! * streaming summarization handles many ranks with memory proportional
//!   to nodes × metrics, not ranks;
//! * sparse metric storage holds only non-zero entries.

use callpath_core::prelude::*;
use callpath_parallel::{run_spmd, summarize_ranks, SpmdConfig};
use callpath_profiler::{Costs, Counter, ExecConfig, Op, ProgramBuilder};
use callpath_workloads::generator::random_experiment;

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
    let s = summarize_ranks(&run.experiment, &[Counter::Cycles], &run.rank_direct, 0);
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
    let mut sparse = MetricVec::csr();
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
