//! Acceptance tests for the lazy storage path: opening a database must
//! decode only the table of contents, name tables and CCT topology; metric blocks materialize when — and
//! only when — a view actually reads them. A forced `decode_all` must
//! then be indistinguishable from an eager open, down to the rendered
//! text of an interactive session. Attributed values have one store,
//! `exp.columns`: the Callers and Flat Views fault nothing a render
//! already did, and only Flat call-site rows ever read a raw block.

use callpath_core::attribution::attribute_sorted;
use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_expdb::{bin2, decode_all, from_binary, open_lazy, to_binary_v21};
use callpath_profiler::ExecConfig;
use callpath_viewer::{Command, Session};
use callpath_workloads::synth::{synth_model, SynthConfig};
use callpath_workloads::{pipeline, s3d};
use std::collections::VecDeque;

fn s3d_cpdb() -> Vec<u8> {
    let exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    to_binary_v21(&exp)
}

/// The headline laziness guarantee: an interactive session that sorts and
/// renders the Calling Context View on a single visible column faults in
/// exactly that column, and never touches the raw metric blocks at all
/// (the CCV reads presentation columns directly).
#[test]
fn rendering_one_sorted_view_materializes_only_its_columns() {
    let exp = open_lazy(s3d_cpdb()).unwrap();
    assert_eq!(
        exp.columns.materialized_columns(),
        0,
        "open must decode topology only, not metric blocks"
    );
    assert_eq!(exp.raw.materialized_metrics(), 0);
    assert!(exp.columns.column_count() >= 4, "s3d carries two metrics");

    let mut session = Session::new(&exp, SourceStore::new());
    // Metric-properties dialog: show only the column we sort by.
    for c in 1..exp.columns.column_count() as u32 {
        session.apply(Command::HideColumn(ColumnId(c))).unwrap();
    }
    session.apply(Command::SortBy(ColumnId(0))).unwrap();
    session.apply(Command::HotPath).unwrap();
    let text = session.render();
    assert!(text.contains("🔥"), "hot path rendered:\n{text}");

    assert_eq!(
        session.materialized_columns(),
        1,
        "sorting + hot path + render on one visible column faults exactly it"
    );
    assert_eq!(
        exp.raw.materialized_metrics(),
        0,
        "the CCV never reads raw metrics"
    );
    assert!(exp.columns.lazy_errors().is_empty());
    assert!(exp.raw.lazy_errors().is_empty());
}

/// The same guarantee for the other two views: building one faults
/// nothing, and a render faults the one column it shows and sorts by —
/// `View::value` sums an experiment column over the view's nodes when it
/// is first read. The raw blocks stay on the shelf until the exclusive
/// column of a Flat call-site row is on screen, and then one is read.
#[test]
fn callers_and_flat_renders_fault_only_the_columns_they_show() {
    for (file, bytes) in both_files() {
        let exp = open_lazy(bytes).unwrap();
        for build in [View::callers, View::flat] {
            assert!(build(&exp).node_count() > 0);
        }
        assert_eq!(exp.columns.materialized_columns(), 0, "{file}: builds");
        assert_eq!(exp.raw.materialized_metrics(), 0, "{file}: builds");

        let shown = exp.inclusive_col(MetricId(1));
        let mut session = Session::new(&exp, SourceStore::new());
        for c in exp.columns.columns().filter(|&c| c != shown) {
            session.apply(Command::HideColumn(c)).unwrap();
        }
        session.apply(Command::SortBy(shown)).unwrap();
        for kind in [ViewKind::Callers, ViewKind::Flat] {
            session.apply(Command::SwitchView(kind)).unwrap();
            session.apply(Command::HotPath).unwrap();
            let text = session.render();
            assert!(text.contains("🔥"), "{file}: hot path rendered:\n{text}");
            assert_eq!(session.materialized_columns(), 1, "{file}, {kind:?}");
            assert_eq!(exp.columns.fault_count(shown), 1, "{file}, {kind:?}");
        }
        // Down to the call-site rows, still on the inclusive column.
        for _ in 0..3 {
            session.apply(Command::Flatten).unwrap();
        }
        assert!(
            session.render().contains('↪'),
            "{file}: call sites on screen"
        );
        assert_eq!(exp.raw.materialized_metrics(), 0, "{file}: inclusive only");

        // Their exclusive cells are frame-direct cost: one raw block.
        let own = exp.exclusive_col(MetricId(1));
        session.apply(Command::ShowColumn(own)).unwrap();
        session.render();
        assert_eq!(session.materialized_columns(), 2, "{file}");
        assert_eq!(exp.raw.materialized_metrics(), 1, "{file}");
        assert_eq!(exp.raw.fault_count(MetricId(1)), 1, "{file}");
        assert!(exp.columns.lazy_errors().is_empty() && exp.raw.lazy_errors().is_empty());
    }
}

/// `decode_all` brings every block in, and the result matches an eager
/// open of the same bytes node-for-node — presentation columns and raw
/// metrics alike, at one thread and at four. Both paths run the same
/// attribution code over the same decoded costs, so equality here is
/// exact, not approximate.
#[test]
fn forced_decode_matches_an_eager_open_node_for_node() {
    let bytes = s3d_cpdb();
    let eager = from_binary(&bytes).unwrap();
    for threads in [1, 4] {
        let lazy = open_lazy(bytes.clone()).unwrap();
        decode_all(&lazy, threads);

        assert_eq!(
            lazy.columns.materialized_columns(),
            lazy.columns.column_count()
        );
        assert_eq!(lazy.raw.materialized_metrics(), lazy.raw.metric_count());
        assert!(lazy.columns.lazy_errors().is_empty());
        assert!(lazy.raw.lazy_errors().is_empty());

        assert_eq!(eager.cct.len(), lazy.cct.len());
        assert_eq!(eager.columns.column_count(), lazy.columns.column_count());
        for n in 0..eager.cct.len() as u32 {
            for c in eager.columns.columns() {
                assert_eq!(
                    eager.columns.get(c, n),
                    lazy.columns.get(c, n),
                    "column {c:?} node {n}"
                );
            }
            for m in 0..eager.raw.metric_count() as u32 {
                assert_eq!(
                    eager.raw.direct(MetricId(m), NodeId(n)),
                    lazy.raw.direct(MetricId(m), NodeId(n)),
                    "metric {m} node {n}"
                );
            }
        }
    }
}

/// Byte-for-byte golden: driving identical session scripts over the lazy
/// and eager opens of the same database renders identical text — the
/// storage path is invisible to the presentation layer.
#[test]
fn lazy_and_eager_sessions_render_identical_text() {
    let bytes = s3d_cpdb();
    let eager = from_binary(&bytes).unwrap();
    let lazy = open_lazy(bytes).unwrap();

    let drive = |exp: &Experiment| {
        let mut s = Session::new(exp, SourceStore::new());
        s.apply(Command::HotPath).unwrap();
        let mut out = s.render();
        let last = ColumnId(exp.columns.column_count() as u32 - 1);
        s.apply(Command::SortBy(last)).unwrap();
        s.apply(Command::HotPath).unwrap();
        out.push_str(&s.render());
        s.apply(Command::SwitchView(ViewKind::Flat)).unwrap();
        s.apply(Command::Flatten).unwrap();
        out.push_str(&s.render());
        out
    };
    assert_eq!(drive(&eager), drive(&lazy));
}

/// A sparse database: a deep synthetic tree, six metrics of 48 non-zeros
/// over 20 000 nodes and the generator's derived `waste` column — 13
/// presentation columns.
fn sparse_cpdb() -> Vec<u8> {
    bin2::write_v21(&synth_model(&SynthConfig {
        n_nodes: 20_000,
        n_metrics: 6,
        nnz_per_metric: 48,
        ..Default::default()
    }))
}

/// Non-zero entries of every presentation column and raw metric.
type Entries = Vec<Vec<(u32, u64)>>;

fn bits(v: &MetricVec) -> Vec<(u32, u64)> {
    v.nonzero_sorted().map(|(n, x)| (n, x.to_bits())).collect()
}

fn all_entries(exp: &Experiment) -> (Entries, Entries) {
    let columns = exp.columns.columns().map(|c| bits(exp.columns.vec(c)));
    let raw = (0..exp.raw.metric_count()).map(|m| bits(exp.raw.column(MetricId::from_usize(m))));
    (columns.collect(), raw.collect())
}

/// Cost blocks read (`expdb.block_decode` spans closed) so far inside
/// spans named `scope`, which only the calling test opens.
fn blocks_read_under(scope: &str) -> u64 {
    let spans = callpath_obs::snapshot().spans;
    let mut inside = vec![false; spans.len()];
    let mut read = 0;
    // Parents precede their children; index 0 is the root.
    for (i, s) in spans.iter().enumerate().skip(1) {
        inside[i] = s.name == scope || inside[s.parent];
        if inside[i] && s.name == "expdb.block_decode" {
            read += s.count;
        }
    }
    read
}

/// A metric's two columns come from one kernel run, whichever is read
/// first: the other half waits, not resident, until its own column is
/// read. Both are the eager open's bits, each column is faulted once,
/// and the metric's block is read once.
#[test]
fn either_half_first_reads_the_block_once_and_matches_the_eager_open() {
    for (file, bytes) in both_files() {
        let eager = from_binary(&bytes).unwrap();
        let m = MetricId(1);
        for (first, scope) in [(0, "test.inclusive_first"), (1, "test.exclusive_first")] {
            let exp = open_lazy(bytes.clone()).unwrap();
            let halves = [exp.inclusive_col(m), exp.exclusive_col(m)];
            let before = blocks_read_under(scope);
            {
                let _scope = callpath_obs::span(scope);
                exp.columns.vec(halves[first]);
                assert_eq!(exp.columns.materialized_columns(), 1, "{file}, {scope}");
                exp.columns.vec(halves[1 - first]);
            }
            for c in halves {
                let (got, want) = (exp.columns.vec(c), eager.columns.vec(c));
                assert_eq!(bits(got), bits(want), "{file}, {scope}: {c:?}");
                assert_eq!(exp.columns.fault_count(c), 1, "{file}, {scope}: {c:?}");
            }
            assert_eq!(exp.columns.materialized_columns(), 2, "{file}, {scope}");
            assert_eq!(exp.raw.materialized_metrics(), 0, "{file}, {scope}");
            if callpath_obs::enabled() {
                assert_eq!(blocks_read_under(scope) - before, 1, "{file}, {scope}");
            }
        }
    }
}

/// A clone of a lazily opened experiment shares its provider, parked
/// halves included: each copy's first read of a column still gets that
/// column.
#[test]
fn a_clone_sharing_the_provider_reads_its_own_columns() {
    let bytes = sparse_cpdb();
    let want = all_entries(&from_binary(&bytes).unwrap()).0;
    let first = open_lazy(bytes).unwrap();
    let second = first.clone();
    first.columns.vec(ColumnId(0));
    for exp in [&second, &first] {
        for c in [0, 1] {
            assert_eq!(bits(exp.columns.vec(ColumnId(c))), want[c as usize], "{c}");
        }
    }
}

/// A derived column added to a lazily opened database reads the columns
/// its formula names and no other: the two exclusive columns fault, the
/// inclusive halves their kernels computed stay parked, and no raw block
/// is read. The values are the eager open's.
#[test]
fn add_derived_on_a_lazy_open_faults_only_the_columns_it_names() {
    let bytes = s3d_cpdb();
    let mut exp = open_lazy(bytes.clone()).unwrap();
    let stored = exp.columns.column_count();
    let w = exp.add_derived("w", "$1 * 4 - $3").unwrap();
    for c in (0..stored).map(ColumnId::from_usize) {
        let want = u64::from(c == ColumnId(1) || c == ColumnId(3));
        assert_eq!(exp.columns.fault_count(c), want, "{c:?}");
    }
    assert_eq!(exp.columns.fault_count(w), 0, "an appended column is eager");
    assert_eq!(exp.raw.materialized_metrics(), 0);
    let mut eager = from_binary(&bytes).unwrap();
    let want = eager.add_derived("w", "$1 * 4 - $3").unwrap();
    assert_eq!(bits(exp.columns.vec(w)), bits(eager.columns.vec(want)));
    assert!(exp.columns.vec(w).nonzero_count() > 0);
}

/// What a column fault leaves behind follows the data, and nothing in
/// the file says which: sorted arrays on the sparse file (48 non-zeros
/// of 20 000: the kernel walked), node-indexed vectors on the S3D run
/// wherever a metric covers the tree (the kernel swept) — column by
/// column, so the same file holds both. Re-encoding reads the same
/// entries from either, so the round trip stays byte-identical.
#[test]
fn a_faulted_column_has_the_shape_of_its_data() {
    let dense = open_lazy(s3d_cpdb()).unwrap();
    let n = dense.cct.len();
    for m in (0..dense.raw.metric_count()).map(MetricId::from_usize) {
        // Costs are positive, so the inclusive non-zeros are the nodes
        // the kernel visited: it sweeps from one node in four.
        let swept = dense.columns.vec(dense.inclusive_col(m)).nonzero_count() * 4 >= n;
        assert!(swept || m != MetricId(0), "cycles cover the tree");
        for c in [dense.inclusive_col(m), dense.exclusive_col(m)] {
            let shape = dense.columns.vec(c);
            let is_dense = matches!(shape, MetricVec::Dense(v) if v.len() == n);
            let is_sorted = matches!(shape, MetricVec::Csr(_));
            assert_eq!((is_dense, is_sorted), (swept, !swept), "{c:?}: {shape:?}");
            assert_eq!(dense.columns.fault_count(c), 1);
        }
    }
    assert_eq!(dense.raw.materialized_metrics(), 0);

    let bytes = sparse_cpdb();
    let lazy = open_lazy(bytes.clone()).unwrap();
    let waste = ColumnId(lazy.columns.column_count() as u32 - 1);
    for c in [ColumnId(0), ColumnId(3), waste] {
        lazy.columns.get(c, 0);
        assert!(
            matches!(lazy.columns.vec(c), MetricVec::Csr(_)),
            "column {c:?} landed as {:?}",
            lazy.columns.vec(c)
        );
        assert_eq!(lazy.columns.fault_count(c), 1);
    }
    assert_eq!(
        lazy.raw.materialized_metrics(),
        0,
        "a column fault reads the block in place, not through the raw slot"
    );

    decode_all(&lazy, 0);
    assert!(lazy.columns.lazy_errors().is_empty() && lazy.raw.lazy_errors().is_empty());
    assert_eq!(to_binary_v21(&lazy), bytes);
    assert_eq!(
        all_entries(&lazy),
        all_entries(&from_binary(&bytes).unwrap())
    );
}

/// `decode_all` fans the faults out over the pool; each runs the
/// attribution kernel with its own scratch. Faulting the same columns
/// one after another on this thread must give the same bits, whatever
/// `CALLPATH_THREADS` resolves the automatic count to.
#[test]
fn decode_all_equals_serial_faults() {
    let bytes = sparse_cpdb();
    let serial = open_lazy(bytes.clone()).unwrap();
    for c in serial.columns.columns() {
        serial.columns.get(c, 0);
    }
    let want = all_entries(&serial);
    // These columns are sparse enough for the kernel's marked walk, the
    // branch with per-call scratch.
    let (keys, vals) = want.1[0]
        .iter()
        .map(|&(k, v)| (k, f64::from_bits(v)))
        .unzip::<_, _, Vec<u32>, Vec<f64>>();
    let visited = attribute_sorted(&serial.cct, &keys, &vals).visited;
    assert!(visited * 4 < serial.cct.len(), "visited {visited}");
    for threads in [0, 1, 4] {
        let fanned = open_lazy(bytes.clone()).unwrap();
        decode_all(&fanned, threads);
        assert_eq!(all_entries(&fanned), want, "threads {threads}");
    }
}

/// Eight threads race the first read of every column and raw metric of
/// a sparse file: one decode each, and everybody reads the eager values.
/// Then two threads race each metric's two halves, one the inclusive and
/// one the exclusive column: one block read per metric.
#[test]
fn racing_faults_on_a_sparse_file_decode_each_column_once() {
    let bytes = sparse_cpdb();
    let want = all_entries(&from_binary(&bytes).unwrap());
    let lazy = open_lazy(bytes.clone()).unwrap();
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                barrier.wait();
                assert_eq!(all_entries(&lazy), want);
            });
        }
    });
    for c in lazy.columns.columns() {
        assert_eq!(lazy.columns.fault_count(c), 1, "column {c:?}");
    }
    for m in 0..lazy.raw.metric_count() {
        assert_eq!(
            lazy.raw.fault_count(MetricId::from_usize(m)),
            1,
            "metric {m}"
        );
    }
    assert!(lazy.columns.lazy_errors().is_empty() && lazy.raw.lazy_errors().is_empty());

    let halves = open_lazy(bytes).unwrap();
    let metrics = halves.raw.metric_count();
    let scope = "test.racing_halves";
    let before = blocks_read_under(scope);
    let pair = std::sync::Barrier::new(2);
    {
        let _scope = callpath_obs::span(scope);
        let parent = callpath_obs::current();
        std::thread::scope(|s| {
            for half in [0, 1] {
                let (halves, pair) = (&halves, &pair);
                s.spawn(move || {
                    let _span = callpath_obs::span_under(parent, "test.racing_half");
                    for m in 0..metrics {
                        pair.wait();
                        halves.columns.vec(ColumnId::from_usize(2 * m + half));
                    }
                });
            }
        });
    }
    for c in (0..2 * metrics).map(ColumnId::from_usize) {
        assert_eq!(bits(halves.columns.vec(c)), want.0[c.index()], "{c:?}");
        assert_eq!(halves.columns.fault_count(c), 1, "{c:?}");
    }
    assert_eq!(halves.raw.materialized_metrics(), 0);
    if callpath_obs::enabled() {
        assert_eq!(blocks_read_under(scope) - before, metrics as u64);
    }
}

/// A damaged block on the sparse file: the columns computed from it read
/// as zeros and say why; the others are untouched.
#[test]
fn a_corrupt_block_on_a_sparse_file_reads_as_zeros_with_a_checksum_error() {
    let mut bytes = sparse_cpdb();
    // The last section is the last metric's cost block.
    let n = bytes.len();
    bytes[n - 3] ^= 0xff;
    let lazy = open_lazy(bytes).expect("header, TOC and topology are intact");
    let last = lazy.raw.metric_count() as u32 - 1;
    for c in [ColumnId(2 * last), ColumnId(2 * last + 1)] {
        assert_eq!(lazy.columns.vec(c).nonzero_count(), 0);
    }
    assert!(lazy.columns.lazy_errors()[0].contains("checksum"));
    assert!(lazy.columns.vec(ColumnId(0)).nonzero_count() > 0);
    assert_eq!(lazy.columns.lazy_errors().len(), 1, "one block, one reason");
}

/// The sparse file and a dense one (the S3D run).
fn both_files() -> [(&'static str, Vec<u8>); 2] {
    [("sparse", sparse_cpdb()), ("dense", s3d_cpdb())]
}

/// One store: once a render has shown every column, building the other
/// two views faults nothing again and reads no raw block.
#[test]
fn callers_and_flat_fault_nothing_a_full_render_already_did() {
    for (file, bytes) in both_files() {
        let exp = open_lazy(bytes).unwrap();
        Session::new(&exp, SourceStore::new()).render();
        for c in exp.columns.columns() {
            assert_eq!(exp.columns.fault_count(c), 1, "{file}: {c:?} shown");
        }
        assert!(View::callers(&exp).node_count() > 0);
        assert!(View::flat(&exp).node_count() > 0);
        for c in exp.columns.columns() {
            assert_eq!(exp.columns.fault_count(c), 1, "{file}: {c:?}");
        }
        assert_eq!(exp.raw.materialized_metrics(), 0, "{file}");
    }
}

/// Reading one attributed value costs one column — not every metric's
/// attribution, and no raw block.
#[test]
fn one_inclusive_value_faults_one_column_and_no_raw_metric() {
    for (file, bytes) in both_files() {
        let eager = from_binary(&bytes).unwrap();
        let exp = open_lazy(bytes).unwrap();
        let (m, root) = (MetricId(1), exp.cct.root());
        assert_eq!(exp.inclusive(m, root), eager.inclusive(m, root));
        assert_eq!(exp.columns.materialized_columns(), 1, "{file}");
        assert_eq!(exp.columns.fault_count(exp.inclusive_col(m)), 1);
        assert_eq!(exp.raw.materialized_metrics(), 0, "{file}");
    }
}

/// The Flat View over a lazily opened file, every interior forced, is
/// the one over the eager build: same nodes, same bits in every column.
/// Its structure reads no metric at all; the call-site rows, whose
/// exclusive is frame-direct cost, are what first touch a raw block.
#[test]
fn a_forced_flat_view_of_a_lazy_open_equals_the_eager_one_in_bits() {
    for (file, bytes) in both_files() {
        let eager = from_binary(&bytes).unwrap();
        let lazy = open_lazy(bytes).unwrap();
        let mut want = FlatView::build(&eager);
        want.force_all(&eager);
        let mut got = FlatView::build(&lazy);
        got.force_all(&lazy);
        assert_eq!(lazy.raw.materialized_metrics(), 0, "{file}: structure");

        assert_eq!(got.tree.len(), want.tree.len(), "{file}");
        let mut call_sites_with_own_cost = 0;
        for v in (0..got.tree.len() as u32).map(ViewNodeId) {
            assert_eq!(got.tree.scope(v), want.tree.scope(v), "{file}: {v:?}");
            for c in lazy.columns.columns() {
                assert_eq!(
                    got.tree.value(&lazy, c, v).to_bits(),
                    want.tree.value(&eager, c, v).to_bits(),
                    "{file}: {c:?} at {:?}",
                    got.tree.scope(v)
                );
            }
            let own = got.tree.value(&lazy, lazy.exclusive_col(MetricId(0)), v);
            if matches!(got.tree.scope(v), ViewScope::CallSite { .. }) && own != 0.0 {
                call_sites_with_own_cost += 1;
            }
        }
        assert!(call_sites_with_own_cost > 0, "{file}");
        assert!(lazy.raw.materialized_metrics() > 0, "{file}: call sites");
        assert!(lazy.columns.lazy_errors().is_empty() && lazy.raw.lazy_errors().is_empty());
    }
}

/// A damaged block reads as zeros wherever its metric is shown — the
/// first rows of all three views, Flat call-site rows among them — and
/// the one store reports it once.
#[test]
fn a_corrupt_block_is_zeros_in_all_three_views_and_one_column_error() {
    for (file, mut bytes) in both_files() {
        // The last section is the last metric's cost block.
        let n = bytes.len();
        bytes[n - 3] ^= 0xff;
        let exp = open_lazy(bytes).expect("header, TOC and topology are intact");
        let last = exp.raw.metric_count() as u32 - 1;
        let views = [
            View::calling_context(&exp),
            View::callers(&exp),
            View::flat(&exp),
        ];
        for mut view in views {
            // Breadth first, so the Flat View gets down to call sites.
            let mut queue: VecDeque<u32> = view.roots().into();
            let mut rows = Vec::new();
            while let Some(n) = queue.pop_front().filter(|_| rows.len() < 4_000) {
                rows.push(n);
                queue.extend(view.children(n));
            }
            let title = view.kind().title();
            for &n in &rows {
                for c in [ColumnId(2 * last), ColumnId(2 * last + 1)] {
                    assert_eq!(view.value(c, n), 0.0, "{file}, {title}: {c:?}");
                }
            }
            assert!(
                rows.iter().any(|&n| view.value(ColumnId(0), n) != 0.0),
                "{file}, {title}: the intact metric still shows"
            );
            if view.kind() == ViewKind::Flat {
                assert!(rows.iter().any(|&n| view.is_call(n)), "{file}");
            }
        }
        let errors = exp.columns.lazy_errors();
        assert_eq!(errors.len(), 1, "{file}: one block, one reason");
        assert!(errors[0].contains("checksum"), "{}", errors[0]);
    }
}
