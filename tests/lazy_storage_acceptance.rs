//! Acceptance tests for the lazy storage path: opening a database must
//! decode only the table of contents, name tables and CCT topology; metric blocks materialize when — and
//! only when — a view actually reads them. A forced `decode_all` must
//! then be indistinguishable from an eager open, down to the rendered
//! text of an interactive session.

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_expdb::{decode_all, from_binary, open_lazy, to_binary_v21};
use callpath_profiler::ExecConfig;
use callpath_viewer::{Command, Session};
use callpath_workloads::{pipeline, s3d};

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
    assert!(exp.columns.lazy_error().is_none());
    assert!(exp.raw.lazy_error().is_none());
}

/// `decode_all` brings every block in, and the result matches an eager
/// open of the same bytes node-for-node — presentation columns and raw
/// metrics alike. Both paths run the same attribution code over the same
/// decoded costs, so equality here is exact, not approximate.
#[test]
fn forced_decode_matches_an_eager_open_node_for_node() {
    let bytes = s3d_cpdb();
    let eager = from_binary(&bytes).unwrap();
    let lazy = open_lazy(bytes).unwrap();
    decode_all(&lazy, 0);

    assert_eq!(
        lazy.columns.materialized_columns(),
        lazy.columns.column_count()
    );
    assert_eq!(lazy.raw.materialized_metrics(), lazy.raw.metric_count());
    assert!(lazy.columns.lazy_error().is_none());
    assert!(lazy.raw.lazy_error().is_none());

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
