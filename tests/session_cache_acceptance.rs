//! Acceptance test for the interactive read path: once a view is built
//! and rendered, re-sorting and re-rendering it must be served entirely
//! from the generation-stamped sort caches — **zero** additional full
//! child `sort_by` calls (observed through [`Session::sort_stats`]) —
//! while producing byte-identical output. A re-render of the same view
//! and columns copies each row's metric cells from the last frame
//! instead of formatting them (observed through [`Session::cell_stats`]).

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_profiler::ExecConfig;
use callpath_viewer::{Command, Session};
use callpath_workloads::{pipeline, s3d};

fn expand_everything(session: &mut Session<'_>) {
    // Fixed-point expansion driven by the numbered render, exactly like
    // a user mashing "expand" on every visible row.
    loop {
        let (_, rows) = session.render_numbered();
        let before = rows.len();
        for n in rows {
            session.apply(Command::Expand(n)).ok();
        }
        let (_, rows) = session.render_numbered();
        if rows.len() == before {
            break;
        }
    }
}

#[test]
fn resorting_a_built_view_costs_zero_full_sorts() {
    let exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let mut session = Session::new(&exp, SourceStore::new());
    expand_everything(&mut session);

    // Warm every (slot, key) pair the steady-state loop below touches:
    // both metric columns and the name ordering.
    session.apply(Command::SortBy(ColumnId(1))).unwrap();
    let by_col1 = session.render();
    session.apply(Command::SortByName(true)).unwrap();
    let by_name = session.render();
    session.apply(Command::SortByName(false)).unwrap();
    session.apply(Command::SortBy(ColumnId(0))).unwrap();
    let by_col0 = session.render();

    let (_, full_sorts_before) = session.sort_stats();
    assert!(full_sorts_before > 0, "warm-up must have sorted something");

    // Steady state: flip through the sort orders repeatedly. Every
    // child list is already cached at the current generation, so no
    // full sort may run — and the output must be byte-identical.
    for _ in 0..3 {
        session.apply(Command::SortBy(ColumnId(1))).unwrap();
        assert_eq!(session.render(), by_col1);
        session.apply(Command::SortByName(true)).unwrap();
        assert_eq!(session.render(), by_name);
        session.apply(Command::SortByName(false)).unwrap();
        session.apply(Command::SortBy(ColumnId(0))).unwrap();
        assert_eq!(session.render(), by_col0);
    }

    let (hits, full_sorts_after) = session.sort_stats();
    assert_eq!(
        full_sorts_after, full_sorts_before,
        "re-sorting a built view ran a full child sort"
    );
    assert!(
        hits > 0,
        "the steady-state loop must be served by the cache"
    );
}

#[test]
fn cache_survives_view_switches_but_not_column_edits() {
    let exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let mut session = Session::new(&exp, SourceStore::new());
    session.apply(Command::Expand(0)).ok();
    let cct = session.render();

    // Visiting the other views builds their own caches; coming back to
    // the CCT must not re-sort it.
    session.apply(Command::SwitchView(ViewKind::Flat)).unwrap();
    session.render();
    session
        .apply(Command::SwitchView(ViewKind::Callers))
        .unwrap();
    session.render();
    let (_, sorts_before) = session.sort_stats();
    session
        .apply(Command::SwitchView(ViewKind::CallingContext))
        .unwrap();
    assert_eq!(session.render(), cct);
    let (_, sorts_after) = session.sort_stats();
    assert_eq!(
        sorts_after, sorts_before,
        "switching back re-sorted the CCT"
    );
}

/// One render's `(reused, formatted)` rows, checked to cover every row.
fn render_counts(session: &mut Session<'_>) -> (u64, u64) {
    let (r0, f0) = session.cell_stats();
    let (_, rows) = session.render_numbered();
    let (r1, f1) = session.cell_stats();
    assert_eq!(r1 - r0 + f1 - f0, rows.len() as u64);
    (r1 - r0, f1 - f0)
}

#[test]
fn a_re_render_formats_only_rows_the_last_frame_lacks() {
    let exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let mut session = Session::new(&exp, SourceStore::new());
    let (_, top) = session.render_numbered();
    assert_eq!(render_counts(&mut session), (0, top.len() as u64));
    // An expand formats the rows it reveals and copies the others.
    session.apply(Command::Expand(top[0])).unwrap();
    let (reused, formatted) = render_counts(&mut session);
    assert_eq!(reused, top.len() as u64);
    assert!(formatted > 0);
    // A sort, a hot path and a find only move rows already on screen.
    session.apply(Command::SortBy(ColumnId(1))).unwrap();
    let (_, rows) = session.render_numbered();
    session.apply(Command::SortBy(ColumnId(0))).unwrap();
    assert_eq!(render_counts(&mut session), (rows.len() as u64, 0));
    session.apply(Command::SortByName(true)).unwrap();
    assert_eq!(render_counts(&mut session), (rows.len() as u64, 0));
    session.apply(Command::Find("main".into())).unwrap();
    assert_eq!(render_counts(&mut session).1, 0);
    // A column edit or a view switch changes the key: every row of the
    // first render after it is formatted, none reused.
    let edits = [
        Command::HideColumn(ColumnId(1)),
        Command::ShowColumn(ColumnId(1)),
        Command::SwitchView(ViewKind::Flat),
        Command::SwitchView(ViewKind::CallingContext),
    ];
    for cmd in edits {
        session.render();
        session.apply(cmd.clone()).unwrap();
        let (reused, formatted) = render_counts(&mut session);
        assert!(reused == 0 && formatted > 0, "{cmd:?}: {reused} reused");
    }
}
