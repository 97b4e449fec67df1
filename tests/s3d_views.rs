//! E2 — Fig. 3: the Calling Context View of the S3D-shaped turbulent
//! combustion workload, driven end-to-end through the measurement
//! pipeline (simulate → sample → recover structure → correlate).
//!
//! Paper facts to reproduce (shape, within sampling tolerance):
//! * hot path analysis finds `chemkin_m_reaction_rate_` with ≈41.4% of
//!   inclusive cycles;
//! * the loop at `integrate_erk.f90:82` holds ≈97.9% inclusive but ≈0.0%
//!   exclusive cycles;
//! * `rhsf_`'s own statements account for ≈8.7%;
//! * the top-of-chain `main` is binary-only (no source link);
//! * the call chain interleaves the loop (static) with calls (dynamic).

use callpath_core::prelude::*;
use callpath_profiler::{Counter, ExecConfig};
use callpath_viewer::{render_hot_path, RenderConfig};
use callpath_workloads::{pipeline, s3d};

fn build() -> Experiment {
    let program = s3d::program(s3d::S3dConfig::default());
    pipeline::build_experiment(&program, &ExecConfig::default())
}

fn cycles_incl(exp: &Experiment) -> ColumnId {
    exp.inclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap())
}

fn cycles_excl(exp: &Experiment) -> ColumnId {
    exp.exclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap())
}

fn find_by_label(view: &mut View<'_>, start: u32, label: &str) -> Option<u32> {
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        if view.label(n) == label {
            return Some(n);
        }
        stack.extend(view.children(n));
    }
    None
}

#[test]
fn hot_path_finds_the_reaction_rate_routine() {
    let exp = build();
    let ci = cycles_incl(&exp);
    let total = exp.aggregate(ci);
    let mut view = View::calling_context(&exp);
    let roots = view.roots();
    assert_eq!(roots.len(), 1, "one top-level chain (the runtime main)");
    let path = view.hot_path(roots[0], ci, HotPathConfig::default());
    let labels: Vec<String> = path.iter().map(|&n| view.label(n)).collect();
    let chemkin_pos = labels
        .iter()
        .position(|l| l == "chemkin_m_reaction_rate_")
        .unwrap_or_else(|| panic!("hot path must reach chemkin: {labels:?}"));
    // ≈41.4% of inclusive cycles (paper's number), within sampling noise.
    let share = 100.0 * view.value(ci, path[chemkin_pos]) / total;
    assert!((share - 41.4).abs() < 1.5, "chemkin share {share:.1}%");
    // The path passes through the integration loop: static scopes fused
    // into the dynamic chain.
    assert!(
        labels.iter().any(|l| l == "loop at integrate_erk.f90:82"),
        "{labels:?}"
    );
}

#[test]
fn integrate_loop_is_inclusive_heavy_exclusive_light() {
    let exp = build();
    let (ci, ce) = (cycles_incl(&exp), cycles_excl(&exp));
    let total = exp.aggregate(ci);
    let mut view = View::calling_context(&exp);
    let roots = view.roots();
    let lp = find_by_label(&mut view, roots[0], "loop at integrate_erk.f90:82")
        .expect("integration loop in CCT");
    let incl_share = 100.0 * view.value(ci, lp) / total;
    let excl_share = 100.0 * view.value(ce, lp) / total;
    assert!(
        (incl_share - 97.9).abs() < 1.0,
        "inclusive {incl_share:.1}%"
    );
    assert!(excl_share < 0.1, "exclusive {excl_share:.2}% must be ~0");
}

#[test]
fn rhsf_own_statements_cost() {
    let exp = build();
    let ce = cycles_excl(&exp);
    let total = exp.aggregate(ColumnId(0));
    let mut view = View::calling_context(&exp);
    let roots = view.roots();
    let rhsf = find_by_label(&mut view, roots[0], "rhsf_").expect("rhsf_ frame");
    // rhsf_'s exclusive (rule 1: own statements) ≈ 8.7%.
    let share = 100.0 * view.value(ce, rhsf) / total;
    assert!((share - 8.7).abs() < 1.0, "rhsf_ exclusive {share:.1}%");
}

#[test]
fn runtime_main_is_binary_only() {
    let exp = build();
    let mut view = View::calling_context(&exp);
    let roots = view.roots();
    assert_eq!(view.label(roots[0]), "main");
    assert!(
        !view.has_source(roots[0]),
        "the runtime wrapper renders in plain black"
    );
    // Its child (s3d_main) does have source.
    let kids = view.children(roots[0]);
    assert!(view.has_source(kids[0]));
}

#[test]
fn rendered_hot_path_highlights_chemkin() {
    let exp = build();
    let ci = cycles_incl(&exp);
    let mut view = View::calling_context(&exp);
    let roots = view.roots();
    let text = render_hot_path(
        &mut view,
        roots[0],
        ci,
        HotPathConfig::default(),
        &RenderConfig::default(),
    );
    let chemkin_row = text
        .lines()
        .find(|l| l.contains("chemkin_m_reaction_rate_"))
        .expect("chemkin row rendered");
    assert!(chemkin_row.contains("🔥"), "{chemkin_row}");
    assert!(chemkin_row.contains("41."), "≈41.4%: {chemkin_row}");
}

#[test]
fn sampled_totals_track_ground_truth() {
    let program = s3d::program(s3d::S3dConfig::default());
    let out = pipeline::run(&program, &ExecConfig::default());
    let exp = &out.experiment;
    let ci = cycles_incl(exp);
    let measured = exp.aggregate(ci);
    let truth = out.exec.totals[Counter::Cycles] as f64;
    assert!(
        (measured - truth).abs() / truth < 0.005,
        "measured {measured} vs truth {truth}"
    );
}
