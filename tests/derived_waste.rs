//! E5 — Fig. 6 and Section VI-A: derived metrics for effective analysis.
//!
//! Paper facts (shape):
//! * sorting loops by the derived floating-point **waste** metric ranks
//!   the memory-streaming flux-diffusion loop first (≈13.5% of the total
//!   waste), even though compute loops consume far more cycles;
//! * its companion **relative efficiency** metric reports ≈6% for that
//!   loop (a "fat target for optimization") and ≈39% for the math
//!   library's exponential loop (tightly tuned, ranked next);
//! * after the paper's loop transformations the flux loop ran 2.9× faster
//!   — the `tuned` workload variant reproduces the before/after delta.

use callpath_core::prelude::*;
use callpath_profiler::ExecConfig;
use callpath_viewer::{render_flattened, RenderConfig};
use callpath_workloads::{pipeline, s3d};

/// Build the experiment and add the two derived metrics, exactly as an
/// analyst would: waste = cycles(E) × peak − flops(E); efficiency =
/// flops(E) / (cycles(E) × peak).
fn build(cfg: s3d::S3dConfig) -> (Experiment, ColumnId, ColumnId) {
    let mut exp = pipeline::build_experiment(&s3d::program(cfg), &ExecConfig::default());
    let cyc_e = exp.exclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap());
    let fp_e = exp.exclusive_col(exp.raw.find("PAPI_FP_OPS").unwrap());
    let peak = s3d::PEAK_FLOPS_PER_CYCLE;
    let waste = exp
        .add_derived(
            "fp waste",
            &format!("${} * {} - ${}", cyc_e.0, peak, fp_e.0),
        )
        .unwrap();
    let eff = exp
        .add_derived(
            "rel efficiency",
            &format!("${} / (${} * {})", fp_e.0, cyc_e.0, peak),
        )
        .unwrap();
    (exp, waste, eff)
}

/// All loop nodes of the Flat View, as (label, view node id).
fn flat_loops(exp: &Experiment) -> (FlatView, Vec<(String, u32)>) {
    let mut flat = FlatView::build(exp);
    flat.force_all(exp);
    let mut out = Vec::new();
    let mut stack: Vec<ViewNodeId> = flat.tree.roots();
    while let Some(n) = stack.pop() {
        if matches!(flat.tree.scope(n), ViewScope::Loop { .. }) {
            out.push((flat.tree.label(n, &exp.cct.names), n.0));
        }
        stack.extend(flat.tree.children(n));
    }
    (flat, out)
}

#[test]
fn waste_ranking_inverts_the_cycle_ranking() {
    let (exp, waste, _) = build(s3d::S3dConfig::default());
    let (flat, loops) = flat_loops(&exp);
    let cyc_e = exp.exclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap());

    let mut by_waste = loops.clone();
    by_waste.sort_by(|a, b| {
        flat.tree
            .value(&exp, waste, ViewNodeId(b.1))
            .partial_cmp(&flat.tree.value(&exp, waste, ViewNodeId(a.1)))
            .unwrap()
    });
    let mut by_cycles = loops.clone();
    by_cycles.sort_by(|a, b| {
        flat.tree
            .value(&exp, cyc_e, ViewNodeId(b.1))
            .partial_cmp(&flat.tree.value(&exp, cyc_e, ViewNodeId(a.1)))
            .unwrap()
    });

    assert!(
        by_waste[0].0.starts_with("loop at diffflux.f90"),
        "flux loop tops the waste ranking: {:?}",
        by_waste.iter().map(|(l, _)| l).collect::<Vec<_>>()
    );
    assert!(
        !by_cycles[0].0.starts_with("loop at diffflux.f90"),
        "but NOT the raw cycle ranking: {:?}",
        by_cycles.iter().map(|(l, _)| l).collect::<Vec<_>>()
    );
    // The exp-routine loop ranks second by waste (the paper's second
    // finding in Fig. 6).
    assert!(
        by_waste[1].0.starts_with("loop at libm_exp.c"),
        "{:?}",
        by_waste.iter().map(|(l, _)| l).collect::<Vec<_>>()
    );
}

#[test]
fn flux_loop_waste_share_is_near_the_papers() {
    let (exp, waste, _) = build(s3d::S3dConfig::default());
    let (flat, loops) = flat_loops(&exp);
    let total_waste: f64 = loops
        .iter()
        .map(|&(_, n)| flat.tree.value(&exp, waste, ViewNodeId(n)))
        .sum();
    let flux = loops
        .iter()
        .find(|(l, _)| l.starts_with("loop at diffflux.f90"))
        .unwrap();
    let share = 100.0 * flat.tree.value(&exp, waste, ViewNodeId(flux.1)) / total_waste;
    // Paper: 13.5%. Our synthetic budget gives the same ballpark.
    assert!(
        (10.0..20.0).contains(&share),
        "flux waste share {share:.1}%"
    );
}

#[test]
fn relative_efficiency_matches_the_papers_numbers() {
    let (exp, _, eff) = build(s3d::S3dConfig::default());
    let (flat, loops) = flat_loops(&exp);
    let flux = loops
        .iter()
        .find(|(l, _)| l.starts_with("loop at diffflux.f90"))
        .unwrap();
    let exp_loop = loops
        .iter()
        .find(|(l, _)| l.starts_with("loop at libm_exp.c"))
        .unwrap();
    let flux_eff = flat.tree.value(&exp, eff, ViewNodeId(flux.1));
    let exp_eff = flat.tree.value(&exp, eff, ViewNodeId(exp_loop.1));
    assert!(
        (flux_eff - 0.06).abs() < 0.01,
        "flux efficiency {flux_eff:.3}"
    );
    assert!((exp_eff - 0.39).abs() < 0.03, "exp efficiency {exp_eff:.3}");
}

#[test]
fn tuned_flux_loop_runs_2_9x_faster() {
    let (base, ..) = build(s3d::S3dConfig::default());
    let (tuned, ..) = build(s3d::S3dConfig::tuned());
    let find_flux = |exp: &Experiment| -> f64 {
        let (flat, loops) = flat_loops(exp);
        let cyc_e = exp.exclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap());
        loops
            .iter()
            .find(|(l, _)| l.starts_with("loop at diffflux.f90"))
            .map(|&(_, n)| flat.tree.value(exp, cyc_e, ViewNodeId(n)))
            .unwrap()
    };
    let speedup = find_flux(&base) / find_flux(&tuned);
    assert!((speedup - 2.9).abs() < 0.15, "flux speedup {speedup:.2}x");
}

#[test]
fn sorting_by_derived_metric_beats_mental_arithmetic() {
    // The paper's point: a derived column can drive the sort. Render the
    // flattened loop list sorted by waste and check the flux loop leads.
    let (exp, waste, eff) = build(s3d::S3dConfig::default());
    let mut flat = FlatView::build(&exp);
    let start = flat.tree.roots();
    let roots = flat.flatten(&exp, &start, 3);
    let ids: Vec<u32> = roots.iter().map(|n| n.0).collect();
    let mut view = View::Flat {
        exp: &exp,
        view: flat,
    };
    let text = render_flattened(
        &mut view,
        &ids,
        &RenderConfig {
            sort: Some(waste),
            columns: vec![waste, eff],
            ..Default::default()
        },
    );
    let first_loop_row = text
        .lines()
        .skip(2)
        .find(|l| l.contains("loop at"))
        .unwrap();
    assert!(
        first_loop_row.contains("diffflux.f90"),
        "waste-sorted view leads with the flux loop:\n{text}"
    );
}

#[test]
fn derived_columns_agree_across_views() {
    // The same derived formula evaluated on CCV, Callers and Flat
    // aggregates must agree on the whole-program row.
    let (exp, waste, _) = build(s3d::S3dConfig::default());
    let ccv_root_val = {
        let view = View::calling_context(&exp);
        let roots = view.roots();
        view.value(waste, roots[0])
    };
    assert!(ccv_root_val.is_finite());
    assert!(ccv_root_val >= 0.0);
    // Aggregate (@-value) equals formula over aggregates.
    let agg = exp.aggregate(waste);
    assert!(agg > 0.0);
}
