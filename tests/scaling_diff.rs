//! Section VI-A's first technique: "pinpoint and quantify scalability
//! bottlenecks in context [by] scaling and differencing call path
//! profiles from a pair of executions" (after Coarfa et al., ref. [3]).
//!
//! Two scenarios:
//! * **before/after**: diff the untuned and tuned S3D runs; the loss
//!   column must localize the entire improvement in the flux-diffusion
//!   loop;
//! * **weak scaling**: diff per-rank PFLOTRAN profiles from light and
//!   heavy ranks; the loss concentrates in the compute routines that
//!   received more cells.

use callpath_core::prelude::*;
use callpath_profiler::ExecConfig;
use callpath_workloads::{pipeline, s3d};

fn find_frame(exp: &Experiment, name: &str) -> Option<NodeId> {
    exp.cct.all_nodes().find(|&n| {
        matches!(exp.cct.kind(n), ScopeKind::Frame { proc, .. }
            if exp.cct.names.proc_name(proc) == name)
    })
}

#[test]
fn before_after_diff_localizes_the_tuning_win() {
    let tuned = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::tuned()),
        &ExecConfig::default(),
    );
    let base = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    // Loss of the *base* relative to the tuned run: where is the base
    // wasting time that the tuned version does not?
    let analysis = scaling_loss(&tuned, "tuned", &base, "base", "PAPI_TOT_CYC", 1.0).unwrap();
    let exp = &analysis.experiment;

    // Hot path on the loss column must drill into diffusive_flux_.
    let mut view = View::calling_context(exp);
    let roots = view.roots();
    let path = view.hot_path(roots[0], analysis.loss_incl, HotPathConfig::default());
    let labels: Vec<String> = path.iter().map(|&n| view.label(n)).collect();
    assert!(
        labels.contains(&"diffusive_flux_".to_owned()),
        "loss hot path: {labels:?}"
    );

    // The flux frame's loss ≈ the whole-program delta; chemkin's ≈ 0.
    let flux = find_frame(exp, "diffusive_flux_").unwrap();
    let chemkin = find_frame(exp, "chemkin_m_reaction_rate_").unwrap();
    let program_delta = exp.columns.get(analysis.loss_incl, exp.cct.root().0);
    let flux_loss = exp.columns.get(analysis.loss_incl, flux.0);
    let chemkin_loss = exp.columns.get(analysis.loss_incl, chemkin.0).abs();
    assert!(program_delta > 0.0);
    assert!(
        (flux_loss - program_delta).abs() / program_delta < 0.05,
        "flux carries the delta: {flux_loss:.3e} of {program_delta:.3e}"
    );
    assert!(
        chemkin_loss < 0.02 * program_delta,
        "chemkin unchanged: {chemkin_loss:.3e}"
    );

    // And the paper's headline number: base/tuned ratio in the flux loop.
    let base_col = exp.columns.get(analysis.peer_incl, flux.0);
    let tuned_col = exp.columns.get(analysis.base_incl, flux.0);
    let speedup = base_col / tuned_col;
    assert!((speedup - 2.9).abs() < 0.2, "{speedup:.2}x");
}

#[test]
fn weak_scaling_diff_between_ranks() {
    use callpath_profiler::{execute, lower, Counter};
    use callpath_structure::recover;
    // One light rank and one 1.6x-loaded rank of the PFLOTRAN program;
    // per-rank profiles should be identical under perfect weak scaling.
    let program = callpath_workloads::pflotran::program();
    let bin = lower(&program);
    let s = recover(&bin).unwrap();
    let cfg = ExecConfig::default();
    let light = execute(&bin, &cfg).unwrap();
    let heavy = execute(
        &bin,
        &ExecConfig {
            work_scale: 1.6,
            ..cfg.clone()
        },
    )
    .unwrap();
    let light_exp = callpath_prof::correlate(&s, &light.profile, cfg.periods);
    let heavy_exp = callpath_prof::correlate(&s, &heavy.profile, cfg.periods);

    let analysis = scaling_loss(
        &light_exp,
        "light",
        &heavy_exp,
        "heavy",
        "PAPI_TOT_CYC",
        1.0,
    )
    .unwrap();
    let exp = &analysis.experiment;
    let root = exp.cct.root();
    let total_loss = exp.columns.get(analysis.loss_incl, root.0);
    let expected = (heavy.totals[Counter::Cycles] - light.totals[Counter::Cycles]) as f64;
    assert!(
        (total_loss - expected).abs() / expected < 0.02,
        "loss {total_loss:.3e} vs truth {expected:.3e}"
    );
    // The % scaling loss column: ~37.5% of the heavy run is excess
    // (0.6/1.6).
    let frac = exp.columns.get(analysis.loss_frac, root.0);
    assert!((frac - 0.6 / 1.6).abs() < 0.02, "fraction {frac:.3}");
}

#[test]
fn merged_experiment_presents_in_all_views() {
    let a = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let b = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::tuned()),
        &ExecConfig::default(),
    );
    let merged = merge_experiments(&a, "base", &b, "tuned");
    assert_eq!(merged.raw.metric_count(), 6, "3 metrics per side");
    // All three views build and the callers view distinguishes both runs.
    let callers = View::callers(&merged);
    let flux = callers
        .roots()
        .into_iter()
        .find(|&r| callers.label(r) == "diffusive_flux_")
        .unwrap();
    let base_cyc = merged.inclusive_col(merged.raw.find("PAPI_TOT_CYC@base").unwrap());
    let tuned_cyc = merged.inclusive_col(merged.raw.find("PAPI_TOT_CYC@tuned").unwrap());
    assert!(
        callers.value(base_cyc, flux) > 2.0 * callers.value(tuned_cyc, flux),
        "both runs visible side by side in one view"
    );
    let _ = View::flat(&merged);
    let _ = View::calling_context(&merged);
}

#[test]
fn strong_scaling_diff_exposes_the_serial_section() {
    use callpath_workloads::pflotran;
    // Per-rank profiles at 4 and 8 ranks: the solve should halve, the
    // serial checkpoint cannot. Expectation scale = 0.5.
    let program = pflotran::strong_scaling_program();
    let run_at = |n: usize| {
        let cfg = ExecConfig {
            work_scale: pflotran::strong_scale(n),
            ..ExecConfig::default()
        };
        pipeline::build_experiment(&program, &cfg)
    };
    let q4 = run_at(4);
    let q8 = run_at(8);
    let analysis = scaling_loss(&q4, "4r", &q8, "8r", "PAPI_TOT_CYC", 0.5).unwrap();
    let exp = &analysis.experiment;

    // Hot path on the loss lands in checkpoint_io.
    let mut view = View::calling_context(exp);
    let roots = view.roots();
    let path = view.hot_path(roots[0], analysis.loss_incl, HotPathConfig::default());
    let labels: Vec<String> = path.iter().map(|&n| view.label(n)).collect();
    assert!(
        labels.contains(&"checkpoint_io".to_owned()),
        "strong-scaling loss hot path: {labels:?}"
    );

    // Quantitative: the solve's loss ≈ 0; checkpoint's loss ≈ half its
    // own cost (it "should" have halved but did not).
    let solve = find_frame(exp, "flow_solve").unwrap();
    let ckpt = find_frame(exp, "checkpoint_io").unwrap();
    let solve_loss = exp.columns.get(analysis.loss_incl, solve.0);
    let ckpt_loss = exp.columns.get(analysis.loss_incl, ckpt.0);
    let ckpt_cost_8r = exp.columns.get(analysis.peer_incl, ckpt.0);
    assert!(
        solve_loss.abs() < 0.02 * ckpt_cost_8r,
        "solve scales perfectly: loss {solve_loss:.3e}"
    );
    assert!(
        (ckpt_loss - 0.5 * ckpt_cost_8r).abs() < 0.02 * ckpt_cost_8r,
        "checkpoint loss {ckpt_loss:.3e} vs half of {ckpt_cost_8r:.3e}"
    );
}

#[test]
fn merged_experiments_survive_the_database() {
    // A diff result (metric names with '@', derived loss formulas) must
    // round-trip through both database formats.
    let a = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let b = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::tuned()),
        &ExecConfig::default(),
    );
    let analysis = scaling_loss(&a, "base", &b, "tuned", "PAPI_TOT_CYC", 1.0).unwrap();
    let exp = &analysis.experiment;

    let xml = callpath_expdb::to_xml(exp);
    let back = callpath_expdb::from_xml(&xml).unwrap();
    assert_eq!(back.columns.column_count(), exp.columns.column_count());
    let root = exp.cct.root();
    for c in 0..exp.columns.column_count() as u32 {
        assert_eq!(
            back.columns.get(ColumnId(c), root.0),
            exp.columns.get(ColumnId(c), root.0),
            "column {c}"
        );
    }
    let bin = callpath_expdb::to_binary_v21(exp);
    let back = callpath_expdb::from_binary(&bin).unwrap();
    assert_eq!(
        back.columns.get(analysis.loss_incl, root.0),
        exp.columns.get(analysis.loss_incl, root.0)
    );
}
