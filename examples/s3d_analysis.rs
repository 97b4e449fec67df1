//! Figs. 3 & 6: analyzing the S3D-shaped turbulent combustion workload.
//!
//! ```sh
//! cargo run --example s3d_analysis
//! ```
//!
//! Reproduces the paper's two S3D analyses:
//! 1. hot path analysis on inclusive cycles drills into
//!    `chemkin_m_reaction_rate_` (≈41.4% of cycles, Fig. 3);
//! 2. a derived floating-point *waste* metric plus *relative efficiency*
//!    rank the memory-bound flux-diffusion loop as the top tuning target
//!    (≈6% efficiency), with the math library's exponential loop next at
//!    ≈39% (Fig. 6) — and the "tuned" variant shows the 2.9× win.

use callpath_core::prelude::*;
use callpath_profiler::ExecConfig;
use callpath_viewer::{render_flattened, render_hot_path, RenderConfig};
use callpath_workloads::{pipeline, s3d};

fn flux_loop_cycles(exp: &Experiment) -> f64 {
    let cyc_e = exp.exclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap());
    let mut flat = FlatView::build(exp);
    flat.force_all(exp);
    let mut stack: Vec<ViewNodeId> = flat.tree.roots();
    while let Some(n) = stack.pop() {
        if flat
            .tree
            .label(n, &exp.cct.names)
            .starts_with("loop at diffflux.f90")
        {
            return flat.tree.value(exp, cyc_e, n);
        }
        stack.extend(flat.tree.children(n));
    }
    0.0
}

fn main() {
    let exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let cyc_i = exp.inclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap());

    // --- Fig. 3: hot path through the calling contexts.
    let mut ccv = View::calling_context(&exp);
    let roots = ccv.roots();
    println!("=== Fig. 3: hot path on PAPI_TOT_CYC (t = 50%) ===");
    println!(
        "{}",
        render_hot_path(
            &mut ccv,
            roots[0],
            cyc_i,
            HotPathConfig::default(),
            &RenderConfig {
                columns: vec![ColumnId(0), ColumnId(1)],
                ..Default::default()
            },
        )
    );

    // --- Fig. 6: derived metrics.
    let mut exp = exp;
    let cyc_e = exp.exclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap());
    let fp_e = exp.exclusive_col(exp.raw.find("PAPI_FP_OPS").unwrap());
    let peak = s3d::PEAK_FLOPS_PER_CYCLE;
    let waste = exp
        .add_derived("fp waste", &format!("${} * {peak} - ${}", cyc_e.0, fp_e.0))
        .unwrap();
    let eff = exp
        .add_derived(
            "rel efficiency",
            &format!("${} / (${} * {peak})", fp_e.0, cyc_e.0),
        )
        .unwrap();

    // Flatten the Flat View down to loops and sort by waste — exactly the
    // paper's Fig. 6 workflow.
    let mut flat = FlatView::build(&exp);
    let roots = flat.tree.roots();
    let level = flat.flatten(&exp, &roots, 3);
    let ids: Vec<u32> = level.iter().map(|n| n.0).collect();
    let mut flat_view = View::Flat {
        exp: &exp,
        view: flat,
    };
    println!("=== Fig. 6: loops flattened & sorted by derived FP waste ===");
    println!(
        "{}",
        render_flattened(
            &mut flat_view,
            &ids,
            &RenderConfig {
                sort: Some(waste),
                columns: vec![waste, eff, cyc_e],
                show_percent: false,
                max_children: 12,
                ..Default::default()
            },
        )
    );

    // --- The 2.9x tuning result.
    let base_flux = flux_loop_cycles(&exp);
    let tuned_exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::tuned()),
        &ExecConfig::default(),
    );
    let tuned_flux = flux_loop_cycles(&tuned_exp);
    println!("=== Loop transformation result (Section VI-A) ===");
    println!("flux-diffusion loop, untuned: {base_flux:.3e} cycles");
    println!("flux-diffusion loop, tuned:   {tuned_flux:.3e} cycles");
    println!("speedup: {:.2}x (paper: 2.9x)", base_flux / tuned_flux);
}
