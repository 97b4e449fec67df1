//! Figs. 4 & 5: analyzing the MOAB/mbperf-shaped mesh benchmark.
//!
//! ```sh
//! cargo run --example moab_mesh
//! ```
//!
//! 1. Callers View (Fig. 4): `_intel_fast_memset.A` — the compiler's
//!    replacement for `memset` — accounts for ≈9.7% of L1 data-cache
//!    misses, and expanding its callers shows ≈9.6% arrive through
//!    `Sequence_data::create`.
//! 2. Flat View (Fig. 5): `MBCore::get_coords` spends all of its ≈18.9%
//!    of cycles in one loop, within which a hierarchy of *inlined* code
//!    (red-black-tree find → search loop → SequenceCompare) is recovered
//!    from the binary and attributed fine-grained costs.

use callpath_core::prelude::*;
use callpath_profiler::ExecConfig;
use callpath_viewer::{render_subtree, RenderConfig};
use callpath_workloads::{moab, pipeline};

fn main() {
    let cfg = ExecConfig::default();
    let out = pipeline::run(&moab::program(), &cfg);
    let exp = out.experiment.clone();
    let l1_i = exp.inclusive_col(exp.raw.find("PAPI_L1_DCM").unwrap());
    let l1_e = exp.exclusive_col(exp.raw.find("PAPI_L1_DCM").unwrap());
    let cyc_i = exp.inclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap());

    // --- Fig. 4: Callers View of the memset replacement, sorted by L1
    // misses.
    let mut callers = View::callers(&exp);
    let memset = callers
        .roots()
        .into_iter()
        .find(|&r| callers.label(r) == "_intel_fast_memset.A")
        .expect("memset entry");
    println!("=== Fig. 4: Callers View of _intel_fast_memset.A (L1 misses) ===");
    println!(
        "{}",
        render_subtree(
            &mut callers,
            memset,
            &RenderConfig {
                sort: Some(l1_i),
                columns: vec![l1_i, l1_e],
                ..Default::default()
            },
        )
    );

    // --- Fig. 5: Flat View zoomed into MBCore::get_coords.
    let mut flat = View::flat(&exp);
    let mut stack = flat.roots();
    let mut get_coords = None;
    while let Some(n) = stack.pop() {
        if flat.label(n) == "MBCore::get_coords" && !flat.is_call(n) {
            get_coords = Some(n);
            break;
        }
        stack.extend(flat.children(n));
    }
    println!("=== Fig. 5: Flat View of MBCore::get_coords (cycles + L1 misses) ===");
    println!(
        "{}",
        render_subtree(
            &mut flat,
            get_coords.expect("get_coords in flat view"),
            &RenderConfig {
                sort: Some(cyc_i),
                columns: vec![cyc_i, l1_i, l1_e],
                ..Default::default()
            },
        )
    );

    // --- Section IX ongoing work: metrics correlated with object code.
    // The memset replacement at instruction granularity, folded over both
    // of its calling contexts.
    let obj = callpath_prof::object_view(&out.binary, &out.exec.profile, "_intel_fast_memset.A")
        .expect("memset in the binary");
    println!("=== Object view (instruction-level metrics) ===");
    println!("{}", callpath_prof::render_object_view(&obj, &cfg.periods));
}
