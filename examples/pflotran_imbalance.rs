//! Fig. 7: identifying load imbalance in the PFLOTRAN-shaped SPMD
//! workload.
//!
//! ```sh
//! cargo run --example pflotran_imbalance
//! ```
//!
//! Runs 64 simulated MPI ranks with an uneven domain partition, sums
//! inclusive IDLENESS over all ranks, hot-paths into the main iteration
//! loop at `timestepper.F90:384`, and draws the paper's three per-process
//! charts: scattered inclusive cycles, the sorted series, and a histogram.

use callpath_core::prelude::*;
use callpath_parallel::{
    ascii_histogram, ascii_scatter, ascii_sorted, run_spmd, summarize_ranks, ImbalanceStats,
    SpmdConfig,
};
use callpath_profiler::{Counter, ExecConfig};
use callpath_viewer::{render_hot_path, RenderConfig};
use callpath_workloads::pflotran;

const RANKS: usize = 64;

fn main() {
    let part = pflotran::Partition::default();
    let scales: Vec<f64> = (0..RANKS).map(|r| part.scale(r, RANKS)).collect();
    let run = run_spmd(
        &pflotran::program(),
        &SpmdConfig::new(scales, ExecConfig::default()),
    );
    let exp = &run.experiment;

    // Sort by total inclusive idleness summed over all MPI processes and
    // perform hot path analysis (the paper's exact recipe).
    let idle = exp.inclusive_col(exp.raw.find("IDLENESS").unwrap());
    let cyc = exp.inclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap());
    let mut ccv = View::calling_context(exp);
    let roots = ccv.roots();
    println!("=== Hot path on summed inclusive IDLENESS ===");
    println!(
        "{}",
        render_hot_path(
            &mut ccv,
            roots[0],
            idle,
            HotPathConfig::default(),
            &RenderConfig {
                columns: vec![idle, cyc],
                ..Default::default()
            },
        )
    );

    // Fig. 7's three charts for the whole-program node.
    let root = exp.cct.root();
    let series = run.rank_inclusive_series(root, Counter::Cycles);
    let stats = ImbalanceStats::of(&series);
    println!("=== Per-rank inclusive cycles (scattered) ===");
    print!("{}", ascii_scatter(&series, 64, 10));
    println!("\n=== Same, sorted ===");
    print!("{}", ascii_sorted(&series, 64, 10));
    println!("\n=== Histogram ===");
    print!("{}", ascii_histogram(&series, 8, 40));
    println!(
        "\nmean {:.3e}  min {:.3e}  max {:.3e}  stddev {:.3e}  cov {:.2}  imbalance {:.1}%",
        stats.mean,
        stats.min,
        stats.max,
        stats.std_dev,
        stats.cov,
        100.0 * stats.imbalance_factor
    );

    // Summary columns (mean/min/max/stddev across ranks), shown at the
    // top levels of the Calling Context View.
    let s = summarize_ranks(exp, &[Counter::Cycles], &run.rank_direct);
    let mut exp2 = exp.clone();
    s.append_columns(&mut exp2, &[Stat::Mean, Stat::Min, Stat::Max, Stat::StdDev]);
    let cols: Vec<ColumnId> = (0..4)
        .map(|i| ColumnId(exp2.columns.column_count() as u32 - 4 + i))
        .collect();
    let mut view = View::calling_context(&exp2);
    println!("\n=== Summary statistics over {RANKS} ranks ===");
    println!(
        "{}",
        callpath_viewer::render(
            &mut view,
            &RenderConfig {
                columns: cols,
                expand: callpath_viewer::ExpandMode::Levels(3),
                show_percent: false,
                ..Default::default()
            },
        )
    );
}
