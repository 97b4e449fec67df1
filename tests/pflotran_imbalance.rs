//! E6 — Fig. 7 and Section VI-C: load-imbalance identification for the
//! PFLOTRAN-shaped SPMD workload.
//!
//! Paper facts (shape):
//! * sorting by total inclusive idleness summed over all MPI processes
//!   and hot-pathing drills into the main iteration loop at
//!   `timestepper.F90:384`;
//! * the three per-process charts — scattered inclusive cycles, the same
//!   sorted, and a histogram — are visibly bimodal, confirming uneven
//!   work partition.

use callpath_core::prelude::*;
use callpath_parallel::{
    ascii_histogram, ascii_scatter, ascii_sorted, histogram, run_spmd, summarize_ranks,
    ImbalanceStats, SpmdConfig,
};
use callpath_profiler::{Counter, ExecConfig};
use callpath_workloads::pflotran;

const RANKS: usize = 64;

fn run() -> callpath_parallel::SpmdRun {
    let part = pflotran::Partition::default();
    let scales: Vec<f64> = (0..RANKS).map(|r| part.scale(r, RANKS)).collect();
    run_spmd(
        &pflotran::program(),
        &SpmdConfig::new(scales, ExecConfig::default()),
    )
}

fn idleness_incl(exp: &Experiment) -> ColumnId {
    exp.inclusive_col(exp.raw.find("IDLENESS").unwrap())
}

#[test]
fn hot_path_on_summed_idleness_finds_the_timestep_loop() {
    let run = run();
    let exp = &run.experiment;
    let col = idleness_incl(exp);
    let mut view = View::calling_context(exp);
    let roots = view.roots();
    let path = view.hot_path(roots[0], col, HotPathConfig::default());
    let labels: Vec<String> = path.iter().map(|&n| view.label(n)).collect();
    assert!(
        labels.iter().any(|l| l == "loop at timestepper.F90:384"),
        "hot path must pass the paper's loop: {labels:?}"
    );
}

#[test]
fn idleness_sums_only_over_waiting_ranks() {
    let run = run();
    let exp = &run.experiment;
    let col = idleness_incl(exp);
    let root = exp.cct.root();
    let total_idle = exp.columns.get(col, root.0);
    assert!(total_idle > 0.0, "imbalance must produce idleness");
    // Exactly the light half waits: per step, each light rank waits
    // (heavy - light) per-step cycles.
    let light: Vec<usize> = (0..RANKS)
        .filter(|&r| pflotran::Partition::default().scale(r, RANKS) == 1.0)
        .collect();
    assert_eq!(light.len(), RANKS / 2);
    // Ground truth: light step time ≈ STEP_CYCLES, heavy ≈ 1.6×.
    let per_light_wait =
        (run.rank_cycles.iter().max().unwrap() - run.rank_cycles.iter().min().unwrap()) as f64;
    let expected = per_light_wait * light.len() as f64;
    assert!(
        (total_idle - expected).abs() / expected < 0.01,
        "total idleness {total_idle:.3e} vs expected {expected:.3e}"
    );
}

#[test]
fn rank_series_is_bimodal() {
    let run = run();
    let root = run.experiment.cct.root();
    let series = run.rank_inclusive_series(root, Counter::Cycles);
    assert_eq!(series.len(), RANKS);
    let stats = ImbalanceStats::of(&series);
    assert!(stats.cov > 0.15, "bimodal partition: cov {}", stats.cov);
    assert!(
        (stats.max / stats.min - 1.6).abs() < 0.1,
        "heavy/light ratio {:.2}",
        stats.max / stats.min
    );
    // Histogram: two occupied extremes, hollow middle.
    let h = histogram(&series, 8);
    assert!(h[0].2 >= RANKS / 2 - 2, "{h:?}");
    assert!(h[7].2 >= RANKS / 2 - 2, "{h:?}");
    let middle: usize = h[2..6].iter().map(|&(_, _, c)| c).sum();
    assert!(middle <= 2, "hollow middle: {h:?}");
}

#[test]
fn fig7_charts_render() {
    let run = run();
    let root = run.experiment.cct.root();
    let series = run.rank_inclusive_series(root, Counter::Cycles);
    let scatter = ascii_scatter(&series, 64, 10);
    let sorted = ascii_sorted(&series, 64, 10);
    let hist = ascii_histogram(&series, 8, 40);
    assert!(scatter.contains('·'));
    assert!(sorted.contains('▪'));
    assert!(hist.lines().count() == 8);
    // The scatter alternates between two levels; the sorted chart has all
    // low marks before all high marks.
    assert!(scatter.lines().count() > sorted.lines().count() - 3);
}

#[test]
fn summary_statistics_expose_the_imbalance_per_node() {
    let run = run();
    let s = summarize_ranks(
        &run.experiment,
        &[Counter::Cycles, Counter::Idleness],
        &run.rank_direct,
    );
    let root = run.experiment.cct.root();
    let cyc = s.get(root, MetricId(0));
    assert_eq!(cyc.count() as usize, RANKS);
    // Mean sits between the modes; stddev is a strong signal.
    assert!(cyc.min() < cyc.mean() && cyc.mean() < cyc.max());
    assert!(cyc.coeff_of_variation() > 0.15);
    // Idleness is anti-correlated: only light ranks idle.
    let idle = s.get(root, MetricId(1));
    assert_eq!(idle.min(), 0.0, "heavy ranks never wait");
    assert!(idle.max() > 0.0);
}

#[test]
fn summary_columns_render_in_the_viewer() {
    let run = run();
    let s = summarize_ranks(&run.experiment, &[Counter::Cycles], &run.rank_direct);
    let mut exp = run.experiment;
    s.append_columns(&mut exp, &[Stat::Mean, Stat::Min, Stat::Max, Stat::StdDev]);
    let mut view = View::calling_context(&exp);
    let text = callpath_viewer::render(
        &mut view,
        &callpath_viewer::RenderConfig {
            expand: callpath_viewer::ExpandMode::Levels(1),
            ..Default::default()
        },
    );
    // Long column names are head…tail truncated in the header but remain
    // distinguishable by their statistic suffix.
    assert!(text.contains("(I) mean"), "{text}");
    assert!(text.contains(") stddev"), "{text}");
}
