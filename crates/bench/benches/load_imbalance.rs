//! E6 / Section VI-C and Fig. 7 — SPMD load-imbalance identification:
//! full-pipeline cost per rank count, and the post-mortem summarization.
//!
//! Prints the Fig. 7 statistics per rank count before timing.

use callpath_core::prelude::*;
use callpath_parallel::{run_spmd, summarize_ranks, ImbalanceStats, SpmdConfig};
use callpath_profiler::{Counter, ExecConfig};
use callpath_workloads::pflotran;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn config(n_ranks: usize) -> SpmdConfig {
    let part = pflotran::Partition::default();
    let scales: Vec<f64> = (0..n_ranks).map(|r| part.scale(r, n_ranks)).collect();
    SpmdConfig::new(scales, ExecConfig::default())
}

fn print_imbalance_table() {
    println!("--- Fig. 7 per-rank statistics ---");
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>12}",
        "ranks", "mean cyc", "max cyc", "cov", "total idle"
    );
    for &n in &[8usize, 32, 64] {
        let run = run_spmd(&pflotran::program(), &config(n));
        let root = run.experiment.cct.root();
        let series = run.rank_inclusive_series(root, Counter::Cycles);
        let stats = ImbalanceStats::of(&series);
        let idle_col = run
            .experiment
            .inclusive_col(run.experiment.raw.find("IDLENESS").unwrap());
        let idle = run.experiment.columns.get(idle_col, root.0);
        println!(
            "{:>6} {:>12.3e} {:>12.3e} {:>8.3} {:>12.3e}",
            n, stats.mean, stats.max, stats.cov, idle
        );
    }
}

fn bench(c: &mut Criterion) {
    print_imbalance_table();
    let mut group = c.benchmark_group("load_imbalance");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for &n in &[8usize, 32, 64] {
        group.bench_with_input(BenchmarkId::new("spmd_pipeline", n), &n, |b, &n| {
            b.iter(|| run_spmd(&pflotran::program(), &config(n)))
        });
    }

    // Summarization alone, decoupled from simulation.
    let run = run_spmd(&pflotran::program(), &config(64));
    group.bench_function("summarize_64_ranks", |b| {
        b.iter(|| {
            summarize_ranks(
                &run.experiment,
                &[Counter::Cycles, Counter::Idleness],
                &run.rank_direct,
            )
        })
    });

    // Hot path on the summed idleness metric (the paper's diagnosis step).
    let idle = run
        .experiment
        .inclusive_col(run.experiment.raw.find("IDLENESS").unwrap());
    group.bench_function("hot_path_on_idleness", |b| {
        b.iter(|| {
            let mut view = View::calling_context(&run.experiment);
            let roots = view.roots();
            view.hot_path(roots[0], idle, HotPathConfig::default())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
