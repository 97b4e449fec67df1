//! E8 / Section I — "using asynchronous statistical sampling, it is
//! possible to collect accurate and precise call path profiles for only a
//! few percent overhead".
//!
//! Sweeps the sampling period on the S3D workload and prints, per period:
//! tool overhead as a fraction of application cycles, number of samples,
//! and the attribution error versus ground truth. Then times `execute`
//! itself (simulator throughput) at each period.

use callpath_core::prelude::*;
use callpath_prof::correlate;
use callpath_profiler::{execute, lower, Counter, ExecConfig};
use callpath_structure::recover;
use callpath_workloads::s3d;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

const PERIODS: [u64; 4] = [101, 1_009, 10_007, 100_003];

fn print_overhead_table() {
    let binary = lower(&s3d::program(s3d::S3dConfig::default()));
    let structure = recover(&binary).unwrap();
    println!("--- sampling overhead & accuracy vs period (S3D) ---");
    println!(
        "{:>9} {:>10} {:>11} {:>12}",
        "period", "samples", "overhead%", "root error%"
    );
    for &p in &PERIODS {
        let cfg = ExecConfig {
            sample_cost_cycles: 150, // a realistic signal-handler cost
            ..ExecConfig::single(Counter::Cycles, p)
        };
        let res = execute(&binary, &cfg).unwrap();
        let exp = correlate(&structure, &res.profile, cfg.periods);
        let measured = exp.columns.get(ColumnId(0), exp.cct.root().0);
        let truth = res.totals[Counter::Cycles] as f64;
        println!(
            "{:>9} {:>10} {:>10.2}% {:>11.3}%",
            p,
            res.samples_taken,
            100.0 * res.overhead_fraction(),
            100.0 * (measured - truth).abs() / truth
        );
    }
}

fn bench(c: &mut Criterion) {
    print_overhead_table();
    let binary = lower(&s3d::program(s3d::S3dConfig::default()));
    let mut group = c.benchmark_group("sampling_overhead");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for &p in &PERIODS {
        group.bench_with_input(BenchmarkId::new("execute_period", p), &p, |b, &p| {
            let cfg = ExecConfig::single(Counter::Cycles, p);
            b.iter(|| execute(&binary, &cfg).unwrap().samples_taken)
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
