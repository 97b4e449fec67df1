//! E10 / Section VIII — cost comparison against the gprof-style baseline:
//! flat-profile analysis vs full CCT correlation on the same raw data.
//!
//! The interesting output is the *ratio*: how much extra analysis time
//! the calling-context views cost over a flat profile (the answer the
//! paper implies is "little enough to be irrelevant").

use callpath_baseline::analyze;
use callpath_prof::correlate;
use callpath_profiler::{execute, lower, ExecConfig};
use callpath_structure::recover;
use callpath_workloads::{moab, s3d};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_gprof");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let workloads: Vec<(&str, callpath_profiler::Program)> = vec![
        ("s3d", s3d::program(s3d::S3dConfig::default())),
        ("moab", moab::program()),
    ];
    for (name, program) in workloads {
        let binary = lower(&program);
        let cfg = ExecConfig::default();
        let res = execute(&binary, &cfg).unwrap();
        let structure = recover(&binary).unwrap();

        group.bench_with_input(
            BenchmarkId::new("gprof_flat_analysis", name),
            &(),
            |b, _| b.iter(|| analyze(&binary, &res, 1_009).flat.len()),
        );
        group.bench_with_input(BenchmarkId::new("cct_correlation", name), &(), |b, _| {
            b.iter(|| correlate(&structure, &res.profile, cfg.periods).cct.len())
        });
        group.bench_with_input(BenchmarkId::new("structure_recovery", name), &(), |b, _| {
            b.iter(|| recover(&binary).unwrap().scope_count())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
