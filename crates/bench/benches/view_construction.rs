//! E1 / Section III — constructing the three complementary views from one
//! canonical CCT, across CCT sizes.
//!
//! The claim under test: all three views derive from the same canonical
//! CCT with costs that scale near-linearly in CCT size, so multi-view
//! presentation is affordable even for large profiles.

use callpath_bench::sized_experiment;
use callpath_core::prelude::*;
use callpath_prof::{Correlator, ParallelCorrelator};
use callpath_profiler::{execute, lower, Counter, ExecConfig, RawProfile};
use callpath_workloads::generator::{random_program, GenConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_construction");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &size in &[1_000usize, 10_000, 100_000] {
        let exp = sized_experiment(size);
        group.bench_with_input(BenchmarkId::new("attribute_all", size), &exp, |b, exp| {
            b.iter(|| {
                (0..exp.raw.metric_count())
                    .map(|m| {
                        attribute(
                            &exp.cct,
                            &exp.raw,
                            MetricId::from_usize(m),
                            StorageKind::Csr,
                        )
                    })
                    .collect::<Vec<_>>()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("callers_view_lazy", size),
            &exp,
            |b, exp| b.iter(|| CallersView::build(exp)),
        );
        group.bench_with_input(BenchmarkId::new("flat_view_shell", size), &exp, |b, exp| {
            b.iter(|| FlatView::build(exp))
        });
        group.bench_with_input(BenchmarkId::new("flat_view_eager", size), &exp, |b, exp| {
            b.iter(|| {
                let mut view = FlatView::build(exp);
                view.force_all(exp);
                view
            })
        });
    }

    // Profile ingestion: one correlator fed rank-by-rank vs the sharded
    // parallel correlator (identical output, see callpath-prof tests).
    let program = random_program(GenConfig {
        n_procs: 60,
        ..GenConfig::default()
    });
    let bin = lower(&program);
    let base = ExecConfig::single(Counter::Cycles, 509);
    let structure = callpath_structure::recover(&bin).unwrap();
    for &n_ranks in &[16usize, 64] {
        let profiles: Vec<RawProfile> = (0..n_ranks)
            .map(|r| {
                let cfg = ExecConfig {
                    work_scale: 1.0 + (r % 4) as f64 * 0.5,
                    jitter_seed: Some(7 + r as u64),
                    ..base.clone()
                };
                execute(&bin, &cfg).unwrap().profile
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("ingest_sequential", n_ranks),
            &profiles,
            |b, profiles| {
                b.iter(|| {
                    let mut corr = Correlator::new(&structure, base.periods);
                    for p in profiles {
                        corr.add(p);
                    }
                    corr.finish(StorageKind::Csr).cct.len()
                })
            },
        );
        for threads in [2usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("ingest_parallel_t{threads}"), n_ranks),
                &profiles,
                |b, profiles| {
                    b.iter(|| {
                        let (exp, _) = ParallelCorrelator::new(&structure, base.periods)
                            .with_threads(threads)
                            .correlate(profiles, StorageKind::Csr);
                        exp.cct.len()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
