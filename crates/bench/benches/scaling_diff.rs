//! Section VI-A extension — scale-and-difference analysis: cost of
//! merging two experiments by structural name alignment and deriving the
//! scaling-loss columns.

use callpath_bench::sized_experiment;
use callpath_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_diff");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &size in &[1_000usize, 10_000, 100_000] {
        // Two same-shaped runs (the common case: same binary, different
        // configuration), so alignment exercises the full tree.
        let a = sized_experiment(size);
        let b = sized_experiment(size);
        group.bench_with_input(
            BenchmarkId::new("merge_experiments", size),
            &(&a, &b),
            |bch, (a, b)| bch.iter(|| merge_experiments(a, "A", b, "B").cct.len()),
        );
        group.bench_with_input(
            BenchmarkId::new("scaling_loss_full", size),
            &(&a, &b),
            |bch, (a, b)| {
                bch.iter(|| {
                    scaling_loss(a, "A", b, "B", "cycles", 1.0)
                        .unwrap()
                        .experiment
                        .cct
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
