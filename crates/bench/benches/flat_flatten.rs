//! E4 / Section III-C — Flat View construction and the flattening
//! operation (Figs. 5 & 6).

use callpath_bench::{moab_experiment, sized_experiment};
use callpath_core::flat::flatten;
use callpath_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("flat_flatten");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &size in &[1_000usize, 10_000, 100_000] {
        let exp = sized_experiment(size);
        group.bench_with_input(BenchmarkId::new("build_shell", size), &exp, |b, exp| {
            b.iter(|| FlatView::build(exp))
        });
        let forced = |exp: &Experiment| {
            let mut view = FlatView::build(exp);
            view.force_all(exp);
            view
        };
        group.bench_with_input(BenchmarkId::new("build_forced", size), &exp, |b, exp| {
            b.iter(|| forced(exp))
        });
        let flat = forced(&exp);
        group.bench_with_input(
            BenchmarkId::new("flatten_to_leaves", size),
            &flat,
            |b, flat| {
                let roots = flat.tree.roots();
                b.iter(|| flatten(&flat.tree, &roots, 64).len())
            },
        );
    }

    // The Fig. 5 workflow: build the MOAB flat view (with its recovered
    // inline hierarchy) and strip three layers.
    let moab = moab_experiment();
    group.bench_function("fig5_moab_flat_and_flatten", |b| {
        b.iter(|| {
            let mut flat = FlatView::build(&moab);
            let roots = flat.tree.roots();
            flat.flatten(&moab, &roots, 3).len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
