//! Cost of the observability primitives themselves: span open/close,
//! counter bump, histogram observe, and a snapshot of a populated
//! registry. The per-call numbers bound what instrumenting a hot loop
//! would cost; with the `enabled` feature off every primitive is an
//! empty inline stub, which the obs-overhead smoke test
//! (`tests/obs_overhead.rs`) verifies end to end.

use callpath_obs as obs;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    obs::reset();
    group.bench_function("span_open_close", |b| {
        b.iter(|| {
            let _g = obs::span("bench.span");
        })
    });

    group.bench_function("nested_span", |b| {
        b.iter(|| {
            let _outer = obs::span("bench.outer");
            let _inner = obs::span("bench.inner");
        })
    });

    group.bench_function("counter_bump", |b| {
        b.iter(|| obs::count("bench.counter", 1))
    });

    group.bench_function("histogram_observe", |b| {
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            obs::observe("bench.hist", x >> 32);
        })
    });

    group.bench_function("snapshot", |b| b.iter(obs::snapshot));

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
