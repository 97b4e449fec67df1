//! E3 + E7 / Sections III-B and VII — the Callers View and its lazy
//! construction ablation.
//!
//! Paper claim: "the Callers View is constructed dynamically [...] we
//! store and process data only when needed", ensuring "scalability for
//! both execution time and memory consumption". The bench compares
//! time-to-first-view (lazy top-level only) against full eager
//! construction, and measures the marginal cost of expanding one entry.
//! A side table of materialized node counts and heap bytes is printed
//! once at startup.

use callpath_bench::{moab_experiment, sized_experiment};
use callpath_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn print_footprints() {
    println!("--- lazy vs eager callers-view footprint ---");
    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>14}",
        "CCT nodes", "lazy nodes", "lazy bytes", "eager nodes", "eager bytes"
    );
    for &size in &[1_000usize, 10_000, 100_000] {
        let exp = sized_experiment(size);
        let lazy = CallersView::build(&exp);
        let mut eager = lazy.clone();
        eager.fully_expand(&exp);
        println!(
            "{:>10} {:>12} {:>14} {:>12} {:>14}",
            exp.cct.len(),
            lazy.tree.len(),
            lazy.tree.heap_bytes(),
            eager.tree.len(),
            eager.tree.heap_bytes()
        );
    }
}

fn bench(c: &mut Criterion) {
    print_footprints();
    let mut group = c.benchmark_group("callers_lazy");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &size in &[1_000usize, 10_000, 100_000] {
        let exp = sized_experiment(size);
        group.bench_with_input(BenchmarkId::new("lazy_build", size), &exp, |b, exp| {
            b.iter(|| CallersView::build(exp))
        });
        group.bench_with_input(BenchmarkId::new("eager_build", size), &exp, |b, exp| {
            b.iter(|| {
                let mut view = CallersView::build(exp);
                view.fully_expand(exp);
                view
            })
        });
        group.bench_with_input(
            BenchmarkId::new("expand_one_entry", size),
            &exp,
            |b, exp| {
                b.iter(|| {
                    let mut view = CallersView::build(exp);
                    let roots = view.tree.roots();
                    view.expand(exp, roots[0]);
                    view.tree.len()
                })
            },
        );
    }

    // The Fig. 4 workflow itself: find memset's callers.
    let moab = moab_experiment();
    group.bench_function("fig4_memset_callers", |b| {
        b.iter(|| {
            let mut view = View::callers(&moab);
            let memset = view
                .roots()
                .into_iter()
                .find(|&r| view.label(r) == "_intel_fast_memset.A")
                .unwrap();
            view.children(memset).len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
