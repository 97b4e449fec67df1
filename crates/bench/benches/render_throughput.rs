//! E7 ablations / Sections V-B and VII — renderer throughput: tabular
//! tree rendering across sizes, fused vs separate call-site lines, and
//! with/without percentage cells.
//!
//! Prints the fused-vs-separate row-count table (the paper: fusing
//! "shortens the length of the call chains in hpcviewer by half"), and for
//! `full_ccv` the rows and bytes per row of each render; its timing is
//! reported per row (`ns/elem`), because MB/s alone rewards a renderer for
//! emitting padding.

use callpath_bench::{sized_experiment, CYC_I};
use callpath_core::prelude::*;
use callpath_viewer::{render, ExpandMode, RenderConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

fn print_fused_table() {
    println!("--- fused vs separate call-site/callee lines ---");
    let exp = sized_experiment(10_000);
    for fused in [true, false] {
        let mut view = View::calling_context(&exp);
        let text = render(
            &mut view,
            &RenderConfig {
                fused,
                max_children: usize::MAX,
                max_depth: 512,
                ..Default::default()
            },
        );
        println!("fused={fused}: {} rendered rows", text.lines().count());
    }
}

/// The full-tree render the `full_ccv` rows time.
fn full_ccv(exp: &Experiment) -> String {
    render(
        &mut View::calling_context(exp),
        &RenderConfig {
            max_children: usize::MAX,
            max_depth: 512,
            ..Default::default()
        },
    )
}

fn bench(c: &mut Criterion) {
    print_fused_table();
    let mut group = c.benchmark_group("render_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let exps = [1_000usize, 10_000, 100_000].map(|size| (size, sized_experiment(size)));
    for (size, exp) in &exps {
        group.bench_with_input(BenchmarkId::new("top_three_levels", size), exp, |b, exp| {
            b.iter(|| {
                let mut view = View::calling_context(exp);
                render(
                    &mut view,
                    &RenderConfig {
                        expand: ExpandMode::Levels(3),
                        ..Default::default()
                    },
                )
                .len()
            })
        });
    }

    // Sorting cost in isolation.
    let (_, exp) = &exps[2];
    group.bench_function("sort_100k_siblings", |b| {
        let view = View::calling_context(exp);
        let mut nodes: Vec<u32> = (0..100_000u32).collect();
        b.iter(|| {
            sort_by_column(&view, &mut nodes, CYC_I);
            nodes[0]
        })
    });

    // Last, because a group's throughput stays set: one element is one row.
    for (size, exp) in &exps {
        let text = full_ccv(exp);
        let rows = text.lines().count() - 2;
        println!(
            "full_ccv/{size}: {rows} rows, {:.1} bytes/row",
            text.len() as f64 / rows as f64
        );
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("full_ccv", size), exp, |b, exp| {
            b.iter(|| full_ccv(exp).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
