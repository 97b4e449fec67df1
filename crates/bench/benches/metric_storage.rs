//! Ablation / Section V-A — sparse vs dense metric storage.
//!
//! "Performance data is sparse": most scopes have zero for most metrics.
//! This bench measures attribution and point-lookup under both storage
//! flavors and prints their heap footprints on a sparse profile.

use callpath_bench::sized_experiment;
use callpath_core::attribution::{attribute, attribute_sorted};
use callpath_core::prelude::*;
use callpath_expdb::{bin2, open_lazy};
use callpath_workloads::synth::{synth_model, SynthConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

fn print_footprints() {
    println!("--- metric storage footprint (one column, 100k-node CCT) ---");
    let exp = sized_experiment(100_000);
    for kind in [StorageKind::Dense, StorageKind::Sparse, StorageKind::Csr] {
        let attr = attribute(&exp.cct, &exp.raw, MetricId(0), kind);
        println!(
            "{:?}: inclusive {} bytes ({} nonzero), exclusive {} bytes",
            kind,
            attr.inclusive.heap_bytes(),
            attr.inclusive.nonzero_count(),
            attr.exclusive.heap_bytes(),
        );
    }
}

/// The sparse rows: one column of 1 024 non-zeros on the deep synthetic
/// tree (the `nav_large` / `BENCH_zero_copy` shape), over the topology
/// borrowed from a database image — what a lazy column fault runs on —
/// and over the owned arena. The kernel's work follows the nodes it
/// touches (the union of the non-zeros' ancestor chains), so its cost is
/// read per touched node, beside the per-node reading the end-to-end
/// benchmark prints (`core.attribute_ns_per_node`).
fn print_sparse_rows() {
    println!("--- sparse attribution (deep synthetic tree, one column of 1024 non-zeros) ---");
    for n_nodes in [100_000usize, 1_000_000] {
        let model = synth_model(&SynthConfig {
            n_nodes,
            n_metrics: 1,
            nnz_per_metric: 1024,
            ..SynthConfig::million()
        });
        let (keys, vals): (Vec<u32>, Vec<f64>) = model.metrics[0].costs.iter().copied().unzip();
        let mapped = open_lazy(bin2::write_v21(&model))
            .expect("just written")
            .cct;
        let owned = model.build_cct().expect("synthetic topology is valid");
        for (topology, cct) in [("mapped", &mapped), ("owned", &owned)] {
            let touched = attribute_sorted(cct, &keys, &vals).visited;
            let mut ns: Vec<f64> = (0..31)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(attribute_sorted(cct, &keys, &vals));
                    start.elapsed().as_nanos() as f64
                })
                .collect();
            ns.sort_by(f64::total_cmp);
            let median = ns[ns.len() / 2];
            println!(
                "{} nodes ({topology}), {} touched ({:.1}%): median {:.3} ms = {:.2} ns/node, {:.1} ns/touched node",
                cct.len(),
                touched,
                100.0 * touched as f64 / cct.len() as f64,
                median / 1e6,
                median / cct.len() as f64,
                median / touched as f64,
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    print_footprints();
    print_sparse_rows();
    let mut group = c.benchmark_group("metric_storage");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &size in &[10_000usize, 100_000] {
        let exp = sized_experiment(size);
        for kind in [StorageKind::Dense, StorageKind::Sparse, StorageKind::Csr] {
            group.bench_with_input(
                BenchmarkId::new(format!("attribute_{kind:?}"), size),
                &exp,
                |b, exp| b.iter(|| attribute(&exp.cct, &exp.raw, MetricId(0), kind)),
            );
            // Point lookups: linear scan (Sparse) vs direct index (Dense)
            // vs binary search (Csr).
            let attr = attribute(&exp.cct, &exp.raw, MetricId(0), kind);
            group.bench_with_input(
                BenchmarkId::new(format!("lookup_{kind:?}"), size),
                &attr,
                |b, attr| {
                    b.iter(|| {
                        let mut acc = 0.0;
                        for i in (0..size as u32).step_by(7) {
                            acc += attr.inclusive.get(i);
                        }
                        acc
                    })
                },
            );
        }
        // Batched ingestion: per-sample scalar `add` vs one `add_costs`
        // sweep in ascending node order (the CSR append fast path).
        let entries: Vec<(NodeId, f64)> = (0..size as u32)
            .step_by(3)
            .map(|i| (NodeId(i), 1.5))
            .collect();
        for kind in [StorageKind::Dense, StorageKind::Sparse, StorageKind::Csr] {
            group.bench_with_input(
                BenchmarkId::new(format!("add_costs_batched_{kind:?}"), size),
                &entries,
                |b, entries| {
                    b.iter(|| {
                        let mut raw = RawMetrics::new(kind);
                        let m = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
                        raw.add_costs(m, entries);
                        raw.generation()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
