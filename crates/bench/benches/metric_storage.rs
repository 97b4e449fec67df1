//! Ablation / Section V-A — the two shapes of a metric column.
//!
//! "Performance data is sparse": most scopes have zero for most metrics.
//! A column is sorted arrays of its non-zeros unless it covers one node
//! in four or more of its tree, when it is a node-indexed vector
//! (`MetricVec::from_sorted`; the kernel's sweep branch hands its vectors
//! over as they are). This bench prints what that threshold buys on the
//! read side — point lookups, ordered scans and bytes for both shapes of
//! one column either side of it — and the kernel's cost per touched node
//! on the sparse shape it exists for.

use callpath_bench::sized_experiment;
use callpath_core::attribution::{attribute, attribute_sorted};
use callpath_core::prelude::*;
use callpath_expdb::{bin2, open_lazy};
use callpath_workloads::synth::{synth_model, SynthConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

/// Median wall time of 31 runs of `f`, in nanoseconds.
fn median_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut ns: Vec<f64> = (0..31)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

/// Both shapes of one column, read back: `n / 7` point lookups at
/// scattered nodes, one ordered scan of the non-zeros, and the bytes held
/// — at coverages either side of the one-in-four hand-over threshold.
fn print_shape_rows() {
    println!("--- dense vs sorted arrays, one column read back (medians of 31) ---");
    println!("nodes  coverage  rule picks | lookup ns (dense, sorted) | scan ns/nonzero (dense, sorted) | bytes (dense, sorted)");
    for n in [10_000u32, 100_000] {
        for one_in in [16u32, 8, 4, 2] {
            // One non-zero per stride, at a jittered offset inside it.
            let entries: Vec<(u32, f64)> = (0..n / one_in)
                .map(|k| {
                    (
                        k * one_in + k.wrapping_mul(2_654_435_761) % one_in,
                        1.5 + k as f64,
                    )
                })
                .collect();
            let picked = match MetricVec::from_sorted(entries.clone(), n as usize) {
                MetricVec::Dense(_) => "dense",
                _ => "sorted",
            };
            let mut dense = MetricVec::dense(n as usize);
            for &(k, v) in &entries {
                dense.set(k, v);
            }
            let sorted = MetricVec::Csr(CsrColumn::from_sorted(entries));
            let lookups = n / 7;
            let lookup = |col: &MetricVec| {
                median_ns(|| (0..lookups).map(|i| col.get(i * 7_919 % n)).sum::<f64>())
                    / lookups as f64
            };
            let scan = |col: &MetricVec| {
                median_ns(|| col.nonzero_sorted().map(|e| e.1).sum::<f64>())
                    / col.nonzero_count() as f64
            };
            println!(
                "{n:>6}  1/{one_in:<7} {picked:<10} | {:>6.1} {:>6.1} | {:>6.2} {:>6.2} | {:>7} {:>7}",
                lookup(&dense),
                lookup(&sorted),
                scan(&dense),
                scan(&sorted),
                dense.heap_bytes(),
                sorted.heap_bytes(),
            );
        }
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
            let median = median_ns(|| attribute_sorted(cct, &keys, &vals));
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
    print_shape_rows();
    print_sparse_rows();
    let mut group = c.benchmark_group("metric_storage");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &size in &[10_000usize, 100_000] {
        // A column covering 2/3 of its tree: the kernel's sweep branch.
        let exp = sized_experiment(size);
        group.bench_with_input(BenchmarkId::new("attribute", size), &exp, |b, exp| {
            b.iter(|| attribute(&exp.cct, &exp.raw, MetricId(0), StorageKind::Csr))
        });
        // Batched ingestion: one `add_costs` sweep in ascending node
        // order, the sorted arrays' append fast path.
        let entries: Vec<(NodeId, f64)> = (0..size as u32)
            .step_by(3)
            .map(|i| (NodeId(i), 1.5))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("add_costs_batched", size),
            &entries,
            |b, entries| {
                b.iter(|| {
                    let mut raw = RawMetrics::new(StorageKind::Csr);
                    let m = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
                    raw.add_costs(m, entries);
                    raw
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
