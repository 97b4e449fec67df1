//! E9 / Section IX — XML vs the compact binary CPDB database: encode
//! and decode throughput, plus a printed size table (the future-work
//! claim this repo implements).
//!
//! CPDB rows split "decode" into its real costs: the eager reference
//! decode, the lazy
//! open (TOC + topology only), open plus one faulted column (an
//! interactive first paint), and `decode_all` (a batch consumer).

use callpath_bench::{s3d_experiment, sized_experiment};
use callpath_core::prelude::ColumnId;
use callpath_expdb::{decode_all, from_binary, from_xml, open_lazy, to_binary_v21, to_xml};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn print_size_table() {
    println!("--- database size: XML vs compact binary ---");
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "CCT nodes", "xml bytes", "cpdb bytes", "xml/cpdb"
    );
    for &size in &[1_000usize, 10_000, 100_000] {
        let exp = sized_experiment(size);
        let xml = to_xml(&exp);
        let cpdb = to_binary_v21(&exp);
        println!(
            "{:>10} {:>12} {:>12} {:>8.2}",
            exp.cct.len(),
            xml.len(),
            cpdb.len(),
            xml.len() as f64 / cpdb.len() as f64
        );
    }
}

fn bench(c: &mut Criterion) {
    print_size_table();
    let mut group = c.benchmark_group("expdb_formats");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &size in &[10_000usize, 100_000] {
        let exp = sized_experiment(size);
        let xml = to_xml(&exp);
        let cpdb = to_binary_v21(&exp);
        group.bench_with_input(BenchmarkId::new("xml_encode", size), &exp, |b, exp| {
            b.iter(|| to_xml(exp).len())
        });
        group.bench_with_input(BenchmarkId::new("cpdb_encode", size), &exp, |b, exp| {
            b.iter(|| to_binary_v21(exp).len())
        });
        group.bench_with_input(BenchmarkId::new("xml_decode", size), &xml, |b, xml| {
            b.iter(|| from_xml(xml).unwrap().cct.len())
        });
        group.bench_with_input(
            BenchmarkId::new("cpdb_decode_eager", size),
            &cpdb,
            |b, cpdb| b.iter(|| from_binary(cpdb).unwrap().cct.len()),
        );
        group.bench_with_input(
            BenchmarkId::new("cpdb_open_lazy", size),
            &cpdb,
            |b, cpdb| b.iter(|| open_lazy(cpdb.clone()).unwrap().cct.len()),
        );
        group.bench_with_input(
            BenchmarkId::new("cpdb_open_plus_one_column", size),
            &cpdb,
            |b, cpdb| {
                b.iter(|| {
                    let exp = open_lazy(cpdb.clone()).unwrap();
                    exp.columns.get(ColumnId(0), 1)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cpdb_decode_all", size),
            &cpdb,
            |b, cpdb| {
                b.iter(|| {
                    let exp = open_lazy(cpdb.clone()).unwrap();
                    decode_all(&exp, 0);
                    exp.columns.materialized_columns()
                })
            },
        );
    }

    // A real measured database too.
    let s3d = s3d_experiment();
    group.bench_function("s3d_cpdb_roundtrip", |b| {
        b.iter(|| from_binary(&to_binary_v21(&s3d)).unwrap().cct.len())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
