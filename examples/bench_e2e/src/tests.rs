//! Tests of the harness itself (`run.sh --test`; no root build or test
//! compiles this package).

use crate::harness::{quiet, Ctx, Recorder, Rng};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::nav;
use crate::trace::Tracer;
use callpath_core::jsonval::{parse, Json};
use callpath_core::prelude::ColumnId;
use callpath_expdb::open_lazy_path;
use std::path::PathBuf;
use std::time::Instant;

fn check_ctx(name: &str) -> (Ctx, PathBuf) {
    let tmp = std::env::temp_dir().join(format!("bench_e2e-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let ctx = Ctx {
        seed: 7,
        seconds: 0.05,
        trace: true,
        check: true,
        tmp: tmp.clone(),
        serve_bin: PathBuf::new(),
    };
    (ctx, tmp)
}

/// BENCHMARK.json and the tables in `metrics.rs` say the same thing.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = doc.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (entry, def) in listed.iter().zip(defs) {
            let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap();
            assert_eq!(field("name"), def.name);
            assert_eq!(field("unit"), def.unit, "{}", def.name);
            assert_eq!(field("better"), def.better, "{}", def.name);
            let bound = entry.get("bound").and_then(Json::as_f64);
            assert_eq!(
                bound,
                (key == "end_to_end").then_some(def.bound),
                "{}",
                def.name
            );
        }
    }
}

/// The quiet sample is the fastest quarter of the repeats that
/// succeeded, and every one that failed.
#[test]
fn the_quiet_sample_drops_no_failure() {
    let inf = f64::INFINITY;
    let repeats = [5.0, 1.0, inf, 3.0, 2.0, 4.0, 8.0, 7.0, 6.0];
    assert_eq!(quiet(&repeats), [1.0, 2.0, inf]);
    assert_eq!(quiet(&[3.0]), [3.0]);
    assert_eq!(quiet(&[inf, inf]), [inf, inf]);
}

/// Both navigation workloads run clean at `--check` size, and the
/// traced run explains its own operations.
#[test]
fn navigation_workloads_run_clean_at_check_size() {
    let (ctx, tmp) = check_ctx("nav");
    for out in [nav::nav_mid(&ctx), nav::nav_large(&ctx)] {
        let b = &out.blocks;
        assert_eq!(b.measured.failed + b.plain.failed + b.warmup.failed, 0);
        assert!(b.measured.attempted > 0 && !b.measured.first_paint_ms.is_empty());
        let by_layer = b.tracer.self_by_layer();
        let unexplained = by_layer["unexplained"] as f64 / b.tracer.op_wall_ns() as f64;
        assert!(unexplained < 0.10, "unexplained share {unexplained}");
    }
    std::fs::remove_dir_all(tmp).unwrap();
}

/// A damaged column must show up as failed operations, not as a
/// plausible profile with blank cells.
#[test]
fn a_corrupt_column_makes_the_run_incorrect() {
    let (ctx, tmp) = check_ctx("corrupt");
    let inputs = nav::large_inputs(&ctx);
    let db = &inputs.huge;
    let session = |fresh: &[u32]| {
        let mut rec = Recorder::default();
        let mut off = Tracer::new(false, Instant::now());
        nav::run_session(db, fresh, true, &mut off, &mut rec, &mut Default::default());
        rec
    };
    let clean_run = session(&[1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(clean_run.failed, 0, "the clean file runs clean");
    assert!(clean_run.op_ms.iter().all(|ms| ms.is_finite()));

    // Flip one byte at a time until the file still opens but some
    // column no longer faults in; no knowledge of the layout needed.
    let clean = std::fs::read(&db.path).unwrap();
    let n_columns = open_lazy_path(&db.path).unwrap().columns.column_count() as u32;
    let mut rng = Rng(3);
    let damaged = loop {
        let mut bytes = clean.clone();
        bytes[clean.len() / 2 + rng.below(clean.len() / 2)] ^= 0x5a;
        std::fs::write(&db.path, &bytes).unwrap();
        let Ok(exp) = open_lazy_path(&db.path) else {
            continue;
        };
        let broken = (1..n_columns).find(|&c| {
            exp.columns.get(ColumnId(c), 0);
            !exp.columns.lazy_errors().is_empty()
        });
        if let Some(c) = broken {
            break c;
        }
    };
    let mut fresh: Vec<u32> = (1..n_columns)
        .filter(|&c| c / 2 != damaged / 2)
        .take(7)
        .collect();
    fresh.insert(3, damaged);
    let damaged_run = session(&fresh);
    assert!(damaged_run.failed > 0);
    // The failed operation is in the sample, slower than any limit.
    assert_eq!(damaged_run.op_ms.len(), clean_run.op_ms.len());
    assert!(damaged_run.op_ms.iter().any(|ms| ms.is_infinite()));
    assert!(damaged_run.quiet_ops().iter().any(|ms| ms.is_infinite()));
    std::fs::remove_dir_all(tmp).unwrap();
}
