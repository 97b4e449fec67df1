//! Analysis-path bench (run via `scripts/bench_smoke.sh`): query
//! evaluation over a large lazily opened v2.1 database — cold (open,
//! fault, evaluate) and warm (evaluate) — a detector run on the s3d
//! fixture, and the perf gate over the repo's own committed BENCH
//! records. Emits `BENCH_analyze.json`.
//!
//! `cores` comes from `available_parallelism`, for the record: a query
//! is a loop and has no thread count. The timing fields are trajectory
//! records gated by
//! `scripts/perf_policy.toml`, not asserted here; the hard assertions
//! are the lazy-fault and correctness invariants that must hold at any
//! speed.
//!
//! `#[ignore]`d by default: timing assertions belong in release builds
//! on a quiet machine, not in every `cargo test` run.

use callpath_analyze::{
    derived_waste, gate::parse_policy, gate_records, load_bench_records, run_query, WasteConfig,
};
use callpath_expdb::{open_lazy_path, to_binary_v21};
use callpath_profiler::ExecConfig;
use callpath_workloads::generator::random_experiment;
use callpath_workloads::{pipeline, s3d};
use std::time::Instant;

/// Queries are millisecond-scale targets: min-of-N smooths page-cache
/// and scheduler noise.
const ITERS: usize = 5;

/// The composite query the bench times: one structural leaf, one
/// inclusive-percent leaf (stored aggregate, no extra fault) and one
/// exclusive threshold — two metric columns fault, nothing else.
const QUERY: &str = r#"subtree(proc ~ "proc_00[0-7].") and incl("cycles") > 1% or (excl("cycles") > 0 and file ~ "synth_1\.c")"#;

fn min_ms(iters: usize, mut run: impl FnMut()) -> f64 {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "wall-clock bench; run via scripts/bench_smoke.sh"]
fn analyze_smoke() {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));

    // --- Build + persist the large database once. -----------------
    let t = Instant::now();
    let exp = random_experiment(0xA11CE, 200_000, 256);
    let nodes = exp.cct.len();
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let bytes = to_binary_v21(&exp);
    let dir = repo.join("target");
    std::fs::create_dir_all(&dir).unwrap();
    let db_path = dir.join("analyze_smoke.cpdb");
    std::fs::write(&db_path, &bytes).expect("write synthetic database");

    // --- Cold open + sorted query. --------------------------------
    // Every iteration reopens the file, so the time includes the mmap
    // open and the two column faults the query causes.
    let mut matched = 0usize;
    let mut faulted = usize::MAX;
    let cold_ms = min_ms(ITERS, || {
        let lazy = open_lazy_path(&db_path).unwrap();
        let report = run_query(&lazy, QUERY, Some("cycles (I)"), 25, 0).unwrap();
        matched = report.matched;
        faulted = lazy.columns.materialized_columns();
        std::hint::black_box(report);
    });
    assert!(matched > 0, "the bench query must match contexts");
    assert!(
        faulted <= 2,
        "the query names two metric columns; {faulted} faulted"
    );

    // --- Warm query: same experiment, evaluation cost only. -------
    let lazy = open_lazy_path(&db_path).unwrap();
    let warm_ms = min_ms(ITERS, || {
        std::hint::black_box(run_query(&lazy, QUERY, Some("cycles (I)"), 25, 0).unwrap());
    });

    // --- One canned detector on a real fixture. -------------------
    let s3d = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let mut waste_score = f64::NAN;
    let waste_ms = min_ms(ITERS, || {
        let v =
            derived_waste(&s3d, "PAPI_TOT_CYC", "PAPI_FP_OPS", &WasteConfig::default()).unwrap();
        waste_score = v.score;
        std::hint::black_box(v);
    });

    // --- The perf gate over the repo's own records. ---------------
    let policy =
        parse_policy(&std::fs::read_to_string(repo.join("scripts/perf_policy.toml")).unwrap())
            .unwrap();
    let records = load_bench_records(repo).unwrap();
    assert!(!records.is_empty(), "the repo carries BENCH_*.json records");
    let mut gated_rows = 0usize;
    let gate_ms = min_ms(ITERS, || {
        let report = gate_records(&records, &records, &policy);
        assert!(!report.failed, "a zero-delta self-gate can never fail");
        gated_rows = report.rows.len();
        std::hint::black_box(report);
    });
    assert!(gated_rows > 0, "the committed policy must gate fields");

    let record = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"analyze\",\n",
            "  \"cores\": {},\n",
            "  \"workload\": \"synthetic v2.1 database, {} contexts, 256 procs\",\n",
            "  \"generate_ms\": {:.1},\n",
            "  \"file_bytes\": {},\n",
            "  \"query\": {:?},\n",
            "  \"query_iters\": {},\n",
            "  \"query_matched\": {},\n",
            "  \"columns_faulted_by_query\": {},\n",
            "  \"cold_open_query_ms\": {:.3},\n",
            "  \"warm_query_ms\": {:.3},\n",
            "  \"waste_detector_ms\": {:.3},\n",
            "  \"waste_detector_score\": {:.4},\n",
            "  \"gate_records\": {},\n",
            "  \"gate_rows\": {},\n",
            "  \"gate_ms\": {:.3}\n",
            "}}\n"
        ),
        cores,
        nodes,
        gen_ms,
        bytes.len(),
        QUERY,
        ITERS,
        matched,
        faulted,
        cold_ms,
        warm_ms,
        waste_ms,
        waste_score,
        records.len(),
        gated_rows,
        gate_ms,
    );
    let path = repo.join("BENCH_analyze.json");
    std::fs::write(&path, &record).expect("write perf record");
    println!("perf record written to {}:\n{record}", path.display());
}
