//! Thread-scaling bench (run via `scripts/bench_smoke.sh`): measure
//! parallel ingestion and `decode_all` at `threads ∈ {1, 2, 4, 8}` and
//! emit `BENCH_thread_scaling.json` — the multi-core curve ROADMAP open
//! item 3 asked for, recorded honestly (`cores` comes from
//! `available_parallelism`; `speedup` is null on a single-core host
//! where every thread count runs the same hardware).
//!
//! `#[ignore]`d by default: wall-clock measurements belong in release builds
//! on a quiet machine, not in every `cargo test` run.

use callpath_core::prelude::*;
use callpath_expdb::{bin2, decode_all, open_lazy_path};
use callpath_prof::ParallelCorrelator;
use callpath_profiler::{execute, lower, ExecConfig, RawProfile};
use callpath_workloads::s3d::{self, S3dConfig};
use callpath_workloads::synth::{synth_model, SynthConfig};
use std::time::Instant;

const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];
const N_RANKS: usize = 64;
/// min-of-N timing for the (fast) ingest measurements.
const INGEST_ITERS: usize = 3;
/// `decode_all` on the million-node workload runs for seconds per
/// sample — long enough to be stable without repetition.
const DECODE_ITERS: usize = 1;

fn min_ms(iters: usize, mut run: impl FnMut()) -> f64 {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// s3d across 64 simulated ranks, perf_smoke-style: same binary, each
/// rank with its own work scale and jitter stream.
fn s3d_ranks() -> (callpath_structure::Structure, Vec<RawProfile>, ExecConfig) {
    let bin = lower(&s3d::program(S3dConfig::default()));
    let base = ExecConfig::default();
    let profiles = (0..N_RANKS)
        .map(|r| {
            let cfg = ExecConfig {
                work_scale: 1.0 + (r % 8) as f64 * 0.25,
                jitter_seed: Some(3 + r as u64),
                ..base.clone()
            };
            execute(&bin, &cfg).unwrap().profile
        })
        .collect();
    (callpath_structure::recover(&bin).unwrap(), profiles, base)
}

/// JSON rows for one curve: `[{"threads": 1, "ms": 12.3, "speedup": null}, ...]`.
fn curve_json(points: &[(usize, f64)], cores: usize) -> String {
    let base_ms = points
        .iter()
        .find(|&&(t, _)| t == 1)
        .map(|&(_, ms)| ms)
        .unwrap_or(f64::NAN);
    let rows: Vec<String> = points
        .iter()
        .map(|&(threads, ms)| {
            let speedup = if cores == 1 {
                "null".to_owned()
            } else {
                format!("{:.2}", base_ms / ms.max(1e-9))
            };
            format!("    {{ \"threads\": {threads}, \"ms\": {ms:.3}, \"speedup\": {speedup} }}")
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

#[test]
#[ignore = "wall-clock scaling bench; run via scripts/bench_smoke.sh"]
fn thread_scaling_curve() {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // --- Ingestion: s3d × 64 ranks. -------------------------------
    let (structure, profiles, cfg) = s3d_ranks();
    let mut ingest_points: Vec<(usize, f64)> = Vec::new();
    for &threads in &THREAD_POINTS {
        let par = ParallelCorrelator::new(&structure, cfg.periods).with_threads(threads);
        let ms = min_ms(INGEST_ITERS, || {
            std::hint::black_box(par.correlate(&profiles, StorageKind::Csr));
        });
        ingest_points.push((threads, ms));
    }

    // --- decode_all: million-node synthetic, 32 columns. ----------
    // 32 metrics keeps a 4-point curve inside the script budget (the
    // zero-copy bench pays ~3.5 minutes for all 1024 columns once).
    let synth_cfg = SynthConfig {
        n_metrics: 32,
        nnz_per_metric: 1024,
        ..SynthConfig::million()
    };
    let v21 = bin2::write_v21(&synth_model(&synth_cfg));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&dir).unwrap();
    let db_path = dir.join("thread_scaling.cpdb");
    std::fs::write(&db_path, &v21).expect("write synthetic database");

    let pool_before = callpath_core::pool::stats();
    let mut decode_points: Vec<(usize, f64)> = Vec::new();
    for &threads in &THREAD_POINTS {
        let ms = min_ms(DECODE_ITERS, || {
            let e = open_lazy_path(&db_path).unwrap();
            decode_all(&e, threads);
            std::hint::black_box(&e);
        });
        decode_points.push((threads, ms));
    }
    let pool_after = callpath_core::pool::stats();

    let record = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"thread_scaling\",\n",
            "  \"cores\": {},\n",
            "  \"ingest_workload\": \"s3d x {} ranks\",\n",
            "  \"ingest_iters\": {},\n",
            "  \"ingest_points\": {},\n",
            "  \"decode_workload\": \"synthetic CCT, {} nodes x {} metrics\",\n",
            "  \"decode_iters\": {},\n",
            "  \"decode_points\": {},\n",
            "  \"pool_tasks_run\": {},\n",
            "  \"pool_tasks_stolen\": {}\n",
            "}}\n"
        ),
        cores,
        N_RANKS,
        INGEST_ITERS,
        curve_json(&ingest_points, cores),
        synth_cfg.n_nodes + 1,
        synth_cfg.n_metrics,
        DECODE_ITERS,
        curve_json(&decode_points, cores),
        pool_after.tasks_run - pool_before.tasks_run,
        pool_after.tasks_stolen - pool_before.tasks_stolen,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_thread_scaling.json");
    std::fs::write(&path, &record).expect("write perf record");
    println!("perf record written to {}:\n{record}", path.display());
}
