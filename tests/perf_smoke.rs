//! Perf smoke test (run via `scripts/bench_smoke.sh`): ingest a 64-rank
//! workload through `ParallelCorrelator` on one thread and on the
//! automatic count, assert the wall-clock stays within budget and the
//! sharded leg within 1.10x of the one-thread leg, and emit a JSON perf
//! record (`BENCH_ingestion_smoke.json`) so regressions show up
//! as diffs rather than vibes.
//!
//! `#[ignore]`d by default: timing assertions belong in release builds on
//! a quiet machine, not in every `cargo test` run.

use callpath_core::prelude::*;
use callpath_prof::ParallelCorrelator;
use callpath_profiler::{execute, lower, Counter, ExecConfig, RawProfile};
use callpath_workloads::generator::{random_program, GenConfig};
use std::time::{Duration, Instant};

const N_RANKS: usize = 64;
/// Generous ceiling: the run takes well under a second in release mode;
/// the assertion exists to catch order-of-magnitude regressions, not
/// scheduler noise.
const WALL_CLOCK_BUDGET: Duration = Duration::from_secs(60);

fn workload() -> (callpath_structure::Structure, Vec<RawProfile>, ExecConfig) {
    let program = random_program(GenConfig {
        seed: 20100913, // ICPP 2010 week, why not
        n_procs: 100,
        calls_per_proc: 3,
        loop_probability: 0.3,
        work_cycles: 20_000,
    });
    let bin = lower(&program);
    let base = ExecConfig::single(Counter::Cycles, 251);
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

/// Best-of-N: the recorded numbers ride the floor of scheduler noise
/// instead of a single cold sample.
const TIMING_ITERS: usize = 25;

#[test]
#[ignore = "wall-clock smoke test; run via scripts/bench_smoke.sh"]
fn sixty_four_rank_ingestion_smoke() {
    let setup_start = Instant::now();
    let (structure, profiles, cfg) = workload();
    let setup = setup_start.elapsed();

    // Like for like: both legs are `ParallelCorrelator::correlate`, which
    // hands back every rank's costs as well as the experiment — one
    // thread is its sequential `add` loop — and the two are interleaved,
    // so a noisy stretch on a shared host falls on both.
    let one = ParallelCorrelator::new(&structure, cfg.periods).with_threads(1);
    let par = ParallelCorrelator::new(&structure, cfg.periods).with_threads(0);
    let mode = par.mode_for(profiles.len());
    let (mut seq_nodes, mut par_nodes) = (0, 0);
    let (mut sequential, mut parallel) = (Duration::MAX, Duration::MAX);
    for _ in 0..TIMING_ITERS {
        let t = Instant::now();
        seq_nodes = one.correlate(&profiles, StorageKind::Csr).0.cct.len();
        sequential = sequential.min(t.elapsed());
        let t = Instant::now();
        par_nodes = par.correlate(&profiles, StorageKind::Csr).0.cct.len();
        parallel = parallel.min(t.elapsed());
    }

    assert_eq!(seq_nodes, par_nodes);
    assert!(
        parallel < WALL_CLOCK_BUDGET,
        "64-rank parallel ingestion took {parallel:?}, budget {WALL_CLOCK_BUDGET:?}"
    );
    // Whenever the run actually shards, parallel ingestion may not lose
    // to the one-thread loop by more than timing slop. Ranks of this
    // size are where sharding breaks even on two cores
    // (`BENCH_thread_scaling.json` has a shape that wins and one that
    // loses), so this is the guard on the sharded path's overhead.
    if mode == callpath_prof::IngestMode::Sharded {
        assert!(
            parallel.as_secs_f64() <= sequential.as_secs_f64() * 1.10,
            "sharded parallel ingest ({:.3} ms) lost to sequential ({:.3} ms)",
            parallel.as_secs_f64() * 1e3,
            sequential.as_secs_f64() * 1e3,
        );
    }

    // `speedup` is only meaningful when the run actually sharded: on a
    // single-core host `mode_for` picks the sequential path, and the
    // two timings measure the same code, so the field is null rather
    // than a misleading ratio of noise.
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let speedup = if mode == callpath_prof::IngestMode::Sequential {
        "null".to_string()
    } else {
        format!(
            "{:.2}",
            sequential.as_secs_f64() / parallel.as_secs_f64().max(1e-9)
        )
    };
    let record = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ingestion_smoke\",\n",
            "  \"n_ranks\": {},\n",
            "  \"cores\": {},\n",
            "  \"mode\": \"{}\",\n",
            "  \"cct_nodes\": {},\n",
            "  \"setup_ms\": {:.3},\n",
            "  \"sequential_ingest_ms\": {:.3},\n",
            "  \"parallel_ingest_ms\": {:.3},\n",
            "  \"speedup\": {},\n",
            "  \"budget_ms\": {}\n",
            "}}\n"
        ),
        N_RANKS,
        cores,
        mode.as_str(),
        par_nodes,
        setup.as_secs_f64() * 1e3,
        sequential.as_secs_f64() * 1e3,
        parallel.as_secs_f64() * 1e3,
        speedup,
        WALL_CLOCK_BUDGET.as_millis(),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_ingestion_smoke.json");
    std::fs::write(&path, &record).expect("write perf record");
    println!("perf record written to {}:\n{record}", path.display());
}
