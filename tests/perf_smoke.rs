//! Perf smoke test (run via `scripts/bench_smoke.sh`): ingest a 64-rank
//! workload sequentially and in parallel, assert the wall-clock stays
//! within budget, and emit a JSON perf record (`BENCH_ingestion_smoke.json`)
//! so regressions show up as diffs rather than vibes.
//!
//! `#[ignore]`d by default: timing assertions belong in release builds on
//! a quiet machine, not in every `cargo test` run.

use callpath_core::prelude::*;
use callpath_prof::{Correlator, ParallelCorrelator};
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

/// Best-of-`n` wall clock for `run`, so the recorded numbers (and the
/// sharded-mode regression gate below) ride the floor of scheduler
/// noise instead of a single cold sample.
fn min_elapsed(n: usize, mut run: impl FnMut()) -> Duration {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed()
        })
        .min()
        .expect("at least one timing iteration")
}

const TIMING_ITERS: usize = 3;

#[test]
#[ignore = "wall-clock smoke test; run via scripts/bench_smoke.sh"]
fn sixty_four_rank_ingestion_smoke() {
    let setup_start = Instant::now();
    let (structure, profiles, cfg) = workload();
    let setup = setup_start.elapsed();

    let mut seq_nodes = 0;
    let sequential = min_elapsed(TIMING_ITERS, || {
        let mut corr = Correlator::new(&structure, cfg.periods);
        for p in &profiles {
            corr.add(p);
        }
        seq_nodes = corr.finish(StorageKind::Csr).cct.len();
    });

    let par = ParallelCorrelator::new(&structure, cfg.periods).with_threads(0);
    let mode = par.mode_for(profiles.len());
    let mut par_nodes = 0;
    let parallel = min_elapsed(TIMING_ITERS, || {
        let (par_exp, _) = par.correlate(&profiles, StorageKind::Csr);
        par_nodes = par_exp.cct.len();
    });

    assert_eq!(seq_nodes, par_nodes);
    assert!(
        parallel < WALL_CLOCK_BUDGET,
        "64-rank parallel ingestion took {parallel:?}, budget {WALL_CLOCK_BUDGET:?}"
    );
    // The point of the pool + pruned pairwise merge: whenever the run
    // actually shards, parallel ingestion may never again lose to
    // sequential by more than timing slop. This keeps the bench record
    // from silently regressing back to the pre-pool numbers.
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
