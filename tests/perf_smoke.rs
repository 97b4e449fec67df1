//! Perf smoke test (run via `scripts/bench_smoke.sh`): ingest a 64-rank
//! workload through `ParallelCorrelator` (the correlator's `add` loop),
//! assert the wall-clock stays within budget, and emit a JSON perf
//! record (`BENCH_ingestion_smoke.json`) so regressions show up as diffs
//! rather than vibes.
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

    // `ParallelCorrelator::correlate` hands back every rank's costs as
    // well as the experiment, which is what `run_spmd` asks of it.
    let correlator = ParallelCorrelator::new(&structure, cfg.periods);
    let mut cct_nodes = 0;
    let mut ingest = Duration::MAX;
    for _ in 0..TIMING_ITERS {
        let t = Instant::now();
        cct_nodes = correlator
            .correlate(&profiles, StorageKind::Csr)
            .0
            .cct
            .len();
        ingest = ingest.min(t.elapsed());
    }
    assert!(
        ingest < WALL_CLOCK_BUDGET,
        "64-rank ingestion took {ingest:?}, budget {WALL_CLOCK_BUDGET:?}"
    );

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let (setup_ms, ingest_ms) = (setup.as_secs_f64() * 1e3, ingest.as_secs_f64() * 1e3);
    let budget_ms = WALL_CLOCK_BUDGET.as_millis();
    let record = format!(
        r#"{{
  "bench": "ingestion_smoke",
  "n_ranks": {N_RANKS},
  "cores": {cores},
  "cct_nodes": {cct_nodes},
  "setup_ms": {setup_ms:.3},
  "sequential_ingest_ms": {ingest_ms:.3},
  "budget_ms": {budget_ms}
}}
"#
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_ingestion_smoke.json");
    std::fs::write(&path, &record).expect("write perf record");
    println!("perf record written to {}:\n{record}", path.display());
}
