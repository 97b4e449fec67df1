//! Zero-copy scaling smoke test (run via `scripts/bench_smoke.sh`):
//! open a ~10⁶-node, 1024-column synthetic database through the
//! mmap-backed lazy path and emit `BENCH_zero_copy.json`.
//!
//! This is the tentpole's acceptance gate at scale:
//!
//! * **cold open is topology-bounded** — opening the million-node file
//!   must cost at most 10× opening a 33-node file with the *same*
//!   metric schema, even though the big file carries ~30 000× more
//!   nodes (the open borrows the topology arrays and pays one
//!   structural O(n) scan);
//! * **first render faults only what it needs** — the fault counters
//!   must show one presentation-column fault (the sorted column), not
//!   one per column;
//! * **decode-all stays usable** — the everything-materialized path is
//!   recorded so batch-consumer regressions show up as diffs.
//!
//! `#[ignore]`d by default: timing assertions belong in release builds
//! on a quiet machine, not in every `cargo test` run.

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_expdb::{bin2, decode_all, open_lazy_path, FileImage};
use callpath_viewer::{Command, Session};
use callpath_workloads::synth::{synth_model, SynthConfig};
use std::time::Instant;

const ITERS: usize = 21;
/// The first render touches every node and runs an order of magnitude
/// slower than the lazy open; a handful of samples is enough for a
/// stable median without blowing the script's budget.
const HEAVY_ITERS: usize = 3;
/// Decode-all attributes all 1024 metrics over the million-node tree:
/// each costs what its ancestor chains touch (~12 % of the nodes), a few
/// seconds for all of them, so the median of three fits the budget.
const DECODE_ITERS: usize = 3;

/// Cold open must scale with the *touched* sections, not the node
/// count: the big open may cost at most this multiple of the small one.
const OPEN_SCALE_BUDGET: f64 = 10.0;

fn p50_ms_n(iters: usize, mut run: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[iters / 2]
}

fn p50_ms(run: impl FnMut()) -> f64 {
    p50_ms_n(ITERS, run)
}

/// The first-paint session script: one sorted visible column, hot path,
/// render. Returns the rendered text so the work cannot be optimized out.
fn first_render(exp: &Experiment) -> String {
    let mut session = Session::new(exp, SourceStore::new());
    for c in 1..exp.columns.column_count() as u32 {
        session.apply(Command::HideColumn(ColumnId(c))).unwrap();
    }
    session.apply(Command::SortBy(ColumnId(0))).unwrap();
    session.apply(Command::HotPath).unwrap();
    session.render()
}

fn write_db(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write synthetic database");
    path
}

#[test]
#[ignore = "wall-clock smoke test; run via scripts/bench_smoke.sh"]
fn zero_copy_smoke() {
    let big_cfg = SynthConfig::million();
    // Same metric schema, 33-node topology: the per-column descriptor
    // work is identical, so the open-time ratio isolates node scaling.
    let small_cfg = SynthConfig {
        n_nodes: 33,
        ..big_cfg
    };

    let big = synth_model(&big_cfg);
    let v21 = bin2::write_v21(&big);
    let small_v21 = bin2::write_v21(&synth_model(&small_cfg));
    let big_path = write_db("zero_copy_big.cpdb", &v21);
    let small_path = write_db("zero_copy_small.cpdb", &small_v21);
    let mapped = FileImage::open(&big_path).unwrap().is_mapped();

    let small_cold = p50_ms(|| {
        std::hint::black_box(open_lazy_path(&small_path).unwrap());
    });
    let big_cold = p50_ms(|| {
        std::hint::black_box(open_lazy_path(&big_path).unwrap());
    });

    // One cold first paint, with fault counters bracketing it.
    let faults_before = [
        callpath_obs::counter_value("expdb.lazy.fault.column"),
        callpath_obs::counter_value("expdb.lazy.fault.raw"),
        callpath_obs::counter_value("expdb.lazy.fault.mapped"),
    ];
    let e = open_lazy_path(&big_path).unwrap();
    std::hint::black_box(first_render(&e));
    let [fault_columns, fault_raw, fault_mapped] = [
        callpath_obs::counter_value("expdb.lazy.fault.column") - faults_before[0],
        callpath_obs::counter_value("expdb.lazy.fault.raw") - faults_before[1],
        callpath_obs::counter_value("expdb.lazy.fault.mapped") - faults_before[2],
    ];
    drop(e);
    if callpath_obs::enabled() {
        assert_eq!(
            fault_columns, 1,
            "first render must fault exactly the sorted column"
        );
    }

    let first = p50_ms_n(HEAVY_ITERS, || {
        let e = open_lazy_path(&big_path).unwrap();
        std::hint::black_box(first_render(&e));
    });
    let decode_all_ms = p50_ms_n(DECODE_ITERS, || {
        let e = open_lazy_path(&big_path).unwrap();
        decode_all(&e, 0);
        std::hint::black_box(&e);
    });

    let ratio = big_cold / small_cold.max(1e-9);
    assert!(
        ratio <= OPEN_SCALE_BUDGET,
        "million-node cold open ({big_cold:.3} ms) is {ratio:.1}x the 33-node open \
         ({small_cold:.3} ms); budget is {OPEN_SCALE_BUDGET}x"
    );

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mode = if resolve_threads(0) > 1 {
        "parallel"
    } else {
        "sequential"
    };
    let record = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"zero_copy\",\n",
            "  \"workload\": \"synthetic CCT, seed {}\",\n",
            "  \"cores\": {},\n",
            "  \"mode\": \"{}\",\n",
            "  \"mmap\": {},\n",
            "  \"cct_nodes\": {},\n",
            "  \"metrics\": {},\n",
            "  \"nnz_per_metric\": {},\n",
            "  \"v21_bytes\": {},\n",
            "  \"iters\": {},\n",
            "  \"heavy_iters\": {},\n",
            "  \"decode_iters\": {},\n",
            "  \"small_cct_nodes\": {},\n",
            "  \"small_cold_open_p50_ms\": {:.3},\n",
            "  \"cold_open_p50_ms\": {:.3},\n",
            "  \"open_scale_ratio\": {:.2},\n",
            "  \"open_scale_budget\": {:.1},\n",
            "  \"first_render_p50_ms\": {:.3},\n",
            "  \"first_render_fault_columns\": {},\n",
            "  \"first_render_fault_raw\": {},\n",
            "  \"first_render_fault_mapped\": {},\n",
            "  \"decode_all_p50_ms\": {:.3}\n",
            "}}\n"
        ),
        big_cfg.seed,
        cores,
        mode,
        mapped,
        big_cfg.n_nodes + 1,
        big_cfg.n_metrics,
        big_cfg.nnz_per_metric,
        v21.len(),
        ITERS,
        HEAVY_ITERS,
        DECODE_ITERS,
        small_cfg.n_nodes + 1,
        small_cold,
        big_cold,
        ratio,
        OPEN_SCALE_BUDGET,
        first,
        fault_columns,
        fault_raw,
        fault_mapped,
        decode_all_ms,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_zero_copy.json");
    std::fs::write(&path, &record).expect("write perf record");
    println!("perf record written to {}:\n{record}", path.display());
}
