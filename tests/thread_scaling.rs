//! Thread-scaling bench (run via `scripts/bench_smoke.sh`): every site
//! that fans out through `core::pool::chunked_map`, timed at
//! `threads ∈ {1, 2, 4, 8}` on the work it divides, into
//! `BENCH_thread_scaling.json` — the record behind DESIGN.md §13's "who
//! fans out and why". The ensemble union has a record of its own
//! (`BENCH_ensemble.json`); the correlator does not fan out (its verdict
//! is in EXPERIMENTS.md, "Correlation"). `cores` comes from
//! `available_parallelism`; on one core every `speedup` is null.
//!
//! `#[ignore]`d by default: wall-clock measurements belong in release builds
//! on a quiet machine, not in every `cargo test` run.

use callpath_expdb::{bin2, decode_all, open_lazy_path};
use callpath_parallel::{run_spmd, SpmdConfig};
use callpath_profiler::ExecConfig;
use callpath_workloads::pflotran;
use callpath_workloads::synth::{synth_model, SynthConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];
/// Min-of-N, the thread points interleaved so that a noisy minute on a
/// shared host falls on all of them: the fan-outs are milliseconds long.
const ITERS: usize = 25;
/// The million-node decode runs long enough to need fewer.
const LONG_ITERS: usize = 5;

/// One site's curve: `(threads, ms)` at every thread point.
struct Site {
    site: &'static str,
    work: String,
    iters: usize,
    points: Vec<(usize, f64)>,
}

fn curve(site: &'static str, work: String, iters: usize, mut run: impl FnMut(usize)) -> Site {
    let mut points: Vec<(usize, f64)> = THREAD_POINTS.map(|t| (t, f64::INFINITY)).to_vec();
    for _ in 0..iters {
        for (threads, best) in &mut points {
            let t = Instant::now();
            run(*threads);
            *best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    Site {
        site,
        work,
        iters,
        points,
    }
}

fn decode_site(dir: &Path, cfg: SynthConfig, iters: usize) -> Site {
    let path: PathBuf = dir.join(format!("thread_scaling_{}.cpdb", cfg.n_nodes));
    std::fs::write(&path, bin2::write_v21(&synth_model(&cfg))).expect("write synthetic database");
    let work = format!(
        "synthetic CCT, {} nodes x {} metrics x {} non-zeros",
        cfg.n_nodes + 1,
        cfg.n_metrics,
        cfg.nnz_per_metric
    );
    curve("expdb.decode_all", work, iters, |threads| {
        let e = open_lazy_path(&path).unwrap();
        decode_all(&e, threads);
        std::hint::black_box(&e);
    })
}

fn sites_json(sites: &[Site], cores: usize) -> String {
    let rows: Vec<String> = sites
        .iter()
        .map(|s| {
            let base_ms = s.points[0].1;
            let points: Vec<String> = s
                .points
                .iter()
                .map(|&(threads, ms)| {
                    let speedup = if cores == 1 {
                        "null".to_owned()
                    } else {
                        format!("{:.2}", base_ms / ms.max(1e-9))
                    };
                    format!(
                        "      {{ \"threads\": {threads}, \"ms\": {ms:.3}, \"speedup\": {speedup} }}"
                    )
                })
                .collect();
            format!(
                "    {{\n      \"site\": {:?},\n      \"work\": {:?},\n      \"iters\": {},\n      \"points\": [\n  {}\n      ]\n    }}",
                s.site,
                s.work,
                s.iters,
                points.join(",\n  ")
            )
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
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&dir).unwrap();
    let pool_before = callpath_core::pool::stats();

    let part = pflotran::Partition::default();
    let pflotran_scales: Vec<f64> = (0..64).map(|r| part.scale(r, 64)).collect();
    let sites = [
        // `batch_job`'s database, then the million-node one.
        decode_site(
            &dir,
            SynthConfig {
                seed: 23,
                n_nodes: 8000,
                n_metrics: 16,
                nnz_per_metric: 2048,
                n_procs: 500,
            },
            ITERS,
        ),
        decode_site(
            &dir,
            SynthConfig {
                n_metrics: 32,
                nnz_per_metric: 1024,
                ..SynthConfig::million()
            },
            LONG_ITERS,
        ),
        curve(
            "parallel.run_spmd",
            "pflotran x 64 ranks: simulation fanned out, then barriers and correlation".into(),
            ITERS,
            |threads| {
                let mut cfg = SpmdConfig::new(pflotran_scales.clone(), ExecConfig::default());
                cfg.threads = threads;
                std::hint::black_box(run_spmd(&pflotran::program(), &cfg));
            },
        ),
    ];
    let pool_after = callpath_core::pool::stats();

    let record = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"thread_scaling\",\n",
            "  \"cores\": {},\n",
            "  \"timing\": \"min of iters, thread points interleaved\",\n",
            "  \"sites\": {},\n",
            "  \"pool_tasks_run\": {},\n",
            "  \"pool_tasks_stolen\": {}\n",
            "}}\n"
        ),
        cores,
        sites_json(&sites, cores),
        pool_after.tasks_run - pool_before.tasks_run,
        pool_after.tasks_stolen - pool_before.tasks_stolen,
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_thread_scaling.json");
    std::fs::write(&path, &record).expect("write perf record");
    println!("perf record written to {}:\n{record}", path.display());
}
