//! Storage-path smoke test (run via `scripts/bench_smoke.sh`): measure
//! cold-open, first-render and full-decode latency of the experiment
//! database formats on the s3d workload and emit a JSON perf record
//! (`BENCH_expdb_open.json`).
//!
//! The acceptance criterion for the lazy storage path lives here: the
//! lazy CPDB open (topology only) **and** its first render (fault in
//! just the sorted column) must both beat a full XML parse.
//!
//! "First render" is the interactive first paint: open the database,
//! start a session on the Calling Context View, show only the column the
//! view sorts by (the metric-properties dialog), run hot-path analysis
//! and render. On CPDB that faults exactly one presentation column; XML
//! pays its full parse first.
//!
//! `#[ignore]`d by default: timing assertions belong in release builds
//! on a quiet machine, not in every `cargo test` run.

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_expdb::{decode_all, from_xml, open_lazy, to_binary_v21, to_xml};
use callpath_profiler::ExecConfig;
use callpath_viewer::{Command, Session};
use callpath_workloads::{pipeline, s3d};
use std::time::Instant;

const ITERS: usize = 21;

/// Median of `ITERS` timed runs, in milliseconds.
fn p50_ms(mut run: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[ITERS / 2]
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

const RANKS: usize = 64;

/// The s3d workload at database scale: one raw metric column **per
/// simulated rank** per counter, the shape real HPCToolkit databases
/// have (and the reason its later sparse formats load measurement data
/// on demand). Rank columns are the base s3d profile scaled by a
/// deterministic per-rank imbalance factor.
fn s3d_rank_database() -> Experiment {
    let base = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let n_nodes = base.cct.len() as u32;
    let mut raw = RawMetrics::new(StorageKind::Csr);
    for r in 0..RANKS {
        let scale = 1.0 + (r % 8) as f64 * 0.03;
        for m in 0..base.raw.metric_count() as u32 {
            let desc = base.raw.desc(MetricId(m));
            let id = raw.add_metric(MetricDesc::new(
                &format!("{}@{r:03}", desc.name),
                &desc.unit,
                desc.period,
            ));
            let costs: Vec<(NodeId, f64)> = (0..n_nodes)
                .filter_map(|n| {
                    let v = base.raw.direct(MetricId(m), NodeId(n));
                    (v != 0.0).then_some((NodeId(n), v * scale))
                })
                .collect();
            raw.add_costs(id, &costs);
        }
    }
    Experiment::build(base.cct.clone(), raw, StorageKind::Csr)
}

#[test]
#[ignore = "wall-clock smoke test; run via scripts/bench_smoke.sh"]
fn expdb_open_smoke() {
    let exp = s3d_rank_database();
    let xml = to_xml(&exp);
    let v21 = to_binary_v21(&exp);

    let xml_cold = p50_ms(|| {
        std::hint::black_box(from_xml(&xml).unwrap());
    });
    let xml_first = p50_ms(|| {
        let e = from_xml(&xml).unwrap();
        std::hint::black_box(first_render(&e));
    });
    let v21_cold = p50_ms(|| {
        std::hint::black_box(open_lazy(v21.clone()).unwrap());
    });
    let v21_first = p50_ms(|| {
        let e = open_lazy(v21.clone()).unwrap();
        std::hint::black_box(first_render(&e));
    });
    let v21_decode_all = p50_ms(|| {
        let e = open_lazy(v21.clone()).unwrap();
        decode_all(&e, 0);
        std::hint::black_box(&e);
    });

    // The acceptance gate: the lazy open and the lazy first paint both
    // strictly beat a full XML parse.
    assert!(
        v21_cold < xml_cold,
        "lazy cold open ({v21_cold:.3} ms) must beat the XML full parse ({xml_cold:.3} ms)"
    );
    assert!(
        v21_first < xml_cold,
        "lazy first render ({v21_first:.3} ms) must beat the XML full parse ({xml_cold:.3} ms)"
    );

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let record = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"expdb_open\",\n",
            "  \"workload\": \"s3d, one metric column per rank\",\n",
            "  \"cores\": {},\n",
            "  \"mode\": \"single_thread\",\n",
            "  \"ranks\": {},\n",
            "  \"cct_nodes\": {},\n",
            "  \"metrics\": {},\n",
            "  \"iters\": {},\n",
            "  \"first_render_scenario\": \"CCV hot path, single sorted column\",\n",
            "  \"xml_bytes\": {},\n",
            "  \"v21_bytes\": {},\n",
            "  \"xml_cold_open_p50_ms\": {:.3},\n",
            "  \"xml_first_render_p50_ms\": {:.3},\n",
            "  \"v21_cold_open_p50_ms\": {:.3},\n",
            "  \"v21_first_render_p50_ms\": {:.3},\n",
            "  \"v21_decode_all_p50_ms\": {:.3}\n",
            "}}\n"
        ),
        cores,
        RANKS,
        exp.cct.len(),
        exp.raw.metric_count(),
        ITERS,
        xml.len(),
        v21.len(),
        xml_cold,
        xml_first,
        v21_cold,
        v21_first,
        v21_decode_all,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_expdb_open.json");
    std::fs::write(&path, &record).expect("write perf record");
    println!("perf record written to {}:\n{record}", path.display());
}
