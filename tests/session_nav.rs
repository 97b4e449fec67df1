//! Session navigation at depth and at speed.
//!
//! * Depth tests (plain `cargo test`): a 100 000-level chain renders
//!   through both walkers on a 64 KiB stack; a 2 000-level hot path keeps
//!   every row's label, column alignment and byte budget; rows above the
//!   indentation gutter are byte-identical to the renderer before it.
//! * Navigation-latency smoke test (run via `scripts/bench_smoke.sh`):
//!   drive an interactive [`Session`] over the S3D workload through the
//!   three hot interactive operations — expand-everything, re-sort on a
//!   warm view, hot-path walk — plus a re-render of a 2 000-level hot
//!   path, and emit the latencies as a JSON perf record
//!   (`BENCH_session_nav.json`). `#[ignore]`d by default: latency numbers
//!   belong in release builds on a quiet machine, not in every
//!   `cargo test` run.

use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_expdb::{bin2, open_lazy};
use callpath_profiler::ExecConfig;
use callpath_viewer::{render, Command, RenderConfig, Session};
use callpath_workloads::synth::{synth_model, SynthConfig};
use callpath_workloads::{pipeline, s3d};
use std::time::{Duration, Instant};

const SAMPLES: usize = 40;

/// A single chain of `depth` frames, all cost on one statement under the
/// last: the shape a long hot path leaves on screen.
fn chain(depth: usize) -> Experiment {
    let mut names = NameTable::new();
    let file = names.file("chain.c");
    let module = names.module("chain");
    let procs: Vec<ProcId> = (0..depth)
        .map(|i| names.proc(&format!("level_{i:06}_of_the_chain")))
        .collect();
    let mut cct = Cct::new(names);
    let mut at = cct.root();
    for (i, &proc) in procs.iter().enumerate() {
        at = cct.add_child(
            at,
            ScopeKind::Frame {
                proc,
                module,
                def: SourceLoc::new(file, 1 + i as u32),
                call_site: None,
            },
        );
    }
    let leaf = cct.add_child(
        at,
        ScopeKind::Stmt {
            loc: SourceLoc::new(file, 1 + depth as u32),
        },
    );
    let mut raw = RawMetrics::new(StorageKind::Csr);
    let cycles = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
    raw.add_cost(cycles, leaf, 100.0);
    Experiment::build(cct, raw, StorageKind::Csr)
}

/// A session with the whole chain expanded by repeated hot-path analysis
/// from the selection (each application descends `HotPathConfig`'s 512
/// levels).
fn chain_session(exp: &Experiment, depth: usize) -> Session<'_> {
    let mut s = Session::new(exp, SourceStore::new());
    for _ in 0..depth.div_ceil(512) {
        s.apply(Command::HotPath).unwrap();
    }
    s
}

/// Run `f` on a thread with a 64 KiB stack: whatever recurses per tree
/// level overflows it long before the depths below.
fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn_scoped(scope, f)
            .expect("spawn the render thread")
            .join()
            .expect("the render thread panicked")
    })
}

#[test]
fn a_hundred_thousand_levels_render_on_a_64k_stack() {
    const DEPTH: usize = 100_000;
    let exp = chain(DEPTH);
    let (text, rows) = on_small_stack(|| chain_session(&exp, DEPTH).render_numbered());
    assert_eq!(rows.len(), DEPTH + 1, "every frame and the statement");
    assert!(text.contains("⋯100000"), "the statement's depth marker");
    let text = on_small_stack(|| {
        let cfg = RenderConfig {
            max_depth: usize::MAX,
            ..RenderConfig::default()
        };
        render(&mut View::calling_context(&exp), &cfg)
    });
    assert_eq!(text.lines().count(), 2 + DEPTH + 1);
    assert!(text.contains("⋯100000"));
}

/// The table stays a table at any depth: every row's first cell ends in
/// the same column, the scope's name is still readable, and a row costs
/// bytes by its columns, not by its depth — the count-based guard that
/// O(depth²) output cannot come back.
#[test]
fn deep_rows_keep_their_label_their_columns_and_their_size() {
    const DEPTH: usize = 2_000;
    let exp = chain(DEPTH);
    let cfg = RenderConfig::default();
    let row_budget = cfg.label_width + 4 + 19 * 2 + 16;
    let first_cell_end = cfg.label_width + 4 + 19;
    let check = |text: &str, label_chars: usize| {
        let rows: Vec<&str> = text.lines().skip(2).take(DEPTH + 1).collect();
        assert_eq!(rows.len(), DEPTH + 1);
        for (depth, row) in rows.iter().enumerate().take(DEPTH) {
            let cell = row.find("1.00e2 100.0%").expect("the inclusive cell");
            assert_eq!(
                row[..cell].chars().count() + "1.00e2 100.0%".len(),
                first_cell_end,
                "depth {depth}: {row:?}"
            );
            let label = format!("level_{depth:06}_of_the_chain");
            assert!(
                row.contains(&label[..label_chars]),
                "depth {depth} lost its name: {row:?}"
            );
        }
        assert!(
            text.len() <= rows.len() * row_budget,
            "{} bytes for {} rows",
            text.len(),
            rows.len()
        );
    };
    let fixed = render(
        &mut View::calling_context(&exp),
        &RenderConfig {
            max_depth: usize::MAX,
            ..cfg.clone()
        },
    );
    check(&fixed, 19);
    // A session row spends up to four label columns on its marks (`»🔥▼ `).
    let mut session = chain_session(&exp, DEPTH);
    check(&session.render(), 15);
}

/// Rows at depth ≤ 12 are written byte for byte as before the gutter
/// existed (the excerpt is the previous renderer's output); from 13 on
/// the gutter carries the depth instead of growing.
#[test]
fn the_gutter_changes_no_row_above_it() {
    let exp = chain(40);
    let text = render(&mut View::calling_context(&exp), &RenderConfig::default());
    let rows: Vec<&str> = text.lines().skip(2).collect();
    let unchanged = [
        (
            0,
            "level_000000_of_the_chain                             1.00e2 100.0%",
        ),
        (
            1,
            "  level_000001_of_the_chain                           1.00e2 100.0%",
        ),
        (
            9,
            "                  level_000009_of_the_chain           1.00e2 100.0%",
        ),
        (
            10,
            "                    level_000010_of_the_cha…          1.00e2 100.0%",
        ),
        (
            12,
            "                        level_000012_of_the…          1.00e2 100.0%",
        ),
    ];
    for (depth, row) in unchanged {
        assert_eq!(rows[depth], row, "depth {depth}");
    }
    assert_eq!(
        rows[13],
        "⋯13                     level_000013_of_the…          1.00e2 100.0%"
    );
    assert_eq!(
        rows[40],
        "⋯40                     chain.c:41                    1.00e2 100.0%      1.00e2 100.0%"
    );

    let text = chain_session(&exp, 40).render();
    let rows: Vec<&str> = text.lines().skip(2).collect();
    assert_eq!(
        rows[12],
        "                        🔥▼ level_000012_of_…          1.00e2 100.0%"
    );
    assert_eq!(
        rows[13],
        "⋯13                     🔥▼ level_000013_of_…          1.00e2 100.0%"
    );
}

/// Apply `cmds` to the warm session, render it, and check the render:
/// it equals a fresh session's replay of every command so far (`done`),
/// and row `i` opens with its number and its gutter as `core::fmt`
/// writes them, sits under the nearest row above it one level up, and
/// shows a scope no other row shows. Returns the rows and their lines.
fn warm_equals_cold(
    exp: &Experiment,
    warm: &mut Session<'_>,
    done: &mut Vec<Command>,
    cmds: Vec<Command>,
) -> (Vec<u32>, Vec<String>) {
    for c in cmds {
        warm.apply(c.clone()).expect("a scripted command applies");
        done.push(c);
    }
    let (text, rows) = warm.render_numbered();
    let mut cold = Session::new(exp, SourceStore::new());
    for c in done.iter() {
        cold.apply(c.clone()).expect("a replayed command applies");
    }
    assert!(
        cold.render_numbered() == (text.clone(), rows.clone()),
        "after {done:?}"
    );

    let topo = exp.cct.topo();
    let lines: Vec<String> = text
        .lines()
        .skip(2)
        .take(rows.len())
        .map(String::from)
        .collect();
    let mut path: Vec<u32> = Vec::new();
    for (i, (&n, line)) in rows.iter().zip(&lines).enumerate() {
        let depth = topo.ancestors(NodeId(n)).count() - 1;
        let gutter = if depth <= 12 {
            "  ".repeat(depth)
        } else {
            format!("⋯{depth:<23}")
        };
        let head = format!("[{i:>3}] {gutter}");
        assert!(
            line.starts_with(&head),
            "row {i} at depth {depth}: {line:?}"
        );
        path.truncate(depth);
        assert_eq!(path.len(), depth, "row {i} skips a level");
        if let Some(&parent) = path.last() {
            assert_eq!(topo.parent(NodeId(n)), Some(NodeId(parent)), "row {i}");
        }
        path.push(n);
    }
    let mut unique = rows.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), rows.len(), "a scope shown twice");
    (rows, lines)
}

/// The benchmark's large-database script at test size: one column shown,
/// then eight times the swap to a fresh column — hide, show, sort, hot
/// path — each opening a new hot path beside the old ones, then a repeat
/// render, a name sort on and off, and a collapse, every render checked
/// by [`warm_equals_cold`]. The script reaches rows past the gutter
/// levels and past row 999, which small random sessions never do.
#[test]
fn a_deep_session_renders_what_a_cold_replay_renders() {
    let model = synth_model(&SynthConfig {
        seed: 44,
        n_nodes: 20_000,
        n_metrics: 16,
        nnz_per_metric: 1024,
        n_procs: 500,
    });
    let exp = open_lazy(bin2::write_v21(&model)).expect("open the synthetic database");
    let topo = exp.cct.topo();
    let mut script: Vec<Vec<Command>> = Vec::new();
    let columns = exp.columns.column_count() as u32;
    let hide = (1..columns).map(|c| Command::HideColumn(ColumnId(c)));
    script.push(
        hide.chain([Command::SortBy(ColumnId(0)), Command::HotPath])
            .collect(),
    );
    for m in 1..=8 {
        let (old, new) = (ColumnId(2 * (m - 1)), ColumnId(2 * m));
        script.push(vec![
            Command::HideColumn(old),
            Command::ShowColumn(new),
            Command::SortBy(new),
            Command::HotPath,
        ]);
    }
    script.push(Vec::new());
    script.push(vec![Command::SortByName(true)]);
    script.push(vec![Command::SortByName(false)]);

    let mut warm = Session::new(&exp, SourceStore::new());
    let mut done = Vec::new();
    let (mut deepest, mut most_rows) = (0, 0);
    let mut last = (Vec::new(), Vec::new());
    for cmds in script {
        last = warm_equals_cold(&exp, &mut warm, &mut done, cmds);
        let rows = &last.0;
        let depths = rows.iter().map(|&n| topo.ancestors(NodeId(n)).count() - 1);
        deepest = deepest.max(depths.max().unwrap_or(0));
        most_rows = most_rows.max(rows.len());
    }
    assert!(deepest > 12, "the deepest row sits at depth {deepest}");
    assert!(most_rows > 1000, "the longest render has {most_rows} rows");

    // Collapse an expanded scope halfway down the screen.
    let (rows, lines) = last;
    let expanded = (rows.len() / 2..rows.len()).find(|&i| lines[i].contains('▼'));
    let n = rows[expanded.expect("an expanded row below the middle")];
    let (after, _) = warm_equals_cold(&exp, &mut warm, &mut done, vec![Command::Collapse(n)]);
    assert!(after.len() < rows.len(), "the collapse hid rows");
}

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

/// p50 and p95 (nearest-rank) of a latency sample, in milliseconds.
fn percentiles(mut samples: Vec<Duration>) -> (f64, f64) {
    samples.sort_unstable();
    let rank = |p: f64| {
        let i = ((p * samples.len() as f64).ceil() as usize).max(1) - 1;
        samples[i.min(samples.len() - 1)].as_secs_f64() * 1e3
    };
    (rank(0.50), rank(0.95))
}

#[test]
#[ignore = "latency smoke test; run via scripts/bench_smoke.sh"]
fn session_navigation_latency_smoke() {
    let exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );

    // Cold expand-everything: fresh session each sample, so lazy fills
    // and first-time sorts are inside the measurement.
    let mut expand = Vec::with_capacity(SAMPLES);
    let mut rows = 0;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let mut s = Session::new(&exp, SourceStore::new());
        expand_all(&mut s);
        rows = s.render().lines().count();
        expand.push(t.elapsed());
    }

    // Warm re-sort: one fully expanded session, flip the sort column.
    let mut s = Session::new(&exp, SourceStore::new());
    expand_all(&mut s);
    s.apply(Command::SortBy(ColumnId(1))).unwrap();
    s.render();
    s.apply(Command::SortBy(ColumnId(0))).unwrap();
    s.render();
    let (_, sorts_before) = s.sort_stats();
    let mut resort = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let t = Instant::now();
        s.apply(Command::SortBy(ColumnId((i % 2) as u32))).unwrap();
        s.render();
        resort.push(t.elapsed());
    }
    let (_, sorts_after) = s.sort_stats();
    assert_eq!(
        sorts_after, sorts_before,
        "warm re-sort must be cache-served"
    );

    // Hot-path walk: analysis from the top plus a re-render.
    let mut s = Session::new(&exp, SourceStore::new());
    let mut hot = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        s.apply(Command::HotPath).unwrap();
        s.render();
        hot.push(t.elapsed());
    }

    // Deep render: a 2 000-level hot path, fully expanded, re-rendered.
    let deep_exp = chain(2_000);
    let mut s = chain_session(&deep_exp, 2_000);
    let mut deep = Vec::with_capacity(SAMPLES);
    let mut deep_bytes = 0;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        deep_bytes = s.render().len();
        deep.push(t.elapsed());
    }

    let (expand_p50, expand_p95) = percentiles(expand);
    let (resort_p50, resort_p95) = percentiles(resort);
    let (hot_p50, hot_p95) = percentiles(hot);
    let (deep_p50, _) = percentiles(deep);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let record = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"session_nav\",\n",
            "  \"workload\": \"s3d\",\n",
            "  \"cores\": {},\n",
            "  \"mode\": \"single_thread\",\n",
            "  \"rows\": {},\n",
            "  \"samples\": {},\n",
            "  \"expand_all_p50_ms\": {:.3},\n",
            "  \"expand_all_p95_ms\": {:.3},\n",
            "  \"resort_p50_ms\": {:.3},\n",
            "  \"resort_p95_ms\": {:.3},\n",
            "  \"hot_path_p50_ms\": {:.3},\n",
            "  \"hot_path_p95_ms\": {:.3},\n",
            "  \"deep_render_p50_ms\": {:.3},\n",
            "  \"deep_render_bytes\": {}\n",
            "}}\n"
        ),
        cores,
        rows,
        SAMPLES,
        expand_p50,
        expand_p95,
        resort_p50,
        resort_p95,
        hot_p50,
        hot_p95,
        deep_p50,
        deep_bytes,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_session_nav.json");
    std::fs::write(&path, &record).expect("write perf record");
    println!("perf record written to {}:\n{record}", path.display());
}
