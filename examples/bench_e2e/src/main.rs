//! `bench_e2e` — the repository's end-to-end benchmark (README.md in
//! the package directory; BENCHMARK.json at the repository root).
//!
//! ```text
//! bench_e2e --workload nav_mid --seed 1 --seconds 10 --trace 0
//! bench_e2e --all [--seed N] [--seconds S] [--repeat K]
//! bench_e2e --check
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! other two forms start one child process per workload run.

mod adapter;
mod batch;
mod harness;
mod metrics;
mod nav;
mod serve;
#[cfg(test)]
mod tests;
mod trace;

use harness::{Ctx, Outcome};
use metrics::{
    median, percentile, MetricDef, Values, END_TO_END, ERROR_RATE, PER_LAYER, WORKLOADS,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: bench_e2e --workload <NAME> --seed <N> --seconds <S> --trace <0|1>
       bench_e2e --all [--seed <N>] [--seconds <S>] [--repeat <K>]
       bench_e2e --check
options:
  --serve-bin <PATH>   the callpath-serve binary [default: beside this one]
  --out <DIR>          where traces and scratch files go
                       [default: bench_e2e_out beside this binary]
workloads: nav_mid nav_large serve_loopback batch_job";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    check: bool,
    repeat: usize,
    serve_bin: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let beside = exe.parent().unwrap_or(Path::new(".")).to_owned();
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        all: false,
        check: false,
        repeat: 1,
        serve_bin: beside.join("callpath-serve"),
        out: beside.join("bench_e2e_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: '{v}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--repeat" => args.repeat = number(value()?)? as usize,
            "--serve-bin" => args.serve_bin = value()?.into(),
            "--out" => args.out = value()?.into(),
            "--all" => args.all = true,
            "--check" => args.check = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.repeat == 0 {
        return Err("--seconds and --repeat must be positive".into());
    }
    Ok(args)
}

/// Scratch directory of one process; removed when the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    Ok(match name {
        "nav_mid" => nav::nav_mid(ctx),
        "nav_large" => nav::nav_large(ctx),
        "serve_loopback" => serve::serve_loopback(ctx),
        "batch_job" => batch::batch_job(ctx),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// `callpath-obs` cost of one span open + close, in ns: the median over
/// batches of a tight loop.
fn obs_span_pair_ns() -> f64 {
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let (_, ns) = trace::timed(|| {
                for _ in 0..2000 {
                    drop(std::hint::black_box(callpath_obs::span("bench.probe")));
                }
            });
            ns as f64 / 2000.0
        })
        .collect();
    median(&batches)
}

/// The per-layer table of a traced run: p50 of every span that names a
/// metric, the numbers the workload counted itself, and what the spans
/// say about where an operation's time went.
fn per_layer(out: &Outcome) -> Values {
    let b = &out.blocks;
    let t = &b.tracer;
    let wall = t.op_wall_ns().max(1) as f64;
    let by_layer = t.self_by_layer();
    let share = |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / wall * 100.0;
    let mut v = Values::new();
    for def in &PER_LAYER {
        let name = def.name;
        if let Some(span) = name.strip_suffix("_self_ms_p50") {
            v.insert(name, median(&t.self_ms(span)));
        } else if let Some(span) = name.strip_suffix("_ms_p50") {
            v.insert(name, median(&t.durations_ms(span)));
        } else if let Some(layer) = name.strip_prefix("share.") {
            v.insert(name, share(layer.trim_end_matches("_pct")));
        }
    }
    v.extend(out.layer.iter().map(|(k, x)| (*k, *x)));
    v.insert("bench.unexplained_pct", share("unexplained"));

    // The operations around the median, and the ones in the tail.
    let own = t.self_ns();
    let spans = t.spans();
    let mut ops: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].top_level() && spans[i].name.starts_with("op."))
        .collect();
    ops.sort_by_key(|&i| spans[i].dur_ns);
    if !ops.is_empty() {
        let band = &ops[ops.len() * 45 / 100..(ops.len() * 55 / 100 + 1).min(ops.len())];
        let band_ops: std::collections::HashSet<u32> = band.iter().map(|&i| spans[i].op).collect();
        let band_wall: u64 = band.iter().map(|&i| spans[i].dur_ns).sum();
        let (mut fault_attr, mut render_sort, mut faults) = (0u64, 0u64, 0usize);
        for (s, own) in spans.iter().zip(&own) {
            if !band_ops.contains(&s.op) {
                continue;
            }
            match s.name {
                "expdb.fault_column" => {
                    fault_attr += own;
                    faults += 1;
                }
                "core.attribute" => fault_attr += own,
                "viewer.render" | "core.sort" => render_sort += own,
                _ => {}
            }
        }
        let pct = |ns: u64| ns as f64 / band_wall.max(1) as f64 * 100.0;
        v.insert("median_op.expdb_core_pct", pct(fault_attr));
        v.insert("median_op.viewer_self_sort_pct", pct(render_sort));
        v.insert(
            "median_op.columns_faulted",
            faults as f64 / band.len() as f64,
        );
        let tail = &ops[(ops.len() * 95).div_ceil(100).min(ops.len() - 1)..];
        let views = tail
            .iter()
            .filter(|&&i| spans[i].name.starts_with("op.view_"))
            .count();
        v.insert(
            "tail_ops.view_build_pct",
            views as f64 / tail.len() as f64 * 100.0,
        );
    }

    if !b.plain.op_ms.is_empty() {
        // Same number of sessions, interleaved: whole-sample medians.
        let (plain, traced) = (median(&b.plain.op_ms), median(&b.measured.op_ms));
        v.insert("bench.trace_overhead_pct", (traced - plain) / plain * 100.0);
    }
    v.insert("bench.ops_traced", b.measured.op_ms.len() as f64);
    v.insert("bench.host_cores", host_cores() as f64);
    v.insert("serve.rtt_ms_p50", median(&t.durations_ms("serve.wire")));
    v.insert("serve.wire_ms_p50", median(&t.self_ms("serve.wire")));
    v.insert(
        "expdb.bytes_per_nnz",
        out.db_bytes as f64 / out.db_nnz as f64,
    );
    v.insert("obs.span_pair_ns_p50", obs_span_pair_ns());
    v.insert("obs.spans_per_op", b.obs_spans_per_op);
    let pool = callpath_core::pool::stats();
    v.insert("core.pool_tasks_run", pool.tasks_run as f64);
    v.insert("core.pool_tasks_stolen", pool.tasks_stolen as f64);
    v
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The contract's last line: one JSON object. An end-to-end metric
/// without a finite value is an error, not a 0 that would read as a
/// gain; a per-layer metric of a layer the workload does not reach is 0.
fn result_json(defs: &[MetricDef], values: &Values, out: &Outcome) -> Result<String, String> {
    let (failed, attempted) = out.blocks.failed_of_attempted();
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let x = match values.get(d.name) {
            Some(x) if x.is_finite() => *x,
            _ if d.bound > 0.0 => return Err(format!("{} has no finite value", d.name)),
            _ => 0.0,
        };
        metrics.push(format!(
            "\"{}\": {{\"value\": {x}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}

/// Run one workload in this process and print the contract's result.
/// The result line carries `correct`; whoever reads it decides.
fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let tmp = TempDir(args.out.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        check: args.check,
        tmp: tmp.0.clone(),
        serve_bin: args.serve_bin.clone(),
    };
    let started = std::time::Instant::now();
    let out = run_workload(name, &ctx)?;
    let b = &out.blocks;

    println!(
        "# {name}: seed {} host_cores {} commit {} trace {}",
        args.seed,
        host_cores(),
        std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        args.trace as u8
    );
    println!(
        "# set-up x{}: {:?} s; warm-up block {} ops; measured block {} ops ({} sessions) in {:.3} s; \
         interleaved untraced {} ops; run wall {:.3} s",
        out.setup_s.len(),
        out.setup_s,
        b.warmup.op_ms.len(),
        b.measured.op_ms.len(),
        b.sessions,
        b.measured_wall_s,
        b.plain.op_ms.len(),
        started.elapsed().as_secs_f64()
    );
    let mut kinds: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (kind, ms) in b.measured.op_kind.iter().zip(&b.measured.op_ms) {
        kinds.entry(kind).or_default().push(*ms);
    }
    for (kind, ms) in &kinds {
        println!(
            "#   {kind:<18} n {:>5}  p50 {:>10.4} ms  quiet quarter p50 {:>10.4} ms",
            ms.len(),
            median(ms),
            median(&harness::quiet(ms))
        );
    }
    // What the quiet sample leaves out, for anyone to see.
    println!(
        "# whole block, host interference included: first_paint_ms_p50 {:.4} op_ms_p50 {:.4} \
         op_ms_p95 {:.4} ops per wall second {:.4}",
        median(&b.measured.first_paint_ms),
        median(&b.measured.op_ms),
        percentile(&b.measured.op_ms, 0.95),
        b.measured.op_ms.len() as f64 / b.measured_wall_s
    );
    for why in b
        .warmup
        .failures
        .iter()
        .chain(&b.plain.failures)
        .chain(&b.measured.failures)
    {
        println!("# FAILED: {why}");
    }
    let (defs, values): (&[MetricDef], Values) = if args.trace {
        std::fs::write(
            args.out.join(format!("trace_{name}.json")),
            b.tracer.to_json(),
        )
        .and_then(|_| {
            std::fs::write(
                args.out.join(format!("trace_{name}.folded")),
                b.tracer.folded(),
            )
        })
        .map_err(|e| format!("cannot write the trace: {e}"))?;
        (&PER_LAYER, per_layer(&out))
    } else {
        (&END_TO_END, out.end_to_end())
    };
    for d in defs {
        println!(
            "{:<40} {:>16.4} {:<8} ({} is better)",
            d.name,
            values.get(d.name).copied().unwrap_or(0.0),
            d.unit,
            d.better
        );
    }
    let (failed, attempted) = b.failed_of_attempted();
    println!(
        "{:<40} {:>16.4} {:<8} ({} is better)",
        ERROR_RATE.name,
        failed as f64 / attempted as f64,
        ERROR_RATE.unit,
        ERROR_RATE.better
    );
    if !args.trace {
        println!(
            "{:<40} {:>16} count    (of {} in the block)",
            "n_ops",
            b.measured.quiet_ops().len(),
            b.measured.op_ms.len()
        );
    }
    println!("{}", result_json(defs, &values, &out)?);
    Ok(())
}

/// Start this binary again for one workload run and parse its last line.
fn child_run(
    args: &Args,
    name: &str,
    trace: bool,
    extra: &[&str],
) -> Result<(bool, Vec<(String, f64)>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--serve-bin")
        .arg(&args.serve_bin)
        .arg("--out")
        .arg(&args.out)
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let v = callpath_core::jsonval::parse(last)
        .map_err(|e| format!("{name}: no result line ({e}); exit {}", output.status))?;
    let correct = v.get("correct").and_then(|c| c.as_bool()) == Some(true);
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut values: Vec<(String, f64)> = defs
        .iter()
        .filter_map(|d| {
            let x = v.get("metrics")?.get(d.name)?.get("value")?.as_f64()?;
            Some((d.name.to_owned(), x))
        })
        .collect();
    let count = |key: &str| v.get(key).and_then(|c| c.as_f64());
    if let (false, Some(failed), Some(attempted)) = (trace, count("failed"), count("attempted")) {
        values.push((ERROR_RATE.name.to_owned(), failed / attempted));
    }
    Ok((correct && output.status.success(), values))
}

/// `--all`: every workload, untraced then traced, `--repeat` times, one
/// child process each; the order of workloads rotates between rounds.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    // (workload, metric) -> one value per round.
    let mut rounds: std::collections::BTreeMap<(String, String), Vec<f64>> = Default::default();
    for round in 0..args.repeat {
        for i in 0..WORKLOADS.len() {
            let name = WORKLOADS[(i + round) % WORKLOADS.len()];
            for trace in [false, true] {
                let (correct, values) = child_run(args, name, trace, &[])?;
                ok &= correct;
                for (metric, x) in values {
                    rounds.entry((name.to_owned(), metric)).or_default().push(x);
                }
            }
        }
    }
    println!(
        "{:<16} {:<40} {:>14} {:<8} values",
        "workload", "metric", "median", "unit"
    );
    for ((workload, metric), xs) in &rounds {
        let def = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain([&ERROR_RATE])
            .find(|d| d.name == metric);
        let (unit, bound) = def.map_or(("", 0.0), |d| (d.unit, d.bound));
        let mid = median(xs);
        let mut line = format!("{workload:<16} {metric:<40} {mid:>14.4} {unit:<8}");
        if args.repeat > 1 {
            let spread =
                (percentile(xs, 1.0) - percentile(xs, 0.0)) / mid.abs().max(f64::MIN_POSITIVE);
            line += &format!(" {xs:?} spread {:.2}%", spread * 100.0);
            if bound > 0.0 {
                line += if spread <= bound {
                    " inside bound"
                } else {
                    " OUTSIDE BOUND"
                };
            }
        }
        println!("{line}");
    }
    Ok(ok)
}

/// `--check`: all four workloads at ~1/50 size, traced and untraced,
/// every verification on, no timing assertions.
fn run_check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for name in WORKLOADS {
        for trace in [false, true] {
            let (correct, _) = child_run(args, name, trace, &["--check", "--seconds", "0.2"])?;
            println!(
                "check {name} trace={}: {}",
                trace as u8,
                if correct { "ok" } else { "FAILED" }
            );
            ok &= correct;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match (&args.workload, args.all, args.check) {
        (Some(name), false, _) => run_one(name, &args).map(|()| true),
        (None, true, false) => run_all(&args),
        (None, false, true) => run_check(&args),
        _ => Err("give one of --workload, --all, --check".into()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: operations failed or produced wrong output");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}
