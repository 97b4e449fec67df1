//! `callpath-analyze` — query, diagnose and gate call path profiles.
//!
//! The programmatic face of the presentation paper: instead of *reading*
//! a rendered view, ask typed questions of the profile (`query`), run
//! canned detectors that return structured verdicts (`detect`), or
//! compare a candidate performance record against a baseline under a
//! declarative tolerance policy (`gate`).
//!
//! ```text
//! # Which frames under MPI spend at least 5% of total cycles?
//! callpath-analyze query run.cpdb 'proc ~ "^MPI_" and incl("cycles") > 5%'
//!
//! # Is this ensemble balanced? Which runs are outliers?
//! callpath-analyze detect imbalance runs.cpens --metric cycles
//! callpath-analyze detect outliers runs.cpens
//!
//! # Gate tonight's bench records against the committed baseline:
//! callpath-analyze gate --baseline bench/ --candidate new/ \
//!     --policy scripts/perf_policy.toml
//! ```
//!
//! Exit codes: `0` pass (or advisory-only regressions), `1` a hard gate
//! failure or a FAIL verdict, `2` usage or I/O errors.

use callpath_analyze::{
    derived_waste, ensemble_outliers, gate_records, load_bench_records,
    load_imbalance_with_context, parse_policy, record_from_experiment, run_query,
    scaling_loss_verdict, BenchRecord, ImbalanceConfig, OutlierConfig, Policy, ScalingConfig,
    Status, Verdict, WasteConfig,
};
use callpath_expdb::ens;
use std::path::Path;
use std::process::ExitCode;

use callpath_core::prelude::*;

const USAGE: &str = "\
callpath-analyze: query, diagnose and gate call path profiles

USAGE:
    callpath-analyze query <DB> <QUERY> [OPTIONS]
    callpath-analyze detect imbalance <FILE.cpens> [OPTIONS]
    callpath-analyze detect outliers <FILE.cpens> [OPTIONS]
    callpath-analyze detect waste <DB> [OPTIONS]
    callpath-analyze detect scaling --base <DB> --peer <DB> [OPTIONS]
    callpath-analyze gate --baseline <P> --candidate <P> [OPTIONS]

SUBCOMMANDS:
    query      evaluate a predicate over the CCT; print matching call
               paths ranked by a score column. Only the columns the
               query names are faulted on a lazily opened database.
    detect     run a canned detector; print a PASS/WARN/FAIL verdict
               with evidence call paths. FAIL exits 1.
    gate       compare candidate vs baseline bench records (or whole
               profiles reduced to per-metric totals) under a tolerance
               policy. A hard regression exits 1.

QUERY OPTIONS:
    --score <COL>      exact score column name [default: first column]
    --top <N>          hits to print [default: 10]

DETECT OPTIONS:
    --metric <NAME>    base metric (imbalance, scaling) [default: first
                       metric / 'cycles']
    --cycles <NAME>    cycles metric for waste [default: cycles]
    --flops <NAME>     flops metric for waste [default: flops]
    --peak <F>         machine peak, flops per cycle [default: 4]
    --base <DB>        baseline run for scaling
    --peer <DB>        scaled-up run for scaling
    --scale <F>        expected cost growth base -> peer [default: 1]
    --warn <F>         override the detector's warn threshold
    --fail <F>         override the detector's fail threshold
    --top <N>          evidence entries to cite [default: 3]

GATE OPTIONS:
    --baseline <P>     BENCH_*.json file or directory, or a profile DB
    --candidate <P>    ditto; records pair with the baseline by name
    --policy <FILE>    tolerance policy (TOML subset) [default: 10% on
                       *_ms/*_ns fields, advisory]

COMMON OPTIONS:
    --json             machine-readable report on stdout
    --stats            dump instrumentation counters/spans as JSON on
                       stderr after the run
    --self-profile <FILE>  write the tool's own recorded profile as a .cpdb
                       database (open it with callpath-view)
    -h, --help         print this help

EXIT CODES:
    0   pass, or advisory-only regressions
    1   hard gate failure, or a FAIL verdict
    2   usage or I/O error
";

struct Args {
    pos: Vec<String>,
    score: Option<String>,
    top: Option<usize>,
    metric: Option<String>,
    cycles: String,
    flops: String,
    peak: f64,
    base: Option<String>,
    peer: Option<String>,
    scale: f64,
    warn: Option<f64>,
    fail: Option<f64>,
    baseline: Option<String>,
    candidate: Option<String>,
    policy: Option<String>,
    json: bool,
    stats: bool,
    self_profile: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        pos: Vec::new(),
        score: None,
        top: None,
        metric: None,
        cycles: "cycles".into(),
        flops: "flops".into(),
        peak: 4.0,
        base: None,
        peer: None,
        scale: 1.0,
        warn: None,
        fail: None,
        baseline: None,
        candidate: None,
        policy: None,
        json: false,
        stats: false,
        self_profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let num = |name: &str, v: String| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("{name} must be a finite number"))
        };
        match a.as_str() {
            "--score" => args.score = Some(value("--score")?),
            "--top" => {
                args.top = Some(
                    value("--top")?
                        .parse()
                        .map_err(|_| "--top must be an integer".to_owned())?,
                )
            }
            "--metric" => args.metric = Some(value("--metric")?),
            "--cycles" => args.cycles = value("--cycles")?,
            "--flops" => args.flops = value("--flops")?,
            "--peak" => args.peak = num("--peak", value("--peak")?)?,
            "--base" => args.base = Some(value("--base")?),
            "--peer" => args.peer = Some(value("--peer")?),
            "--scale" => args.scale = num("--scale", value("--scale")?)?,
            "--warn" => args.warn = Some(num("--warn", value("--warn")?)?),
            "--fail" => args.fail = Some(num("--fail", value("--fail")?)?),
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--candidate" => args.candidate = Some(value("--candidate")?),
            "--policy" => args.policy = Some(value("--policy")?),
            "--json" => args.json = true,
            "--stats" => args.stats = true,
            "--self-profile" => args.self_profile = Some(value("--self-profile")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with("--") => args.pos.push(other.to_owned()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.pos.is_empty() {
        return Err("a subcommand is required (query, detect, gate)".into());
    }
    Ok(args)
}

fn load_exp(path: &str) -> Result<Experiment, String> {
    callpath_expdb::open_path(Path::new(path)).map_err(|e| e.to_string())
}

fn stem(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_owned())
}

/// Print a verdict and translate its status to the process exit code:
/// PASS and WARN exit 0, FAIL exits 1.
fn finish_verdict(v: &Verdict, json: bool) -> ExitCode {
    if json {
        println!("{}", v.to_json().to_json());
    } else {
        print!("{}", v.render());
    }
    if v.status == Status::Fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_query(args: &Args) -> Result<ExitCode, String> {
    let [_, db, query] = args.pos.as_slice() else {
        return Err("query: expected <DB> <QUERY>".into());
    };
    let exp = load_exp(db)?;
    let report = run_query(
        &exp,
        query,
        args.score.as_deref(),
        args.top.unwrap_or(10),
        0,
    )?;
    if args.json {
        println!("{}", report.to_json().to_json());
    } else {
        print!("{}", report.render());
    }
    Ok(ExitCode::SUCCESS)
}

fn detect_imbalance(args: &Args, file: &str) -> Result<ExitCode, String> {
    let ens::Ensemble { exp, dir } = ens::open(Path::new(file)).map_err(|e| e.to_string())?;
    let m = match &args.metric {
        Some(name) => dir
            .metric_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| format!("no metric '{name}' (have {:?})", dir.metric_names))?,
        None => 0,
    };
    let metric = &dir.metric_names[m];
    let series: Vec<f64> = dir.runs.iter().map(|r| r.stats[m].1).collect();
    let mut cfg = ImbalanceConfig::default();
    if let Some(w) = args.warn {
        cfg.warn_factor = w;
    }
    if let Some(f) = args.fail {
        cfg.fail_factor = f;
    }
    if let Some(t) = args.top {
        cfg.top = t;
    }
    let what = format!("{metric} across {}", stem(file));
    let v = load_imbalance_with_context(&series, &what, &cfg, &exp, &format!("{metric} mean (I)"))?;
    Ok(finish_verdict(&v, args.json))
}

fn detect_outliers(args: &Args, file: &str) -> Result<ExitCode, String> {
    let bytes = std::fs::read(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let dir = ens::read_directory(&bytes).map_err(|e| e.to_string())?;
    let mut cfg = OutlierConfig::default();
    if let Some(w) = args.warn {
        cfg.z_warn = w;
    }
    if let Some(f) = args.fail {
        cfg.z_fail = f;
    }
    if let Some(t) = args.top {
        cfg.top = t;
    }
    Ok(finish_verdict(&ensemble_outliers(&dir, &cfg), args.json))
}

fn detect_waste(args: &Args, file: &str) -> Result<ExitCode, String> {
    let exp = load_exp(file)?;
    let mut cfg = WasteConfig {
        peak_flops_per_cycle: args.peak,
        ..WasteConfig::default()
    };
    if let Some(w) = args.warn {
        cfg.warn_frac = w;
    }
    if let Some(f) = args.fail {
        cfg.fail_frac = f;
    }
    if let Some(t) = args.top {
        cfg.top = t;
    }
    let v = derived_waste(&exp, &args.cycles, &args.flops, &cfg)?;
    Ok(finish_verdict(&v, args.json))
}

fn detect_scaling(args: &Args) -> Result<ExitCode, String> {
    let (Some(base), Some(peer)) = (&args.base, &args.peer) else {
        return Err("detect scaling: --base and --peer are required".into());
    };
    let base_exp = load_exp(base)?;
    let peer_exp = load_exp(peer)?;
    let metric = args.metric.clone().unwrap_or_else(|| "cycles".into());
    let mut cfg = ScalingConfig {
        expected_scale: args.scale,
        ..ScalingConfig::default()
    };
    if let Some(w) = args.warn {
        cfg.warn_frac = w;
    }
    if let Some(f) = args.fail {
        cfg.fail_frac = f;
    }
    if let Some(t) = args.top {
        cfg.top = t;
    }
    let v = scaling_loss_verdict(
        &base_exp,
        &stem(base),
        &peer_exp,
        &stem(peer),
        &metric,
        &cfg,
    )?;
    Ok(finish_verdict(&v, args.json))
}

fn cmd_detect(args: &Args) -> Result<ExitCode, String> {
    let kind = args
        .pos
        .get(1)
        .ok_or("detect: a detector is required (imbalance, outliers, waste, scaling)")?;
    let file = || {
        args.pos
            .get(2)
            .map(String::as_str)
            .ok_or_else(|| format!("detect {kind}: a file argument is required"))
    };
    match kind.as_str() {
        "imbalance" => detect_imbalance(args, file()?),
        "outliers" => detect_outliers(args, file()?),
        "waste" => detect_waste(args, file()?),
        "scaling" => detect_scaling(args),
        other => Err(format!("unknown detector '{other}'")),
    }
}

/// One side of the gate: a `*.json` file or a directory is bench
/// records; any other file is a profile database, which reduces to
/// per-metric totals (no column is faulted).
fn gate_side(path: &str) -> Result<Vec<BenchRecord>, String> {
    let p = Path::new(path);
    if p.is_file() && p.extension().is_none_or(|e| e != "json") {
        return Ok(vec![record_from_experiment(&stem(path), &load_exp(path)?)]);
    }
    load_bench_records(p)
}

fn cmd_gate(args: &Args) -> Result<ExitCode, String> {
    let (Some(baseline), Some(candidate)) = (&args.baseline, &args.candidate) else {
        return Err("gate: --baseline and --candidate are required".into());
    };
    let policy = match &args.policy {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_policy(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => Policy::default(),
    };
    let base = gate_side(baseline)?;
    let cand = gate_side(candidate)?;
    let report = gate_records(&base, &cand, &policy);
    if args.json {
        println!("{}", report.to_json().to_json());
    } else {
        print!("{}", report.render());
    }
    Ok(if report.failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let code = match args.pos[0].as_str() {
        "query" => cmd_query(&args)?,
        "detect" => cmd_detect(&args)?,
        "gate" => cmd_gate(&args)?,
        other => return Err(format!("unknown subcommand '{other}'")),
    };
    if let Some(path) = &args.self_profile {
        callpath::cli::write_self_profile(path)?;
    }
    if args.stats {
        eprint!("{}", callpath::obs::snapshot().to_json());
    }
    Ok(code)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
