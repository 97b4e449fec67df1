//! `callpath-ensemble` — build, inspect and rank ensembles of call path
//! profiles. An ensemble unions the CCTs of many runs of the same
//! program into one supergraph and stores cross-run statistics (mean,
//! min, max, stddev per metric per context) as ordinary lazy columns in
//! a `.cpens` database, which is itself a valid v2.1 CPDB.
//!
//! ```text
//! # Union 64 per-rank profiles into one ensemble database:
//! callpath-ensemble build runs.cpens rank*.cpdb
//!
//! # Synthetic 1,000-run family for benchmarking:
//! callpath-ensemble build big.cpens --synth 1000
//!
//! # Sorted cross-run statistics, with two runs grafted in for
//! # drill-down (run 5 metric 0, run 96 metric 0):
//! callpath-ensemble stat big.cpens --stat stddev --runs 5:0,96:0
//!
//! # Which runs deviate most from the ensemble mean?
//! callpath-ensemble outliers big.cpens --top 5
//! ```

use callpath_ensemble::RunData;
use callpath_expdb::ens;
use callpath_viewer::{ExpandMode, RenderConfig};
use callpath_workloads::synth::{ensemble_run, EnsembleConfig};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use callpath_core::prelude::*;

const USAGE: &str = "\
callpath-ensemble: union many call path profiles and compare across runs

USAGE:
    callpath-ensemble build <OUT.cpens> [RUN.cpdb ...] [OPTIONS]
    callpath-ensemble stat <FILE.cpens> [OPTIONS]
    callpath-ensemble outliers <FILE.cpens> [OPTIONS]

SUBCOMMANDS:
    build      union N runs into a .cpens ensemble database
    stat       render per-context cross-run statistics over the union CCT
    outliers   rank runs by worst cross-run z-score (from the directory
               alone; no metric columns are faulted)

BUILD OPTIONS:
    --synth <N>        generate N synthetic runs instead of reading files
    --threads <T>      threads for the union; 0 = CALLPATH_THREADS or
                       auto [default: 0]

STAT OPTIONS:
    --view <V>         ccv | callers | flat [default: ccv]
    --metric <NAME>    base metric to present [default: first]
    --stat <S>         statistic column to sort by: mean | min | max |
                       stddev [default: mean]
    --runs <R:M,...>   graft per-run drill-down columns (run:metric index
                       pairs); only those columns are faulted
    --top <N>          children per scope [default: 10]
    --levels <N>       depth to expand [default: 3]

OUTLIERS OPTIONS:
    --top <N>          runs to print [default: 10]

COMMON OPTIONS:
    --stats            dump instrumentation counters/spans as JSON on
                       stderr after the run
    --self-profile <FILE>  write the tool's own recorded profile as a .cpdb
                       database (open it with callpath-view)
    -h, --help         print this help
";

struct Args {
    cmd: String,
    file: String,
    inputs: Vec<String>,
    synth: Option<usize>,
    threads: usize,
    view: String,
    metric: Option<String>,
    stat: String,
    runs: Vec<(u32, u32)>,
    top: usize,
    levels: usize,
    stats: bool,
    self_profile: Option<String>,
}

fn parse_runs(spec: &str) -> Result<Vec<(u32, u32)>, String> {
    spec.split(',')
        .map(|pair| {
            let (r, m) = pair
                .split_once(':')
                .ok_or_else(|| format!("--runs: '{pair}' is not RUN:METRIC"))?;
            let parse = |s: &str| {
                s.parse::<u32>()
                    .map_err(|_| format!("--runs: '{pair}' is not RUN:METRIC"))
            };
            Ok((parse(r)?, parse(m)?))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cmd: String::new(),
        file: String::new(),
        inputs: Vec::new(),
        synth: None,
        threads: 0,
        view: "ccv".into(),
        metric: None,
        stat: "mean".into(),
        runs: Vec::new(),
        top: 10,
        levels: 3,
        stats: false,
        self_profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--synth" => {
                args.synth = Some(
                    value("--synth")?
                        .parse()
                        .map_err(|_| "--synth must be an integer".to_owned())?,
                )
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be an integer".to_owned())?
            }
            "--view" => args.view = value("--view")?,
            "--metric" => args.metric = Some(value("--metric")?),
            "--stat" => args.stat = value("--stat")?,
            "--runs" => args.runs = parse_runs(&value("--runs")?)?,
            "--top" => {
                args.top = value("--top")?
                    .parse()
                    .map_err(|_| "--top must be an integer".to_owned())?
            }
            "--levels" => {
                args.levels = value("--levels")?
                    .parse()
                    .map_err(|_| "--levels must be an integer".to_owned())?
            }
            "--stats" => args.stats = true,
            "--self-profile" => args.self_profile = Some(value("--self-profile")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => {
                if args.cmd.is_empty() {
                    args.cmd = other.to_owned();
                } else if args.file.is_empty() {
                    args.file = other.to_owned();
                } else {
                    args.inputs.push(other.to_owned());
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.cmd.is_empty() {
        return Err("a subcommand is required (build, stat, outliers)".into());
    }
    if args.file.is_empty() {
        return Err(format!("{}: a file argument is required", args.cmd));
    }
    if !ens::STAT_NAMES.contains(&args.stat.as_str()) {
        return Err(format!("--stat must be one of {:?}", ens::STAT_NAMES));
    }
    Ok(args)
}

fn load_run(path: &str) -> Result<RunData, String> {
    let exp = callpath_expdb::open_path(Path::new(path)).map_err(|e| e.to_string())?;
    let label = Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_owned());
    Ok(RunData::from_experiment(label, &exp))
}

fn build(args: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    let runs: Vec<RunData> = match args.synth {
        Some(n) => {
            if !args.inputs.is_empty() {
                return Err("build: give input files or --synth, not both".into());
            }
            let cfg = EnsembleConfig {
                n_runs: n,
                ..EnsembleConfig::default()
            };
            let _span = callpath::obs::span("ensemble.synth");
            (0..n)
                .map(|r| {
                    RunData::from_model(format!("run-{r:04}"), &ensemble_run(&cfg, r))
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?
        }
        None => {
            if args.inputs.is_empty() {
                return Err("build: no input files (give .cpdb paths or --synth N)".into());
            }
            let _span = callpath::obs::span("ensemble.load");
            args.inputs
                .iter()
                .map(|p| load_run(p))
                .collect::<Result<_, _>>()?
        }
    };
    let loaded = t0.elapsed();
    let t1 = Instant::now();
    let built = callpath_ensemble::build(&runs, args.threads);
    let union_nodes = built.cct.len();
    let n_runs = runs.len();
    let n_metrics = built.metric_names.len();
    let bytes = built.to_bytes();
    let unioned = t1.elapsed();
    std::fs::write(&args.file, &bytes).map_err(|e| format!("cannot write {}: {e}", args.file))?;
    println!(
        "{}: {} runs, {} base metrics, {} union contexts, {} bytes",
        args.file,
        n_runs,
        n_metrics,
        union_nodes,
        bytes.len()
    );
    println!(
        "load {:.1} ms, union+stats {:.1} ms",
        loaded.as_secs_f64() * 1e3,
        unioned.as_secs_f64() * 1e3
    );
    Ok(())
}

fn stat(args: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    let ens::Ensemble { exp, dir } =
        ens::open_with_runs(Path::new(&args.file), &args.runs).map_err(|e| e.to_string())?;
    let opened = t0.elapsed();
    let n_stats = ens::STAT_NAMES.len();
    let base = match &args.metric {
        Some(name) => dir
            .metric_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| format!("no metric '{name}' (have {:?})", dir.metric_names))?,
        None => 0,
    };
    let base_name = &dir.metric_names[base];
    // Inclusive stat columns of the chosen base metric, then every
    // grafted per-run column; resolved by column name so the mapping
    // survives metric reordering.
    let mut columns = Vec::new();
    for s in ens::STAT_NAMES {
        let name = format!("{base_name} {s} (I)");
        columns.push(
            exp.columns
                .find(&name)
                .ok_or_else(|| format!("missing column '{name}'"))?,
        );
    }
    let sort_idx = ens::STAT_NAMES
        .iter()
        .position(|s| *s == args.stat)
        .unwrap();
    let mut groups = vec![(base_name.clone(), n_stats)];
    for &(r, m) in &args.runs {
        let run = &dir.runs[r as usize];
        let name = format!("{}@{} (I)", dir.metric_names[m as usize], run.label);
        columns.push(
            exp.columns
                .find(&name)
                .ok_or_else(|| format!("missing column '{name}'"))?,
        );
    }
    if !args.runs.is_empty() {
        groups.push(("runs".into(), args.runs.len()));
    }
    let cfg = RenderConfig {
        sort: Some(columns[sort_idx]),
        columns,
        groups,
        expand: ExpandMode::Levels(args.levels),
        max_children: args.top,
        show_percent: false,
        ..Default::default()
    };
    let mut view = match args.view.as_str() {
        "ccv" => View::calling_context(&exp),
        "callers" => View::callers(&exp),
        "flat" => View::flat(&exp),
        other => return Err(format!("unknown view '{other}'")),
    };
    let text = {
        let _span = callpath::obs::span("ensemble.render");
        callpath_viewer::render(&mut view, &cfg)
    };
    let rendered = t0.elapsed();
    println!(
        "{}: {} runs, {} base metrics, {} contexts",
        args.file,
        dir.runs.len(),
        dir.metric_names.len(),
        exp.cct.len()
    );
    println!(
        "open {:.2} ms, open+render {:.2} ms\n",
        opened.as_secs_f64() * 1e3,
        rendered.as_secs_f64() * 1e3
    );
    print!("{text}");
    Ok(())
}

fn outliers(args: &Args) -> Result<(), String> {
    let bytes = std::fs::read(&args.file).map_err(|e| format!("cannot read {}: {e}", args.file))?;
    let dir = ens::read_directory(&bytes).map_err(|e| e.to_string())?;
    let scores = callpath_ensemble::outlier_scores(&dir);
    println!(
        "{}: {} runs, metrics {:?}",
        args.file,
        dir.runs.len(),
        dir.metric_names
    );
    println!("{:>6}  {:>10}  label", "run", "z-score");
    for &(r, score) in scores.iter().take(args.top) {
        println!("{r:>6}  {score:>10.3}  {}", dir.runs[r].label);
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match args.cmd.as_str() {
        "build" => build(&args)?,
        "stat" => stat(&args)?,
        "outliers" => outliers(&args)?,
        other => return Err(format!("unknown subcommand '{other}'")),
    }
    if let Some(path) = &args.self_profile {
        callpath::cli::write_self_profile(path)?;
    }
    if args.stats {
        eprint!("{}", callpath::obs::snapshot().to_json());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
