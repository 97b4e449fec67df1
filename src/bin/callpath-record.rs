//! `callpath-record` — run a workload through the measurement pipeline
//! and write an experiment database (the `hpcrun` + `hpcstruct` +
//! `hpcprof` step, in one command).
//!
//! ```text
//! callpath-record --workload s3d -o s3d.cpdb
//! callpath-record --workload pflotran --ranks 64 --format xml -o pf.xml
//! callpath-record --workload random --seed 7 --procs 200 -o r.cpdb
//! ```

use callpath_core::prelude::*;
use callpath_parallel::{run_spmd, SpmdConfig};
use callpath_profiler::{Counter, ExecConfig};
use callpath_workloads::{fig1, generator, moab, pflotran, pipeline, s3d};
use std::process::ExitCode;

const USAGE: &str = "\
callpath-record: profile a workload and write an experiment database

USAGE:
    callpath-record --workload <NAME> -o <FILE> [OPTIONS]

WORKLOADS:
    (or use --program <FILE> to load a .cps scenario file instead)
    fig1         the paper's Fig. 1 toy program
    s3d          turbulent-combustion shape (Figs. 3 & 6)
    s3d-tuned    same, after the 2.9x flux-loop transformation
    moab         mesh benchmark shape (Figs. 4 & 5)
    pflotran     SPMD subsurface-flow shape (Fig. 7); see --ranks
    random       generated program; see --seed/--procs

OPTIONS:
    -o, --output <FILE>     output path (required)
    --program <FILE>        profile a .cps scenario file instead of a
                            built-in workload
    --format <xml|cpdb>     database format: xml is the paper's
                            experiment.xml interchange, cpdb the binary
                            container the tools map and open lazily
                            [default: from extension, .xml => xml,
                            else cpdb]
    --period <N>            cycle sampling period [default: 1009]
    --ranks <N>             SPMD ranks for pflotran [default: 64]
    --seed <N>              random workload seed [default: 42]
    --procs <N>             random workload procedures [default: 100]
    --stats                 dump instrumentation counters/spans as JSON
                            on stderr after the run
    --self-profile <FILE>   write the tool's own recorded profile as a
                            .cpdb database (open it with callpath-view)
    -h, --help              print this help
";

struct Args {
    workload: String,
    program_file: Option<String>,
    output: String,
    format: Option<String>,
    period: u64,
    ranks: usize,
    seed: u64,
    procs: usize,
    stats: bool,
    self_profile: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        program_file: None,
        output: String::new(),
        format: None,
        period: 1009,
        ranks: 64,
        seed: 42,
        procs: 100,
        stats: false,
        self_profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--workload" | "-w" => args.workload = value("--workload")?,
            "--program" => args.program_file = Some(value("--program")?),
            "--output" | "-o" => args.output = value("--output")?,
            "--format" => args.format = Some(value("--format")?),
            "--period" => {
                args.period = value("--period")?
                    .parse()
                    .map_err(|_| "--period must be a positive integer".to_owned())?
            }
            "--ranks" => {
                args.ranks = value("--ranks")?
                    .parse()
                    .map_err(|_| "--ranks must be a positive integer".to_owned())?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_owned())?
            }
            "--procs" => {
                args.procs = value("--procs")?
                    .parse()
                    .map_err(|_| "--procs must be a positive integer".to_owned())?
            }
            "--stats" => args.stats = true,
            "--self-profile" => args.self_profile = Some(value("--self-profile")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() && args.program_file.is_none() {
        return Err("--workload or --program is required".into());
    }
    if !args.workload.is_empty() && args.program_file.is_some() {
        return Err("--workload and --program are mutually exclusive".into());
    }
    if args.output.is_empty() {
        return Err("--output is required".into());
    }
    if args.period == 0 {
        return Err("--period must be positive".into());
    }
    Ok(args)
}

fn build_experiment(args: &Args) -> Result<Experiment, String> {
    let exec = ExecConfig {
        periods: {
            let mut p = ExecConfig::default().periods;
            p[Counter::Cycles as usize] = args.period;
            p
        },
        ..ExecConfig::default()
    };
    if let Some(path) = &args.program_file {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let program = callpath_profiler::parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
        return Ok(pipeline::build_experiment(&program, &exec));
    }
    let exp = match args.workload.as_str() {
        "fig1" => pipeline::build_experiment(&fig1::program(1_000), &exec),
        "s3d" => pipeline::build_experiment(&s3d::program(s3d::S3dConfig::default()), &exec),
        "s3d-tuned" => pipeline::build_experiment(&s3d::program(s3d::S3dConfig::tuned()), &exec),
        "moab" => pipeline::build_experiment(&moab::program(), &exec),
        "pflotran" => {
            let part = pflotran::Partition::default();
            let scales: Vec<f64> = (0..args.ranks).map(|r| part.scale(r, args.ranks)).collect();
            let mut cfg = SpmdConfig::new(scales, exec);
            cfg.keep_rank_data = false;
            run_spmd(&pflotran::program(), &cfg).experiment
        }
        "random" => {
            let program = generator::random_program(generator::GenConfig {
                seed: args.seed,
                n_procs: args.procs,
                ..Default::default()
            });
            pipeline::build_experiment(&program, &exec)
        }
        other => return Err(format!("unknown workload '{other}' (try --help)")),
    };
    Ok(exp)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let exp = {
        let _span = callpath::obs::span("record.build_experiment");
        match build_experiment(&args) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let format = args.format.clone().unwrap_or_else(|| {
        if args.output.ends_with(".xml") {
            "xml".into()
        } else {
            "cpdb".into()
        }
    });
    let encode = callpath::obs::span("record.encode");
    let bytes = match format.as_str() {
        "xml" => callpath_expdb::to_xml(&exp).into_bytes(),
        "cpdb" => callpath_expdb::to_binary_v21(&exp),
        other => {
            eprintln!("error: unknown format '{other}' (xml|cpdb)");
            return ExitCode::FAILURE;
        }
    };
    drop(encode);
    if let Err(e) = std::fs::write(&args.output, &bytes) {
        eprintln!("error: cannot write {}: {e}", args.output);
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} bytes, {} format): {} CCT nodes, {} metrics",
        args.output,
        bytes.len(),
        format,
        exp.cct.len(),
        exp.raw.metric_count()
    );
    if let Some(path) = &args.self_profile {
        if let Err(e) = callpath::cli::write_self_profile(path) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote self-profile {path}");
    }
    if args.stats {
        callpath::cli::emit_stats(Some(&exp));
    }
    ExitCode::SUCCESS
}
