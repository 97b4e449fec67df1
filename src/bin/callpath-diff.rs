//! `callpath-diff` — scale and difference two experiment databases
//! (Section VI-A, after the paper's reference \[3\]): pinpoint scalability
//! losses or before/after regressions in calling context.
//!
//! ```text
//! # Before/after a code change (expected scale 1):
//! callpath-diff tuned.cpdb base.cpdb --metric PAPI_TOT_CYC
//!
//! # Strong scaling from 256 to 512 cores (peer should halve):
//! callpath-diff q256.cpdb q512.cpdb --scale 0.5
//! ```

use callpath_core::prelude::*;
use callpath_expdb::{ens, FileImage};
use callpath_viewer::{render_hot_path, RenderConfig};
use std::process::ExitCode;

const USAGE: &str = "\
callpath-diff: scale-and-difference two call path profiles

USAGE:
    callpath-diff <BASE-FILE> <PEER-FILE> [OPTIONS]

The loss column is  peer - scale × base  (inclusive); positive values are
cost the peer run spends that the expectation says it should not.

OPTIONS:
    --metric <NAME>     raw metric to compare [default: PAPI_TOT_CYC]
    --scale <S>         expected base→peer scale factor [default: 1.0]
    --threshold <T>     hot path threshold in (0,1] [default: 0.5]
    --full              render the full loss-annotated tree instead of the
                        hot path
    --top <N>           children per scope in full mode [default: 20]
    --stats             dump instrumentation counters/spans as JSON on
                        stderr after the run
    --self-profile <FILE>  write the tool's own recorded profile as a .cpdb
                        database (open it with callpath-view)
    -h, --help          print this help
";

struct Args {
    base: String,
    peer: String,
    metric: String,
    scale: f64,
    threshold: f64,
    full: bool,
    top: usize,
    stats: bool,
    self_profile: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        base: String::new(),
        peer: String::new(),
        metric: "PAPI_TOT_CYC".into(),
        scale: 1.0,
        threshold: 0.5,
        full: false,
        top: 20,
        stats: false,
        self_profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--metric" => args.metric = value("--metric")?,
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|_| "--scale must be a number".to_owned())?
            }
            "--threshold" => {
                args.threshold = value("--threshold")?
                    .parse()
                    .map_err(|_| "--threshold must be a number".to_owned())?
            }
            "--full" => args.full = true,
            "--stats" => args.stats = true,
            "--self-profile" => args.self_profile = Some(value("--self-profile")?),
            "--top" => {
                args.top = value("--top")?
                    .parse()
                    .map_err(|_| "--top must be an integer".to_owned())?
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => {
                if args.base.is_empty() {
                    args.base = other.to_owned();
                } else if args.peer.is_empty() {
                    args.peer = other.to_owned();
                } else {
                    return Err(format!("unexpected argument '{other}'"));
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.base.is_empty() || args.peer.is_empty() {
        return Err("two input files are required".into());
    }
    if !(args.threshold > 0.0 && args.threshold <= 1.0) {
        return Err("--threshold must be in (0, 1]".into());
    }
    Ok(args)
}

fn load(path: &str) -> Result<Experiment, String> {
    let file = std::path::Path::new(path);
    // A `.cpens` stores its statistics attributed, with no direct costs
    // to difference (DESIGN.md §15): refuse it rather than print zeros.
    if FileImage::open(file).is_ok_and(|image| ens::read_directory(image.bytes()).is_ok()) {
        return Err(format!(
            "{path} is an ensemble (.cpens), not a single run: diff two .cpdb or XML databases"
        ));
    }
    let exp = callpath_expdb::open_path(file).map_err(|e| e.to_string())?;
    // Diffing touches every column of both databases, so fan block
    // decode across threads now instead of paying faults serially
    // mid-analysis (a no-op for an eagerly parsed XML file).
    callpath_expdb::decode_all(&exp, 0);
    Ok(exp)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let loading = callpath::obs::span("diff.load");
    let base = load(&args.base)?;
    let peer = load(&args.peer)?;
    drop(loading);
    let analysis = {
        let _span = callpath::obs::span("diff.scaling_loss");
        scaling_loss(&base, "base", &peer, "peer", &args.metric, args.scale)?
    };
    let exp = &analysis.experiment;
    let root = exp.cct.root();
    let base_total = exp.columns.get(analysis.base_incl, root.0);
    let peer_total = exp.columns.get(analysis.peer_incl, root.0);
    let loss_total = exp.columns.get(analysis.loss_incl, root.0);
    println!("base:  {base_total:.4e}  ({})", args.base);
    println!("peer:  {peer_total:.4e}  ({})", args.peer);
    println!(
        "loss:  {loss_total:.4e}  (peer - {} x base; {:.1}% of peer)\n",
        args.scale,
        100.0 * exp.columns.get(analysis.loss_frac, root.0)
    );

    let cfg = RenderConfig {
        sort: Some(analysis.loss_incl),
        columns: vec![analysis.loss_incl, analysis.base_incl, analysis.peer_incl],
        show_percent: false,
        max_children: args.top,
        ..Default::default()
    };
    let mut view = View::calling_context(exp);
    let roots = view.roots();
    if args.full {
        print!("{}", callpath_viewer::render(&mut view, &cfg));
    } else if let Some(&start) = roots.first() {
        print!(
            "{}",
            render_hot_path(
                &mut view,
                start,
                analysis.loss_incl,
                HotPathConfig::with_threshold(args.threshold),
                &cfg
            )
        );
    }
    if let Some(path) = &args.self_profile {
        callpath::cli::write_self_profile(path)?;
    }
    if args.stats {
        let mut snap = callpath::obs::snapshot();
        callpath::cli::merge_lazy_errors(&mut snap, &base);
        callpath::cli::merge_lazy_errors(&mut snap, &peer);
        eprint!("{}", snap.to_json());
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
