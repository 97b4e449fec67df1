//! `batch_job`: the write side and the read-everything side of the
//! layers the navigation workloads use lazily. An operation is one job:
//!
//! 1. correlate the rank profiles into an `Experiment` (prof),
//! 2. encode it as v2.1 and write it (expdb write),
//! 3. reopen it lazily and paint its first view (first paint),
//! 4. open the synthetic database and `decode_all` (expdb read-all,
//!    core attribute-all),
//! 5. run the fixed queries and the waste detector over it (analyze),
//! 6. build the run ensemble, write it as `.cpens`, reopen it and
//!    render the sorted statistics view (ensemble).
//!
//! Every job does the same work on the same inputs; the inputs are
//! generated once, in set-up.

use crate::adapter;
use crate::harness::{
    run_blocks, stored_nnz, timed_setup, write_warm, Ctx, Outcome, Recorder, Rng,
};
use crate::metrics::{median, peak_rss_mb, Values};
use crate::trace::{timed, Tracer};
use callpath_analyze::{derived_waste, run_query, WasteConfig};
use callpath_core::prelude::*;
use callpath_ensemble::{build_from_union, build_union, outlier_scores, RunData};
use callpath_expdb::{bin2, decode_all, ens, from_binary, open_lazy_path, to_binary_v21};
use callpath_profiler::{execute, lower, Counter, ExecConfig, Op, Program, RawProfile};
use callpath_structure::Structure;
use callpath_viewer::{render, Command, ExpandMode, RenderConfig, Session};
use callpath_workloads::generator::{random_program, GenConfig};
use callpath_workloads::synth::{ensemble_run, synth_model, EnsembleConfig, SynthConfig};
use std::path::PathBuf;
use std::time::Instant;

/// Structural, inclusive, exclusive, percent, file and column leaves,
/// alone and combined: what `callpath-analyze query` is used for.
const QUERIES: [&str; 8] = [
    r#"proc ~ "proc_000[0-7].""#,
    r#"incl("PAPI_SYNTH_0000") > 1%"#,
    r#"excl("PAPI_SYNTH_0001") > 0"#,
    r#"subtree(proc ~ "proc_001..") and incl("PAPI_SYNTH_0002") > 0"#,
    r#"file ~ "synth_01.\.f90" and excl("PAPI_SYNTH_0003") > 0"#,
    r#"incl("PAPI_SYNTH_0004") > 0.5% or incl("PAPI_SYNTH_0005") > 0.5%"#,
    r#"col("PAPI_SYNTH_0006 (I)") > 100 and not proc ~ "proc_0000.""#,
    r#"subtree(proc ~ "proc_00[0-3]..") and incl("PAPI_SYNTH_0000") > 1% or (excl("PAPI_SYNTH_0001") > 0 and file ~ "synth_01.\.f90")"#,
];
const SCORE_COLUMN: &str = "PAPI_SYNTH_0000 (I)";

struct Inputs {
    structure: Structure,
    exec: ExecConfig,
    profiles: Vec<RawProfile>,
    /// The synthetic database `decode_all` and the queries run over.
    synth_path: PathBuf,
    synth_bytes: u64,
    synth_nnz: u64,
    synth_nodes: usize,
    /// Per column, the sum of its values as `from_binary` decodes them.
    synth_checksums: Vec<f64>,
    runs: Vec<RunData>,
    /// Canonical index of the run whose metric 0 is inflated.
    outlier: usize,
    job_db: PathBuf,
    ens_path: PathBuf,
    generate_ms: f64,
}

/// The size of the program a job correlates. How many call paths a
/// random call graph has is exponential in luck (700 to 40 000 at 150
/// procedures, with run times from 1 ms to 3 s), and the size of the
/// correlated tree follows it. So the seed draws `PROGRAM_DRAWS`
/// programs (0.1 ms each; one in sixty has this many call paths, and
/// the drawing goes on until one has) and the job gets, of those with
/// `PROGRAM_PATHS`, the one whose run time is nearest `PROGRAM_CYCLES`:
/// about 6 000 calling contexts per rank, a rank simulated in about
/// 5 ms.
const PROGRAM_DRAWS: usize = 512;
const PROGRAM_PATHS: std::ops::RangeInclusive<f64> = 2400.0..=2700.0;
const PROGRAM_CYCLES: f64 = 0.9e9;

/// Call paths from the entry procedure, and the cycles one run takes.
/// `random_program` only calls later procedures, so one backward pass
/// has every callee's numbers ready.
fn program_size(program: &Program) -> (f64, f64) {
    fn body(ops: &[Op], trips: f64, sizes: &[(f64, f64)], size: &mut (f64, f64)) {
        for op in ops {
            match op {
                Op::Loop {
                    trips: t, body: b, ..
                } => body(b, trips * *t as f64, sizes, size),
                Op::Call { callee, .. } => {
                    size.0 += sizes[*callee].0;
                    size.1 += trips * sizes[*callee].1;
                }
                Op::Work { costs, .. } => size.1 += trips * costs[Counter::Cycles] as f64,
                Op::Barrier { .. } => {}
            }
        }
    }
    let mut sizes = vec![(0.0, 0.0); program.procs.len()];
    for (i, proc) in program.procs.iter().enumerate().rev() {
        let mut size = (1.0, 0.0);
        body(&proc.body, 1.0, &sizes, &mut size);
        sizes[i] = size;
    }
    sizes[program.entry]
}

fn inputs(ctx: &Ctx) -> Inputs {
    let mut rng = Rng(ctx.seed);
    let start = Instant::now();
    let mut nearest: Option<(f64, Program)> = None;
    let mut draws = 0;
    while draws < ctx.size(PROGRAM_DRAWS, 1) || nearest.is_none() {
        draws += 1;
        let program = random_program(GenConfig {
            seed: rng.next(),
            n_procs: ctx.size(150, 30),
            ..Default::default()
        });
        let (paths, cycles) = program_size(&program);
        let off = (cycles / PROGRAM_CYCLES).ln().abs();
        let nearer = nearest.as_ref().is_none_or(|(best, _)| off < *best);
        if nearer && (ctx.check || PROGRAM_PATHS.contains(&paths)) {
            nearest = Some((off, program));
        }
    }
    let program = nearest.expect("the loop ends with a program").1;
    let binary = lower(&program);
    let structure = callpath_structure::recover(&binary).expect("structure recovery");
    let exec = ExecConfig::default();
    // The ranks share the work unevenly, in an order the seed draws.
    let mut scales: Vec<f64> = (0..ctx.size(20, 4))
        .map(|r| 0.5 + (r % 8) as f64 / 16.0)
        .collect();
    rng.shuffle(&mut scales);
    let profiles = scales
        .iter()
        .map(|&work_scale| {
            let rank = ExecConfig {
                work_scale,
                jitter_seed: Some(rng.next()),
                ..exec.clone()
            };
            execute(&binary, &rank).expect("simulated rank").profile
        })
        .collect();

    let model = synth_model(&SynthConfig {
        seed: rng.next(),
        n_nodes: ctx.size(8000, 500),
        n_metrics: 16,
        nnz_per_metric: ctx.size(2048, 128),
        n_procs: 500,
    });
    let n_runs = ctx.size(16, 4);
    let ens_cfg = EnsembleConfig {
        seed: rng.next(),
        n_runs,
        base_nodes: ctx.size(3600, 200),
        tail_nodes: 40,
        n_metrics: 2,
        nnz_per_metric: ctx.size(500, 64),
        outlier_every: n_runs,
    };
    // Labels sort in run order, so canonical index = run number.
    let runs = (0..n_runs)
        .map(|r| RunData::from_model(format!("run-{r:04}"), &ensemble_run(&ens_cfg, r)))
        .collect::<Result<_, _>>()
        .expect("generated runs are well formed");
    let generate_ms = start.elapsed().as_secs_f64() * 1e3;

    let bytes = bin2::write_v21(&model);
    let synth_path = ctx.tmp.join("batch_synth.cpdb");
    write_warm(&synth_path, &bytes);
    let eager = from_binary(&bytes).expect("eager decode of a database just written");
    Inputs {
        structure,
        exec,
        profiles,
        synth_checksums: column_sums(&eager),
        synth_path,
        synth_bytes: bytes.len() as u64,
        synth_nnz: model.metrics.iter().map(|m| m.costs.len() as u64).sum(),
        synth_nodes: model.nodes.len() + 1,
        runs,
        outlier: n_runs - 1,
        job_db: ctx.tmp.join("batch_job.cpdb"),
        ens_path: ctx.tmp.join("batch_job.cpens"),
        generate_ms,
    }
}

fn column_sums(exp: &Experiment) -> Vec<f64> {
    exp.columns
        .columns()
        .map(|c| exp.columns.vec(c).nonzero_sorted().map(|(_, v)| v).sum())
        .collect()
}

/// What a job produced, as far as it must repeat from job to job.
#[derive(Debug, Default, PartialEq)]
struct JobFacts {
    correlated_nodes: usize,
    /// Matches of each of `QUERIES`.
    matches: Vec<usize>,
    top_outlier: usize,
    union_nodes: usize,
    /// Bytes and stored non-zeros of the two files the job wrote.
    written_bytes: u64,
    written_nnz: u64,
    /// Bytes of the correlated database alone.
    encoded_bytes: u64,
}

/// One job. Every stage is a span under `op.job`; `?` on a stage makes
/// the job a failed operation. Returns the facts, the decoded synthetic
/// database for the checks that run off the clock, and the first paint
/// of the database the job wrote, in ms.
fn job(inp: &Inputs, tr: &mut Tracer) -> Result<(JobFacts, Experiment, f64), String> {
    let err = |e: callpath_expdb::DbError| e.to_string();

    let exp = tr.span("prof.correlate", || {
        adapter::correlate(&inp.structure, inp.exec.periods, &inp.profiles)
    });
    let bytes = tr.span("expdb.encode_v21", || to_binary_v21(&exp));
    tr.span("os.write_file", || std::fs::write(&inp.job_db, &bytes))
        .map_err(|e| e.to_string())?;

    let paint = Instant::now();
    let reopened = tr
        .span("expdb.open_lazy_path", || open_lazy_path(&inp.job_db))
        .map_err(err)?;
    let mut session = Session::new(&reopened, SourceStore::new());
    tr.begin("viewer.apply");
    let applied = [Command::SortBy(ColumnId(0)), Command::HotPath]
        .into_iter()
        .try_for_each(|c| session.apply(c));
    tr.end();
    applied?;
    std::hint::black_box(tr.span("viewer.render", || session.render()));
    let paint_ms = paint.elapsed().as_secs_f64() * 1e3;

    let decoded = tr
        .span("expdb.open_lazy_path", || open_lazy_path(&inp.synth_path))
        .map_err(err)?;
    tr.span("expdb.decode_all", || decode_all(&decoded, 0));

    let mut matches = Vec::with_capacity(QUERIES.len());
    for q in QUERIES {
        let report = tr.span("analyze.query_warm", || {
            run_query(&decoded, q, Some(SCORE_COLUMN), 25, 0)
        })?;
        matches.push(report.matched);
    }
    tr.span("analyze.detectors", || {
        derived_waste(
            &decoded,
            "PAPI_SYNTH_0000",
            "PAPI_SYNTH_0001",
            &WasteConfig::default(),
        )
    })?;

    let union = tr.span("ensemble.build_union", || build_union(&inp.runs, 0));
    let union_nodes = union.cct.len();
    let built = tr.span("ensemble.build_stats", || {
        build_from_union(&inp.runs, union, 0)
    });
    let ens_nnz: usize = built
        .stat_metrics
        .iter()
        .map(|m| m.costs.len())
        .sum::<usize>()
        + built
            .runs
            .iter()
            .flat_map(|r| r.costs.iter().map(Vec::len))
            .sum::<usize>();
    let ens_bytes = tr.span("expdb.cpens_encode", || built.to_bytes());
    tr.span("os.write_file", || {
        std::fs::write(&inp.ens_path, &ens_bytes)
    })
    .map_err(|e| e.to_string())?;
    let opened = tr
        .span("expdb.ens_open", || ens::open(&inp.ens_path))
        .map_err(err)?;
    // The sorted cross-run statistics view of metric 0, two levels deep.
    let base = &opened.dir.metric_names[0];
    let columns: Vec<ColumnId> = ens::STAT_NAMES
        .iter()
        .map(|s| {
            let name = format!("{base} {s} (I)");
            opened
                .exp
                .columns
                .find(&name)
                .ok_or(format!("no column {name}"))
        })
        .collect::<Result<_, _>>()?;
    let view_cfg = RenderConfig {
        sort: Some(columns[0]),
        columns,
        groups: vec![(base.clone(), ens::STAT_NAMES.len())],
        expand: ExpandMode::Levels(2),
        max_children: 10,
        show_percent: false,
        ..Default::default()
    };
    let mut view = View::calling_context(&opened.exp);
    std::hint::black_box(tr.span("viewer.render", || render(&mut view, &view_cfg)));

    let facts = JobFacts {
        correlated_nodes: exp.cct.len(),
        matches,
        top_outlier: outlier_scores(&opened.dir)[0].0,
        union_nodes,
        written_bytes: (bytes.len() + ens_bytes.len()) as u64,
        written_nnz: stored_nnz(&exp) + ens_nnz as u64,
        encoded_bytes: bytes.len() as u64,
    };
    Ok((facts, decoded, paint_ms))
}

/// What must be true of a job's outputs at any speed.
fn verify(
    inp: &Inputs,
    facts: &JobFacts,
    decoded: &Experiment,
    first: &JobFacts,
    rec: &mut Recorder,
) {
    rec.check(facts == first, || {
        format!("job produced {facts:?}, the first job {first:?}")
    });
    rec.check(column_sums(decoded) == inp.synth_checksums, || {
        "decode_all column sums differ from from_binary's".to_owned()
    });
    rec.check(facts.matches.iter().all(|&m| m > 0), || {
        format!("a query matched nothing: {:?}", facts.matches)
    });
    rec.check(facts.top_outlier == inp.outlier, || {
        format!(
            "run {} ranked first, the inflated run is {}",
            facts.top_outlier, inp.outlier
        )
    });
}

/// Standalone timings of the traced run: the sharded correlator beside
/// the sequential one, and a query straight after a fresh open.
#[derive(Default)]
struct Probes {
    parallel_correlate_ms: Vec<f64>,
    query_cold_ms: Vec<f64>,
}

fn probe(inp: &Inputs, probes: &mut Probes) {
    let (_, ns) =
        timed(|| adapter::correlate_parallel(&inp.structure, inp.exec.periods, &inp.profiles));
    probes.parallel_correlate_ms.push(ns as f64 / 1e6);
    let fresh = open_lazy_path(&inp.synth_path).expect("reopen the synthetic database");
    let (_, ns) = timed(|| run_query(&fresh, QUERIES[7], Some(SCORE_COLUMN), 25, 0));
    probes.query_cold_ms.push(ns as f64 / 1e6);
}

/// The one workload whose operations fan out (`decode_all`, the
/// queries, the ensemble union). A fan-out over n chunks runs on n pool
/// workers and on the submitting thread, which helps: n + 1 runnable
/// threads. Left to itself (n = `nproc`) that is one more than there are
/// cores, and the job time then follows the scheduler: on the 2-core
/// host it wandered between 52 and 70 ms within one process, around the
/// 65 ms the same job takes on one thread. So the fan-out is told to
/// leave one core for the submitter; this process has read
/// `CALLPATH_THREADS` nowhere yet, and reads it once.
fn one_thread_per_core() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("CALLPATH_THREADS", (cores - 1).max(1).to_string());
}

pub fn batch_job(ctx: &Ctx) -> Outcome {
    one_thread_per_core();
    let (inp, setup_s) = timed_setup(ctx, || inputs(ctx));
    let mut first: Option<JobFacts> = None;
    let mut probes = Probes::default();
    let blocks = run_blocks(ctx, f64::INFINITY, |tr, rec| {
        let start = Instant::now();
        tr.begin("op.job");
        let done = job(&inp, tr);
        tr.end();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match done {
            Err(why) => {
                // One failure, but it is missing from neither sample.
                rec.first_paint_ms.push(f64::INFINITY);
                rec.op("op.job", ms, Err(why));
            }
            Ok((facts, decoded, paint_ms)) => {
                rec.first_paint_ms.push(paint_ms);
                rec.op("op.job", ms, Ok(()));
                verify(
                    &inp,
                    &facts,
                    &decoded,
                    first.as_ref().unwrap_or(&facts),
                    rec,
                );
                first.get_or_insert(facts);
            }
        }
    });
    // All zeros if every job failed; the run is incorrect then anyway.
    let first = first.unwrap_or_default();
    // Off the clock and after the block, so that the probes cannot
    // disturb the jobs: a handful of samples is enough for a median.
    if ctx.trace {
        for _ in 0..5 {
            probe(&inp, &mut probes);
        }
    }

    let t = &blocks.tracer;
    let p50 = |span: &str| median(&t.durations_ms(span));
    let profiles = inp.profiles.len() as f64;
    let layer = Values::from([
        ("workloads.generate_ms", inp.generate_ms),
        (
            "prof.correlate_profiles_per_s",
            profiles / (p50("prof.correlate") / 1e3),
        ),
        (
            "prof.parallel_correlate_ms_p50",
            median(&probes.parallel_correlate_ms),
        ),
        (
            "expdb.decode_all_ns_per_nnz",
            p50("expdb.decode_all") * 1e6 / inp.synth_nnz as f64,
        ),
        ("analyze.query_cold_ms_p50", median(&probes.query_cold_ms)),
        (
            "analyze.query_ns_per_context",
            p50("analyze.query_warm") * 1e6 / inp.synth_nodes as f64,
        ),
        ("ensemble.union_nodes", first.union_nodes as f64),
        (
            "expdb.encode_v21_mb_per_s",
            first.encoded_bytes as f64 / 1e6 / (p50("expdb.encode_v21") / 1e3),
        ),
    ]);
    Outcome {
        setup_s,
        blocks,
        peak_rss_mb: peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
        db_bytes: inp.synth_bytes + first.written_bytes,
        db_nnz: inp.synth_nnz + first.written_nnz,
        layer,
    }
}
