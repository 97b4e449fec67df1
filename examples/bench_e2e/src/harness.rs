//! What every workload shares: the run context, the operation record,
//! the time-boxed block loop, the quiet sample the timings are read from
//! and the result a workload hands back.

use crate::metrics::{median, percentile, Values};
use crate::trace::Tracer;
use callpath_core::prelude::{Experiment, MetricId, ProcId, ScopeKind};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up runs at least this many times per process, and until it has
/// taken `SETUP_MIN_S` in total (a 20 ms set-up needs more samples for a
/// steady median), but no more than `SETUP_MAX_REPS` times; `setup_s` is
/// the median of the quiet quarter of them.
const SETUP_MIN_REPS: usize = 8;
const SETUP_MAX_REPS: usize = 40;
const SETUP_MIN_S: f64 = 2.0;
/// The discarded warm-up block is this share of the measured one.
const WARMUP_SHARE: f64 = 0.1;
/// An untraced measured block holds at least this many operations.
const MIN_OPS: usize = 200;
/// The share of the repeats of one piece of work that counts as
/// undisturbed: see [`quiet`].
const QUIET_SHARE: f64 = 0.25;

/// The quiet sample of the repeats of one piece of work: the fastest
/// `QUIET_SHARE` of them (at least one). The host is shared, and what
/// the neighbours do to its memory system comes in phases of seconds
/// to minutes that slow the same work by up to half (README.md,
/// "Steadiness"); interference only ever adds time, so the fast repeats
/// are the ones that measured the program. A failed repeat (`+inf`) is
/// never dropped: every one of them is in the sample as well.
pub fn quiet(repeats: &[f64]) -> Vec<f64> {
    let mut sorted = repeats.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ok = sorted.partition_point(|x| x.is_finite());
    let keep = ((ok as f64 * QUIET_SHARE).ceil() as usize).max(1).min(ok);
    sorted.drain(keep..ok);
    sorted
}

pub struct Ctx {
    pub seed: u64,
    /// Length of the measured block.
    pub seconds: f64,
    pub trace: bool,
    /// `--check`: every input ~1/50 size, every verification on.
    pub check: bool,
    /// Scratch directory of this process, removed on exit.
    pub tmp: PathBuf,
    /// The `callpath-serve` binary `serve_loopback` starts.
    pub serve_bin: PathBuf,
}

impl Ctx {
    /// Pick the full or the `--check` value of a size parameter.
    pub fn size(&self, full: usize, check: usize) -> usize {
        if self.check {
            check
        } else {
            full
        }
    }
}

/// splitmix64 stream over the run seed: every generator parameter and
/// shuffle the harness itself draws comes from here.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Latencies and failures of one block of operations.
#[derive(Default)]
pub struct Recorder {
    pub op_ms: Vec<f64>,
    pub op_kind: Vec<&'static str>,
    /// Which operation of its session each one is. Every session runs
    /// the same script, so operations with the same number are repeats
    /// of the same work.
    op_step: Vec<usize>,
    next_step: usize,
    pub first_paint_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Recorder {
    /// Record one operation. A failed one stays in the latency sample
    /// as slower than any limit, and makes the run incorrect.
    pub fn op(&mut self, kind: &'static str, ms: f64, result: Result<(), String>) {
        self.attempted += 1;
        self.op_kind.push(kind);
        self.op_step.push(self.next_step);
        self.next_step += 1;
        self.op_ms
            .push(if result.is_ok() { ms } else { f64::INFINITY });
        if let Err(why) = result {
            self.fail(format!("{kind}: {why}"));
        }
    }

    /// Record one first paint, by the same rule.
    pub fn first_paint(&mut self, ms: f64, result: Result<(), String>) {
        self.first_paint_ms
            .push(if result.is_ok() { ms } else { f64::INFINITY });
        if let Err(why) = result {
            self.fail(format!("first paint: {why}"));
        }
    }

    /// The next operation recorded is the first of a session's script.
    fn begin_session(&mut self) {
        self.next_step = 0;
    }

    /// An output check on work already counted by [`Recorder::op`].
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// The quiet sample of the block's operations: the quiet repeats of
    /// every step of the script, pooled. The mix of operations is the
    /// block's own, a quarter as many of each.
    pub fn quiet_ops(&self) -> Vec<f64> {
        let steps = self.op_step.iter().max().map_or(0, |s| s + 1);
        let mut repeats = vec![Vec::new(); steps];
        for (&step, &ms) in self.op_step.iter().zip(&self.op_ms) {
            repeats[step].push(ms);
        }
        repeats.iter().flat_map(|r| quiet(r)).collect()
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        self.op_ms.extend(other.op_ms);
        self.op_kind.extend(other.op_kind);
        self.op_step.extend(other.op_step);
        self.first_paint_ms.extend(other.first_paint_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }
}

/// Run `session` back to back until `seconds` have passed and the
/// session just run says the block has all it needs; whole sessions
/// only, so the operation mix of a block is fixed. Returns (sessions
/// run, wall seconds).
pub fn run_block(seconds: f64, mut session: impl FnMut(usize) -> bool) -> (usize, f64) {
    let start = Instant::now();
    let mut done = 0;
    loop {
        let enough = session(done);
        done += 1;
        if enough && start.elapsed().as_secs_f64() >= seconds {
            return (done, start.elapsed().as_secs_f64());
        }
    }
}

/// Spans the program's own instrumentation (`callpath-obs`) has closed
/// so far in this process.
fn obs_spans_closed() -> u64 {
    callpath_obs::snapshot().spans.iter().map(|s| s.count).sum()
}

/// The warm-up block and the measured block of one run.
pub struct Blocks {
    /// Discarded: caches fill and lazy set-up finishes here.
    pub warmup: Recorder,
    pub measured: Recorder,
    /// Traced runs only: the untraced sessions run alternately with the
    /// traced ones, so that the two medians differ by the tracing alone.
    pub plain: Recorder,
    pub tracer: Tracer,
    pub sessions: usize,
    pub measured_wall_s: f64,
    /// Client threads that ran a closed loop each, at the same time.
    pub clients: usize,
    /// `callpath-obs` spans closed per operation, over the warm-up block.
    pub obs_spans_per_op: f64,
}

impl Blocks {
    /// Failures and operations attempted, over every block of the run.
    pub fn failed_of_attempted(&self) -> (u64, u64) {
        let blocks = [&self.warmup, &self.plain, &self.measured];
        (
            blocks.iter().map(|b| b.failed).sum(),
            blocks.iter().map(|b| b.attempted).sum(),
        )
    }

    /// Fold in the blocks another client thread ran at the same time.
    pub fn merge(&mut self, other: Blocks) {
        self.warmup.merge(other.warmup);
        self.measured.merge(other.measured);
        self.plain.merge(other.plain);
        self.tracer.merge(other.tracer);
        self.sessions += other.sessions;
        self.measured_wall_s = self.measured_wall_s.max(other.measured_wall_s);
        self.clients += other.clients;
    }
}

/// Closed loop, one session at a time: a discarded warm-up block of
/// `WARMUP_SHARE` the length, then the measured block, which also runs
/// on until it holds `MIN_OPS` operations. A traced run traces every
/// other session of it until the traced ones add up to
/// `traced_budget_s`.
pub fn run_blocks(
    ctx: &Ctx,
    traced_budget_s: f64,
    mut session: impl FnMut(&mut Tracer, &mut Recorder),
) -> Blocks {
    let mut session = |tr: &mut Tracer, rec: &mut Recorder| {
        rec.begin_session();
        session(tr, rec)
    };
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch);
    let mut warmup = Recorder::default();
    let spans_before = obs_spans_closed();
    run_block(ctx.seconds * WARMUP_SHARE, |_| {
        session(&mut off, &mut warmup);
        true
    });
    let obs_spans_per_op =
        (obs_spans_closed() - spans_before) as f64 / warmup.attempted.max(1) as f64;

    let mut measured = Recorder::default();
    let mut plain = Recorder::default();
    let mut tracer = Tracer::new(ctx.trace, epoch);
    let mut traced_s = 0.0;
    let (sessions, measured_wall_s) = run_block(ctx.seconds, |i| {
        if !ctx.trace {
            session(&mut tracer, &mut measured);
            return ctx.check || measured.op_ms.len() >= MIN_OPS;
        }
        if traced_s >= traced_budget_s {
            // Past the budget the block runs on, so that a traced run
            // is as long as an untraced one, but like the warm-up its
            // sessions are only checked, not analysed.
            session(&mut off, &mut warmup);
        } else if i % 2 == 0 {
            session(&mut off, &mut plain);
        } else {
            let start = Instant::now();
            session(&mut tracer, &mut measured);
            traced_s += start.elapsed().as_secs_f64();
        }
        i >= 1
    });
    Blocks {
        warmup,
        measured,
        plain,
        tracer,
        sessions,
        measured_wall_s,
        clients: 1,
        obs_spans_per_op,
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub blocks: Blocks,
    /// `VmHWM` of the process that did the work.
    pub peak_rss_mb: f64,
    /// On-disk bytes of the databases the workload opens, and the
    /// non-zero metric values stored in them.
    pub db_bytes: u64,
    pub db_nnz: u64,
    /// Per-layer numbers that do not come from spans (counts, probes).
    pub layer: Values,
}

impl Outcome {
    /// Every timing is a statistic of the quiet sample of the measured
    /// block; `ops_per_s` is what each client's closed loop sustains at
    /// the quiet sample's mean latency.
    pub fn end_to_end(&self) -> Values {
        let m = &self.blocks.measured;
        let ops = m.quiet_ops();
        let busy_s = ops.iter().sum::<f64>() / 1e3;
        Values::from([
            ("setup_s", median(&quiet(&self.setup_s))),
            ("first_paint_ms_p50", median(&quiet(&m.first_paint_ms))),
            ("op_ms_p50", median(&ops)),
            ("op_ms_p95", percentile(&ops, 0.95)),
            (
                "ops_per_s",
                self.blocks.clients as f64 * ops.len() as f64 / busy_s,
            ),
            ("peak_rss_mb", self.peak_rss_mb),
            (
                "db_bytes_per_nnz",
                self.db_bytes as f64 / self.db_nnz as f64,
            ),
        ])
    }
}

/// Time `f` several times (once under `--check`), keeping the last
/// result.
pub fn timed_setup<T>(ctx: &Ctx, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    while times.is_empty()
        || (!ctx.check
            && (times.len() < SETUP_MIN_REPS
                || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)))
    {
        // Drop the previous round's inputs first: they must not count
        // toward this round's time or the process's peak memory twice.
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("set-up ran at least once"), times)
}

/// Write `bytes` to `path` and read them back once, so the page cache
/// holds the file before anything is timed against it.
pub fn write_warm(path: &std::path::Path, bytes: &[u8]) {
    std::fs::write(path, bytes).expect("write benchmark input");
    let back = std::fs::read(path).expect("read benchmark input back");
    assert_eq!(back.len(), bytes.len());
}

/// Non-zero values a v2.1 file of `exp` stores: its raw cost entries.
pub fn stored_nnz(exp: &Experiment) -> u64 {
    (0..exp.raw.metric_count())
        .map(|m| exp.raw.column(MetricId::from_usize(m)).nonzero_count() as u64)
        .sum()
}

/// A search needle that exists: the procedure name of a seed-chosen
/// frame at least `min_depth` deep, so the search has to walk. (A needle
/// that is not in the name table fails the `find` silently behind a
/// discarded `Result` — the mistake this replaces.)
pub fn pick_needle<'e>(exp: &'e Experiment, min_depth: usize, rng: &mut Rng) -> &'e str {
    let cct = &exp.cct;
    let procs: Vec<ProcId> = cct
        .all_nodes()
        .filter(|&n| cct.depth(n) >= min_depth)
        .filter_map(|n| match cct.kind(n) {
            ScopeKind::Frame { proc, .. } => Some(proc),
            _ => None,
        })
        .collect();
    cct.names.proc_name(procs[rng.below(procs.len())])
}
