//! The two in-process navigation workloads. Both drive
//! `viewer::Session` with a fixed script; an operation is the commands
//! of one script step (`Session::apply`) plus `Session::render_numbered`
//! — the same pair `callpath-serve` runs per request.
//!
//! * `nav_mid`: a 20 000-node generated experiment widened to 32
//!   columns, every column visible. The median operation is a warm
//!   re-render; the tail is Callers/Flat construction.
//! * `nav_large`: a 10⁶-node × 1024-column database (`huge`) and a
//!   smaller, denser one (`large`), one column visible. The median
//!   operation faults one column; the tail is Callers/Flat
//!   construction on `large`.

use crate::adapter;
use crate::harness::{
    pick_needle, run_blocks, stored_nnz, timed_setup, write_warm, Ctx, Outcome, Recorder, Rng,
};
use crate::metrics::{median, peak_rss_mb, Digest, Values};
use crate::trace::{timed, Tracer};
use callpath_core::prelude::*;
use callpath_expdb::{bin2, open_lazy_path, to_binary_v21};
use callpath_viewer::{Command, Session};
use callpath_workloads::generator::random_experiment;
use callpath_workloads::synth::{synth_model, SynthConfig};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

/// One script step = one operation.
#[derive(Clone)]
pub enum Step {
    /// Hide all but the sorted column (one-column databases only), sort,
    /// hot path, render. Always the first step: its operation includes
    /// opening the database.
    OpenPaint,
    /// One command, then render.
    Cmd(&'static str, Command),
    /// Show, sort by and hot-path a column this session has not touched.
    NewColumn,
    /// Expand collapsed scopes, top down, while the rows on screen stay
    /// within this many.
    ExpandTo(usize),
}

impl Step {
    fn kind(&self) -> &'static str {
        match self {
            Step::OpenPaint => "op.open_paint",
            Step::Cmd(kind, _) => kind,
            Step::NewColumn => "op.new_column",
            Step::ExpandTo(_) => "op.expand",
        }
    }
}

/// A database on disk and the script sessions run over it.
pub struct Db {
    pub path: PathBuf,
    /// Only the sorted column is shown (the metric-properties dialog).
    pub one_column: bool,
    pub script: Vec<Step>,
    pub file_bytes: u64,
    /// Non-zero values the file stores: its raw cost entries.
    pub nnz: u64,
}

/// What one session over one database produced.
#[derive(Default)]
pub struct SessionResult {
    pub digest: Digest,
    pub rendered_bytes: usize,
    pub columns_faulted: usize,
    pub lazy_errors: usize,
}

/// The traced run's side work: the replays owed to finished sessions,
/// and standalone timings taken beside them that are part of no
/// operation.
#[derive(Default)]
pub struct Probes<'s> {
    replays: Vec<Replay<'s>>,
    top_k_ms: Vec<f64>,
    attribute_ns_per_node: Vec<f64>,
}

struct Nav<'e, 'f> {
    exp: &'e Experiment,
    session: Session<'e>,
    one_column: bool,
    /// Node ids of the rows last rendered.
    rows: Vec<u32>,
    sort: ColumnId,
    /// Columns `NewColumn` steps take, in order.
    fresh: std::slice::Iter<'f, u32>,
    /// The `viewer.apply` and `viewer.render` spans of the last step.
    spans: (usize, usize),
    out: SessionResult,
}

impl<'e, 'f> Nav<'e, 'f> {
    fn new(exp: &'e Experiment, one_column: bool, fresh: &'f [u32]) -> Self {
        Nav {
            exp,
            session: Session::new(exp, SourceStore::new()),
            one_column,
            rows: Vec::new(),
            sort: ColumnId(0),
            fresh: fresh.iter(),
            spans: (0, 0),
            out: SessionResult::default(),
        }
    }

    /// The commands a step stands for, given what is on screen. Worked
    /// out before the operation's clock starts: choosing what to click
    /// is the user's time, not the program's.
    fn commands(&mut self, step: &Step) -> Result<Vec<Command>, String> {
        Ok(match step {
            Step::OpenPaint => {
                let hidden = if self.one_column {
                    1..self.exp.columns.column_count() as u32
                } else {
                    0..0
                };
                hidden
                    .map(|c| Command::HideColumn(ColumnId(c)))
                    .chain([Command::SortBy(ColumnId(0)), Command::HotPath])
                    .collect()
            }
            Step::Cmd(_, cmd) => {
                if let Command::SortBy(c) = cmd {
                    self.sort = *c;
                }
                vec![cmd.clone()]
            }
            Step::NewColumn => {
                let c = *self.fresh.next().ok_or("script ran out of fresh columns")?;
                // Swap the one visible column for the new one.
                let previous = std::mem::replace(&mut self.sort, ColumnId(c));
                vec![
                    Command::HideColumn(previous),
                    Command::ShowColumn(self.sort),
                    Command::SortBy(self.sort),
                    Command::HotPath,
                ]
            }
            Step::ExpandTo(target) => {
                // Level by level, so that scopes an expansion reveals
                // are candidates too.
                let cct = &self.exp.cct;
                let mut shown: HashSet<u32> = self.rows.iter().copied().collect();
                let mut level = self.rows.clone();
                let mut cmds = Vec::new();
                while !level.is_empty() {
                    let mut revealed = Vec::new();
                    for n in level {
                        let kids: Vec<u32> = cct.children(NodeId(n)).map(|k| k.0).collect();
                        let collapsed = kids.first().is_some_and(|k| !shown.contains(k));
                        if collapsed && shown.len() + kids.len() <= *target {
                            shown.extend(&kids);
                            revealed.extend(kids);
                            cmds.push(Command::Expand(n));
                        }
                    }
                    level = revealed;
                }
                cmds
            }
        })
    }

    /// The timed part of a step: `Session::apply` for each command,
    /// then one render. Returns the rendered text.
    fn apply_and_render(&mut self, cmds: Vec<Command>, tr: &mut Tracer) -> Result<String, String> {
        let apply = tr.begin("viewer.apply");
        let applied = cmds.into_iter().try_for_each(|c| self.session.apply(c));
        tr.end();
        applied?;
        let render = tr.begin("viewer.render");
        let (text, rows) = self.session.render_numbered();
        tr.end();
        self.rows = rows;
        self.spans = (apply, render);
        Ok(text)
    }

    /// One step as one operation, closing the operation's span (the
    /// caller opened it: step 0 shares its span with the open). Returns
    /// the operation's result and its latency since `start`.
    fn step(&mut self, step: &Step, start: Instant, tr: &mut Tracer) -> (Result<(), String>, f64) {
        let faulted_before = self.exp.columns.materialized_columns();
        let rendered = self
            .commands(step)
            .and_then(|cmds| self.apply_and_render(cmds, tr));
        tr.end();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        // Checked off the clock.
        let result = rendered.and_then(|text| {
            self.out.digest.update(text.as_bytes());
            self.out.rendered_bytes += text.len();
            let faulted = self.exp.columns.materialized_columns() - faulted_before;
            self.out.columns_faulted += faulted;
            let first_touch = matches!(step, Step::OpenPaint | Step::NewColumn);
            if self.one_column && first_touch && faulted != 1 {
                return Err(format!("{faulted} columns faulted, expected exactly 1"));
            }
            // A column that could not be decoded renders as blanks.
            let errors = lazy_errors(self.exp);
            if errors > std::mem::replace(&mut self.out.lazy_errors, errors) {
                return Err(format!("{errors} lazy column errors"));
            }
            Ok(())
        });
        (result, ms)
    }
}

fn lazy_errors(exp: &Experiment) -> usize {
    exp.columns.lazy_errors().len() + exp.raw.lazy_errors().len()
}

/// Re-runs, standalone, the core/expdb work the operations of one
/// session triggered lazily inside `apply`/`render`, and hangs the
/// timings under those spans. Replays run when the measured block is
/// over, so that they cannot disturb the caches of the operations they
/// explain, on a fresh open of the same file: first touches and the
/// warm work that followed them happen there in the session's order.
pub struct Replay<'s> {
    db: &'s Db,
    pending: Vec<Pending<'s>>,
}

/// Seconds of sessions traced, and so replayed, per run. A replay costs
/// about what its session did, and the run has a time budget.
const TRACED_BUDGET_S: f64 = 6.0;

/// What a replay needs to know about an operation that has finished.
struct Pending<'s> {
    step: &'s Step,
    apply: usize,
    render: usize,
    ccv: bool,
    sort: ColumnId,
    rows: Vec<u32>,
}

impl<'s> Replay<'s> {
    fn note(&mut self, step: &'s Step, nav: &Nav<'_, '_>) {
        let ccv = nav.session.view_kind() == ViewKind::CallingContext;
        let sorts = matches!(
            step,
            Step::OpenPaint
                | Step::NewColumn
                | Step::ExpandTo(_)
                | Step::Cmd(_, Command::SortBy(_))
        );
        self.pending.push(Pending {
            step,
            apply: nav.spans.0,
            render: nav.spans.1,
            ccv,
            sort: nav.sort,
            rows: if ccv && sorts {
                nav.rows.clone()
            } else {
                Vec::new()
            },
        });
    }

    fn run(self, tr: &mut Tracer, probes: &mut Probes) {
        let exp = open_lazy_path(&self.db.path).expect("reopen a file the session opened");
        let mut attributed = false;
        // `Experiment::attributions()`: every raw column faulted and
        // attributed, once per experiment — the first Callers/Flat
        // switch of a session pays it.
        let mut attribute_all = |under: usize, tr: &mut Tracer| {
            if !std::mem::replace(&mut attributed, true) {
                let (_, ns) = timed(|| exp.attributions());
                tr.attach(under, "core.attribute_all", ns);
            }
        };
        for p in &self.pending {
            match p.step {
                Step::OpenPaint | Step::NewColumn => {
                    // The hot path reads the sorted column; the render
                    // then touches every other visible one.
                    fault(&exp, p.sort, p.apply, tr, probes);
                    if !self.db.one_column {
                        for c in 0..exp.columns.column_count() as u32 {
                            fault(&exp, ColumnId(c), p.render, tr, probes);
                        }
                    }
                    replay_hot_path(&exp, p, tr);
                    replay_sorts(&exp, p, tr, probes);
                }
                Step::Cmd(_, Command::HotPath) => replay_hot_path(&exp, p, tr),
                Step::Cmd(_, Command::SortBy(_)) | Step::ExpandTo(_) => {
                    replay_sorts(&exp, p, tr, probes)
                }
                Step::Cmd(_, Command::SwitchView(ViewKind::Callers)) => {
                    attribute_all(p.render, tr);
                    let ((), ns) = timed(|| first_level(View::callers(&exp)));
                    tr.attach(p.render, "core.view_build_callers", ns);
                }
                Step::Cmd(_, Command::SwitchView(ViewKind::Flat)) => {
                    attribute_all(p.render, tr);
                    let ((), ns) = timed(|| first_level(View::flat(&exp)));
                    tr.attach(p.render, "core.view_build_flat", ns);
                }
                _ => {}
            }
        }
    }
}

/// First touch of presentation column `c`: block decode plus the
/// Eq. 1/2 attribution of its metric (shared by the metric's two
/// columns, so only the first of them pays it).
fn fault(exp: &Experiment, c: ColumnId, under: usize, tr: &mut Tracer, probes: &mut Probes) {
    if exp.columns.fault_count(c) > 0 {
        return;
    }
    let metric = MetricId(c.0 / 2);
    let attributes =
        metric.index() < exp.raw.metric_count() && exp.columns.fault_count(ColumnId(c.0 ^ 1)) == 0;
    let (_, fault_ns) = timed(|| exp.columns.get(c, 0));
    let fault = tr.attach(under, "expdb.fault_column", fault_ns);
    if attributes {
        let (_, attr_ns) = timed(|| adapter::attribute_one(exp, metric));
        tr.attach(fault, "core.attribute", attr_ns);
        probes
            .attribute_ns_per_node
            .push(attr_ns as f64 / exp.cct.len() as f64);
    }
}

fn replay_hot_path(exp: &Experiment, p: &Pending<'_>, tr: &mut Tracer) {
    if !p.ccv {
        return;
    }
    let mut view = View::calling_context(exp);
    let Some(&start) = view.roots().first() else {
        return;
    };
    let (_, ns) = timed(|| view.hot_path(start, p.sort, HotPathConfig::default()));
    tr.attach(p.apply, "core.hot_path", ns);
}

/// The child orderings a Calling Context render computes: one sort per
/// expanded scope on screen.
fn replay_sorts(exp: &Experiment, p: &Pending<'_>, tr: &mut Tracer, probes: &mut Probes) {
    if !p.ccv {
        return;
    }
    let mut view = View::calling_context(exp);
    let shown: HashSet<u32> = p.rows.iter().copied().collect();
    let mut levels: Vec<Vec<u32>> = vec![view.roots()];
    for &n in &p.rows {
        let kids = view.children(n);
        if kids.first().is_some_and(|k| shown.contains(k)) {
            levels.push(kids);
        }
    }
    let mut widest = levels
        .iter()
        .max_by_key(|l| l.len())
        .cloned()
        .unwrap_or_default();
    let (_, ns) = timed(|| {
        for level in &mut levels {
            sort_by_column(&view, level, p.sort);
        }
    });
    tr.attach(p.render, "core.sort", ns);
    let mut labels = LabelCache::new();
    let (_, ns) = timed(|| {
        top_k_by_column(
            &view,
            &mut labels,
            &mut widest,
            p.sort,
            SortDir::Descending,
            10,
        )
    });
    probes.top_k_ms.push(ns as f64 / 1e6);
}

/// What a render of a freshly built Callers/Flat view needs: the
/// top-level entries and their children.
fn first_level(mut view: View<'_>) {
    for root in view.roots() {
        std::hint::black_box(view.children(root));
    }
}

/// One session over one database: open, first paint, script. With
/// `first_paint`, step 0 (open → session → sort → hot path → first
/// rendered text) is the first-paint sample; otherwise it is one more
/// operation.
pub fn run_session<'s>(
    db: &'s Db,
    fresh: &[u32],
    first_paint: bool,
    tr: &mut Tracer,
    rec: &mut Recorder,
    probes: &mut Probes<'s>,
) -> SessionResult {
    let start = Instant::now();
    tr.begin(if first_paint {
        "paint.first"
    } else {
        "op.open_paint"
    });
    let opened = tr.span("expdb.open_lazy_path", || open_lazy_path(&db.path));
    let exp = match opened {
        Ok(exp) => exp,
        Err(e) => {
            tr.end();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if first_paint {
                rec.first_paint(ms, Err(e.to_string()));
            } else {
                rec.op("op.open_paint", ms, Err(e.to_string()));
            }
            return SessionResult::default();
        }
    };
    let mut nav = Nav::new(&exp, db.one_column, fresh);
    let mut replay = tr.on().then(|| Replay {
        db,
        pending: Vec::new(),
    });
    for (i, step) in db.script.iter().enumerate() {
        let op_start = if i == 0 {
            start
        } else {
            tr.begin(step.kind());
            Instant::now()
        };
        let (result, ms) = nav.step(step, op_start, tr);
        if i == 0 && first_paint {
            rec.first_paint(ms, result);
        } else {
            rec.op(step.kind(), ms, result);
        }
        if let Some(replay) = &mut replay {
            replay.note(step, &nav);
        }
    }
    probes.replays.extend(replay);
    nav.out
}

fn cmd(kind: &'static str, c: Command) -> Step {
    Step::Cmd(kind, c)
}

/// Per-session samples and set-up timings both navigation workloads
/// report beside the spans.
#[derive(Default)]
struct NavLayer<'s> {
    rendered_bytes: Vec<f64>,
    /// Bytes rendered inside `viewer.render` spans.
    traced_bytes: usize,
    faulted: Vec<f64>,
    lazy_errors: usize,
    probes: Probes<'s>,
    generate_ms: f64,
    encode_ms: f64,
    encoded_bytes: u64,
}

/// Warm-up block, measured block, result: the part of the run both
/// navigation workloads share. `session` runs one whole session.
fn run_nav<'s>(
    ctx: &Ctx,
    setup_s: Vec<f64>,
    dbs: &[&Db],
    mut layer: NavLayer<'s>,
    mut session: impl FnMut(&mut Tracer, &mut Recorder, &mut Probes<'s>) -> SessionResult,
) -> Outcome {
    let mut blocks = run_blocks(ctx, TRACED_BUDGET_S, |tr, rec| {
        let out = session(tr, rec, &mut layer.probes);
        layer.rendered_bytes.push(out.rendered_bytes as f64);
        layer.faulted.push(out.columns_faulted as f64);
        layer.lazy_errors += out.lazy_errors;
        if tr.on() {
            layer.traced_bytes += out.rendered_bytes;
        }
    });
    for replay in std::mem::take(&mut layer.probes.replays) {
        replay.run(&mut blocks.tracer, &mut layer.probes);
    }
    let render_s: f64 = blocks
        .tracer
        .durations_ms("viewer.render")
        .iter()
        .sum::<f64>()
        / 1e3;
    let values = Values::from([
        (
            "viewer.render_bytes_per_session",
            median(&layer.rendered_bytes),
        ),
        (
            "viewer.render_mb_per_s",
            layer.traced_bytes as f64 / 1e6 / render_s,
        ),
        ("expdb.columns_faulted_per_session", median(&layer.faulted)),
        ("expdb.lazy_errors", layer.lazy_errors as f64),
        ("core.top_k_ms_p50", median(&layer.probes.top_k_ms)),
        (
            "core.attribute_ns_per_node",
            median(&layer.probes.attribute_ns_per_node),
        ),
        ("workloads.generate_ms", layer.generate_ms),
        ("expdb.encode_v21_ms_p50", layer.encode_ms),
        (
            "expdb.encode_v21_mb_per_s",
            layer.encoded_bytes as f64 / 1e6 / (layer.encode_ms / 1e3),
        ),
    ]);
    Outcome {
        setup_s,
        blocks,
        peak_rss_mb: peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
        db_bytes: dbs.iter().map(|d| d.file_bytes).sum(),
        db_nnz: dbs.iter().map(|d| d.nnz).sum(),
        layer: values,
    }
}

// ---------------------------------------------------------------- nav_mid

/// Rows a `nav_mid` session has on screen once it has drilled down.
/// What a warm re-render costs follows the rows shown, and how far the
/// hot path alone opens a generated tree is luck (15 to 150 rows from
/// one seed to the next); expanding to a fixed number of rows makes the
/// session the same amount of work on every tree.
const MID_ROWS: usize = 200;

/// The 19-step script: only commands the serve protocol can express.
/// Of a session's 18 operations five are quicker than a warm Calling
/// Context re-render (the ones on the few rows of a fresh Callers or
/// Flat View), two slower (the view switches), and eleven are such
/// re-renders; the median operation is one of the cheapest of those, a
/// sort, and the 95th percentile lies inside the slower switch.
fn mid_script(sorts: &[u32], needle: &str) -> Vec<Step> {
    let mut s = vec![
        Step::OpenPaint,
        Step::ExpandTo(MID_ROWS),
        cmd("op.hot_path", Command::HotPath),
    ];
    s.extend(
        sorts
            .iter()
            .map(|&c| cmd("op.sort", Command::SortBy(ColumnId(c)))),
    );
    s.extend([
        cmd("op.sort_name", Command::SortByName(true)),
        cmd("op.find", Command::Find(needle.to_owned())),
        cmd("op.sort_name", Command::SortByName(false)),
        cmd("op.view_callers", Command::SwitchView(ViewKind::Callers)),
        cmd("op.sort_callers", Command::SortBy(ColumnId(sorts[0]))),
        cmd("op.hot_path_callers", Command::HotPath),
        cmd("op.view_flat", Command::SwitchView(ViewKind::Flat)),
        cmd("op.flatten", Command::Flatten),
        cmd("op.flatten", Command::Flatten),
        cmd("op.unflatten", Command::Unflatten),
        cmd("op.view_ccv", Command::SwitchView(ViewKind::CallingContext)),
    ]);
    s
}

pub struct MidInputs {
    pub db: Db,
    /// The experiment the file was written from.
    pub source: Experiment,
    pub generate_ms: f64,
    pub encode_ms: f64,
}

/// Generate, widen, encode and write the `nav_mid` database.
pub fn mid_inputs(ctx: &Ctx) -> MidInputs {
    let mut rng = Rng(ctx.seed);
    let shape_seed = rng.next();
    // Multiples of 1/32 over integer costs: every sum is exact in f64
    // in any order, so the file's renders and the in-memory reference's
    // cannot part on a last digit.
    let scales: Vec<f64> = (0..16).map(|_| 1.0 + rng.below(8) as f64 / 32.0).collect();
    let (source, generate_ns) = timed(|| {
        let base = random_experiment(shape_seed, ctx.size(20_000, 400), ctx.size(200, 20));
        adapter::widen(&base, &scales)
    });
    let (bytes, encode_ns) = timed(|| to_binary_v21(&source));
    let path = ctx.tmp.join("nav_mid.cpdb");
    write_warm(&path, &bytes);

    // Sorts go by inclusive columns only: an exclusive ordering pushes
    // the expanded hot path below the renderer's children cut-off, and
    // the cost of a re-render would depend on how many of each kind the
    // seed happened to draw.
    let n_columns = source.columns.column_count();
    let mut columns: Vec<u32> = (2..n_columns as u32).step_by(2).collect();
    rng.shuffle(&mut columns);
    let needle = pick_needle(&source, 3, &mut rng);
    MidInputs {
        db: Db {
            path,
            one_column: false,
            script: mid_script(&columns[..5], needle),
            file_bytes: bytes.len() as u64,
            nnz: stored_nnz(&source),
        },
        source,
        generate_ms: generate_ns as f64 / 1e6,
        encode_ms: encode_ns as f64 / 1e6,
    }
}

/// Digest of the script's renders over an experiment already in memory.
fn reference_digest(exp: &Experiment, script: &[Step]) -> Digest {
    let mut nav = Nav::new(exp, false, &[]);
    let mut off = Tracer::new(false, Instant::now());
    for step in script {
        let (result, _) = nav.step(step, Instant::now(), &mut off);
        result.unwrap_or_else(|e| panic!("reference session, {}: {e}", step.kind()));
    }
    nav.out.digest
}

pub fn nav_mid(ctx: &Ctx) -> Outcome {
    let (inputs, setup_s) = timed_setup(ctx, || mid_inputs(ctx));
    let db = &inputs.db;
    // What every session must render: the same script on the in-memory
    // experiment the file was written from.
    let reference = reference_digest(&inputs.source, &db.script);
    let layer = NavLayer {
        generate_ms: inputs.generate_ms,
        encode_ms: inputs.encode_ms,
        encoded_bytes: db.file_bytes,
        ..Default::default()
    };
    run_nav(ctx, setup_s, &[db], layer, |tr, rec, probes| {
        let out = run_session(db, &[], true, tr, rec, probes);
        rec.check(out.digest == reference, || {
            format!(
                "render digest {:016x} differs from the in-memory reference {:016x}",
                out.digest.0, reference.0
            )
        });
        out
    })
}

// -------------------------------------------------------------- nav_large

pub struct LargeInputs {
    pub huge: Db,
    pub large: Db,
    generate_ms: f64,
    encode_ms: f64,
}

/// New-column operations per session on `huge`. With 8, a session's 15
/// operations sort into 5 quick ones on `large`, 8 single-column faults
/// on `huge` and the 2 view switches. Every step of the script has as
/// many repeats in the sample as every other, and a fault costs more
/// the more columns the session has faulted before it (some 32 to 83 ms
/// from the first to the eighth), so the steps are fifteen levels: an
/// odd number of them puts the median inside one step (the third
/// fault), not on the boundary between two, and the 95th percentile a
/// quarter of the way into the slowest, the Flat switch. Every session
/// faults the same columns — the inclusive columns of metrics 1 to 8,
/// metric 0 being the one the first paint shows — in its own seed-drawn
/// order: what a fault costs beyond its place in the session depends on
/// the column (the hot path it opens), by a tenth or so, and with one
/// order for the whole run the median would be one column's cost, which
/// moved `op_ms_p50` by a fifth from seed to seed.
const HUGE_NEW_COLUMNS: usize = 8;

fn write_synth(ctx: &Ctx, name: &str, cfg: &SynthConfig, script: Vec<Step>) -> (Db, f64, f64) {
    let (model, gen_ns) = timed(|| synth_model(cfg));
    let (bytes, enc_ns) = timed(|| bin2::write_v21(&model));
    let path = ctx.tmp.join(name);
    write_warm(&path, &bytes);
    let db = Db {
        path,
        one_column: true,
        script,
        file_bytes: bytes.len() as u64,
        nnz: model.metrics.iter().map(|m| m.costs.len() as u64).sum(),
    };
    (db, gen_ns as f64 / 1e6, enc_ns as f64 / 1e6)
}

pub fn large_inputs(ctx: &Ctx) -> LargeInputs {
    let mut rng = Rng(ctx.seed);
    let huge_cfg = SynthConfig {
        seed: rng.next(),
        n_nodes: ctx.size(1_000_000, 20_000),
        n_metrics: ctx.size(1024, 32),
        nnz_per_metric: ctx.size(1024, 256),
        n_procs: 2000,
    };
    let large_cfg = SynthConfig {
        seed: rng.next(),
        n_nodes: ctx.size(8000, 600),
        n_metrics: ctx.size(64, 8),
        nnz_per_metric: ctx.size(2048, 128),
        n_procs: 2000,
    };
    let mut huge_script = vec![Step::OpenPaint];
    huge_script.extend(std::iter::repeat_n(Step::NewColumn, HUGE_NEW_COLUMNS));
    // Callers/Flat construction runs on `large` only: on `huge` it takes
    // minutes today (README.md, "nav_large").
    let large_script = vec![
        Step::OpenPaint,
        cmd("op.view_callers", Command::SwitchView(ViewKind::Callers)),
        cmd("op.sort", Command::SortBy(ColumnId(0))),
        cmd("op.view_flat", Command::SwitchView(ViewKind::Flat)),
        cmd("op.flatten", Command::Flatten),
        cmd("op.unflatten", Command::Unflatten),
        cmd("op.view_ccv", Command::SwitchView(ViewKind::CallingContext)),
    ];
    let (huge, hg, he) = write_synth(ctx, "nav_large_huge.cpdb", &huge_cfg, huge_script);
    let (large, lg, le) = write_synth(ctx, "nav_large_large.cpdb", &large_cfg, large_script);
    LargeInputs {
        huge,
        large,
        generate_ms: hg + lg,
        encode_ms: he + le,
    }
}

/// One `nav_large` session: `huge`, then `large`, each freshly opened.
fn large_session<'s>(
    inputs: &'s LargeInputs,
    rng: &mut Rng,
    tr: &mut Tracer,
    rec: &mut Recorder,
    probes: &mut Probes<'s>,
) -> SessionResult {
    let mut fresh: Vec<u32> = (1..=HUGE_NEW_COLUMNS as u32).map(|m| 2 * m).collect();
    rng.shuffle(&mut fresh);
    let a = run_session(&inputs.huge, &fresh, true, tr, rec, probes);
    let b = run_session(&inputs.large, &[], false, tr, rec, probes);
    SessionResult {
        digest: a.digest,
        rendered_bytes: a.rendered_bytes + b.rendered_bytes,
        columns_faulted: a.columns_faulted + b.columns_faulted,
        lazy_errors: a.lazy_errors + b.lazy_errors,
    }
}

pub fn nav_large(ctx: &Ctx) -> Outcome {
    let (inputs, setup_s) = timed_setup(ctx, || large_inputs(ctx));
    let mut rng = Rng(ctx.seed);
    let layer = NavLayer {
        generate_ms: inputs.generate_ms,
        encode_ms: inputs.encode_ms,
        encoded_bytes: inputs.huge.file_bytes + inputs.large.file_bytes,
        ..Default::default()
    };
    run_nav(
        ctx,
        setup_s,
        &[&inputs.huge, &inputs.large],
        layer,
        |tr, rec, probes| large_session(&inputs, &mut rng, tr, rec, probes),
    )
}
