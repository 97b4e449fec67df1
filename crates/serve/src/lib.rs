#![warn(missing_docs)]
//! # callpath-serve
//!
//! The serving path: a resident daemon that keeps experiment databases
//! open and multiplexes many independent viewer [`Session`]s over
//! shared immutable [`Experiment`]s (DESIGN.md §14).
//!
//! The paper's presentation model assumes an interactive viewer; the
//! one-shot CLI binaries pay a full open per invocation. This crate
//! amortizes that: databases are opened once via `expdb::open_lazy_path`
//! (mmap-backed for v2.1, so the OS page cache is the working set) and
//! every client gets its own [`Session`] — expansion state, sort
//! column, zoom, flatten level — over the same experiment. The
//! per-session sort caches and the `OnceLock` lazy column slots make
//! the sharing safe without any per-request locking of the experiment
//! itself.
//!
//! Layering:
//!
//! * [`json`] — a small, hostile-input-safe JSON codec (no external
//!   parser dependency);
//! * [`protocol`] — request validation and reply framing;
//! * [`sessions`] — the bounded session table and its eviction rule;
//! * [`Engine`] — transport-independent dispatch: one request line in,
//!   one reply line out, panics caught and converted into `internal`
//!   errors;
//! * [`server`] — the TCP front end: thread-per-connection over
//!   blocking I/O, idle and write timeouts, and a stop handle that
//!   delivers shutdown to blocked threads for a graceful drain.
//!
//! [`Session`]: callpath_viewer::Session
//! [`Experiment`]: callpath_core::prelude::Experiment

pub mod json;
pub mod protocol;
pub mod server;
pub mod sessions;

use crate::json::{obj, Json};
use crate::protocol::{parse_request, response, Request, RequestError};
use crate::sessions::{SessionSlot, SessionTable};
use callpath_core::prelude::{ColumnId, Experiment};
use callpath_obs as obs;
use callpath_viewer::{Command, Session};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use server::{Server, StopHandle};

/// Tunables for a server instance. `Default` matches the documented
/// daemon defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most sessions held at once; opening past this evicts one (see
    /// [`sessions`] for which).
    pub max_sessions: usize,
    /// A connection is closed once this long has passed since its last
    /// complete request (silent or stalled mid-line alike).
    pub idle_timeout: Duration,
    /// Per-write socket timeout (bounds how long a client that stops
    /// reading can hold a connection thread in a reply).
    pub io_timeout: Duration,
    /// Longest accepted request line; longer lines are rejected with a
    /// `parse` error and the connection is dropped.
    pub max_line_bytes: usize,
    /// Whether the `shutdown` RPC is honored (the CLI flag
    /// `--no-shutdown-rpc` clears it; SIGINT always works).
    pub allow_shutdown_rpc: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 64,
            idle_timeout: Duration::from_secs(300),
            io_timeout: Duration::from_secs(30),
            max_line_bytes: 1 << 20,
            allow_shutdown_rpc: true,
        }
    }
}

/// Fixed-size power-of-two latency histogram: a request lands in the
/// bucket of its `ns`'s bit length (0 ns counts as 1), so bucket `i`
/// counts `ns` in `[2^(i−1), 2^i)` for `1 ≤ i < 63`, bucket 63 holds
/// everything from `2^62` up, and bucket 0 is never used. Coarse
/// (bucket-boundary resolution) but lock-free and always-on; the serve
/// smoke bench records exact client-side latencies alongside it.
pub struct LatencyHist {
    buckets: [AtomicU64; 64],
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: [const { AtomicU64::new(0) }; 64],
        }
    }
}

impl LatencyHist {
    /// How many requests have been recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Record one request that took `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        let bucket = (64 - ns.max(1).leading_zeros() as usize).min(63);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Approximate quantile in nanoseconds (`q` in [0, 1]): the lower
    /// bound `2^(i−1)` of the bucket `i` holding the q-th sample, up to
    /// 2× below the true value. Returns 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        1u64 << 62
    }
}

/// Always-on request counters, mirrored into the `obs` snapshot as
/// `serve.*` so `--stats` surfaces them next to pool and cache stats.
#[derive(Default)]
pub struct ServeStats {
    /// Total requests handled (including rejected ones).
    pub requests: AtomicU64,
    /// Requests answered with `ok:false`.
    pub errors: AtomicU64,
    /// Sessions opened since startup.
    pub sessions_opened: AtomicU64,
}

/// Transport-independent request dispatcher: the whole server minus
/// the sockets. Tests drive it directly via [`Engine::handle_line`];
/// the TCP front end in [`server`] feeds it one line per request
/// through [`Engine::handle_line_from`].
pub struct Engine {
    cfg: ServeConfig,
    sessions: Mutex<SessionTable>,
    /// Experiments cache keyed by canonicalized path, so two sessions
    /// on the same database share one mmap and one set of lazy
    /// column slots.
    experiments: Mutex<HashMap<PathBuf, Arc<Experiment>>>,
    /// Ensemble directories cache (same keying). A directory is tiny —
    /// labels, fingerprints and per-metric totals — so `ensemble-stats`
    /// after the first request never touches the file again.
    ensembles: Mutex<HashMap<PathBuf, Arc<callpath_expdb::ens::Directory>>>,
    /// Request counters (also mirrored to `obs`).
    pub stats: ServeStats,
    /// In-process request latency histogram.
    pub latency: LatencyHist,
    /// The same, per request method (`stats` reports the ones seen).
    /// Keyed by [`Request::method`], so clients cannot grow it.
    methods: Mutex<BTreeMap<&'static str, LatencyHist>>,
    shutdown: AtomicBool,
    started: Instant,
}

impl Engine {
    /// A fresh engine with no sessions.
    pub fn new(cfg: ServeConfig) -> Self {
        let capacity = cfg.max_sessions.max(1);
        Engine {
            cfg,
            sessions: Mutex::new(SessionTable::new(capacity)),
            experiments: Mutex::new(HashMap::new()),
            ensembles: Mutex::new(HashMap::new()),
            stats: ServeStats::default(),
            latency: LatencyHist::default(),
            methods: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// The tunables this engine was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Whether shutdown has been requested (by the `shutdown` RPC or
    /// [`StopHandle::stop`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Set the shutdown flag (idempotent). This alone wakes nobody:
    /// [`StopHandle::stop`] delivers it to the blocked threads.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Open `path` (or return the cached experiment for it). Shared by
    /// the `open` RPC and the binary's preload arguments.
    pub fn load_experiment(&self, path: &str) -> Result<Arc<Experiment>, String> {
        let key = std::fs::canonicalize(path).unwrap_or_else(|_| PathBuf::from(path));
        if let Some(exp) = self.experiments.lock().get(&key) {
            return Ok(Arc::clone(exp));
        }
        let exp = callpath_expdb::open_path(Path::new(path)).map_err(|e| e.to_string())?;
        let exp = Arc::new(exp);
        // Double-open race is benign: last writer wins, both Arcs are
        // valid, sessions keep whichever they were built on alive.
        self.experiments.lock().insert(key, Arc::clone(&exp));
        Ok(exp)
    }

    /// [`Engine::handle_line_from`] for a caller that is no connection
    /// (owner 0).
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_from(0, line)
    }

    /// A request arrived: one count in the `stats` RPC's numbers and one
    /// in the `--stats` dump's, here and nowhere else.
    fn count_request(&self) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        obs::count("serve.requests", 1);
    }

    /// A request failed; see [`Self::count_request`].
    fn count_error(&self) {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        obs::count("serve.errors", 1);
    }

    /// The reply to a line the front end will not hand over (it is past
    /// the length cap): a failed request like any other, with no id to
    /// echo.
    pub(crate) fn refuse_line(&self, error: RequestError) -> String {
        self.count_request();
        self.count_error();
        response(&Json::Null, Err(error))
    }

    /// Handle one request line from connection `conn`, returning the
    /// reply line (no trailing newline). `conn` only names the owner of
    /// the sessions the line opens (see [`sessions`]); any connection
    /// may use any session. Never panics: dispatch runs under
    /// `catch_unwind` and a panic becomes an `internal` error reply.
    pub fn handle_line_from(&self, conn: u64, line: &str) -> String {
        let start = Instant::now();
        self.count_request();
        let (id, parsed) = parse_request(line);
        let method = parsed.as_ref().ok().map(Request::method);
        let result = match parsed {
            Err(e) => Err(e),
            Ok(request) => catch_unwind(AssertUnwindSafe(|| self.dispatch(conn, request)))
                .unwrap_or_else(|payload| {
                    let detail = panic_message(&payload);
                    obs::error(&format!("serve: request panicked: {detail}"));
                    Err(RequestError::new(
                        "internal",
                        format!("request handler panicked: {detail}"),
                    ))
                }),
        };
        if result.is_err() {
            self.count_error();
        }
        let ns = start.elapsed().as_nanos() as u64;
        self.latency.record(ns);
        if let Some(method) = method {
            self.methods.lock().entry(method).or_default().record(ns);
        }
        obs::observe("serve.request_ns", ns);
        response(&id, result)
    }

    fn dispatch(&self, conn: u64, request: Request) -> Result<Json, RequestError> {
        match request {
            Request::Open { path } => self.do_open(conn, &path),
            Request::Close { session } => {
                if self.sessions.lock().remove(session) {
                    Ok(obj(vec![("closed", Json::Bool(true))]))
                } else {
                    Err(unknown_session(session))
                }
            }
            Request::Render { session } => self.with_session(session, |s| Ok(render_result(s))),
            Request::Expand { session, node } => self.command(session, Command::Expand(node)),
            Request::Collapse { session, node } => self.command(session, Command::Collapse(node)),
            Request::Select { session, node } => self.command(session, Command::Select(node)),
            Request::Zoom { session, node } => self.command(session, Command::Zoom(node)),
            Request::Unzoom { session } => self.command(session, Command::Unzoom),
            Request::Sort { session, column } => {
                self.command(session, Command::SortBy(ColumnId(column)))
            }
            Request::SortName { session, on } => self.command(session, Command::SortByName(on)),
            Request::SwitchView { session, view } => {
                self.command(session, Command::SwitchView(view))
            }
            Request::HotPath { session, threshold } => self.with_session(session, |s| {
                if let Some(t) = threshold {
                    s.apply(Command::SetThreshold(t))
                        .map_err(|e| RequestError::new("command", e))?;
                }
                s.apply(Command::HotPath)
                    .map_err(|e| RequestError::new("command", e))?;
                Ok(render_result(s))
            }),
            Request::Flatten { session } => self.command(session, Command::Flatten),
            Request::Unflatten { session } => self.command(session, Command::Unflatten),
            Request::Find { session, needle } => self.command(session, Command::Find(needle)),
            Request::EnsembleStats { path, top } => self.do_ensemble_stats(&path, top),
            Request::Analyze {
                path,
                query,
                score,
                top,
            } => self.do_analyze(&path, &query, score.as_deref(), top),
            Request::Stats => Ok(self.stats_result()),
            Request::Ping => Ok(obj(vec![("pong", Json::Bool(true))])),
            Request::Shutdown => {
                if !self.cfg.allow_shutdown_rpc {
                    return Err(RequestError::new(
                        "forbidden",
                        "shutdown over RPC is disabled on this server",
                    ));
                }
                self.request_shutdown();
                Ok(obj(vec![("draining", Json::Bool(true))]))
            }
        }
    }

    /// Load the ensemble directory for `path` (cached by canonical
    /// path). The open is topology-only: no stat columns are faulted,
    /// and the whole container is integrity-checked by the v2.1 open.
    fn ensemble_directory(
        &self,
        path: &str,
    ) -> Result<Arc<callpath_expdb::ens::Directory>, String> {
        let key = std::fs::canonicalize(path).unwrap_or_else(|_| PathBuf::from(path));
        if let Some(dir) = self.ensembles.lock().get(&key) {
            return Ok(Arc::clone(dir));
        }
        let ensemble =
            callpath_expdb::ens::open(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        let dir = Arc::new(ensemble.dir);
        obs::count("serve.ensemble_opens", 1);
        self.ensembles.lock().insert(key, Arc::clone(&dir));
        Ok(dir)
    }

    fn do_ensemble_stats(&self, path: &str, top: u32) -> Result<Json, RequestError> {
        let dir = self
            .ensemble_directory(path)
            .map_err(|e| RequestError::new("open", e))?;
        let scores = callpath_ensemble::outlier_scores(&dir);
        let outliers: Vec<Json> = scores
            .iter()
            .take(top as usize)
            .map(|&(r, score)| {
                obj(vec![
                    ("run", Json::Num(r as f64)),
                    ("label", Json::Str(dir.runs[r].label.clone())),
                    ("score", Json::Num(score)),
                ])
            })
            .collect();
        Ok(obj(vec![
            ("runs", Json::Num(dir.runs.len() as f64)),
            (
                "metrics",
                Json::Arr(
                    dir.metric_names
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect(),
                ),
            ),
            ("outliers", Json::Arr(outliers)),
        ]))
    }

    /// Run an analysis query against the (cached) experiment for
    /// `path`. A `.cpens` ensemble works unchanged — it is a valid
    /// v2.1 database, so the query sees its stat columns. Query text
    /// errors (bad syntax, unknown columns) come back as `command`
    /// errors; only the file open itself is an `open` error.
    fn do_analyze(
        &self,
        path: &str,
        query: &str,
        score: Option<&str>,
        top: u32,
    ) -> Result<Json, RequestError> {
        let exp = self
            .load_experiment(path)
            .map_err(|e| RequestError::new("open", e))?;
        let report = callpath_analyze::run_query(&exp, query, score, top as usize, 1)
            .map_err(|e| RequestError::new("command", e))?;
        obs::count("serve.analyze", 1);
        Ok(report.to_json())
    }

    fn do_open(&self, conn: u64, path: &str) -> Result<Json, RequestError> {
        let exp = self
            .load_experiment(path)
            .map_err(|e| RequestError::new("open", e))?;
        let nodes = exp.cct.len();
        let columns: Vec<Json> = exp
            .columns
            .descs()
            .iter()
            .map(|desc| Json::Str(desc.name.clone()))
            .collect();
        let mut table = self.sessions.lock();
        let before = table.evictions();
        let id = table.insert(conn, exp, path.to_owned());
        let evicted = table.evictions() - before;
        drop(table);
        self.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        obs::count("serve.sessions_opened", 1);
        if evicted > 0 {
            obs::count("serve.evictions", evicted);
        }
        Ok(obj(vec![
            ("session", Json::Num(id as f64)),
            ("nodes", Json::Num(nodes as f64)),
            ("columns", Json::Arr(columns)),
        ]))
    }

    /// Run `f` against a session, stamping it most-recently-used. The
    /// slot's `Arc` is cloned out of the table first so a concurrent
    /// `open` evicting this session mid-request can't pull the
    /// experiment out from under it.
    fn with_session<F>(&self, id: u64, f: F) -> Result<Json, RequestError>
    where
        F: FnOnce(&mut Session<'static>) -> Result<Json, RequestError>,
    {
        let slot: Arc<SessionSlot> = self
            .sessions
            .lock()
            .touch(id)
            .ok_or_else(|| unknown_session(id))?;
        let mut session = slot.session.lock();
        f(&mut session)
    }

    fn command(&self, id: u64, cmd: Command) -> Result<Json, RequestError> {
        self.with_session(id, |s| {
            s.apply(cmd).map_err(|e| RequestError::new("command", e))?;
            Ok(render_result(s))
        })
    }

    fn stats_result(&self) -> Json {
        let table = self.sessions.lock();
        let sessions = table.len();
        let evictions = table.evictions();
        drop(table);
        let methods = self
            .methods
            .lock()
            .iter()
            .map(|(&method, hist)| {
                // The quantiles here and below are bucket lower bounds
                // (`LatencyHist::quantile`): up to 2× below the true
                // latency.
                let summary = obj(vec![
                    ("count", Json::Num(hist.count() as f64)),
                    ("p50_ns", Json::Num(hist.quantile(0.50) as f64)),
                    ("p95_ns", Json::Num(hist.quantile(0.95) as f64)),
                ]);
                (method.to_owned(), summary)
            })
            .collect();
        obj(vec![
            ("sessions", Json::Num(sessions as f64)),
            (
                "requests",
                Json::Num(self.stats.requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "errors",
                Json::Num(self.stats.errors.load(Ordering::Relaxed) as f64),
            ),
            (
                "sessions_opened",
                Json::Num(self.stats.sessions_opened.load(Ordering::Relaxed) as f64),
            ),
            ("evictions", Json::Num(evictions as f64)),
            (
                "p50_latency_ns",
                Json::Num(self.latency.quantile(0.50) as f64),
            ),
            (
                "p95_latency_ns",
                Json::Num(self.latency.quantile(0.95) as f64),
            ),
            (
                "uptime_ms",
                Json::Num(self.started.elapsed().as_millis() as f64),
            ),
            ("methods", Json::Obj(methods)),
        ])
    }

    /// Live session count (for the binary's drain log line).
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }
}

fn unknown_session(id: u64) -> RequestError {
    RequestError::new(
        "unknown-session",
        format!("no session {id} (never opened, closed, or evicted by LRU)"),
    )
}

fn render_result(session: &mut Session<'static>) -> Json {
    let (render, rows) = session.render_numbered();
    Json::Obj(vec![
        ("render".to_owned(), Json::Str(render)),
        (
            "rows".to_owned(),
            Json::Arr(rows.into_iter().map(|n| Json::Num(n as f64)).collect()),
        ),
    ])
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_are_bucket_lower_bounds() {
        let one = LatencyHist::default();
        assert_eq!(one.quantile(0.5), 0, "no samples");
        one.record(1);
        assert_eq!(one.quantile(0.5), 1);
        let thousand = LatencyHist::default();
        thousand.record(1000);
        assert_eq!(thousand.quantile(0.5), 512, "[512, 1024) reads 512");
        assert_eq!(thousand.count(), 1);
    }
}
