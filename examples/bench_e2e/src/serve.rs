//! `serve_loopback`: the real `callpath-serve` binary on 127.0.0.1,
//! the three case-study databases preloaded, one closed-loop client per
//! core (at most two). An operation is one request: first byte written
//! to reply newline read.
//!
//! Client hygiene (README.md, "serve_loopback"): every request line is
//! built before the clock starts and sent with one `write_all` on a
//! socket with `TCP_NODELAY`. A `writeln!` on a raw `TcpStream` is two
//! writes; the second waits for the server's delayed ACK, a ~40 ms
//! stall that belongs to the client and would be billed to the server.

use crate::harness::{
    pick_needle, run_blocks, stored_nnz, timed_setup, write_warm, Blocks, Ctx, Outcome, Recorder,
    Rng,
};
use crate::metrics::{median, peak_rss_mb, Values};
use crate::nav;
use crate::trace::{timed, Tracer};
use callpath_core::prelude::*;
use callpath_expdb::{open_lazy_path, to_binary_v21};
use callpath_parallel::{run_spmd, SpmdConfig};
use callpath_profiler::ExecConfig;
use callpath_serve::json::{self, Json};
use callpath_serve::{protocol, Engine, ServeConfig};
use callpath_viewer::{Command, Session};
use callpath_workloads::{moab, pflotran, pipeline, s3d};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Proc, Stdio};
use std::time::{Duration, Instant};

/// One request of the navigation script: the operation kind, the
/// protocol method and extra params, and the command a direct
/// `Session` runs for it (`None`: nothing to apply, or no render).
struct Request {
    kind: &'static str,
    method: &'static str,
    params: String,
    direct: Option<Command>,
    renders: bool,
}

/// The `tests/serve_smoke.rs` navigation script plus `render` and
/// `ping`. Replies stay small on purpose: on 40–130 KB replies the
/// wire stall is bimodal (3–48 ms), which no median survives.
fn script(needle: &str) -> Vec<Request> {
    let req = |kind, method, params: String, direct, renders| Request {
        kind,
        method,
        params,
        direct,
        renders,
    };
    vec![
        req("op.render", "render", String::new(), None, true),
        req(
            "op.find",
            "find",
            format!(r#","needle":"{needle}""#),
            Some(Command::Find(needle.to_owned())),
            true,
        ),
        req(
            "op.sort",
            "sort",
            r#","column":1"#.into(),
            Some(Command::SortBy(ColumnId(1))),
            true,
        ),
        req(
            "op.hot_path",
            "hot-path",
            String::new(),
            Some(Command::HotPath),
            true,
        ),
        req(
            "op.view_flat",
            "view",
            r#","view":"flat""#.into(),
            Some(Command::SwitchView(ViewKind::Flat)),
            true,
        ),
        req(
            "op.flatten",
            "flatten",
            String::new(),
            Some(Command::Flatten),
            true,
        ),
        req(
            "op.view_callers",
            "view",
            r#","view":"callers""#.into(),
            Some(Command::SwitchView(ViewKind::Callers)),
            true,
        ),
        req(
            "op.view_ccv",
            "view",
            r#","view":"ccv""#.into(),
            Some(Command::SwitchView(ViewKind::CallingContext)),
            true,
        ),
        req("op.render", "render", String::new(), None, true),
        req("op.ping", "ping", String::new(), None, false),
    ]
}

/// A database file, its script and what a direct `Session` renders at
/// each step of it.
struct ServedDb {
    path: PathBuf,
    script: Vec<Request>,
    expected: Vec<String>,
    file_bytes: u64,
    nnz: u64,
}

impl ServedDb {
    /// The request lines of one session, newline included.
    fn lines(&self, sid: u64) -> Vec<Vec<u8>> {
        self.script
            .iter()
            .map(|r| match r.method {
                "ping" => b"{\"method\":\"ping\"}\n".to_vec(),
                m => format!(
                    "{{\"method\":\"{m}\",\"params\":{{\"session\":{sid}{}}}}}\n",
                    r.params
                )
                .into_bytes(),
            })
            .collect()
    }

    fn open_line(&self) -> Vec<u8> {
        format!(
            "{{\"method\":\"open\",\"params\":{{\"path\":\"{}\"}}}}\n",
            self.path.display()
        )
        .into_bytes()
    }
}

fn write_db(ctx: &Ctx, name: &str, exp: &Experiment, rng: &mut Rng) -> ServedDb {
    let bytes = to_binary_v21(exp);
    let path = ctx.tmp.join(name);
    write_warm(&path, &bytes);
    let needle = pick_needle(exp, 2, rng);
    let script = script(needle);
    let lazy = open_lazy_path(&path).expect("open a database just written");
    let mut session = Session::new(&lazy, SourceStore::new());
    let expected = script
        .iter()
        .map(|r| {
            if let Some(cmd) = &r.direct {
                session.apply(cmd.clone()).expect("direct session command");
            }
            session.render_numbered().0
        })
        .collect();
    ServedDb {
        path,
        script,
        expected,
        file_bytes: bytes.len() as u64,
        nnz: stored_nnz(exp),
    }
}

/// The server's live-session cap. Sessions are never closed, and a run
/// opens a few dozen, so a cap of 16 keeps LRU eviction at work through
/// every block (the default of 64 would be reached only near the end).
const MAX_SESSIONS: &str = "16";

/// A running `callpath-serve`; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(bin: &Path, preload: &[&Path]) -> Server {
        let mut child = Proc::new(bin)
            .args(["--addr", "127.0.0.1:0", "--max-sessions", MAX_SESSIONS])
            .args(preload)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read the server's listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected server start-up line {line:?}"))
            .to_owned();
        Server { child, addr }
    }

    /// Ask the server to drain, and wait for it to exit.
    fn shutdown(mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.call(b"{\"method\":\"shutdown\"}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
        })
    }

    /// One request: `line` ends in a newline and goes out in one write.
    /// Returns the reply line and the round trip in ms.
    fn call(&mut self, line: &[u8]) -> Result<(String, f64), String> {
        let start = Instant::now();
        self.stream.write_all(line).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok((reply, ms))
    }
}

/// `result` of an `ok:true` reply.
fn result_of(reply: &str) -> Result<Json, String> {
    let v = json::parse(reply.trim())?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("refused: {}", reply.trim()));
    }
    v.get("result")
        .cloned()
        .ok_or_else(|| "reply without result".to_owned())
}

fn session_id(result: &Json) -> Result<u64, String> {
    result
        .get("session")
        .and_then(Json::as_u64)
        .ok_or_else(|| "open reply without a session id".to_owned())
}

/// Timings the traced run takes beside the requests.
#[derive(Default)]
struct Probes {
    parse_us: Vec<f64>,
    encode_us: Vec<f64>,
}

/// An in-process `Engine` fed the same requests as the server, so that
/// a request's round trip splits into engine time and wire time.
struct Mirror {
    engine: Engine,
    probes: Probes,
}

impl Mirror {
    /// Replay `line` (with this engine's own session id) and hang the
    /// timing under the request's `serve.wire` span.
    fn replay(&mut self, line: &[u8], wire: usize, tr: &mut Tracer) -> String {
        let text = std::str::from_utf8(line).expect("request lines are UTF-8");
        let (reply, ns) = timed(|| self.engine.handle_line(text));
        tr.attach(wire, "serve.engine", ns);
        let ((id, _), parse_ns) = timed(|| protocol::parse_request(text));
        self.probes.parse_us.push(parse_ns as f64 / 1e3);
        if let Ok(result) = result_of(&reply) {
            let (_, ns) = timed(|| protocol::response(&id, Ok(result)));
            self.probes.encode_us.push(ns as f64 / 1e3);
        }
        reply
    }
}

/// One scripted session over `db`: `open`, then every request of the
/// script. First paint is the `open` and the first `render` together.
fn run_session(
    client: &mut Client,
    db: &ServedDb,
    mut mirror: Option<&mut Mirror>,
    tr: &mut Tracer,
    rec: &mut Recorder,
) {
    // Returns the reply and the index of the request's `serve.wire` span.
    let mut request = |kind: &'static str, line: &[u8], tr: &mut Tracer| {
        tr.begin(kind);
        let wire = tr.begin("serve.wire");
        let out = client.call(line);
        tr.end();
        tr.end();
        (out, wire)
    };
    let open_line = db.open_line();
    let (opened, wire) = request("paint.open", &open_line, tr);
    let mirror_sid = mirror.as_deref_mut().map(|m| {
        let reply = m.replay(&open_line, wire, tr);
        result_of(&reply)
            .and_then(|r| session_id(&r))
            .expect("mirror open")
    });
    let (sid, open_ms) =
        match opened.and_then(|(reply, ms)| Ok((session_id(&result_of(&reply)?)?, ms))) {
            Ok(v) => v,
            Err(why) => {
                rec.first_paint(f64::INFINITY, Err(format!("open: {why}")));
                return;
            }
        };
    let lines = db.lines(sid);
    let mirror_lines = mirror_sid.map(|sid| db.lines(sid));
    for (i, (r, line)) in db.script.iter().zip(&lines).enumerate() {
        let kind = if i == 0 { "paint.render" } else { r.kind };
        let (sent, wire) = request(kind, line, tr);
        if let (Some(m), Some(lines)) = (mirror.as_deref_mut(), &mirror_lines) {
            m.replay(&lines[i], wire, tr);
        }
        // Replies are checked after the clock has stopped.
        let (ms, result) = match sent {
            Err(why) => (f64::INFINITY, Err(why)),
            Ok((reply, ms)) => {
                let checked = result_of(&reply).and_then(|result| {
                    if !r.renders {
                        return Ok(());
                    }
                    let render = result.get("render").and_then(Json::as_str);
                    if render == Some(db.expected[i].as_str()) {
                        Ok(())
                    } else {
                        Err("render differs from the direct session's".to_owned())
                    }
                });
                (ms, checked)
            }
        };
        if i == 0 {
            rec.first_paint(open_ms + ms, result);
        } else {
            rec.op(r.kind, ms, result);
        }
    }
}

struct Inputs {
    dbs: Vec<ServedDb>,
    server: Server,
    generate_ms: f64,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let mut rng = Rng(ctx.seed);
    let exec = ExecConfig {
        jitter_seed: Some(rng.next()),
        ..Default::default()
    };
    let ranks = ctx.size(64, 8);
    let (exps, generate_ns) = timed(|| {
        let part = pflotran::Partition::default();
        let scales = (0..ranks).map(|r| part.scale(r, ranks)).collect();
        [
            pipeline::build_experiment(&s3d::program(s3d::S3dConfig::default()), &exec),
            pipeline::build_experiment(&moab::program(), &exec),
            run_spmd(&pflotran::program(), &SpmdConfig::new(scales, exec.clone())).experiment,
        ]
    });
    let dbs: Vec<ServedDb> = ["s3d.cpdb", "moab.cpdb", "pflotran.cpdb"]
        .iter()
        .zip(&exps)
        .map(|(name, exp)| write_db(ctx, name, exp, &mut rng))
        .collect();
    let preload: Vec<&Path> = dbs.iter().map(|d| d.path.as_path()).collect();
    let server = Server::start(&ctx.serve_bin, &preload);
    Inputs {
        dbs,
        server,
        generate_ms: generate_ns as f64 / 1e6,
    }
}

/// `render` replies of the `nav_mid` database through an in-process
/// engine: large replies without the wire, in MB/s.
fn reply_mb_per_s(ctx: &Ctx) -> f64 {
    let mid = nav::mid_inputs(ctx);
    let engine = Engine::new(ServeConfig::default());
    let open = format!(
        r#"{{"method":"open","params":{{"path":"{}"}}}}"#,
        mid.db.path.display()
    );
    let sid = result_of(&engine.handle_line(&open))
        .and_then(|r| session_id(&r))
        .expect("in-process open of the nav_mid database");
    engine.handle_line(&format!(
        r#"{{"method":"hot-path","params":{{"session":{sid}}}}}"#
    ));
    let render = format!(r#"{{"method":"render","params":{{"session":{sid}}}}}"#);
    let (bytes, ns) = timed(|| {
        (0..20)
            .map(|_| engine.handle_line(&render).len())
            .sum::<usize>()
    });
    bytes as f64 / 1e6 / (ns as f64 / 1e9)
}

pub fn serve_loopback(ctx: &Ctx) -> Outcome {
    let (inputs, setup_s) = timed_setup(ctx, || inputs(ctx));
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));

    let per_client: Vec<(Blocks, Probes)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let inputs = &inputs;
                scope.spawn(move || {
                    let mut client = Client::connect(&inputs.server.addr).expect("connect");
                    let mut mirror = ctx.trace.then(|| Mirror {
                        engine: Engine::new(ServeConfig::default()),
                        probes: Probes::default(),
                    });
                    // Each client walks the databases in its own order.
                    let mut next = c;
                    let blocks = run_blocks(ctx, f64::INFINITY, |tr, rec| {
                        let db = &inputs.dbs[next % inputs.dbs.len()];
                        next += 1;
                        let mirror = if tr.on() { mirror.as_mut() } else { None };
                        run_session(&mut client, db, mirror, tr, rec);
                    });
                    (blocks, mirror.map(|m| m.probes).unwrap_or_default())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let mut per_client = per_client.into_iter();
    let (mut blocks, mut probes) = per_client.next().expect("at least one client");
    for (b, p) in per_client {
        blocks.merge(b);
        probes.parse_us.extend(p.parse_us);
        probes.encode_us.extend(p.encode_us);
    }

    // The server's own view, read before it goes away.
    let stats = Client::connect(&inputs.server.addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.call(b"{\"method\":\"stats\"}\n"))
        .and_then(|(reply, _)| result_of(&reply));
    let stat = |key: &str| {
        stats
            .as_ref()
            .ok()
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    blocks
        .measured
        .check(stats.is_ok(), || format!("stats: {stats:?}"));
    let server_errors = stat("errors");
    blocks.measured.check(server_errors == 0.0, || {
        format!("the server counted {server_errors} failed requests")
    });
    let peak = peak_rss_mb(inputs.server.child.id()).unwrap_or(f64::NAN);

    let mut layer = Values::from([
        ("serve.requests_failed", server_errors),
        ("serve.sessions_evicted", stat("evictions")),
        ("workloads.generate_ms", inputs.generate_ms),
    ]);
    if ctx.trace {
        layer.insert("serve.parse_request_us_p50", median(&probes.parse_us));
        layer.insert("serve.response_encode_us_p50", median(&probes.encode_us));
        layer.insert("serve.reply_mb_per_s", reply_mb_per_s(ctx));
    }
    let (db_bytes, db_nnz) = inputs
        .dbs
        .iter()
        .fold((0, 0), |(b, n), d| (b + d.file_bytes, n + d.nnz));
    inputs.server.shutdown();
    Outcome {
        setup_s,
        blocks,
        peak_rss_mb: peak,
        db_bytes,
        db_nnz,
        layer,
    }
}
