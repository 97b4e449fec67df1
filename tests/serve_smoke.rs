//! End-to-end smoke of `callpath-serve`: boot the real binary on an
//! ephemeral port, drive a concurrent open/expand/sort/hot-path
//! workload from several client threads against s3d, and require the
//! served renders to be byte-identical to a direct [`Session`] running
//! the same commands. A malformed-request fuzz, the line-length cap,
//! the eviction rule across two connections, and the wire, shutdown and
//! idle-timeout paths round out the robustness contract from DESIGN.md
//! §14.
//!
//! The `#[ignore]`d bench variant records `BENCH_serve.json` — exact
//! client-side p50/p95 request latency plus sessions held — and is run
//! in release mode by `scripts/bench_smoke.sh`.

use callpath::serve::json::{self, Json};
use callpath_core::prelude::{ColumnId, SourceStore, ViewKind};
use callpath_expdb::open_lazy_path;
use callpath_viewer::{Command, Session};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command as Proc, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn serve_bin() -> &'static str {
    env!("CARGO_BIN_EXE_callpath-serve")
}

fn record_bin() -> &'static str {
    env!("CARGO_BIN_EXE_callpath-record")
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "callpath-serve-smoke-{}-{name}",
        std::process::id()
    ));
    p
}

/// Record the s3d workload once per process.
fn s3d_db() -> std::path::PathBuf {
    // Built once per process: sibling tests map this file, and a
    // second writer would truncate it under them.
    static S3D: OnceLock<std::path::PathBuf> = OnceLock::new();
    S3D.get_or_init(|| {
        let db = tmp("s3d.cpdb");
        let out = Proc::new(record_bin())
            .args(["--workload", "s3d", "-o", db.to_str().unwrap()])
            .output()
            .expect("run callpath-record");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        db
    })
    .clone()
}

/// A running server plus the address it bound.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn start(extra: &[&str]) -> ServerProc {
        let mut child = Proc::new(serve_bin())
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn callpath-serve");
        let stdout = child.stdout.as_mut().unwrap();
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
            .to_owned();
        ServerProc { child, addr }
    }

    /// SIGINT, then require a clean exit within the drain budget.
    fn interrupt_and_wait(self) {
        self.interrupt();
        self.wait_exit(Duration::from_secs(10));
    }

    fn interrupt(&self) {
        let pid = self.child.id().to_string();
        assert!(Proc::new("kill")
            .args(["-INT", &pid])
            .status()
            .unwrap()
            .success());
    }

    /// Require a clean exit within `budget`.
    fn wait_exit(mut self, budget: Duration) {
        let deadline = Instant::now() + budget;
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                assert!(status.success(), "server exited with {status}");
                return;
            }
            assert!(Instant::now() < deadline, "server did not drain in time");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Line and newline in one write: two writes would leave the second
    /// waiting on the server's delayed ACK, a stall of the client's own.
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    fn call(&mut self, line: &str) -> Json {
        self.send(line).expect("send request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        json::parse(reply.trim()).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}"))
    }

    /// Like [`Client::call`], but tolerates the server dropping the
    /// connection instead of replying (the contract for requests past
    /// the line-length cap, where resynchronization is impossible).
    fn try_call(&mut self, line: &str) -> Option<Json> {
        self.send(line).ok()?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(
                json::parse(reply.trim()).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}")),
            ),
        }
    }

    /// Call and require `ok:true`, returning `result`.
    fn ok(&mut self, line: &str) -> Json {
        let v = self.call(line);
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "request failed: {line} -> {}",
            v.to_json()
        );
        v.get("result").cloned().unwrap()
    }

    fn open(&mut self, db: &std::path::Path) -> u64 {
        let line = format!(
            r#"{{"method":"open","params":{{"path":"{}"}}}}"#,
            db.display()
        );
        self.ok(&line)
            .get("session")
            .and_then(Json::as_u64)
            .expect("session id")
    }
}

/// The navigation script every client runs, as (request template,
/// equivalent direct-session command). `SID` is substituted.
fn script() -> Vec<(String, Command)> {
    vec![
        (
            r#"{"method":"find","params":{"session":SID,"needle":"transport"}}"#.into(),
            Command::Find("transport".into()),
        ),
        (
            r#"{"method":"sort","params":{"session":SID,"column":1}}"#.into(),
            Command::SortBy(ColumnId(1)),
        ),
        (
            r#"{"method":"hot-path","params":{"session":SID}}"#.into(),
            Command::HotPath,
        ),
        (
            r#"{"method":"view","params":{"session":SID,"view":"flat"}}"#.into(),
            Command::SwitchView(ViewKind::Flat),
        ),
        (
            r#"{"method":"flatten","params":{"session":SID}}"#.into(),
            Command::Flatten,
        ),
        (
            r#"{"method":"view","params":{"session":SID,"view":"callers"}}"#.into(),
            Command::SwitchView(ViewKind::Callers),
        ),
        (
            r#"{"method":"view","params":{"session":SID,"view":"ccv"}}"#.into(),
            Command::SwitchView(ViewKind::CallingContext),
        ),
    ]
}

/// The renders the direct session produces for [`script`].
fn expected_renders(db: &std::path::Path) -> Vec<String> {
    let exp = open_lazy_path(db).expect("open db directly");
    let mut session = Session::new(&exp, SourceStore::new());
    script()
        .into_iter()
        .map(|(_, cmd)| {
            session.apply(cmd).expect("direct command");
            session.render_numbered().0
        })
        .collect()
}

/// Drive one full scripted session; returns per-request latencies.
fn run_script(client: &mut Client, db: &std::path::Path, expected: &[String]) -> Vec<Duration> {
    let sid = client.open(db);
    let mut latencies = Vec::new();
    for (i, (template, _)) in script().into_iter().enumerate() {
        let line = template.replace("SID", &sid.to_string());
        let start = Instant::now();
        let result = client.ok(&line);
        latencies.push(start.elapsed());
        let got = result.get("render").and_then(Json::as_str).unwrap();
        assert_eq!(got, expected[i], "render diverged at step {i}: {line}");
    }
    latencies
}

const CLIENT_THREADS: usize = 4;

#[test]
fn concurrent_clients_get_byte_identical_renders() {
    let db = s3d_db();
    let server = ServerProc::start(&[]);
    let expected = expected_renders(&db);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                let addr = server.addr.clone();
                let db = db.clone();
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr);
                    // Two scripted sessions per connection: exercises
                    // session multiplexing, not just parallel sockets.
                    for _ in 0..2 {
                        run_script(&mut client, &db, expected);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    // The server survived and the counters saw every request.
    let mut client = Client::connect(&server.addr);
    let stats = client.ok(r#"{"method":"stats"}"#);
    let opened = stats.get("sessions_opened").and_then(Json::as_u64).unwrap();
    assert_eq!(opened as usize, CLIENT_THREADS * 2);
    assert_eq!(stats.get("errors").and_then(Json::as_u64), Some(0));

    server.interrupt_and_wait();
}

#[test]
fn malformed_requests_over_tcp_never_kill_the_server() {
    let db = s3d_db();
    let server = ServerProc::start(&[]);

    let mut client = Client::connect(&server.addr);
    let sid = client.open(&db);
    for junk in [
        r#"{"id":1,"met"#,
        "not json",
        r#"{"method":"frobnicate"}"#,
        r#"{"method":"expand","params":{"session":1,"node":4294967296}}"#,
        r#"{"method":"render","params":{"session":424242}}"#,
        r#"{"method":"open","params":{"path":"/nonexistent.cpdb"}}"#,
        "[[[[[[",
        "{}",
    ] {
        let v = client.call(junk);
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(false),
            "junk was accepted: {junk}"
        );
        assert!(v.get("error").and_then(|e| e.get("code")).is_some());
    }
    // An oversized line is rejected: either a structured `ok:false`
    // reply or a dropped connection (the reply can be lost to the RST
    // when the server closes with the tail of the line still in
    // flight) — but never a success and never a dead server.
    let huge = format!(r#"{{"method":"ping","pad":"{}"}}"#, "x".repeat(2 << 20));
    if let Some(v) = client.try_call(&huge) {
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    }

    // A fresh connection still gets service, and the pre-fuzz session
    // is intact.
    let mut client = Client::connect(&server.addr);
    let line = format!(r#"{{"method":"render","params":{{"session":{sid}}}}}"#);
    client.ok(&line);

    // The oversized line counts as a request as well as an error (the
    // server counted it before it closed or replied), so `errors` can
    // never pass `requests`: open + 8 junk + oversized + render + stats.
    let stats = client.ok(r#"{"method":"stats"}"#);
    let errors = stats.get("errors").and_then(Json::as_u64).unwrap();
    let requests = stats.get("requests").and_then(Json::as_u64).unwrap();
    assert!(errors <= requests, "{errors} errors in {requests} requests");
    assert_eq!((errors, requests), (9, 12));

    server.interrupt_and_wait();
}

#[test]
fn eviction_is_reported_in_stats() {
    let db = s3d_db();
    let server = ServerProc::start(&["--max-sessions", "2"]);
    let mut client = Client::connect(&server.addr);
    for _ in 0..5 {
        client.open(&db);
    }
    let stats = client.ok(r#"{"method":"stats"}"#);
    assert_eq!(stats.get("sessions").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("evictions").and_then(Json::as_u64), Some(3));
    server.interrupt_and_wait();
}

#[test]
fn a_churning_connection_cannot_evict_another_connections_session() {
    let db = s3d_db();
    let server = ServerProc::start(&["--max-sessions", "4"]);
    let mut a = Client::connect(&server.addr);
    let sid = a.open(&db);
    let render = format!(r#"{{"method":"render","params":{{"session":{sid}}}}}"#);
    a.ok(&render);
    let mut b = Client::connect(&server.addr);
    for _ in 0..20 {
        b.open(&db);
    }
    // A's session is the least recently used by far, and still there.
    a.ok(&render);
    let stats = a.ok(r#"{"method":"stats"}"#);
    assert_eq!(stats.get("sessions").and_then(Json::as_u64), Some(4));
    assert_eq!(stats.get("evictions").and_then(Json::as_u64), Some(17));
    server.interrupt_and_wait();
}

const PING: &str = r#"{"method":"ping"}"#;

/// No timer sits under a round trip or an accept. The bound is generous
/// for work and out of reach for a timer: 120 replies held for a
/// delayed ACK (~40 ms each) take more than 4 s.
#[test]
fn round_trips_and_accepts_wait_on_no_timer() {
    let server = ServerProc::start(&[]);
    let start = Instant::now();
    let mut client = Client::connect(&server.addr);
    for _ in 0..100 {
        client.ok(PING);
    }
    for _ in 0..20 {
        Client::connect(&server.addr).ok(PING);
    }
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "120 pings took {took:?}");
    server.interrupt_and_wait();
}

/// A connection that never speaks and one stalled mid-line.
fn blocked_connections(addr: &str) -> (Client, Client) {
    let silent = Client::connect(addr);
    let mut stalled = Client::connect(addr);
    stalled.writer.write_all(br#"{"method":"pi"#).unwrap();
    // Accepts are sequential: once a later connection is served, both
    // have a handler thread.
    Client::connect(addr).ok(PING);
    (silent, stalled)
}

/// The server closed the connection without sending anything. (The read
/// is bounded, so a server that never closes fails the test, not hangs it.)
fn reads_bare_eof(client: &mut Client) -> bool {
    let bound = Some(Duration::from_secs(10));
    client.writer.set_read_timeout(bound).unwrap();
    let mut rest = String::new();
    matches!(client.reader.read_line(&mut rest), Ok(0)) && rest.is_empty()
}

#[test]
fn shutdown_rpc_reaches_blocked_connections() {
    let server = ServerProc::start(&[]);
    let (mut silent, mut stalled) = blocked_connections(&server.addr);
    let start = Instant::now();
    let reply = Client::connect(&server.addr).ok(r#"{"method":"shutdown"}"#);
    assert_eq!(reply.get("draining").and_then(Json::as_bool), Some(true));
    server.wait_exit(Duration::from_secs(2));
    assert!(start.elapsed() < Duration::from_secs(2));
    // Neither blocked connection was served a reply on the way out.
    assert!(reads_bare_eof(&mut silent) && reads_bare_eof(&mut stalled));
}

#[test]
fn sigint_reaches_blocked_connections() {
    let server = ServerProc::start(&[]);
    let (mut silent, mut stalled) = blocked_connections(&server.addr);
    server.interrupt();
    server.wait_exit(Duration::from_secs(2));
    assert!(reads_bare_eof(&mut silent) && reads_bare_eof(&mut stalled));
}

/// The idle timeout counts from the last complete request: silence and
/// half a line are both cut, a slow but steady client is not.
#[test]
fn idle_timeout_cuts_the_silent_and_the_stalled_but_not_the_slow() {
    let server = ServerProc::start(&["--idle-timeout", "1"]);
    let (mut silent, mut stalled) = blocked_connections(&server.addr);
    let mut slow = Client::connect(&server.addr);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let idle = scope.spawn(|| {
            let cut = reads_bare_eof(&mut silent) && reads_bare_eof(&mut stalled);
            (cut, start.elapsed())
        });
        while start.elapsed() < Duration::from_millis(2500) {
            slow.ok(PING);
            std::thread::sleep(Duration::from_millis(300));
        }
        let (cut, after) = idle.join().unwrap();
        assert!(
            cut && after < Duration::from_secs(3),
            "cut: {cut} after {after:?}"
        );
    });
    slow.ok(PING);
    server.interrupt_and_wait();
}

/// A line over the cap gets the structured `parse` reply, then the
/// connection closes, and it is one request and one error in the `stats`
/// RPC and in the instrumentation's counters alike. The binary has no
/// flag for the cap, so the server runs in this process (the only one in
/// this file that does: the counters below are its alone); the line is
/// one segment, read whole, so no unread tail resets the reply away.
#[test]
fn an_oversized_line_is_refused_and_counted_once_everywhere() {
    use callpath::serve::{Engine, ServeConfig, Server};
    let cap = 256;
    let engine = std::sync::Arc::new(Engine::new(ServeConfig {
        max_line_bytes: cap,
        ..ServeConfig::default()
    }));
    let server = Server::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_handle();
    let running = std::thread::spawn(move || server.run());
    let counted = || {
        (
            callpath::obs::counter_value("serve.errors"),
            callpath::obs::counter_value("serve.requests"),
        )
    };
    let before = counted();

    let mut client = Client::connect(&addr);
    let line = format!(r#"{{"method":"ping","pad":"{}"}}"#, "x".repeat(cap));
    let reply = client.call(&line);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").expect("an error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("parse"));
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("exceeds 256 bytes"), "{message}");
    assert!(reads_bare_eof(&mut client), "the connection stayed open");

    // The refused line and this request.
    let stats = Client::connect(&addr).ok(r#"{"method":"stats"}"#);
    let rpc = (
        stats.get("errors").and_then(Json::as_u64).unwrap(),
        stats.get("requests").and_then(Json::as_u64).unwrap(),
    );
    assert_eq!(rpc, (1, 2));
    if callpath::obs::enabled() {
        let after = counted();
        assert_eq!((after.0 - before.0, after.1 - before.1), rpc);
    }

    stop.stop();
    running.join().unwrap();
}

/// Release-mode bench: exact client-side request latencies across
/// concurrent scripted sessions, written to `BENCH_serve.json`.
#[test]
#[ignore]
fn serve_bench() {
    const ROUNDS: usize = 25;
    let db = s3d_db();
    let server = ServerProc::start(&[]);
    let expected = expected_renders(&db);

    let mut all_latencies: Vec<Duration> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                let addr = server.addr.clone();
                let db = db.clone();
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr);
                    let mut latencies = Vec::new();
                    for _ in 0..ROUNDS {
                        latencies.extend(run_script(&mut client, &db, expected));
                    }
                    latencies
                })
            })
            .collect();
        for h in handles {
            all_latencies.extend(h.join().expect("client thread"));
        }
    });

    let mut client = Client::connect(&server.addr);
    let stats = client.ok(r#"{"method":"stats"}"#);
    let sessions_held = stats.get("sessions").and_then(Json::as_u64).unwrap();
    let requests = stats.get("requests").and_then(Json::as_u64).unwrap();

    all_latencies.sort();
    let quantile = |q: f64| -> f64 {
        let idx = ((all_latencies.len() - 1) as f64 * q).round() as usize;
        all_latencies[idx].as_secs_f64() * 1e3
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let record = format!(
        "{{\n  \"bench\": \"serve_smoke\",\n  \"cores\": {},\n  \"client_threads\": {},\n  \"requests_measured\": {},\n  \"requests_total_server\": {},\n  \"sessions_held\": {},\n  \"p50_request_ms\": {:.4},\n  \"p95_request_ms\": {:.4},\n  \"max_request_ms\": {:.4}\n}}\n",
        cores,
        CLIENT_THREADS,
        all_latencies.len(),
        requests,
        sessions_held,
        quantile(0.50),
        quantile(0.95),
        quantile(1.0),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_serve.json");
    std::fs::write(&path, &record).expect("write bench record");
    println!("perf record written to {}:\n{record}", path.display());

    server.interrupt_and_wait();
}
