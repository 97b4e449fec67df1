//! `callpath-serve` — a resident profile server: holds experiment
//! databases open (mmap-backed for v2.1) and multiplexes many
//! independent viewer sessions over a line-delimited JSON protocol on
//! TCP. The serving path is documented in DESIGN.md §14.
//!
//! ```text
//! callpath-serve data/s3d.cpdb
//! callpath-serve --addr 127.0.0.1:0 --max-sessions 128 data/s3d.cpdb
//! printf '%s\n' '{"id":1,"method":"open","params":{"path":"data/s3d.cpdb"}}' | nc localhost 7117
//! ```

use callpath::cli;
use callpath_serve::{Engine, ServeConfig, Server, StopHandle};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
callpath-serve: serve call path profile databases to interactive clients

USAGE:
    callpath-serve [OPTIONS] [PRELOAD...]

    PRELOAD paths are databases opened (and mmap'd) at startup so the
    first client's `open` is a cache hit; clients can open any path.

OPTIONS:
    --addr <HOST:PORT>      listen address [default: 127.0.0.1:7117];
                            port 0 picks an ephemeral port
    --max-sessions <N>      LRU-bounded live session cap [default: 64]
    --idle-timeout <SECS>   close connections idle this long [default: 300]
    --io-timeout <SECS>     per-write socket timeout [default: 30]
    --no-shutdown-rpc       refuse the `shutdown` method (SIGINT still
                            drains and exits)
    --stats                 dump instrumentation counters/spans as JSON
                            on stderr when the server exits
    --self-profile <FILE>   write the server's own recorded profile as a
                            .cpdb database on exit
    -h, --help              print this help

PROTOCOL (one JSON object per line, reply per line):
    {\"id\":1,\"method\":\"open\",\"params\":{\"path\":\"s3d.cpdb\"}}
    {\"id\":2,\"method\":\"expand\",\"params\":{\"session\":1,\"node\":4}}
    methods: open close render expand collapse select zoom unzoom sort
             sort-name view hot-path flatten unflatten find stats
             ensemble-stats ping shutdown
";

struct Args {
    addr: String,
    preload: Vec<String>,
    cfg: ServeConfig,
    stats: bool,
    self_profile: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7117".into(),
        preload: Vec::new(),
        cfg: ServeConfig::default(),
        stats: false,
        self_profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--max-sessions" => {
                args.cfg.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|_| "--max-sessions must be an integer".to_owned())?
            }
            "--idle-timeout" => {
                args.cfg.idle_timeout = Duration::from_secs(
                    value("--idle-timeout")?
                        .parse()
                        .map_err(|_| "--idle-timeout must be seconds".to_owned())?,
                )
            }
            "--io-timeout" => {
                args.cfg.io_timeout = Duration::from_secs(
                    value("--io-timeout")?
                        .parse()
                        .map_err(|_| "--io-timeout must be seconds".to_owned())?,
                )
            }
            "--no-shutdown-rpc" => args.cfg.allow_shutdown_rpc = false,
            "--stats" => args.stats = true,
            "--self-profile" => args.self_profile = Some(value("--self-profile")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => args.preload.push(other.to_owned()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.cfg.max_sessions == 0 {
        return Err("--max-sessions must be at least 1".into());
    }
    Ok(args)
}

/// Install a SIGINT handler that stops the server, so Ctrl-C drains
/// in-flight requests instead of killing them mid-write. Raw
/// `signal(2)` via libc keeps this dependency-free (the same pattern
/// the mmap backend uses for its syscalls).
#[cfg(unix)]
fn install_sigint(stop: StopHandle) {
    use std::sync::atomic::AtomicBool;

    static FLAG: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_sigint(_: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
    // A watcher thread translates the async-signal flag into a stop
    // (nothing async-signal-unsafe runs in the handler itself). Its
    // sleep loop is off the request path.
    std::thread::spawn(move || loop {
        if FLAG.load(Ordering::SeqCst) {
            stop.stop();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

#[cfg(not(unix))]
fn install_sigint(_stop: StopHandle) {}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let engine = Arc::new(Engine::new(args.cfg.clone()));
    for path in &args.preload {
        engine.load_experiment(path)?;
        eprintln!("preloaded {path}");
    }
    let server = Server::bind(Arc::clone(&engine), &args.addr)
        .map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    install_sigint(server.stop_handle());
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The listening line is the machine-readable startup handshake
    // (tests parse it to find the ephemeral port) — stdout, flushed.
    {
        use std::io::Write;
        let mut out = std::io::stdout();
        writeln!(out, "listening on {addr}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    server.run();
    eprintln!("drained: {} sessions held at exit", engine.session_count());

    if args.stats {
        cli::emit_stats(None);
    }
    if let Some(path) = &args.self_profile {
        cli::write_self_profile(path)?;
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
