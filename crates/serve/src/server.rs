//! The TCP front end: thread-per-connection over blocking I/O. Nothing
//! polls: a round trip costs what the request costs, and shutdown is
//! delivered to the blocked threads by [`StopHandle::stop`].
//!
//! Connection handling is deliberately boring: read one line, hand it
//! to [`Engine::handle_line_from`], write one line back. Robustness
//! lives in the bounds — a read deadline counted from the last complete
//! request (so neither an abandoned connection nor a client stalled
//! mid-line holds a thread past the idle timeout), a write timeout, and
//! a line-length cap (so a client can't buffer the server into the
//! ground). On shutdown the accept loop stops, every connection
//! finishes the request it is currently processing (the drain), and
//! `run` joins all handler threads before returning.

use crate::protocol::RequestError;
use crate::Engine;
use callpath_obs as obs;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Pause after a failed `accept` (out of descriptors, typically), so a
/// persistent failure is a slow retry and not a spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// A bound listener plus the engine it feeds.
pub struct Server {
    listener: TcpListener,
    stop: StopHandle,
}

/// Stops a running [`Server`] from any thread; cheap to clone.
#[derive(Clone)]
pub struct StopHandle {
    engine: Arc<Engine>,
    /// A clone of every live connection's stream, by connection number.
    live: Arc<Mutex<HashMap<u64, TcpStream>>>,
    /// Where a connect reaches the listener.
    wake: SocketAddr,
}

impl StopHandle {
    /// Request shutdown and deliver it: set the engine's flag, end the
    /// read side of every live connection (a blocked reader sees EOF; a
    /// handler inside a request finishes it and writes the reply), then
    /// connect once to wake `accept`. Idempotent.
    ///
    /// The flag is set before the table is walked, and a connection is
    /// in the table before the flag is re-read on its behalf; the
    /// table's lock orders the two, so a connection racing the stop is
    /// walked here or finds the flag set — never left blocked.
    pub fn stop(&self) {
        self.engine.request_shutdown();
        for stream in self.live.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let _ = TcpStream::connect(self.wake);
    }
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port; read it back
    /// with [`Server::local_addr`]).
    pub fn bind(engine: Arc<Engine>, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            // A wildcard bind is reached through loopback.
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let live = Arc::default();
        let stop = StopHandle { engine, live, wake };
        Ok(Server { listener, stop })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The handle that stops this server (the binary's SIGINT watcher).
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Accept and serve connections until [`StopHandle::stop`], then
    /// drain: stop accepting, let in-flight requests finish, join every
    /// connection thread.
    pub fn run(self) {
        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        // Connections are numbered from 1; 0 is `Engine::handle_line`.
        let mut conn = 0u64;
        while !self.stop.engine.is_shutting_down() {
            let accepted = self.listener.accept();
            match accepted.and_then(|(stream, _peer)| Ok((stream.try_clone()?, stream))) {
                Ok((registered, stream)) => {
                    conn += 1;
                    self.stop.live.lock().insert(conn, registered);
                    // Registered; now the handler and this loop re-read the flag.
                    let stop = self.stop.clone();
                    handlers.push(thread::spawn(move || serve_connection(&stop, conn, stream)));
                }
                Err(e) => {
                    // De-duplicated and counted by `obs`; keep serving.
                    obs::error(&format!("serve: accept failed: {e}"));
                    thread::sleep(ACCEPT_BACKOFF);
                }
            }
            // Reap finished handlers so join handles don't accumulate.
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// Serve one connection — line in, line out — until the peer hangs up,
/// goes idle past the configured timeout, or the server drains.
fn serve_connection(stop: &StopHandle, conn: u64, stream: TcpStream) {
    let engine = &*stop.engine;
    let cfg = engine.config();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(cfg.io_timeout));
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    let mut last_request = Instant::now();
    while !engine.is_shutting_down() && read_line(engine, &mut reader, last_request, &mut line) {
        if line.len() > cfg.max_line_bytes {
            // Reject and drop the connection: past the cap we can't
            // resynchronize on line boundaries safely.
            let message = format!("request line exceeds {} bytes", cfg.max_line_bytes);
            let error = RequestError::new("parse", message);
            let _ = send(reader.get_ref(), engine.refuse_line(error));
            break;
        }
        // Non-UTF-8 bytes become a line the JSON parser rejects: a
        // structured `parse` reply, not a torn-down connection.
        let text = std::str::from_utf8(&line).unwrap_or("\u{fffd}");
        if text.trim().is_empty() {
            continue;
        }
        last_request = Instant::now();
        if send(reader.get_ref(), engine.handle_line_from(conn, text)).is_err() {
            break;
        }
    }
    stop.live.lock().remove(&conn);
    if engine.is_shutting_down() {
        // Perhaps found out first, by serving the `shutdown` request.
        stop.stop();
    }
}

/// The reply and its newline leave in one write on a `TCP_NODELAY`
/// socket: one segment, nothing held back for the peer's delayed ACK.
fn send(mut stream: &TcpStream, mut reply: String) -> std::io::Result<()> {
    reply.push('\n');
    stream.write_all(reply.as_bytes())
}

/// Read one line into `line`, newline included; `false` when there is
/// none to serve (EOF, a reset, the deadline). Reading stops once `line`
/// is past the configured cap (the caller rejects it) and at the idle
/// timeout counted from `last_request` — not from the last byte.
fn read_line(
    engine: &Engine,
    reader: &mut BufReader<TcpStream>,
    last_request: Instant,
    line: &mut Vec<u8>,
) -> bool {
    let cfg = engine.config();
    line.clear();
    loop {
        let left = cfg.idle_timeout.saturating_sub(last_request.elapsed());
        if left.is_zero() {
            return false;
        }
        let _ = reader.get_ref().set_read_timeout(Some(left));
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        if available.is_empty() {
            // An unterminated final line is served anyway — unless the
            // EOF is `stop()` ending the read side under a stalled line.
            return !line.is_empty() && !engine.is_shutting_down();
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        line.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() || line.len() > cfg.max_line_bytes {
            return true;
        }
    }
}
