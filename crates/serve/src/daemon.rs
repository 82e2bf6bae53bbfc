//! The daemon: a Unix-domain socket accept loop over the warm
//! [`ServerState`], with a fixed worker pool of connection handlers and a
//! graceful drain on `shutdown`.
//!
//! This is the only module in the crate that touches the wall clock —
//! once directly at bind (uptime in `status` replies) and per request
//! through [`bsld_obs::Stopwatch`] for the `metrics` op's latency
//! histograms. Every reply *payload* a client acts on (tables, CSV) is
//! clock-free.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use bsld_metrics::Json;

use crate::proto::{error_reply, Request, PROTOCOL_VERSION};
use crate::state::{ServerState, StateConfig, Stats};

/// How a daemon is stood up.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// The Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Concurrent connection handlers (each serves one client at a time;
    /// further clients queue on the accept backlog).
    pub workers: usize,
    /// Sizing of the warm state behind the socket.
    pub state: StateConfig,
}

impl ServeConfig {
    /// Defaults (2 handler workers, default [`StateConfig`]) on `socket`.
    pub fn new(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            workers: 2,
            state: StateConfig::default(),
        }
    }
}

/// Why the daemon could not start or keep running.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Another live daemon already answers on the socket.
    AlreadyServing(PathBuf),
    /// Socket I/O failed (bind, stale-file removal, …).
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::AlreadyServing(p) => write!(
                f,
                "a daemon is already serving on {}: stop it first (bsld-repro \
                 query shutdown --socket {0})",
                p.display()
            ),
            ServeError::Io(msg) => write!(f, "socket error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A bound (but not yet running) daemon.
#[derive(Debug)]
pub struct Server {
    listener: UnixListener,
    cfg: ServeConfig,
    state: Arc<ServerState>,
    started: Instant,
}

impl Server {
    /// Binds the socket, replacing a stale socket file (one no live daemon
    /// answers on) and refusing to shadow a live one.
    pub fn bind(cfg: ServeConfig) -> Result<Server, ServeError> {
        if cfg.socket.exists() {
            if UnixStream::connect(&cfg.socket).is_ok() {
                return Err(ServeError::AlreadyServing(cfg.socket.clone()));
            }
            // Nobody home: a previous daemon died without unlinking.
            std::fs::remove_file(&cfg.socket).map_err(|e| {
                ServeError::Io(format!(
                    "cannot remove stale socket {}: {e}",
                    cfg.socket.display()
                ))
            })?;
        }
        let listener = UnixListener::bind(&cfg.socket)
            .map_err(|e| ServeError::Io(format!("cannot bind {}: {e}", cfg.socket.display())))?;
        let state = Arc::new(ServerState::new(cfg.state.clone()));
        Ok(Server {
            listener,
            cfg,
            state,
            // audit:allow(D2): uptime is status-op provenance, never a
            // reply payload a client computes with.
            started: Instant::now(),
        })
    }

    /// The warm state behind this daemon (shared; useful for tests that
    /// want to pre-warm or inspect caches).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// The socket path this daemon answers on.
    pub fn socket(&self) -> &std::path::Path {
        &self.cfg.socket
    }

    /// Serves until a client sends `{"op":"shutdown"}`: accepted
    /// connections drain (every in-flight request gets its reply), the
    /// socket file is unlinked, and the call returns. Idle connections do
    /// not hold the drain up: their handlers read end of input.
    pub fn run(self) -> Result<(), ServeError> {
        let pool = bsld_par::Pool::new(self.cfg.workers);
        let shutdown = Arc::new(AtomicBool::new(false));
        // The connections whose handlers still hold them.
        let mut open: Vec<Weak<UnixStream>> = Vec::new();
        for conn in self.listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => Arc::new(s),
                // Transient accept failures (e.g. EINTR): keep serving.
                Err(_) => continue,
            };
            open.retain(|c| c.strong_count() > 0);
            open.push(Arc::downgrade(&stream));
            let state = Arc::clone(&self.state);
            let flag = Arc::clone(&shutdown);
            let socket = self.cfg.socket.clone();
            let started = self.started;
            let workers = self.cfg.workers;
            pool.submit(move || {
                if serve_connection(&stream, &state, started, workers) {
                    flag.store(true, Ordering::SeqCst);
                    // Self-connect so the blocking accept() observes the
                    // flag — the portable, `unsafe`-free wake-up.
                    let _ = UnixStream::connect(&socket);
                }
            });
        }
        // Requests already sent are still read and answered; a handler
        // waiting for the next line reads end of input instead.
        for conn in open.iter().filter_map(Weak::upgrade) {
            let _ = conn.shutdown(Shutdown::Read);
        }
        pool.close();
        pool.join();
        std::fs::remove_file(&self.cfg.socket)
            .map_err(|e| ServeError::Io(format!("cannot unlink socket: {e}")))?;
        Ok(())
    }
}

/// The longest request line the daemon reads, in bytes without the line
/// ending. A longer line is answered with a structured error and its
/// connection is dropped with the rest of the line unread, so no client
/// can grow the daemon's memory without bound.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// The most cells one `run` request may name. The line cap above bounds
/// only a request's text: two 200-value sweep axes in 1.5 KB name 40 000
/// cells, and each cell costs a cloned scenario, a cache key and a reply
/// row, all held at once before the reply goes out. So the daemon counts
/// a request's cells before it expands the sweep and refuses a larger one
/// with a structured error. 4 096 cells is 58 times the largest committed
/// sweep (`paper/enlarged.scn`, 70 cells), and at 140–180 reply bytes
/// a cell it keeps a reply under the 1 MiB of the longest request line.
/// Larger sweeps run through the one-shot `bsld-repro run`.
pub const MAX_SWEEP_CELLS: usize = 4096;

/// Serves one client connection to completion (many requests per
/// connection are fine). Returns whether the client requested shutdown.
fn serve_connection(
    stream: &UnixStream,
    state: &ServerState,
    started: Instant,
    workers: usize,
) -> bool {
    let mut reader = BufReader::new(stream);
    let mut shutdown = false;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-long line from one at it.
        let cap = MAX_REQUEST_BYTES as u64 + 1;
        match reader.by_ref().take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break, // EOF, torn read or client vanished
            Ok(_) => {}
        }
        if buf.len() > MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') {
            Stats::bump(&state.stats.requests, 1);
            Stats::bump(&state.stats.errors, 1);
            let msg =
                format!("request line exceeds {MAX_REQUEST_BYTES} bytes; closing the connection");
            let _ = write_reply(stream, &error_reply(&msg));
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break; // not UTF-8: drop the connection
        };
        // The line ending goes, as `BufRead::lines` drops it.
        let line = line
            .strip_suffix('\n')
            .map_or(line, |l| l.strip_suffix('\r').unwrap_or(l));
        if line.trim().is_empty() {
            continue; // tolerate blank keep-alive lines
        }
        Stats::bump(&state.stats.requests, 1);
        let reply = match Request::parse(line) {
            Err(msg) => {
                Stats::bump(&state.stats.errors, 1);
                error_reply(&msg)
            }
            Ok(req) => {
                let op = req.op_label();
                state.metrics.in_flight.inc();
                let sw = bsld_obs::Stopwatch::start();
                let reply = dispatch(req, state, started, workers, &mut shutdown);
                if let Some(h) = state.metrics.histogram(op) {
                    h.record(sw.elapsed_us());
                }
                state.metrics.in_flight.dec();
                reply
            }
        };
        if write_reply(stream, &reply).is_err() {
            break; // client stopped reading; nothing left to serve it
        }
        if shutdown {
            break;
        }
    }
    shutdown
}

/// Writes `reply` as one line and flushes it.
fn write_reply(mut writer: &UnixStream, reply: &Json) -> std::io::Result<()> {
    let mut text = reply.render();
    text.push('\n');
    writer.write_all(text.as_bytes())?;
    writer.flush()
}

/// Executes one parsed request against the warm state.
fn dispatch(
    req: Request,
    state: &ServerState,
    started: Instant,
    workers: usize,
    shutdown: &mut bool,
) -> Json {
    match req {
        Request::Run { scn, overrides } => match state.run_query(&scn, &overrides) {
            Ok(reply) => reply.to_json(),
            Err(msg) => {
                Stats::bump(&state.stats.errors, 1);
                error_reply(&msg)
            }
        },
        Request::Status => {
            let cfg = state.config();
            let mut pairs = vec![
                ("ok", Json::Bool(true)),
                ("protocol", Json::Num(PROTOCOL_VERSION as f64)),
                ("uptime_s", Json::Num(started.elapsed().as_secs_f64())),
                ("workers", Json::Num(workers as f64)),
                ("threads", Json::Num(cfg.threads as f64)),
            ];
            pairs.extend(state.stats_pairs());
            Json::obj(pairs)
        }
        Request::Metrics => state.metrics_json(),
        Request::Cache { clear: false } => state.cache_listing(),
        Request::CachePin { swf } => match state.pin_swf(&swf) {
            Ok(reply) => reply,
            Err(msg) => {
                Stats::bump(&state.stats.errors, 1);
                error_reply(&msg)
            }
        },
        Request::Cache { clear: true } => {
            let (results, workloads) = state.clear_caches();
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("cleared_results", Json::Num(results as f64)),
                ("cleared_workloads", Json::Num(workloads as f64)),
            ])
        }
        Request::Shutdown => {
            *shutdown = true;
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("shutting_down", Json::Bool(true)),
            ])
        }
    }
}
