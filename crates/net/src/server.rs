//! The blocking thread-per-connection TCP server.
//!
//! One [`Server`] owns one [`Engine`]; every accepted connection gets a
//! thread and its own [`Session`]. Guardrails are on by default:
//!
//! - **Admission control** — past the connection cap, a new connection
//!   receives a typed [`Error::Busy`] response and is closed immediately;
//!   clients never hang in an invisible queue.
//! - **Per-query limits** — wall-clock timeout, row cap, and reply-byte
//!   cap, clamped so a client may tighten but never loosen them.
//! - **No panics, no file access** — every connection handler runs under
//!   `catch_unwind` (a panic closes that connection and is counted, the
//!   server keeps serving), and `copy` statements are refused unless
//!   explicitly allowed (they touch server-local files).
//! - **Graceful shutdown** — on signal or request the listener stops
//!   accepting, in-flight queries are interrupted via their sessions'
//!   cancel flags, connection threads are joined, and a clean checkpoint
//!   is taken so the database audits clean.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tdbms_core::{Engine, SessionLimits};
use tdbms_kernel::{Error, Result};

use crate::wire::{
    decode_request, encode_response, read_frame, write_frame, Frame, Reply,
    Request, Response, StatsReply, MAX_REQUEST_FRAME,
};

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connections admitted; the next one gets `Busy`.
    pub max_connections: usize,
    /// Default and maximum per-query wall-clock budget.
    pub query_timeout: Duration,
    /// Default and maximum rows one retrieve may return.
    pub max_rows: u64,
    /// Maximum encoded reply size per response frame.
    pub max_reply_bytes: usize,
    /// Allow `copy` statements (server-local file access). Off for any
    /// server reachable by untrusted clients.
    pub allow_copy: bool,
    /// Honor wire `Shutdown` requests (in addition to signals and the
    /// programmatic handle).
    pub allow_remote_shutdown: bool,
    /// Slow-loris defense: once a frame has started arriving it must
    /// complete within this deadline, and a blocked socket write gives
    /// up after it. Idle connections (no frame in flight) are exempt.
    pub io_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 32,
            query_timeout: Duration::from_secs(10),
            max_rows: 1 << 16,
            max_reply_bytes: 8 << 20,
            allow_copy: false,
            allow_remote_shutdown: true,
            io_deadline: Duration::from_secs(10),
        }
    }
}

/// Counters the server reports after shutdown (and the fuzz suite
/// asserts on — `panics_caught` must be zero).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub connections: u64,
    pub queries: u64,
    pub query_errors: u64,
    pub busy_rejections: u64,
    pub protocol_errors: u64,
    /// Connection handlers that panicked. The server survives them,
    /// but any nonzero count is a bug: the no-panic sweep exists so
    /// statement strings can never reach a panic.
    pub panics_caught: u64,
    /// Transient `accept()` failures the listener retried past
    /// (EMFILE, aborted handshakes). The server never exits on them.
    pub accept_errors: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    queries: AtomicU64,
    query_errors: AtomicU64,
    busy_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    panics_caught: AtomicU64,
    accept_errors: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            query_errors: self.query_errors.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
        }
    }
}

/// Requests the server stop accepting and drain; cheap to clone and
/// safe to trigger from any thread (including a signal watcher).
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    cancels: Arc<Mutex<Vec<Arc<AtomicBool>>>>,
}

impl ServerHandle {
    /// Begin a graceful shutdown: stop accepting, interrupt in-flight
    /// queries, drain, checkpoint.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Interrupt long-running statements so the drain is prompt.
        let cancels = self
            .cancels
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for c in cancels.iter() {
            c.store(true, Ordering::Relaxed);
        }
    }

    /// Has a shutdown been requested?
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    engine: Engine,
    listener: TcpListener,
    cfg: ServerConfig,
    handle: ServerHandle,
    counters: Arc<Counters>,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(
        engine: Engine,
        addr: &str,
        cfg: ServerConfig,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            engine,
            listener,
            cfg,
            handle: ServerHandle {
                shutdown: Arc::new(AtomicBool::new(false)),
                cancels: Arc::new(Mutex::new(Vec::new())),
            },
            counters: Arc::new(Counters::default()),
        })
    }

    /// The address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// A handle that can trigger shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// The engine behind the server (e.g. for lock-stats assertions).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Accept and serve until shutdown, then drain, checkpoint, and
    /// return the final counters. The checkpoint failure mode is
    /// surfaced — callers exit nonzero on it.
    pub fn run(self) -> Result<ServerStats> {
        let Server {
            engine,
            listener,
            cfg,
            handle,
            counters,
        } = self;
        let active = Arc::new(AtomicUsize::new(0));
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        // Consecutive accept() failures, for exponential backoff: a
        // storm (EMFILE while every descriptor is held by clients)
        // must neither spin the CPU nor kill the listener.
        let mut accept_strikes: u32 = 0;

        while !handle.is_shutting_down() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    accept_strikes = 0;
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    // Admission control: reject, never queue.
                    let admitted = {
                        let prev = active.fetch_add(1, Ordering::AcqRel);
                        if prev >= cfg.max_connections {
                            active.fetch_sub(1, Ordering::AcqRel);
                            false
                        } else {
                            true
                        }
                    };
                    if !admitted {
                        counters
                            .busy_rejections
                            .fetch_add(1, Ordering::Relaxed);
                        reject_busy(stream, &cfg);
                        continue;
                    }
                    let eng = engine.clone();
                    let conn_cfg = cfg.clone();
                    let conn_handle = handle.clone();
                    let conn_counters = counters.clone();
                    let conn_active = active.clone();
                    // An explicit (generous) stack: expression nesting
                    // is parser-limited, but debug frames are fat.
                    let spawned = std::thread::Builder::new()
                        .name("tdbms-conn".into())
                        .stack_size(8 << 20)
                        .spawn(move || {
                            let result = std::panic::catch_unwind(
                                AssertUnwindSafe(|| {
                                    serve_connection(
                                        stream,
                                        eng,
                                        &conn_cfg,
                                        &conn_handle,
                                        &conn_counters,
                                    )
                                }),
                            );
                            if result.is_err() {
                                conn_counters
                                    .panics_caught
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            conn_active.fetch_sub(1, Ordering::AcqRel);
                        });
                    match spawned {
                        Ok(w) => workers.push(w),
                        Err(_) => {
                            // Thread spawn failed (resource pressure):
                            // treat as busy.
                            active.fetch_sub(1, Ordering::AcqRel);
                            counters
                                .busy_rejections
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Reap finished workers so the vec stays bounded.
                    workers.retain(|w| !w.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Accept failures are transient (EMFILE, aborted
                    // handshakes); don't take the server down. Retry
                    // with capped exponential backoff so a sustained
                    // storm doesn't spin, and count every strike so
                    // operators can see them in `Stats`.
                    let _ = e;
                    counters.accept_errors.fetch_add(1, Ordering::Relaxed);
                    accept_strikes = accept_strikes.saturating_add(1);
                    let backoff = Duration::from_millis(
                        5u64 << accept_strikes.min(6),
                    );
                    std::thread::sleep(backoff);
                }
            }
        }

        // Drain: handlers observe the shutdown flag (their in-flight
        // statements were canceled by the handle) and exit.
        for w in workers {
            let _ = w.join();
        }

        // Clean checkpoint so the database audits clean after exit.
        engine.try_with_write(|db| db.checkpoint())??;
        Ok(counters.snapshot())
    }
}

/// Send `Busy` (best effort, bounded) and drop the connection.
fn reject_busy(mut stream: TcpStream, cfg: &ServerConfig) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = send(&mut stream, &Response::Error(Error::Busy), cfg);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn send(
    stream: &mut TcpStream,
    resp: &Response,
    cfg: &ServerConfig,
) -> bool {
    let payload = encode_response(resp, cfg.max_reply_bytes);
    write_frame(stream, &payload).is_ok()
}

fn serve_connection(
    mut stream: TcpStream,
    engine: Engine,
    cfg: &ServerConfig,
    handle: &ServerHandle,
    counters: &Counters,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(cfg.io_deadline));

    let mut session = engine.session();
    let cancel = session.cancel_handle();
    {
        let mut cancels = handle
            .cancels
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        cancels.push(cancel.clone());
    }

    loop {
        if handle.is_shutting_down() {
            let _ = send(
                &mut stream,
                &Response::Error(Error::ShuttingDown),
                cfg,
            );
            break;
        }
        // The short read timeout makes an idle connection poll the
        // shutdown flag; a frame in flight gets `io_deadline`.
        let frame = read_frame(
            &mut stream,
            MAX_REQUEST_FRAME,
            Some(cfg.io_deadline),
        );
        let payload = match frame {
            Ok(Frame::Payload(p)) => p,
            Ok(Frame::Idle) => continue,
            Ok(Frame::Eof) => break,
            Err(e) => {
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = send(&mut stream, &Response::Error(e), cfg);
                break;
            }
        };
        let req = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // A peer that violates framing is not trustworthy
                // enough to keep talking to.
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = send(&mut stream, &Response::Error(e), cfg);
                break;
            }
        };
        match req {
            Request::Ping => {
                if !send(&mut stream, &Response::Pong, cfg) {
                    break;
                }
            }
            Request::Stats => {
                // An unusable engine (poisoned) also reports degraded:
                // the flag means "writes are not being served".
                // Reorg and page-filter counters ride the same read;
                // a poisoned engine reports degraded=true and zeroed
                // counters rather than failing the whole reply.
                let (degraded, reorg, io) = engine
                    .try_with_read(|db| {
                        (
                            db.is_degraded(),
                            db.reorg_stats(),
                            db.io_stats().total(),
                        )
                    })
                    .unwrap_or((
                        true,
                        Default::default(),
                        Default::default(),
                    ));
                let locks = engine.lock_stats();
                let (plan_hits, plan_misses) = engine.plan_cache_stats();
                let resp = Response::Stats(StatsReply {
                    exclusive: locks.exclusive,
                    snapshot_reads: locks.snapshot_reads,
                    plan_hits,
                    plan_misses,
                    degraded,
                    panics_caught: counters
                        .panics_caught
                        .load(Ordering::Relaxed),
                    accept_errors: counters
                        .accept_errors
                        .load(Ordering::Relaxed),
                    reorg_runs: reorg.runs,
                    rows_migrated: reorg.rows_migrated,
                    bloom_hits: io.bloom_hits,
                    bloom_skips: io.bloom_skips,
                });
                if !send(&mut stream, &resp, cfg) {
                    break;
                }
            }
            Request::Shutdown => {
                if cfg.allow_remote_shutdown {
                    handle.shutdown();
                    let _ = send(&mut stream, &Response::Bye, cfg);
                } else {
                    let _ = send(
                        &mut stream,
                        &Response::Error(Error::NotApplicable(
                            "remote shutdown is disabled".into(),
                        )),
                        cfg,
                    );
                }
                break;
            }
            Request::Query {
                stmt,
                timeout_ms,
                max_rows,
            } => {
                counters.queries.fetch_add(1, Ordering::Relaxed);
                // Clients may tighten the server limits, never loosen.
                let timeout = if timeout_ms == 0 {
                    cfg.query_timeout
                } else {
                    cfg.query_timeout
                        .min(Duration::from_millis(timeout_ms as u64))
                };
                let rows = if max_rows == 0 {
                    cfg.max_rows
                } else {
                    cfg.max_rows.min(max_rows as u64)
                };
                session.set_limits(SessionLimits {
                    timeout: Some(timeout),
                    max_rows: Some(rows),
                    deny_copy: !cfg.allow_copy,
                });
                let t0 = Instant::now();
                let resp = match session.execute(&stmt) {
                    Ok(out) => Response::Rows(Reply::from_output(
                        &out,
                        t0.elapsed().as_micros() as u64,
                    )),
                    Err(e) => {
                        counters
                            .query_errors
                            .fetch_add(1, Ordering::Relaxed);
                        Response::Error(e)
                    }
                };
                if !send(&mut stream, &resp, cfg) {
                    break;
                }
            }
        }
    }

    // Unregister this session's cancel flag.
    let mut cancels = handle
        .cancels
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    cancels.retain(|c| !Arc::ptr_eq(c, &cancel));
}
