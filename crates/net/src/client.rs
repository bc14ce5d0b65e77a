//! A thin blocking client for the tdbms wire protocol.
//!
//! Used by tests and the bench driver; errors sent by the server come
//! back as the same typed [`Error`](tdbms_kernel::Error) values the
//! embedded API produces, so callers can match on variants either way.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use tdbms_kernel::{Error, Prng, Result};

use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, Frame, Reply,
    Request, Response, StatsReply, MAX_RESPONSE_FRAME,
};

/// One connection to a running `tdbms-server`.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:4477"`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A dead or wedged server should fail the call, not hang the
        // caller forever.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client { stream })
    }

    /// Execute one statement with the server's default limits.
    pub fn query(&mut self, stmt: &str) -> Result<Reply> {
        self.query_with(stmt, 0, 0)
    }

    /// Execute one statement, tightening the per-query limits. Zero
    /// means "server default"; nonzero values are clamped by the
    /// server to its own caps (clients can tighten, never loosen).
    pub fn query_with(
        &mut self,
        stmt: &str,
        timeout_ms: u32,
        max_rows: u32,
    ) -> Result<Reply> {
        into_rows(self.round_trip(&Request::Query {
            stmt: stmt.to_string(),
            timeout_ms,
            max_rows,
        })?)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<()> {
        into_pong(self.round_trip(&Request::Ping)?)
    }

    /// Fetch the engine's lock and plan-cache counters.
    pub fn stats(&mut self) -> Result<StatsReply> {
        into_stats(self.round_trip(&Request::Stats)?)
    }

    /// Ask the server to shut down gracefully. Returns `Ok(())` once
    /// the server acknowledges; it then drains and checkpoints.
    pub fn shutdown_server(&mut self) -> Result<()> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other, "shutdown")),
        }
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response> {
        write_frame(&mut self.stream, &encode_request(req))?;
        match read_frame(&mut self.stream, MAX_RESPONSE_FRAME, None)? {
            Frame::Payload(payload) => decode_response(&payload),
            Frame::Eof => Err(Error::Protocol(
                "server closed the connection before replying".into(),
            )),
            Frame::Idle => Err(Error::Io(
                "no reply within the client's read timeout".into(),
            )),
        }
    }
}

// Unwrap the reply a request expects: the server's typed error passes
// through, and any other response is a protocol violation.

fn into_rows(resp: Response) -> Result<Reply> {
    match resp {
        Response::Rows(reply) => Ok(reply),
        other => Err(unexpected(other, "query")),
    }
}

fn into_pong(resp: Response) -> Result<()> {
    match resp {
        Response::Pong => Ok(()),
        other => Err(unexpected(other, "ping")),
    }
}

fn into_stats(resp: Response) -> Result<StatsReply> {
    match resp {
        Response::Stats(s) => Ok(s),
        other => Err(unexpected(other, "stats")),
    }
}

fn unexpected(resp: Response, request: &str) -> Error {
    match resp {
        Response::Error(e) => e,
        other => Error::Protocol(format!(
            "unexpected response to {request}: {other:?}"
        )),
    }
}

/// Retry and backoff knobs of a [`ReconnectClient`].
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Total attempts per request, first try included.
    pub max_attempts: u32,
    /// First retry's backoff; doubles per further retry.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            seed: 0x7db5,
        }
    }
}

/// A [`Client`] that survives a flaky server: on connection loss it
/// reconnects with capped exponential backoff plus seeded jitter and
/// retries the request — but **only** when the retry cannot double-
/// apply work:
///
/// - connect failures and typed [`Error::Busy`] rejections happened
///   before the statement executed, so every request kind retries;
/// - a connection lost *mid-round-trip* retries only idempotent
///   requests (`Ping`, `Stats`, plain retrieves). A write's outcome is
///   unknown — the commit may be durable with only the ack lost — so
///   the caller gets a typed [`Error::RetryUnsafe`] and decides.
///
/// Server-side degraded mode ([`Error::Degraded`]) passes through
/// untouched: the engine is alive and refusing writes deliberately;
/// hammering it with retries would not help.
pub struct ReconnectClient {
    addr: String,
    cfg: RetryConfig,
    conn: Option<Client>,
    prng: Prng,
    reconnects: u64,
    retries: u64,
}

impl ReconnectClient {
    /// Lazily connecting client for `addr`; the first request dials.
    pub fn new(addr: impl Into<String>, cfg: RetryConfig) -> Self {
        let prng = Prng::seed_from_u64(cfg.seed);
        ReconnectClient {
            addr: addr.into(),
            cfg,
            conn: None,
            prng,
            reconnects: 0,
            retries: 0,
        }
    }

    /// Connections established (including the first).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Requests that needed at least one retry.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Drop the current connection (if any); the next request dials
    /// again. The chaos harness calls this to simulate a network blip
    /// between requests.
    pub fn drop_connection(&mut self) {
        self.conn = None;
    }

    /// Execute one statement (see [`Client::query`]). Only statements
    /// classified idempotent are retried over a lost connection.
    pub fn query(&mut self, stmt: &str) -> Result<Reply> {
        let req = Request::Query {
            stmt: stmt.to_string(),
            timeout_ms: 0,
            max_rows: 0,
        };
        into_rows(self.run(&req, idempotent_statement(stmt))?)
    }

    /// Liveness check, retried across reconnects.
    pub fn ping(&mut self) -> Result<()> {
        into_pong(self.run(&Request::Ping, true)?)
    }

    /// Engine counters, retried across reconnects.
    pub fn stats(&mut self) -> Result<StatsReply> {
        into_stats(self.run(&Request::Stats, true)?)
    }

    /// Sleep the capped exponential backoff with full jitter in
    /// `[cap/2, cap]` (seeded, so chaos runs are reproducible).
    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .cfg
            .base_backoff
            .saturating_mul(1u32 << attempt.min(10));
        let cap = exp.min(self.cfg.max_backoff).as_nanos() as u64;
        let jittered = cap / 2 + self.prng.next_u64() % (cap / 2 + 1);
        std::thread::sleep(Duration::from_nanos(jittered));
    }

    fn run(&mut self, req: &Request, idempotent: bool) -> Result<Response> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if self.conn.is_none() {
                match Client::connect(&self.addr) {
                    Ok(c) => {
                        self.conn = Some(c);
                        self.reconnects += 1;
                    }
                    Err(e) => {
                        // Nothing was sent: a failed dial is retryable
                        // for every request kind.
                        if attempt >= self.cfg.max_attempts {
                            return Err(e);
                        }
                        self.retries += 1;
                        self.backoff(attempt);
                        continue;
                    }
                }
            }
            let conn = self.conn.as_mut().expect("connected above");
            match conn.round_trip(req) {
                Ok(Response::Error(Error::Busy))
                    if attempt < self.cfg.max_attempts =>
                {
                    // Admission control rejected the request before it
                    // executed: safe to retry, writes included.
                    self.retries += 1;
                    self.backoff(attempt);
                }
                Ok(resp) => return Ok(resp),
                Err(e) if is_transport(&e) => {
                    self.conn = None;
                    if !idempotent {
                        return Err(Error::RetryUnsafe(format!(
                            "connection lost mid-request; the write's \
                             outcome is unknown: {e}"
                        )));
                    }
                    if attempt >= self.cfg.max_attempts {
                        return Err(e);
                    }
                    self.retries += 1;
                    self.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// A transport-layer failure (as opposed to a typed error the server
/// sent): the connection is unusable and the request's fate unknown.
fn is_transport(e: &Error) -> bool {
    matches!(e, Error::Io(_) | Error::Protocol(_))
}

/// Is a lost connection safe to retry for this statement? Plain
/// retrieves, `explain`, and `range` declarations re-execute without
/// side effects; everything else (including `retrieve into`) mutates.
/// Unparseable text is conservatively treated as mutating.
fn idempotent_statement(stmt: &str) -> bool {
    let norm = stmt.trim().to_ascii_lowercase();
    let mut words = norm.split_whitespace();
    match words.next() {
        Some("retrieve") => words.next() != Some("into"),
        Some("explain") | Some("range") => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_idempotence_classification() {
        assert!(idempotent_statement("retrieve (e.name) where e.id = 1"));
        assert!(idempotent_statement("  RETRIEVE (e.all)"));
        assert!(idempotent_statement("explain (e.all)"));
        assert!(idempotent_statement("range of e is employees"));
        assert!(!idempotent_statement("retrieve into t (e.all)"));
        assert!(!idempotent_statement("append to r (id = 1)"));
        assert!(!idempotent_statement("delete e where e.id = 1"));
        assert!(!idempotent_statement("destroy r"));
        assert!(!idempotent_statement(""));
    }
}
