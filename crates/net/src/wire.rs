//! The length-prefixed binary wire protocol.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by that many payload bytes. The first payload byte is an
//! opcode (requests) or a response tag; the rest is the fields of that
//! message, encoded with the fixed-width little-endian primitives below
//! (strings are a `u32` length + UTF-8 bytes).
//!
//! The decoder never trusts the peer: every read is bounds-checked, every
//! length is capped, unknown tags are typed [`Error::Protocol`] failures.
//! Nothing in this module panics on any input byte sequence — that is
//! the server's no-panic contract, and the protocol fuzz suite holds it.

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

use tdbms_core::QueryStats;
use tdbms_kernel::{Domain, Error, Result, TimeVal, Value};

/// Largest frame a server accepts from a client (statement text plus
/// options comfortably fits; anything bigger is hostile or a bug).
pub const MAX_REQUEST_FRAME: usize = 1 << 20;

/// Largest frame a client accepts from a server. Result sets are bounded
/// by the server's reply-byte limit, which callers keep below this.
pub const MAX_RESPONSE_FRAME: usize = 64 << 20;

/// Protocol version byte carried in every request.
pub const PROTOCOL_VERSION: u8 = 3;

// Request opcodes.
const OP_QUERY: u8 = 1;
const OP_PING: u8 = 2;
const OP_SHUTDOWN: u8 = 3;
const OP_STATS: u8 = 4;

// Response tags.
const RESP_ROWS: u8 = 1;
const RESP_ERROR: u8 = 2;
const RESP_PONG: u8 = 3;
const RESP_BYE: u8 = 4;
const RESP_STATS: u8 = 5;

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a TQuel program. `timeout_ms`/`max_rows` of 0 mean "use
    /// the server's defaults"; nonzero values are clamped to the
    /// server's caps, never above them.
    Query {
        stmt: String,
        timeout_ms: u32,
        max_rows: u32,
    },
    /// Liveness probe.
    Ping,
    /// Ask the server to begin a graceful shutdown.
    Shutdown,
    /// Ask for the engine's lock and plan-cache counters.
    Stats,
}

/// Engine-wide counters a server reports to [`Request::Stats`]: the
/// commit-lock/snapshot split plus the statement-cache hit ratio.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Exclusive commit-lock acquisitions.
    pub exclusive: u64,
    /// Retrieves served lock-free from the published read view.
    pub snapshot_reads: u64,
    /// Statement-cache hits (parse skipped).
    pub plan_hits: u64,
    /// Statement-cache misses (text parsed and cached).
    pub plan_misses: u64,
    /// True while the engine is in read-only degraded mode (disk full
    /// or failed fsync); writes re-arm automatically on recovery.
    pub degraded: bool,
    /// Worker panics the server caught and converted into errors.
    pub panics_caught: u64,
    /// Transient `accept()` failures the listener survived.
    pub accept_errors: u64,
    /// Completed reorganization passes that migrated at least one row.
    pub reorg_runs: u64,
    /// Versions migrated to clustered history sidecars, lifetime.
    pub rows_migrated: u64,
    /// Overflow-chain walks a bloom filter proved necessary.
    pub bloom_hits: u64,
    /// Overflow-chain walks a bloom filter skipped outright.
    pub bloom_skips: u64,
}

/// Result-set payload of a successful query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reply {
    pub columns: Vec<(String, Domain)>,
    pub rows: Vec<Vec<Value>>,
    /// Rows affected (DML) or produced (retrieve).
    pub affected: u64,
    /// The paper's input/output page costs for the statement.
    pub input_pages: u64,
    pub output_pages: u64,
    /// Server-side wall-clock execution time.
    pub elapsed_us: u64,
}

impl Reply {
    /// Build from an executed statement's output.
    pub fn from_output(
        out: &tdbms_core::ExecOutput,
        elapsed_us: u64,
    ) -> Self {
        Reply {
            columns: out.columns.clone(),
            rows: out.rows().to_vec(),
            affected: out.affected as u64,
            input_pages: out.stats.input_pages,
            output_pages: out.stats.output_pages,
            elapsed_us,
        }
    }

    /// The stats shape core callers expect.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            input_pages: self.input_pages,
            output_pages: self.output_pages,
            ..Default::default()
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Rows(Reply),
    Error(Error),
    Pong,
    /// Acknowledges a shutdown request; the connection closes after.
    Bye,
    /// Engine counters, answering [`Request::Stats`].
    Stats(StatsReply),
}

// ---- primitive encoding ------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over a received payload.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            Error::Protocol("length overflow in payload".into())
        })?;
        if end > self.buf.len() {
            return Err(Error::Protocol(format!(
                "truncated payload: wanted {n} bytes at offset {}, \
                 frame has {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        if len > self.buf.len() {
            return Err(Error::Protocol(format!(
                "string length {len} exceeds frame size {}",
                self.buf.len()
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| {
            Error::Protocol("string field is not UTF-8".into())
        })
    }
}

// ---- domains and values ------------------------------------------------

fn put_domain(buf: &mut Vec<u8>, d: Domain) {
    match d {
        Domain::I1 => put_u8(buf, 0),
        Domain::I2 => put_u8(buf, 1),
        Domain::I4 => put_u8(buf, 2),
        Domain::F4 => put_u8(buf, 3),
        Domain::F8 => put_u8(buf, 4),
        Domain::Char(w) => {
            put_u8(buf, 5);
            put_u16(buf, w);
        }
        Domain::Time => put_u8(buf, 6),
    }
}

fn get_domain(c: &mut Cursor<'_>) -> Result<Domain> {
    Ok(match c.u8()? {
        0 => Domain::I1,
        1 => Domain::I2,
        2 => Domain::I4,
        3 => Domain::F4,
        4 => Domain::F8,
        5 => Domain::Char(c.u16()?),
        6 => Domain::Time,
        t => {
            return Err(Error::Protocol(format!("unknown domain tag {t}")))
        }
    })
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            put_u8(buf, 0);
            put_u64(buf, *i as u64);
        }
        Value::Float(f) => {
            put_u8(buf, 1);
            put_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            put_u8(buf, 2);
            put_str(buf, s);
        }
        Value::Time(t) => {
            put_u8(buf, 3);
            put_u32(buf, t.as_secs());
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<Value> {
    Ok(match c.u8()? {
        0 => Value::Int(c.u64()? as i64),
        1 => Value::Float(f64::from_bits(c.u64()?)),
        2 => Value::Str(c.str()?),
        3 => Value::Time(TimeVal(c.u32()?)),
        t => return Err(Error::Protocol(format!("unknown value tag {t}"))),
    })
}

// ---- typed errors over the wire ----------------------------------------

/// `(code, a, b, msg)` quadruple that round-trips every [`Error`]
/// variant. `a`/`b` carry the variant's numeric fields.
fn error_parts(e: &Error) -> (u16, u64, u64, String) {
    match e {
        Error::BadTime(s) => (1, 0, 0, s.clone()),
        Error::BadValue(s) => (2, 0, 0, s.clone()),
        Error::Lex { line, col, msg } => {
            (3, *line as u64, *col as u64, msg.clone())
        }
        Error::Parse { line, col, msg } => {
            (4, *line as u64, *col as u64, msg.clone())
        }
        Error::Semantic(s) => (5, 0, 0, s.clone()),
        Error::NoSuchRelation(s) => (6, 0, 0, s.clone()),
        Error::DuplicateRelation(s) => (7, 0, 0, s.clone()),
        Error::NoSuchAttribute(s) => (8, 0, 0, s.clone()),
        Error::NoSuchPage(p) => (9, *p as u64, 0, String::new()),
        Error::RowSize { expected, got } => {
            (10, *expected as u64, *got as u64, String::new())
        }
        Error::NotApplicable(s) => (11, 0, 0, s.clone()),
        Error::Io(s) => (12, 0, 0, s.clone()),
        Error::Corruption { file, page, detail } => (
            13,
            file.map(|f| f as u64 + 1).unwrap_or(0),
            page.map(|p| p as u64 + 1).unwrap_or(0),
            detail.clone(),
        ),
        Error::Poisoned => (14, 0, 0, String::new()),
        Error::Internal(s) => (15, 0, 0, s.clone()),
        Error::Timeout { ms } => (16, *ms, 0, String::new()),
        Error::LimitExceeded { what, limit } => {
            (17, *limit, 0, what.clone())
        }
        Error::Busy => (18, 0, 0, String::new()),
        Error::Canceled => (19, 0, 0, String::new()),
        Error::ShuttingDown => (20, 0, 0, String::new()),
        Error::Protocol(s) => (21, 0, 0, s.clone()),
        Error::Degraded { reason } => (22, 0, 0, reason.clone()),
        Error::RetryUnsafe(s) => (23, 0, 0, s.clone()),
    }
}

fn error_from_parts(code: u16, a: u64, b: u64, msg: String) -> Error {
    match code {
        1 => Error::BadTime(msg),
        2 => Error::BadValue(msg),
        3 => Error::Lex {
            line: a as u32,
            col: b as u32,
            msg,
        },
        4 => Error::Parse {
            line: a as u32,
            col: b as u32,
            msg,
        },
        5 => Error::Semantic(msg),
        6 => Error::NoSuchRelation(msg),
        7 => Error::DuplicateRelation(msg),
        8 => Error::NoSuchAttribute(msg),
        9 => Error::NoSuchPage(a as u32),
        10 => Error::RowSize {
            expected: a as usize,
            got: b as usize,
        },
        11 => Error::NotApplicable(msg),
        12 => Error::Io(msg),
        13 => Error::Corruption {
            file: a.checked_sub(1).map(|f| f as u32),
            page: b.checked_sub(1).map(|p| p as u32),
            detail: msg,
        },
        14 => Error::Poisoned,
        15 => Error::Internal(msg),
        16 => Error::Timeout { ms: a },
        17 => Error::LimitExceeded {
            what: msg,
            limit: a,
        },
        18 => Error::Busy,
        19 => Error::Canceled,
        20 => Error::ShuttingDown,
        21 => Error::Protocol(msg),
        22 => Error::Degraded { reason: msg },
        23 => Error::RetryUnsafe(msg),
        other => {
            Error::Protocol(format!("unknown error code {other} ({msg})"))
        }
    }
}

// ---- messages ----------------------------------------------------------

/// Encode a request payload (without the frame length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Query {
            stmt,
            timeout_ms,
            max_rows,
        } => {
            put_u8(&mut buf, OP_QUERY);
            put_u8(&mut buf, PROTOCOL_VERSION);
            put_u32(&mut buf, *timeout_ms);
            put_u32(&mut buf, *max_rows);
            put_str(&mut buf, stmt);
        }
        Request::Ping => {
            put_u8(&mut buf, OP_PING);
            put_u8(&mut buf, PROTOCOL_VERSION);
        }
        Request::Shutdown => {
            put_u8(&mut buf, OP_SHUTDOWN);
            put_u8(&mut buf, PROTOCOL_VERSION);
        }
        Request::Stats => {
            put_u8(&mut buf, OP_STATS);
            put_u8(&mut buf, PROTOCOL_VERSION);
        }
    }
    buf
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let version = c.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(Error::Protocol(format!(
            "unsupported protocol version {version} (expected \
             {PROTOCOL_VERSION})"
        )));
    }
    let req = match op {
        OP_QUERY => {
            let timeout_ms = c.u32()?;
            let max_rows = c.u32()?;
            let stmt = c.str()?;
            Request::Query {
                stmt,
                timeout_ms,
                max_rows,
            }
        }
        OP_PING => Request::Ping,
        OP_SHUTDOWN => Request::Shutdown,
        OP_STATS => Request::Stats,
        other => {
            return Err(Error::Protocol(format!(
                "unknown request opcode {other}"
            )))
        }
    };
    if !c.is_empty() {
        return Err(Error::Protocol("trailing bytes after request".into()));
    }
    Ok(req)
}

/// Encode a response payload, enforcing `max_bytes` on the result-set
/// encoding: a reply that would exceed it is replaced by a typed
/// [`Error::LimitExceeded`] response so the frame itself stays bounded.
pub fn encode_response(resp: &Response, max_bytes: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Rows(r) => {
            put_u8(&mut buf, RESP_ROWS);
            put_u64(&mut buf, r.affected);
            put_u64(&mut buf, r.input_pages);
            put_u64(&mut buf, r.output_pages);
            put_u64(&mut buf, r.elapsed_us);
            put_u16(&mut buf, r.columns.len() as u16);
            for (name, d) in &r.columns {
                put_str(&mut buf, name);
                put_domain(&mut buf, *d);
            }
            put_u32(&mut buf, r.rows.len() as u32);
            for row in &r.rows {
                for v in row {
                    put_value(&mut buf, v);
                }
                if buf.len() > max_bytes {
                    return encode_response(
                        &Response::Error(Error::LimitExceeded {
                            what: "reply bytes".into(),
                            limit: max_bytes as u64,
                        }),
                        max_bytes,
                    );
                }
            }
        }
        Response::Error(e) => {
            let (code, a, b, msg) = error_parts(e);
            put_u8(&mut buf, RESP_ERROR);
            put_u16(&mut buf, code);
            put_u64(&mut buf, a);
            put_u64(&mut buf, b);
            put_str(&mut buf, &msg);
        }
        Response::Pong => put_u8(&mut buf, RESP_PONG),
        Response::Bye => put_u8(&mut buf, RESP_BYE),
        Response::Stats(s) => {
            put_u8(&mut buf, RESP_STATS);
            put_u64(&mut buf, s.exclusive);
            put_u64(&mut buf, s.snapshot_reads);
            put_u64(&mut buf, s.plan_hits);
            put_u64(&mut buf, s.plan_misses);
            put_u8(&mut buf, s.degraded as u8);
            put_u64(&mut buf, s.panics_caught);
            put_u64(&mut buf, s.accept_errors);
            put_u64(&mut buf, s.reorg_runs);
            put_u64(&mut buf, s.rows_migrated);
            put_u64(&mut buf, s.bloom_hits);
            put_u64(&mut buf, s.bloom_skips);
        }
    }
    buf
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    let mut c = Cursor::new(payload);
    match c.u8()? {
        RESP_ROWS => {
            let affected = c.u64()?;
            let input_pages = c.u64()?;
            let output_pages = c.u64()?;
            let elapsed_us = c.u64()?;
            let ncols = c.u16()? as usize;
            let mut columns = Vec::with_capacity(ncols.min(1024));
            for _ in 0..ncols {
                let name = c.str()?;
                let d = get_domain(&mut c)?;
                columns.push((name, d));
            }
            let nrows = c.u32()? as usize;
            let mut rows = Vec::new();
            for _ in 0..nrows {
                let mut row = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    row.push(get_value(&mut c)?);
                }
                rows.push(row);
            }
            Ok(Response::Rows(Reply {
                columns,
                rows,
                affected,
                input_pages,
                output_pages,
                elapsed_us,
            }))
        }
        RESP_ERROR => {
            let code = c.u16()?;
            let a = c.u64()?;
            let b = c.u64()?;
            let msg = c.str()?;
            Ok(Response::Error(error_from_parts(code, a, b, msg)))
        }
        RESP_PONG => Ok(Response::Pong),
        RESP_BYE => Ok(Response::Bye),
        RESP_STATS => Ok(Response::Stats(StatsReply {
            exclusive: c.u64()?,
            snapshot_reads: c.u64()?,
            plan_hits: c.u64()?,
            plan_misses: c.u64()?,
            degraded: c.u8()? != 0,
            panics_caught: c.u64()?,
            accept_errors: c.u64()?,
            reorg_runs: c.u64()?,
            rows_migrated: c.u64()?,
            bloom_hits: c.u64()?,
            bloom_skips: c.u64()?,
        })),
        t => Err(Error::Protocol(format!("unknown response tag {t}"))),
    }
}

// ---- frame I/O ---------------------------------------------------------

/// Write one frame, length prefix and payload, in a single write: on a
/// `TCP_NODELAY` socket two writes would cost two syscalls and two
/// segments.
pub fn write_frame(
    w: &mut impl Write,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// What one call to [`read_frame`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    Payload(Vec<u8>),
    /// Clean close at a frame boundary.
    Eof,
    /// The stream's read timeout passed before a frame's first byte.
    Idle,
}

/// Read one frame. A read timeout before the first byte is
/// [`Frame::Idle`]. Once the first byte has arrived, a timeout is
/// retried while less than `deadline` has passed since that byte (with
/// no deadline it is an [`Error::Io`]), so a stalled peer cannot hold
/// the reader. Mid-frame EOF, an oversized length (checked before
/// anything is allocated) and a passed deadline are [`Error::Protocol`].
pub fn read_frame(
    r: &mut impl Read,
    max: usize,
    deadline: Option<Duration>,
) -> Result<Frame> {
    let mut header = [0u8; 4];
    let first = loop {
        match r.read(&mut header) {
            Ok(0) => return Ok(Frame::Eof),
            Ok(n) => break n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Ok(Frame::Idle),
            Err(e) => return Err(e.into()),
        }
    };
    let started = Instant::now();
    fill(r, &mut header[first..], started, deadline)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > max {
        return Err(Error::Protocol(format!(
            "frame length {len} exceeds limit {max}"
        )));
    }
    let mut payload = vec![0u8; len];
    fill(r, &mut payload, started, deadline)?;
    Ok(Frame::Payload(payload))
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Read the rest of a frame whose first byte arrived at `started`.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    started: Instant,
    deadline: Option<Duration>,
) -> Result<()> {
    let mut got = 0;
    while got < buf.len() {
        if deadline.is_some_and(|d| started.elapsed() >= d) {
            return Err(Error::Protocol(
                "frame stalled mid-transfer".into(),
            ));
        }
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(Error::Protocol(
                    "connection closed mid-frame".into(),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if deadline.is_some() && is_timeout(&e) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Query {
                stmt: "retrieve (h.id) where h.id = 500".into(),
                timeout_ms: 250,
                max_rows: 100,
            },
            Request::Ping,
            Request::Shutdown,
            Request::Stats,
        ] {
            let enc = encode_request(&req);
            assert_eq!(decode_request(&enc).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip_with_every_value_kind() {
        let reply = Reply {
            columns: vec![
                ("id".into(), Domain::I4),
                ("name".into(), Domain::Char(20)),
                ("w".into(), Domain::F8),
                ("t".into(), Domain::Time),
            ],
            rows: vec![vec![
                Value::Int(-5),
                Value::Str("héllo".into()),
                Value::Float(1.5),
                Value::Time(TimeVal(12345)),
            ]],
            affected: 1,
            input_pages: 7,
            output_pages: 2,
            elapsed_us: 99,
        };
        let enc =
            encode_response(&Response::Rows(reply.clone()), usize::MAX);
        assert_eq!(decode_response(&enc).unwrap(), Response::Rows(reply));
    }

    #[test]
    fn stats_response_roundtrips() {
        let stats = StatsReply {
            exclusive: 17,
            snapshot_reads: 12_000,
            plan_hits: 990,
            plan_misses: 10,
            degraded: true,
            panics_caught: 2,
            accept_errors: 5,
            reorg_runs: 4,
            rows_migrated: 4096,
            bloom_hits: 77,
            bloom_skips: 1300,
        };
        let enc = encode_response(&Response::Stats(stats), usize::MAX);
        assert_eq!(decode_response(&enc).unwrap(), Response::Stats(stats));
        // Truncations must be typed errors, never panics.
        for cut in 0..enc.len() {
            let _ = decode_response(&enc[..cut]);
        }
    }

    #[test]
    fn every_error_variant_roundtrips() {
        let errors = vec![
            Error::BadTime("x".into()),
            Error::BadValue("y".into()),
            Error::Lex {
                line: 1,
                col: 2,
                msg: "bad".into(),
            },
            Error::Parse {
                line: 3,
                col: 4,
                msg: "worse".into(),
            },
            Error::Semantic("s".into()),
            Error::NoSuchRelation("r".into()),
            Error::DuplicateRelation("r".into()),
            Error::NoSuchAttribute("a".into()),
            Error::NoSuchPage(9),
            Error::RowSize {
                expected: 10,
                got: 20,
            },
            Error::NotApplicable("n".into()),
            Error::Io("io".into()),
            Error::Corruption {
                file: Some(0),
                page: None,
                detail: "d".into(),
            },
            Error::Poisoned,
            Error::Internal("i".into()),
            Error::Timeout { ms: 123 },
            Error::LimitExceeded {
                what: "rows".into(),
                limit: 10,
            },
            Error::Busy,
            Error::Canceled,
            Error::ShuttingDown,
            Error::Protocol("p".into()),
            Error::Degraded {
                reason: "disk full".into(),
            },
            Error::RetryUnsafe("write in flight".into()),
        ];
        for e in errors {
            let enc =
                encode_response(&Response::Error(e.clone()), usize::MAX);
            assert_eq!(decode_response(&enc).unwrap(), Response::Error(e));
        }
    }

    #[test]
    fn oversized_reply_degrades_to_limit_error() {
        let reply = Reply {
            columns: vec![("s".into(), Domain::Char(64))],
            rows: (0..1000)
                .map(|_| vec![Value::Str("x".repeat(64))])
                .collect(),
            affected: 1000,
            ..Default::default()
        };
        let enc = encode_response(&Response::Rows(reply), 1024);
        match decode_response(&enc).unwrap() {
            Response::Error(Error::LimitExceeded { what, .. }) => {
                assert_eq!(what, "reply bytes")
            }
            other => panic!("expected limit error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_payloads_never_panic_the_decoder() {
        // Truncations of a valid request, garbage, and empty payloads.
        let valid = encode_request(&Request::Query {
            stmt: "retrieve (h.id)".into(),
            timeout_ms: 0,
            max_rows: 0,
        });
        for cut in 0..valid.len() {
            let _ = decode_request(&valid[..cut]);
        }
        let garbage: Vec<u8> =
            (0..257u32).map(|i| (i * 37) as u8).collect();
        let _ = decode_request(&garbage);
        let _ = decode_response(&garbage);
        assert!(decode_request(&[]).is_err());
        // A string length far past the frame must be a typed error.
        let mut evil = vec![OP_QUERY, PROTOCOL_VERSION];
        evil.extend_from_slice(&0u32.to_le_bytes());
        evil.extend_from_slice(&0u32.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_request(&evil), Err(Error::Protocol(_))));
    }

    #[test]
    fn frame_reader_rejects_oversized_and_truncated() {
        use std::io::Cursor as IoCursor;
        // Clean EOF at the boundary.
        let mut empty = IoCursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut empty, 1024, None).unwrap(), Frame::Eof);
        // Oversized length prefix.
        let mut big = IoCursor::new((1u32 << 30).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut big, 1024, None),
            Err(Error::Protocol(_))
        ));
        // Truncated mid-header and mid-payload.
        let mut short = IoCursor::new(vec![1u8, 0]);
        assert!(matches!(
            read_frame(&mut short, 1024, None),
            Err(Error::Protocol(_))
        ));
        let mut body = Vec::new();
        body.extend_from_slice(&8u32.to_le_bytes());
        body.extend_from_slice(&[1, 2, 3]);
        let mut truncated = IoCursor::new(body);
        assert!(matches!(
            read_frame(&mut truncated, 1024, None),
            Err(Error::Protocol(_))
        ));
        // A whole frame roundtrips.
        let mut out = Vec::new();
        write_frame(&mut out, b"hello").unwrap();
        let mut rd = IoCursor::new(out);
        assert_eq!(
            read_frame(&mut rd, 1024, None).unwrap(),
            Frame::Payload(b"hello".to_vec())
        );

        /// Serves its bytes one `read` at a time, then times out.
        struct Stalling(Vec<u8>);
        impl Read for Stalling {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(ErrorKind::WouldBlock.into());
                }
                buf[0] = self.0.remove(0);
                Ok(1)
            }
        }
        let idle = read_frame(&mut Stalling(vec![]), 1024, None);
        assert_eq!(idle.unwrap(), Frame::Idle);
        let idle =
            read_frame(&mut Stalling(vec![]), 1024, Some(Duration::ZERO));
        assert_eq!(idle.unwrap(), Frame::Idle);
        // A stall after the first byte, in the header or the payload, is
        // retried until the deadline has passed and is then a protocol
        // error; without a deadline the timeout is an I/O error.
        for prefix in [vec![5u8], vec![5, 0, 0, 0, b'h']] {
            let late = read_frame(
                &mut Stalling(prefix.clone()),
                1024,
                Some(Duration::from_millis(20)),
            );
            assert!(
                matches!(late, Err(Error::Protocol(m)) if m.contains("stalled"))
            );
            let late = read_frame(&mut Stalling(prefix), 1024, None);
            assert!(matches!(late, Err(Error::Io(_))));
        }
        // Byte-at-a-time arrival within the deadline completes.
        let mut slow = Vec::new();
        write_frame(&mut slow, b"hello").unwrap();
        assert_eq!(
            read_frame(
                &mut Stalling(slow),
                1024,
                Some(Duration::from_secs(60))
            )
            .unwrap(),
            Frame::Payload(b"hello".to_vec())
        );
    }

    #[test]
    fn every_frame_is_one_write() {
        /// Counts `write` calls and keeps what they wrote.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Counting::default();
        let payloads = [
            encode_request(&Request::Ping),
            encode_response(&Response::Pong, usize::MAX),
            vec![7u8; 100_000],
            Vec::new(),
        ];
        for (i, p) in payloads.iter().enumerate() {
            write_frame(&mut sink, p).unwrap();
            assert_eq!(
                sink.writes,
                i + 1,
                "frame {i} took more than one write"
            );
        }
        let mut rd = std::io::Cursor::new(sink.bytes);
        for p in &payloads {
            assert_eq!(
                read_frame(&mut rd, usize::MAX, None).unwrap(),
                Frame::Payload(p.clone())
            );
        }
        assert_eq!(
            read_frame(&mut rd, usize::MAX, None).unwrap(),
            Frame::Eof
        );
    }
}
