//! The system under test: **every** call into the product is in this
//! file, and `README.md` lists them. Each entry point used here is
//! frozen until the next `[benchmark]` issue, so the list is kept
//! minimal: no `Client::stats`, no `LockStats.shared`, no `TDBMS_*`
//! environment switches, no `tdbms-bench` helpers, no `IoStats`.
//!
//! The rest of the harness sees only the plain types defined here
//! (`StmtOut`, `Parsed`, …), never a product type.

use crate::sim::{SimDisk, SimError, SimLog};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdbms_core::{
    BufferConfig, CheckpointPolicy, Database, Engine, EvictionPolicy,
    ExecOutput, GroupCommitConfig, Session,
};
use tdbms_kernel::{Clock, Error, Granularity, TimeVal, Value};
use tdbms_net::wire::{
    decode_request, decode_response, encode_request, encode_response,
};
use tdbms_net::{
    Client, Reply, Request, Response, Server, ServerConfig, ServerHandle,
};
use tdbms_storage::page::Page;
use tdbms_storage::{DiskManager, FileId, Pager};
use tdbms_tquel::{parse_statement, Statement};
use tdbms_wal::LogStore;

pub type Res<T> = std::result::Result<T, String>;

fn err(e: Error) -> String {
    e.to_string()
}

// ---- device adapters ---------------------------------------------------

fn sim_err(e: SimError) -> Error {
    match e {
        SimError::NoSuchFile(f) => {
            Error::Internal(format!("no such file FileId({f})"))
        }
        SimError::NoSuchPage(p) => Error::NoSuchPage(p),
    }
}

impl DiskManager for SimDisk {
    fn create_file(&mut self) -> tdbms_kernel::Result<FileId> {
        Ok(FileId(SimDisk::create_file(self)))
    }
    fn drop_file(&mut self, file: FileId) -> tdbms_kernel::Result<()> {
        SimDisk::drop_file(self, file.0).map_err(sim_err)
    }
    fn page_count(&self, file: FileId) -> tdbms_kernel::Result<u32> {
        SimDisk::page_count(self, file.0).map_err(sim_err)
    }
    fn read_page(
        &mut self,
        file: FileId,
        page_no: u32,
    ) -> tdbms_kernel::Result<Page> {
        SimDisk::read_page(self, file.0, page_no)
            .map(Page::from_bytes)
            .map_err(sim_err)
    }
    fn write_page(
        &mut self,
        file: FileId,
        page_no: u32,
        page: &Page,
    ) -> tdbms_kernel::Result<()> {
        SimDisk::write_page(self, file.0, page_no, page.as_bytes())
            .map_err(sim_err)
    }
    fn append_page(
        &mut self,
        file: FileId,
        page: &Page,
    ) -> tdbms_kernel::Result<u32> {
        SimDisk::append_page(self, file.0, page.as_bytes()).map_err(sim_err)
    }
    fn truncate(&mut self, file: FileId) -> tdbms_kernel::Result<()> {
        SimDisk::truncate(self, file.0).map_err(sim_err)
    }
    fn sync(&mut self, file: FileId) -> tdbms_kernel::Result<()> {
        SimDisk::sync(self, file.0).map_err(sim_err)
    }
    fn files(&self) -> Vec<FileId> {
        SimDisk::files(self).into_iter().map(FileId).collect()
    }
}

impl LogStore for SimLog {
    fn read_all(&mut self) -> tdbms_kernel::Result<Vec<u8>> {
        Ok(SimLog::read_all(self))
    }
    fn append(&mut self, bytes: &[u8]) -> tdbms_kernel::Result<()> {
        SimLog::append(self, bytes);
        Ok(())
    }
    fn sync(&mut self) -> tdbms_kernel::Result<()> {
        SimLog::sync(self);
        Ok(())
    }
    fn reset(&mut self, bytes: &[u8]) -> tdbms_kernel::Result<()> {
        SimLog::reset(self, bytes);
        Ok(())
    }
}

// ---- statements --------------------------------------------------------

/// A parsed statement (`tquel::parse_statement`).
pub struct Parsed(Statement);

pub fn parse(src: &str) -> Res<Parsed> {
    parse_statement(src).map(Parsed).map_err(err)
}

/// What one statement produced, in harness terms. Result columns the
/// benchmark asks for are all integers; anything else reads as
/// `i64::MIN` so a check on it fails loudly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StmtOut {
    pub rows: Vec<Vec<i64>>,
    pub affected: u64,
    /// The program's own ledger for the statement (`ExecOutput.stats`
    /// / `Reply`): compared against the device counts, never trusted.
    pub input_pages: u64,
    pub output_pages: u64,
    pub buffer_hits: u64,
    pub evictions: u64,
}

fn ints(rows: &[Vec<Value>]) -> Vec<Vec<i64>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.as_int().unwrap_or(i64::MIN)).collect())
        .collect()
}

fn out_of(o: &ExecOutput) -> StmtOut {
    StmtOut {
        rows: ints(o.rows()),
        affected: o.affected as u64,
        input_pages: o.stats.input_pages,
        output_pages: o.stats.output_pages,
        buffer_hits: o.stats.buffer_hits,
        evictions: o.stats.evictions,
    }
}

// ---- embedded database -------------------------------------------------

/// Buffer pool shape of a database.
#[derive(Debug, Clone, Copy)]
pub enum Buffers {
    /// Paper mode: one LRU frame per relation.
    Paper,
    /// `n` LRU frames per relation.
    Frames(usize),
}

/// A single-user `Database` opened on the benchmark's devices.
pub struct Embedded {
    db: Database,
}

impl Embedded {
    /// A non-durable database over `disk`. Statements start cold (the
    /// paper's regime) until [`Embedded::set_warm`].
    pub fn open(disk: SimDisk, buffers: Buffers) -> Embedded {
        let cfg = match buffers {
            Buffers::Paper => BufferConfig::paper(),
            Buffers::Frames(n) => {
                BufferConfig::uniform(n, EvictionPolicy::Lru)
            }
        };
        let pager = Pager::with_config(Box::new(disk), cfg);
        Embedded {
            db: Database::with_pager(pager),
        }
    }

    /// `Database::open_durable_on`: recover whatever `disk` and `log`
    /// hold, then run as a WAL'd database checkpointing every
    /// `checkpoint_every` commits.
    pub fn open_durable(
        disk: SimDisk,
        log: SimLog,
        frames: usize,
        checkpoint_every: u32,
    ) -> Res<Embedded> {
        let mut db =
            Database::open_durable_on(Box::new(disk), Box::new(log), None)
                .map_err(err)?;
        db.set_checkpoint_policy(CheckpointPolicy::EveryN(
            checkpoint_every,
        ));
        db.set_default_buffer_frames(frames);
        Ok(Embedded { db })
    }

    pub fn enable_group_commit(
        &mut self,
        max_batch: u32,
        max_delay: Duration,
    ) -> Res<()> {
        self.db
            .enable_group_commit(GroupCommitConfig {
                max_batch,
                max_delay,
            })
            .map_err(err)
    }

    /// Keep buffers across statements (every workload but the sweep).
    pub fn set_warm(&mut self) {
        self.db.set_cold_statements(false);
    }

    /// Restart the fixed logical clock at the given instant.
    pub fn set_clock(&mut self, ymd_hms: (i32, u32, u32, u32, u32, u32)) {
        let (y, mo, d, h, mi, s) = ymd_hms;
        let t = TimeVal::from_ymd_hms(y, mo, d, h, mi, s)
            .expect("benchmark dates are valid");
        self.db.set_clock(Clock::new(t, 60));
    }

    /// The clock's current instant as a TQuel time literal.
    pub fn now_literal(&self) -> String {
        self.db.clock().now().format(Granularity::Second)
    }

    pub fn execute(&mut self, src: &str) -> Res<StmtOut> {
        self.db.execute(src).map(|o| out_of(&o)).map_err(err)
    }

    pub fn execute_parsed(&mut self, stmt: &Parsed) -> Res<StmtOut> {
        self.db
            .execute_statement(&stmt.0)
            .map(|o| out_of(&o))
            .map_err(err)
    }

    /// Parse + bind + plan, no execution: `(est_input, est_output)`.
    pub fn estimate(&self, src: &str) -> Res<(u64, u64)> {
        self.db.estimate_retrieve(src).map_err(err)
    }

    pub fn into_shared(self) -> Shared {
        Shared {
            engine: Engine::new(self.db),
        }
    }
}

// ---- shared engine -----------------------------------------------------

/// An `Engine` the harness keeps its own handle on.
#[derive(Clone)]
pub struct Shared {
    engine: Engine,
}

impl Shared {
    pub fn session(&self) -> Sess {
        Sess {
            s: self.engine.session(),
        }
    }

    /// `(exclusive acquisitions, snapshot reads)` so far.
    pub fn lock_stats(&self) -> (u64, u64) {
        let l = self.engine.lock_stats();
        (l.exclusive, l.snapshot_reads)
    }

    /// `(hits, misses)` of the statement cache so far.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.engine.plan_cache_stats()
    }

    /// One inline reorganization pass under the commit lock.
    pub fn reorganize_all(&self) -> Res<u64> {
        self.engine
            .try_with_write(|db| db.reorganize_all())
            .map_err(err)?
            .map_err(err)
    }

    /// Serve this engine on an ephemeral loopback port with the
    /// default `ServerConfig`.
    pub fn serve(&self) -> Res<Serving> {
        let server = Server::bind(
            self.engine.clone(),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .map_err(err)?;
        let addr = server.local_addr().map_err(err)?;
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || server.run().map_err(err))
            .map_err(|e| e.to_string())?;
        Ok(Serving {
            addr,
            handle,
            thread,
        })
    }
}

/// One session of a [`Shared`] engine.
pub struct Sess {
    s: Session,
}

impl Sess {
    pub fn execute(&mut self, src: &str) -> Res<StmtOut> {
        self.s.execute(src).map(|o| out_of(&o)).map_err(err)
    }

    pub fn execute_parsed(&mut self, stmt: &Parsed) -> Res<StmtOut> {
        self.s
            .execute_statement(&stmt.0)
            .map(|o| out_of(&o))
            .map_err(err)
    }
}

// ---- the wire ----------------------------------------------------------

/// Counters a server reports when it stops.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerReport {
    pub query_errors: u64,
    pub panics_caught: u64,
    pub accept_errors: u64,
}

/// A running in-process server.
pub struct Serving {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<Res<tdbms_net::ServerStats>>,
}

impl Serving {
    /// Graceful shutdown; waits for the server thread to end.
    pub fn stop(self) -> Res<ServerReport> {
        self.handle.shutdown();
        let stats = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string())??;
        Ok(ServerReport {
            query_errors: stats.query_errors,
            panics_caught: stats.panics_caught,
            accept_errors: stats.accept_errors,
        })
    }
}

/// A reply as it came off the wire, kept for the codec replay.
#[derive(Debug, Clone)]
pub struct WireReply(Reply);

impl WireReply {
    pub fn out(&self) -> StmtOut {
        StmtOut {
            rows: ints(&self.0.rows),
            affected: self.0.affected,
            input_pages: self.0.input_pages,
            output_pages: self.0.output_pages,
            buffer_hits: 0,
            evictions: 0,
        }
    }
}

pub struct WireClient {
    c: Client,
}

impl WireClient {
    pub fn connect(addr: SocketAddr) -> Res<WireClient> {
        Client::connect(addr).map(|c| WireClient { c }).map_err(err)
    }

    pub fn query(&mut self, src: &str) -> Res<WireReply> {
        self.c.query(src).map(WireReply).map_err(err)
    }
}

/// Replay the four codec calls of one round trip on a real message
/// pair; returns `(nanoseconds, request bytes + response bytes)`.
pub fn codec_roundtrip(stmt: &str, reply: &WireReply) -> Res<(u64, u64)> {
    let req = Request::Query {
        stmt: stmt.to_string(),
        timeout_ms: 0,
        max_rows: 0,
    };
    let resp = Response::Rows(reply.0.clone());
    let max = ServerConfig::default().max_reply_bytes;
    let t0 = Instant::now();
    let req_bytes = encode_request(&req);
    let req_back = decode_request(&req_bytes).map_err(err)?;
    let resp_bytes = encode_response(&resp, max);
    let resp_back = decode_response(&resp_bytes).map_err(err)?;
    let ns = t0.elapsed().as_nanos() as u64;
    if req_back != req || resp_back != resp {
        return Err("codec round trip changed the message".into());
    }
    Ok((ns, (req_bytes.len() + resp_bytes.len()) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices() -> (SimDisk, SimLog) {
        (
            SimDisk::with_sync_cost(Duration::ZERO),
            SimLog::with_sync_cost(Duration::ZERO),
        )
    }

    const READ_ALL: &str = "retrieve (t.id, t.id, t.v)";

    fn ids(db: &mut Embedded) -> Vec<i64> {
        db.execute("range of t is r").unwrap();
        let mut ids: Vec<i64> = db
            .execute(READ_ALL)
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0])
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The property `durable_commit` rests on: after `crash()`, a
    /// reopened `open_durable_on` sees every acknowledged statement and
    /// nothing else — here with the next checkpoint far away, so the
    /// rows have to come back out of the synced prefix of the log.
    #[test]
    fn a_reopened_durable_database_sees_only_durable_state() {
        let (disk, log) = devices();
        let mut db =
            Embedded::open_durable(disk.clone(), log.clone(), 8, 1000)
                .unwrap();
        db.execute("create rollback interval r (id = i4, v = i4)")
            .unwrap();
        for id in 1..=5 {
            db.execute(&format!("append to r (id = {id}, v = 0)"))
                .unwrap();
        }
        // Every statement above was acknowledged, hence synced: the
        // log's durable prefix is the whole log.
        let synced = log.size();
        drop(db);
        disk.crash();
        log.crash();
        assert_eq!(log.size(), synced);

        let mut db =
            Embedded::open_durable(disk.clone(), log.clone(), 8, 1000)
                .unwrap();
        assert_eq!(ids(&mut db), [1, 2, 3, 4, 5]);

        // Bytes appended but never synced do not survive, and the
        // reopened database is none the wiser.
        drop(db);
        let durable = log.size();
        log.append(b"torn, unsynced tail");
        disk.crash();
        log.crash();
        assert_eq!(log.size(), durable);
        let mut db = Embedded::open_durable(disk, log, 8, 1000).unwrap();
        assert_eq!(ids(&mut db), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn the_codec_replay_round_trips_a_real_reply() {
        let mut db = Embedded::open(
            SimDisk::with_sync_cost(Duration::ZERO),
            Buffers::Frames(4),
        );
        db.execute("create static r (id = i4, v = i4)").unwrap();
        db.execute("append to r (id = 7, v = 9)").unwrap();
        let serving = db.into_shared().serve().unwrap();
        let mut client = WireClient::connect(serving.addr).unwrap();
        client.query("range of t is r").unwrap();
        let reply = client.query(READ_ALL).unwrap();
        assert_eq!(reply.out().rows, [[7, 7, 9]]);
        let (_, bytes) = codec_roundtrip(READ_ALL, &reply).unwrap();
        assert!(bytes as usize > READ_ALL.len());
        drop(client);
        let report = serving.stop().unwrap();
        assert_eq!((report.query_errors, report.panics_caught), (0, 0));
    }
}
