//! `durable_commit`: two embedded sessions on a WAL'd database with
//! group commit, then a crash and a recovery.
//!
//! `open_durable_on(SimDisk, SimLog)` with group commit on (`max_batch`
//! 8, `max_delay` 2 ms) and a checkpoint every 256 commits. 75 % of
//! the statements are single-statement `append` / `replace`, 25 % keyed
//! reads. The devices charge a fixed 200 µs per sync and nothing else,
//! so the numbers say how many syncs (and how much group-commit
//! linger) sit on the critical path, not how fast the sandbox's disk
//! is. When both sessions are done the devices `crash()` — everything
//! no sync covered is discarded — the database is reopened, and every
//! acknowledged write must be readable.
//!
//! Each session writes and reads only its own keys (ids of its own
//! parity), so every expected answer is known without observing the
//! program.

use super::{current_read, declare_ranges, replace, EngineMark, CLASS};
use crate::gen::{self, amount_of, rel_name, Rel, Rng, USER_ROW_BYTES};
use crate::run::{drive_all, Cfg, Check, Kind, Op, Trial};
use crate::sim::{SimDisk, SimLog};
use crate::sut::{Embedded, Res};
use std::time::{Duration, Instant};

pub const KEYS: i64 = 1024;
const SESSIONS: u64 = 2;
const FRAMES: usize = 8;
const CHECKPOINT_EVERY: u32 = 256;
const GC_MAX_BATCH: u32 = 8;
const GC_MAX_DELAY: Duration = Duration::from_millis(2);
/// Operations per session per trial at scale 1.0 (≈ 3.5 s here: a
/// commit costs the 2 ms linger plus the sync).
const BASE_OPS: u64 = 2200;

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Read,
    Append,
    Replace,
}

/// One session's statements, generated one at a time, and the state
/// they must leave behind.
///
/// Own ids are those congruent to the session's parity; slot `k` holds
/// id `2k + parity` (slot 0 of parity 0 would be id 0, which is never
/// loaded, so that session's slots start at 1).
pub struct Stream {
    seed: u64,
    rng: Rng,
    kinds: std::vec::IntoIter<OpKind>,
    parity: i64,
    first: i64,
    /// `seq[rel][slot]` of the current version.
    seq: [Vec<i64>; 2],
    /// A session's "now" is the instant of the last commit, and
    /// valid-time intervals are closed: a current-version read straight
    /// after this session's replace of the same key would meet both
    /// versions. Reads step past the key the session's latest write
    /// replaced (another session's commit can only move "now" on).
    replaced_last: Option<(Rel, i64)>,
    written_rows: u64,
}

fn stream(cfg: &Cfg, session: u64) -> Stream {
    let mut rng = Rng::fork(cfg.seed, 10 + session);
    let parity = session as i64 % SESSIONS as i64;
    let slots = ((KEYS - parity) / SESSIONS as i64 + 1) as usize;
    let kinds = gen::exact_mix(
        &mut rng,
        cfg.scaled(BASE_OPS, 8),
        &[
            (OpKind::Read, 25),
            (OpKind::Append, 25),
            (OpKind::Replace, 50),
        ],
    );
    Stream {
        seed: cfg.seed,
        rng,
        kinds: kinds.into_iter(),
        parity,
        first: if parity == 0 { 1 } else { 0 },
        seq: [vec![0; slots], vec![0; slots]],
        replaced_last: None,
        written_rows: 0,
    }
}

impl Stream {
    fn id_of(&self, slot: i64) -> i64 {
        slot * SESSIONS as i64 + self.parity
    }

    /// `(rel, id, seq)` of every key the session owns, as of now.
    fn owned(&self) -> Vec<(Rel, i64, i64)> {
        let mut owned = Vec::new();
        for rel in Rel::BOTH {
            for (slot, &v) in self.seq[rel as usize].iter().enumerate() {
                if slot as i64 >= self.first {
                    owned.push((rel, self.id_of(slot as i64), v));
                }
            }
        }
        owned
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let kind = self.kinds.next()?;
        let rel = Rel::BOTH[self.rng.below(2) as usize];
        let r = rel as usize;
        let (seed, first) = (self.seed, self.first);
        Some(match kind {
            OpKind::Read => {
                let last = self.seq[r].len() as i64 - 1;
                let mut slot = self.rng.range(first, last);
                if self.replaced_last == Some((rel, slot)) {
                    slot = if slot < last { slot + 1 } else { first };
                }
                let id = self.id_of(slot);
                Op {
                    stmt: current_read(rel, id),
                    kind: Kind::Read,
                    check: Check::Row {
                        id,
                        amount: amount_of(seed, rel, id),
                        seq: self.seq[r][slot as usize],
                    },
                }
            }
            OpKind::Append => {
                let id = self.id_of(self.seq[r].len() as i64);
                self.seq[r].push(0);
                self.written_rows += 1;
                self.replaced_last = None;
                Op {
                    stmt: gen::append_stmt(
                        &rel_name(CLASS, rel),
                        id,
                        amount_of(seed, rel, id),
                        &gen::string_of(seed, rel, id),
                    ),
                    kind: Kind::Write,
                    check: Check::Affected(1),
                }
            }
            OpKind::Replace => {
                let slot =
                    self.rng.range(first, self.seq[r].len() as i64 - 1);
                self.seq[r][slot as usize] += 1;
                self.written_rows += 1;
                self.replaced_last = Some((rel, slot));
                Op {
                    stmt: replace(rel, self.id_of(slot)),
                    kind: Kind::Write,
                    check: Check::Affected(1),
                }
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.kinds.size_hint()
    }
}

impl ExactSizeIterator for Stream {}

/// Statements of session 0 (for the front-end replay).
pub fn ops(cfg: &Cfg) -> Stream {
    stream(cfg, 0)
}

fn open(disk: &SimDisk, log: &SimLog) -> Res<Embedded> {
    let mut db = Embedded::open_durable(
        disk.clone(),
        log.clone(),
        FRAMES,
        CHECKPOINT_EVERY,
    )?;
    db.set_warm();
    Ok(db)
}

/// A loaded durable database (group commit not yet on).
pub fn build(cfg: &Cfg, disk: &SimDisk, log: &SimLog) -> Res<Embedded> {
    let mut db = open(disk, log)?;
    gen::load(&mut db, CLASS, KEYS, cfg.seed, |rel, id| {
        amount_of(cfg.seed, rel, id)
    })?;
    Ok(db)
}

pub fn trial(cfg: &Cfg, traced: bool) -> Res<Trial> {
    let t0 = Instant::now();
    let (disk, log) = (SimDisk::new(), SimLog::new());
    let mut db = build(cfg, &disk, &log)?;
    db.enable_group_commit(GC_MAX_BATCH, GC_MAX_DELAY)?;
    let shared = db.into_shared();
    let mut sessions = Vec::new();
    for s in 0..SESSIONS {
        let mut sess = shared.session();
        declare_ranges(&mut sess)?;
        for rel in Rel::BOTH {
            for id in 1..=KEYS {
                sess.execute(&current_read(rel, id))?;
            }
        }
        sessions.push((sess, stream(cfg, s)));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    if traced {
        disk.start_tracing();
        log.start_tracing();
    }
    let (disk0, log0) = (disk.counts(), log.counts());
    let mark = EngineMark::take(&shared);
    let (driven, sessions) = drive_all(cfg, sessions, traced);
    // The sessions go before the engine does; the streams stay, to say
    // what must have survived.
    let streams: Vec<Stream> =
        sessions.into_iter().map(|(_, stream)| stream).collect();
    let (disk_d, log_d) =
        (disk.counts().since(&disk0), log.counts().since(&log0));
    let mut layer = std::collections::BTreeMap::new();
    mark.layers(&shared, &driven, &mut layer);
    let data_bytes = disk.data_bytes();
    let mut device_spans = disk.take_spans();
    device_spans.append(&mut log.take_spans());

    // Power loss at quiescence: every write was acknowledged, so every
    // write must survive. The old engine goes first — nothing may touch
    // the devices between the crash and the reopen.
    drop(shared);
    disk.crash();
    log.crash();
    let replayed = log.size() as u64;
    let t0 = Instant::now();
    let mut db = open(&disk, &log)?;
    declare_ranges(&mut db)?;
    db.execute(&current_read(Rel::H, 1))?;
    let recovery_s = t0.elapsed().as_secs_f64();

    let mut trial = Trial {
        setup_s,
        threads: SESSIONS as u32,
        disk: disk_d,
        log: log_d,
        data_bytes,
        recovery_s: Some(recovery_s),
        device_spans,
        layer,
        ..Trial::default()
    };
    for s in &streams {
        trial.user_bytes_written += s.written_rows * USER_ROW_BYTES;
        let owned = s.owned();
        trial.live_rows += owned.len() as u64;
        for (rel, id, seq) in owned {
            trial.audit_ops += 1;
            let want = Check::Row {
                id,
                amount: amount_of(cfg.seed, rel, id),
                seq,
            };
            let got = db.execute(&current_read(rel, id));
            if let Err(e) = got.and_then(|out| want.verify(&out)) {
                trial.audit_failed += 1;
                trial.audit_failure.get_or_insert(format!(
                    "after recovery, {}.id = {id}: {e}",
                    rel.var()
                ));
            }
        }
    }

    let commits = driven.write_ns.len() as f64;
    let l = &mut trial.layer;
    l.insert(
        "wal.bytes_per_commit",
        log_d.bytes_appended as f64 / commits,
    );
    l.insert("wal.appends_per_commit", log_d.appends as f64 / commits);
    if log_d.syncs > 0 {
        l.insert(
            "wal.group.commits_per_fsync",
            commits / log_d.syncs as f64,
        );
    }
    l.insert("wal.checkpoints", log_d.resets as f64);
    l.insert("wal.recovery_bytes_replayed", replayed as f64);
    l.insert(
        "wal.recovery_us_per_kib",
        recovery_s * 1e6 / (replayed as f64 / 1024.0).max(1.0),
    );
    trial.driven = driven;
    Ok(trial)
}
