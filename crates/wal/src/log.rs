//! Log storage backends.
//!
//! [`LogStore`] is the byte-level contract the WAL writes against:
//! append, fsync, read back, and reset (checkpoint truncation). The
//! backends mirror the disk managers: [`FileLog`] for a real durable log
//! beside the page files, [`MemLog`] (whose clones share their bytes,
//! so a crash test can reopen the surviving log in the next
//! incarnation), and [`FaultLog`] to crash the log channel on the same
//! [`FaultPlan`] budget as the data disk.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use tdbms_kernel::Result;
use tdbms_storage::FaultPlan;

/// Byte-level log storage. `Send + Sync` is part of the contract so a
/// WAL'd engine (which drives the log from behind its commit lock) can be
/// shared across threads.
pub trait LogStore: Send + Sync {
    /// The entire log contents, header included.
    fn read_all(&mut self) -> Result<Vec<u8>>;
    /// Append bytes at the end.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    /// Force appended bytes to stable storage.
    fn sync(&mut self) -> Result<()>;
    /// Replace the whole log with `bytes` (checkpoint truncation).
    /// Contract: **atomic** — after a crash the log holds either the old
    /// contents or the new, never a mixture (file backends implement
    /// this as write-to-temp + fsync + rename). The WAL relies on this:
    /// the truncated log carries the only copy of the catalog when the
    /// database has no directory to checkpoint it into.
    fn reset(&mut self, bytes: &[u8]) -> Result<()>;
}

/// In-memory log. A `MemLog` is a handle: its clones share the same
/// bytes, so a crash test can reopen the surviving log of one
/// incarnation in the next.
#[derive(Clone, Default)]
pub struct MemLog {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemLog {
    /// An empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.bytes.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl LogStore for MemLog {
    fn read_all(&mut self) -> Result<Vec<u8>> {
        Ok(self.lock().clone())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<()> {
        let mut b = self.lock();
        b.clear();
        b.extend_from_slice(bytes);
        Ok(())
    }
}

/// File-backed log (`wal.tdbms` in the database directory).
pub struct FileLog {
    fh: std::fs::File,
    path: PathBuf,
}

impl FileLog {
    /// Open (creating if needed) the log file at `path`.
    ///
    /// A crash between `reset`'s temp-file write and its rename leaves a
    /// stale `*.tmp` sibling beside an intact old log (the rename never
    /// happened, so the old contents are still the truth). Reopening
    /// clears the leftover so it can never shadow or be mistaken for the
    /// real log, and so a later `reset` starts from a clean slate.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let tmp = path.with_extension("tmp");
        match std::fs::remove_file(&tmp) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let fh = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        Ok(FileLog { fh, path })
    }
}

impl LogStore for FileLog {
    fn read_all(&mut self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.fh.seek(SeekFrom::Start(0))?;
        self.fh.read_to_end(&mut out)?;
        Ok(out)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.fh.seek(SeekFrom::End(0))?;
        self.fh.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.fh.sync_all()?;
        Ok(())
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<()> {
        // Atomic (per the trait contract): build the replacement beside
        // the log, fsync it, and rename it into place.
        let tmp = self.path.with_extension("tmp");
        let mut fh = std::fs::File::create(&tmp)?;
        fh.write_all(bytes)?;
        fh.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        // The temp handle is write-only; reopen for reading too.
        self.fh = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)?;
        Ok(())
    }
}

/// A [`LogStore`] that crashes on the shared [`FaultPlan`] budget.
/// Appends and resets are mutating ops. A crashing *append* persists
/// only a prefix (`torn_bytes`, default none) — simulating a torn log
/// append, which recovery must treat as "this record never happened". A
/// crashing *reset* leaves the old contents untouched: resets are atomic
/// by the trait contract (rename-based), so they either happen whole or
/// not at all.
pub struct FaultLog {
    inner: Box<dyn LogStore>,
    plan: FaultPlan,
    torn_bytes: Option<usize>,
    /// Bit-flip injection: the crashing append persists the record *in
    /// full* but with this bit (index into the record's bits, wrapped)
    /// flipped — bit rot at the log tail rather than a torn tail. The
    /// FNV frame check must catch it and truncate recovery at the last
    /// valid record.
    flip_bit: Option<u64>,
}

impl FaultLog {
    /// Wrap `inner` under `plan`, dropping the crashing append whole.
    pub fn new(inner: Box<dyn LogStore>, plan: FaultPlan) -> Self {
        FaultLog {
            inner,
            plan,
            torn_bytes: None,
            flip_bit: None,
        }
    }

    /// Wrap `inner` under `plan`; the crashing append persists its first
    /// `bytes` bytes.
    pub fn with_torn_appends(
        inner: Box<dyn LogStore>,
        plan: FaultPlan,
        bytes: usize,
    ) -> Self {
        FaultLog {
            inner,
            plan,
            torn_bytes: Some(bytes),
            flip_bit: None,
        }
    }

    /// Wrap `inner` under `plan`; the crashing append persists all its
    /// bytes with the `bit`-th bit (mod the record's bit length) flipped.
    pub fn with_bit_flips(
        inner: Box<dyn LogStore>,
        plan: FaultPlan,
        bit: u64,
    ) -> Self {
        FaultLog {
            inner,
            plan,
            torn_bytes: None,
            flip_bit: Some(bit),
        }
    }
}

impl LogStore for FaultLog {
    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.plan.check_alive()?;
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let was_alive = !self.plan.crashed();
        if let Err(e) = self.plan.charge() {
            // Tearing/bit rot model a *crash* mid-append. A transient
            // failure (ENOSPC window) drops the append whole and the
            // plan stays alive.
            if was_alive && self.plan.crashed() {
                if let Some(bit) = self.flip_bit {
                    if !bytes.is_empty() {
                        let mut rotted = bytes.to_vec();
                        let at = (bit % (rotted.len() as u64 * 8)) as usize;
                        rotted[at / 8] ^= 1 << (at % 8);
                        let _ = self.inner.append(&rotted);
                    }
                } else if let Some(k) = self.torn_bytes {
                    let _ = self.inner.append(&bytes[..k.min(bytes.len())]);
                }
            }
            return Err(e);
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> Result<()> {
        self.plan.charge_sync()?;
        self.inner.sync()
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<()> {
        self.plan.charge()?;
        self.inner.reset(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(log: &mut dyn LogStore) {
        assert!(log.read_all().unwrap().is_empty());
        log.append(b"abc").unwrap();
        log.append(b"def").unwrap();
        log.sync().unwrap();
        assert_eq!(log.read_all().unwrap(), b"abcdef");
        log.reset(b"xy").unwrap();
        assert_eq!(log.read_all().unwrap(), b"xy");
        log.append(b"z").unwrap();
        assert_eq!(log.read_all().unwrap(), b"xyz");
    }

    #[test]
    fn mem_log_contract_and_sharing() {
        let mut log = MemLog::new();
        exercise(&mut log);
        let mut other = log.clone();
        other.append(b"!").unwrap();
        assert_eq!(log.read_all().unwrap(), b"xyz!");
    }

    #[test]
    fn file_log_contract_and_reopen() {
        let dir = tdbms_kernel::tmpdir::fresh_dir("wal-log");
        let path = dir.join("wal.tdbms");
        exercise(&mut FileLog::open(&path).unwrap());
        // Reopen: contents survive.
        let mut log = FileLog::open(&path).unwrap();
        assert_eq!(log.read_all().unwrap(), b"xyz");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_log_reopen_clears_a_stale_reset_tmp() {
        // Crash point: reset wrote (and maybe fsynced) wal.tmp but died
        // before the rename. The old log is intact and the tmp is
        // garbage; reopening must keep the former and clear the latter.
        let dir = tdbms_kernel::tmpdir::fresh_dir("wal-stale-tmp");
        let path = dir.join("wal.tdbms");
        {
            let mut log = FileLog::open(&path).unwrap();
            log.append(b"committed").unwrap();
            log.sync().unwrap();
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, b"half-a-checkpoint").unwrap();
        let mut log = FileLog::open(&path).unwrap();
        assert_eq!(log.read_all().unwrap(), b"committed");
        assert!(!tmp.exists(), "stale tmp must be cleared on reopen");
        // And a subsequent reset still works end to end.
        log.reset(b"fresh").unwrap();
        assert_eq!(log.read_all().unwrap(), b"fresh");
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_log_flips_one_bit_of_the_crashing_append() {
        let shared = MemLog::new();
        let plan = FaultPlan::new(Some(2));
        let mut log = FaultLog::with_bit_flips(
            Box::new(shared.clone()),
            plan.clone(),
            9, // bit 9 = byte 1, bit 1
        );
        log.append(b"abcd").unwrap();
        assert!(log.append(b"efgh").is_err(), "second append crashes");
        assert!(plan.crashed());
        let mut survivor = shared;
        let got = survivor.read_all().unwrap();
        assert_eq!(got.len(), 8, "full length persisted, unlike a tear");
        assert_eq!(&got[..4], b"abcd");
        assert_eq!(got[4], b'e');
        assert_eq!(got[5], b'f' ^ 0b10, "exactly one bit rotted");
        assert_eq!(&got[6..], b"gh");
    }

    #[test]
    fn fault_log_tears_the_crashing_append() {
        let shared = MemLog::new();
        let plan = FaultPlan::new(Some(2));
        let mut log = FaultLog::with_torn_appends(
            Box::new(shared.clone()),
            plan.clone(),
            2,
        );
        log.append(b"abcd").unwrap();
        assert!(log.append(b"efgh").is_err(), "second append crashes");
        assert!(plan.crashed());
        assert!(log.append(b"ijkl").is_err(), "dead after the crash");
        assert!(log.read_all().is_err());
        let mut survivor = shared;
        assert_eq!(
            survivor.read_all().unwrap(),
            b"abcdef",
            "2-byte torn tail of the crashing append"
        );
    }
}
