//! Deterministic fault injection for crash-recovery testing.
//!
//! [`FaultDisk`] wraps any [`DiskManager`] and simulates a process crash
//! at a chosen point: every *mutating* operation (write, append,
//! truncate, create, drop, sync) charges one unit against a budget held
//! in a shared [`FaultPlan`]; the operation that exhausts the budget is
//! dropped — or, for page writes, **torn**: only a prefix of the page
//! reaches the device — and from then on every operation fails with an
//! I/O error, exactly as a dead process stops issuing I/O. Reads are
//! free until the crash (a crash loses no already-durable data) and fail
//! after it.
//!
//! The plan is shared (`Arc<Mutex<…>>`, so one plan can also span
//! threads in the crash-under-concurrency matrix) so one budget can span
//! several channels — the data disk and the write-ahead log — giving a
//! single global "crash at op N" knob. Over a
//! [`MemDisk`](crate::MemDisk), whose clones share their pages, a test
//! can crash one incarnation of a database and reopen the *same*
//! surviving bytes in the next, without touching the filesystem.

use crate::disk::{DiskManager, FileId};
use crate::page::{Page, PAGE_SIZE};
use std::sync::{Arc, Mutex, PoisonError};
use tdbms_kernel::{Error, Result};

/// Shared crash schedule. Clones observe and charge the same budget.
#[derive(Clone)]
pub struct FaultPlan {
    state: Arc<Mutex<FaultState>>,
}

struct FaultState {
    /// Mutating ops left before the crash; `None` never crashes.
    remaining: Option<u64>,
    /// Mutating ops charged so far (for sizing a crash matrix).
    charged: u64,
    crashed: bool,
    /// Inclusive 1-based op-ordinal ranges during which every
    /// space-consuming op fails with ENOSPC. The counter still
    /// advances on a failing op, so a window always passes.
    enospc_windows: Vec<(u64, u64)>,
    /// Same, but for `sync` ops only (fsync failure).
    fsync_windows: Vec<(u64, u64)>,
    /// Manual toggles (the chaos harness flips these on a wall-clock
    /// schedule instead of an op schedule).
    enospc_on: bool,
    fsync_fail_on: bool,
}

impl FaultPlan {
    /// A plan that crashes on the `crash_after_ops`-th mutating
    /// operation (1-based): `Some(1)` tears/drops the very first write.
    /// `None` counts ops but never crashes (dry run to size the matrix).
    pub fn new(crash_after_ops: Option<u64>) -> Self {
        FaultPlan {
            state: Arc::new(Mutex::new(FaultState {
                remaining: crash_after_ops,
                charged: 0,
                crashed: false,
                enospc_windows: Vec::new(),
                fsync_windows: Vec::new(),
                enospc_on: false,
                fsync_fail_on: false,
            })),
        }
    }

    /// Schedule ENOSPC windows: inclusive `(start, end)` ranges of
    /// 1-based mutating-op ordinals during which every space-consuming
    /// op (write, append, create, truncate, reset — not sync, not
    /// read) fails with a disk-full I/O error. Unlike a crash these
    /// failures are *transient*: the counter keeps advancing on the
    /// failing ops themselves, so retries deterministically march the
    /// schedule past the window and the disk "recovers".
    pub fn set_enospc_windows(
        &self,
        windows: impl IntoIterator<Item = (u64, u64)>,
    ) {
        self.lock().enospc_windows = windows.into_iter().collect();
    }

    /// Schedule fsync-failure windows over the same op counter: `sync`
    /// ops falling inside fail (data may sit in volatile cache), other
    /// ops are untouched.
    pub fn set_fsync_fail_windows(
        &self,
        windows: impl IntoIterator<Item = (u64, u64)>,
    ) {
        self.lock().fsync_windows = windows.into_iter().collect();
    }

    /// Manually start/stop an ENOSPC condition (wall-clock-scheduled
    /// chaos, where op ordinals are not known in advance).
    pub fn set_enospc(&self, on: bool) {
        self.lock().enospc_on = on;
    }

    /// Manually start/stop fsync failure.
    pub fn set_fsync_fail(&self, on: bool) {
        self.lock().fsync_fail_on = on;
    }

    /// Is the disk-full condition active right now (manual toggle or
    /// the *next* op ordinal falling in a scheduled window)?
    pub fn enospc_active(&self) -> bool {
        let s = self.lock();
        let next = s.charged + 1;
        s.enospc_on
            || s.enospc_windows
                .iter()
                .any(|&(a, b)| next >= a && next <= b)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Has the simulated crash happened?
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Mutating operations charged so far.
    pub fn ops_charged(&self) -> u64 {
        self.lock().charged
    }

    /// The error every operation returns once the process is "dead".
    fn dead() -> Error {
        Error::Io("simulated crash: process is dead".into())
    }

    /// Fail if already crashed (guards reads too). Public so other fault
    /// channels — the WAL's log store — can share one plan.
    pub fn check_alive(&self) -> Result<()> {
        if self.crashed() {
            Err(Self::dead())
        } else {
            Ok(())
        }
    }

    /// Charge one mutating op. `Ok(())` means the op proceeds normally;
    /// `Err` means this op crashed (the caller must not apply it, except
    /// for a torn prefix), fell in an ENOSPC window (transient: the op
    /// fails but the process lives), or the process was already dead.
    /// Public for the same reason as [`FaultPlan::check_alive`].
    pub fn charge(&self) -> Result<()> {
        self.charge_kind(false)
    }

    /// [`FaultPlan::charge`] for a `sync` op: same crash budget and
    /// counter, but consults the fsync-failure schedule instead of the
    /// ENOSPC schedule (a full disk still fsyncs; a broken fsync still
    /// accepts writes into cache).
    pub fn charge_sync(&self) -> Result<()> {
        self.charge_kind(true)
    }

    fn charge_kind(&self, sync_op: bool) -> Result<()> {
        let mut s = self.lock();
        if s.crashed {
            return Err(Self::dead());
        }
        s.charged += 1;
        if let Some(rem) = &mut s.remaining {
            if *rem <= 1 {
                s.crashed = true;
                return Err(Error::Io(format!(
                    "simulated crash at mutating op {}",
                    s.charged
                )));
            }
            *rem -= 1;
        }
        let op = s.charged;
        let transient = if sync_op {
            s.fsync_fail_on
                || s.fsync_windows.iter().any(|&(a, b)| op >= a && op <= b)
        } else {
            s.enospc_on
                || s.enospc_windows.iter().any(|&(a, b)| op >= a && op <= b)
        };
        if transient {
            return Err(if sync_op {
                Error::Io(format!("simulated fsync failure at op {op}"))
            } else {
                Error::Io(format!(
                    "no space left on device (simulated, op {op})"
                ))
            });
        }
        Ok(())
    }
}

/// A [`DiskManager`] that crashes on schedule (see module docs), and can
/// additionally inject *transient* read failures: a schedule of 1-based
/// `read_page` ordinals that each fail exactly once with an I/O error.
/// The ordinal counter advances on every read attempt — including the
/// failing ones — so k *consecutive* ordinals make one fetch fail k times
/// in a row before a retry can succeed, which is exactly the shape a
/// bounded retry policy needs to be tested against.
pub struct FaultDisk {
    inner: Box<dyn DiskManager>,
    plan: FaultPlan,
    /// When the crashing op is a page write, persist this many leading
    /// bytes of the new image over the old page (a torn write). `None`
    /// drops the crashing write entirely.
    torn_bytes: Option<usize>,
    /// 1-based `read_page` ordinals that fail once each (flaky media,
    /// not a crash: the data underneath is intact).
    transient_reads: std::collections::BTreeSet<u64>,
    /// `read_page` calls issued so far.
    reads_issued: u64,
}

impl FaultDisk {
    /// Wrap `inner` under `plan`, dropping the crashing write whole.
    pub fn new(inner: Box<dyn DiskManager>, plan: FaultPlan) -> Self {
        FaultDisk {
            inner,
            plan,
            torn_bytes: None,
            transient_reads: Default::default(),
            reads_issued: 0,
        }
    }

    /// Wrap `inner` under `plan`; the crashing page write persists only
    /// its first `bytes` bytes (clamped to the page size).
    pub fn with_torn_writes(
        inner: Box<dyn DiskManager>,
        plan: FaultPlan,
        bytes: usize,
    ) -> Self {
        FaultDisk {
            inner,
            plan,
            torn_bytes: Some(bytes.min(PAGE_SIZE)),
            transient_reads: Default::default(),
            reads_issued: 0,
        }
    }

    /// Schedule transient read failures: each listed 1-based `read_page`
    /// ordinal fails once with an I/O error and succeeds if reissued.
    pub fn set_transient_reads(
        &mut self,
        failing_ops: impl IntoIterator<Item = u64>,
    ) {
        self.transient_reads = failing_ops.into_iter().collect();
    }

    /// `read_page` calls issued so far (for sizing a transient schedule).
    pub fn reads_issued(&self) -> u64 {
        self.reads_issued
    }

    /// Splice the torn prefix of `new` over `old`.
    fn tear(&self, old: &Page, new: &Page) -> Option<Page> {
        let k = self.torn_bytes?;
        let mut bytes = Box::new(*old.as_bytes());
        bytes[..k].copy_from_slice(&new.as_bytes()[..k]);
        Some(Page::from_bytes(bytes))
    }
}

impl DiskManager for FaultDisk {
    fn create_file(&mut self) -> Result<FileId> {
        self.plan.charge()?;
        self.inner.create_file()
    }

    fn create_scratch_file(&mut self) -> Result<FileId> {
        self.plan.charge()?;
        self.inner.create_scratch_file()
    }

    fn drop_file(&mut self, file: FileId) -> Result<()> {
        self.plan.charge()?;
        self.inner.drop_file(file)
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        self.plan.check_alive()?;
        self.inner.page_count(file)
    }

    fn read_page(&mut self, file: FileId, page_no: u32) -> Result<Page> {
        self.plan.check_alive()?;
        self.reads_issued += 1;
        if self.transient_reads.remove(&self.reads_issued) {
            return Err(Error::Io(format!(
                "transient read error at read op {} ({file:?} page {page_no})",
                self.reads_issued
            )));
        }
        self.inner.read_page(file, page_no)
    }

    fn write_page(
        &mut self,
        file: FileId,
        page_no: u32,
        page: &Page,
    ) -> Result<()> {
        let was_alive = !self.plan.crashed();
        if let Err(e) = self.plan.charge() {
            // The write that *causes* the crash may persist a torn
            // prefix; writes after the crash persist nothing, and a
            // *transient* failure (ENOSPC window, plan still alive)
            // drops the write whole.
            if was_alive && self.plan.crashed() {
                if let Some(torn) = self
                    .inner
                    .read_page(file, page_no)
                    .ok()
                    .and_then(|old| self.tear(&old, page))
                {
                    let _ = self.inner.write_page(file, page_no, &torn);
                }
            }
            return Err(e);
        }
        self.inner.write_page(file, page_no, page)
    }

    fn append_page(&mut self, file: FileId, page: &Page) -> Result<u32> {
        self.plan.charge()?;
        self.inner.append_page(file, page)
    }

    fn truncate(&mut self, file: FileId) -> Result<()> {
        self.plan.charge()?;
        self.inner.truncate(file)
    }

    fn sync(&mut self, file: FileId) -> Result<()> {
        self.plan.charge_sync()?;
        self.inner.sync(file)
    }

    fn files(&self) -> Vec<FileId> {
        self.inner.files()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::page::PageKind;

    fn page_of(byte: u8) -> Page {
        let mut p = Page::new(PageKind::Data);
        p.push_row(4, &[byte; 4]).unwrap();
        p
    }

    #[test]
    fn budget_counts_only_mutations_and_kills_the_process() {
        let plan = FaultPlan::new(Some(3));
        let mut disk =
            FaultDisk::new(Box::new(MemDisk::new()), plan.clone());
        let f = disk.create_file().unwrap(); // op 1
        disk.append_page(f, &page_of(1)).unwrap(); // op 2
        for _ in 0..10 {
            disk.read_page(f, 0).unwrap(); // reads are free
        }
        assert_eq!(plan.ops_charged(), 2);
        assert!(!plan.crashed());
        // Op 3 crashes: the write is dropped whole.
        assert!(disk.write_page(f, 0, &page_of(9)).is_err());
        assert!(plan.crashed());
        // Dead process: everything fails, nothing further is charged.
        assert!(disk.read_page(f, 0).is_err());
        assert!(disk.append_page(f, &page_of(2)).is_err());
        assert!(disk.sync(f).is_err());
        assert_eq!(plan.ops_charged(), 3);
    }

    #[test]
    fn dropped_write_leaves_the_old_image() {
        let shared = MemDisk::new();
        let plan = FaultPlan::new(Some(3));
        let mut disk = FaultDisk::new(Box::new(shared.clone()), plan);
        let f = disk.create_file().unwrap();
        disk.append_page(f, &page_of(1)).unwrap();
        assert!(disk.write_page(f, 0, &page_of(9)).is_err());
        // Reopen the surviving bytes without the fault wrapper.
        let mut survivor = shared;
        let p = survivor.read_page(f, 0).unwrap();
        assert_eq!(p.row(4, 0).unwrap(), &[1; 4], "old image survives");
    }

    #[test]
    fn torn_write_persists_exactly_the_prefix() {
        let shared = MemDisk::new();
        let plan = FaultPlan::new(Some(3));
        let mut disk = FaultDisk::with_torn_writes(
            Box::new(shared.clone()),
            plan,
            100,
        );
        let f = disk.create_file().unwrap();
        disk.append_page(f, &page_of(1)).unwrap();
        assert!(disk.write_page(f, 0, &page_of(9)).is_err());
        let mut survivor = shared;
        let got = survivor.read_page(f, 0).unwrap();
        let old = page_of(1);
        let new = page_of(9);
        assert_eq!(&got.as_bytes()[..100], &new.as_bytes()[..100]);
        assert_eq!(&got.as_bytes()[100..], &old.as_bytes()[100..]);
    }

    #[test]
    fn dry_run_counts_without_crashing() {
        let plan = FaultPlan::new(None);
        let mut disk =
            FaultDisk::new(Box::new(MemDisk::new()), plan.clone());
        let f = disk.create_file().unwrap();
        for _ in 0..5 {
            disk.append_page(f, &page_of(0)).unwrap();
        }
        disk.truncate(f).unwrap();
        disk.drop_file(f).unwrap();
        assert_eq!(plan.ops_charged(), 8);
        assert!(!plan.crashed());
    }

    #[test]
    fn transient_reads_fail_once_and_then_succeed() {
        let mut disk =
            FaultDisk::new(Box::new(MemDisk::new()), FaultPlan::new(None));
        let f = disk.create_file().unwrap();
        disk.append_page(f, &page_of(5)).unwrap();
        // Read ops 2 and 3 fail; everything else is healthy.
        disk.set_transient_reads([2, 3]);
        disk.read_page(f, 0).unwrap(); // op 1
        assert!(disk.read_page(f, 0).is_err()); // op 2: transient failure
        assert!(disk.read_page(f, 0).is_err()); // op 3: consecutive failure
        let p = disk.read_page(f, 0).unwrap(); // op 4: media recovered
        assert_eq!(p.row(4, 0).unwrap(), &[5; 4], "data was never damaged");
        assert_eq!(disk.reads_issued(), 4);
        assert!(!disk.plan.crashed(), "transient faults are not crashes");
    }

    #[test]
    fn enospc_window_fails_writes_but_advances_the_schedule() {
        let plan = FaultPlan::new(None);
        plan.set_enospc_windows([(3, 4)]);
        let mut disk =
            FaultDisk::new(Box::new(MemDisk::new()), plan.clone());
        let f = disk.create_file().unwrap(); // op 1
        disk.append_page(f, &page_of(1)).unwrap(); // op 2
        assert!(plan.enospc_active(), "next op falls in the window");
        // Ops 3 and 4: disk full. The failing ops still advance the
        // counter, so the window passes even under blind retry.
        let e = disk.append_page(f, &page_of(2)).unwrap_err();
        assert!(e.to_string().contains("no space left"), "{e}");
        assert!(disk.write_page(f, 0, &page_of(3)).is_err()); // op 4
        assert!(!plan.crashed(), "enospc is transient, not a crash");
        assert!(!plan.enospc_active());
        // Op 5: space recovered; reads were never affected.
        disk.append_page(f, &page_of(2)).unwrap();
        assert_eq!(
            disk.read_page(f, 0).unwrap().row(4, 0).unwrap(),
            &[1; 4]
        );
        assert_eq!(plan.ops_charged(), 5);
    }

    #[test]
    fn fsync_window_fails_only_sync_ops() {
        let plan = FaultPlan::new(None);
        plan.set_fsync_fail_windows([(3, 3)]);
        let mut disk =
            FaultDisk::new(Box::new(MemDisk::new()), plan.clone());
        let f = disk.create_file().unwrap(); // op 1
        disk.append_page(f, &page_of(1)).unwrap(); // op 2
        let e = disk.sync(f).unwrap_err(); // op 3: fsync fails
        assert!(e.to_string().contains("fsync"), "{e}");
        assert!(!plan.crashed());
        disk.sync(f).unwrap(); // op 4: recovered
    }

    #[test]
    fn manual_toggles_gate_faults_without_a_schedule() {
        let plan = FaultPlan::new(None);
        let mut disk =
            FaultDisk::new(Box::new(MemDisk::new()), plan.clone());
        let f = disk.create_file().unwrap();
        plan.set_enospc(true);
        assert!(plan.enospc_active());
        assert!(disk.append_page(f, &page_of(1)).is_err());
        plan.set_enospc(false);
        disk.append_page(f, &page_of(1)).unwrap();
        plan.set_fsync_fail(true);
        assert!(disk.sync(f).is_err());
        assert!(
            disk.write_page(f, 0, &page_of(2)).is_ok(),
            "fsync failure leaves plain writes alone"
        );
        plan.set_fsync_fail(false);
        disk.sync(f).unwrap();
    }

    #[test]
    fn shared_mem_disk_satisfies_the_disk_contract() {
        // Same exercise the concrete disks run in disk.rs, via the
        // shared handle.
        let mut disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.append_page(f, &page_of(3)).unwrap();
        let clone = disk.clone();
        let mut other = clone;
        assert_eq!(other.page_count(f).unwrap(), 1);
        other.write_page(f, 0, &page_of(4)).unwrap();
        assert_eq!(
            disk.read_page(f, 0).unwrap().row(4, 0).unwrap(),
            &[4; 4]
        );
        assert_eq!(disk.files(), vec![f]);
        disk.drop_file(f).unwrap();
        assert!(other.read_page(f, 0).is_err());
    }
}
