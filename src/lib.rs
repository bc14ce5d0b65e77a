//! # tdbms — a temporal database management system
//!
//! A complete, from-scratch Rust implementation of the temporal DBMS
//! prototype evaluated in Ahn & Snodgrass, *Performance Evaluation of a
//! Temporal Database Management System* (SIGMOD 1986): an Ingres-style page
//! storage engine (heap / static hashing / ISAM with overflow chains), the
//! TQuel query language, four database classes (static, rollback,
//! historical, temporal), and the paper's proposed performance enhancements
//! (two-level store and secondary indexing).
//!
//! This crate is a facade that re-exports the public API of the workspace
//! crates. Most applications only need [`Database`] and TQuel text:
//!
//! ```
//! use tdbms::Database;
//!
//! let mut db = Database::in_memory();
//! db.execute("create temporal interval emp (name = c20, salary = i4)").unwrap();
//! db.execute("append to emp (name = \"merrie\", salary = 11000)").unwrap();
//! let out = db.execute("range of e is emp retrieve (e.name, e.salary)").unwrap();
//! assert_eq!(out.rows().len(), 1);
//! ```

pub use tdbms_core::{
    AccessMethod, AccessPath, CheckpointPolicy, Database, Engine,
    ExecOutput, GroupCommitConfig, LockStats, PlanStep, QueryPlan,
    QueryStats, RelationMeta, Session, TInterval, SCRUB_FILE, WAL_FILE,
};
pub use tdbms_kernel::{
    AttrDef, Clock, DatabaseClass, Domain, Error, Granularity, Result,
    Schema, TemporalAttr, TemporalKind, TimeVal, Value,
};
pub use tdbms_storage::{
    BufferConfig, ChecksumSet, EvictionPolicy, HashFn, IoStats, PhaseIo,
    PAGE_SIZE, SUMS_FILE,
};
pub use tdbms_tquel as tquel;
pub use tdbms_wal as wal;
