//! # tdbms-core
//!
//! The temporal DBMS itself: the paper's primary contribution. Four
//! database classes (static, rollback, historical, temporal), the TQuel
//! statement set over them, the version-embedding update semantics of
//! Section 4, and the Ingres-style query processor (one-variable query
//! processor + decomposition) whose page-access behaviour Section 5
//! benchmarks.
//!
//! The main entry point is [`Database`]:
//!
//! ```
//! use tdbms_core::Database;
//!
//! let mut db = Database::in_memory();
//! db.execute(
//!     "create temporal interval emp (name = c20, salary = i4)",
//! ).unwrap();
//! db.execute(r#"append to emp (name = "merrie", salary = 11000)"#).unwrap();
//! db.execute(r#"range of e is emp
//!               replace e (salary = 12000) where e.name = "merrie""#).unwrap();
//! // The old salary is still queryable through time.
//! let out = db.execute(r#"retrieve (e.salary) where e.name = "merrie""#).unwrap();
//! assert_eq!(out.rows().len(), 2); // two versions valid over history
//! ```

pub mod binder;
pub mod bound;
pub mod copy;
pub mod db;
pub mod dml;
pub mod engine;
pub mod eval;
pub mod exec;
pub mod guard;
pub mod interval;
pub mod plan;

pub use db::{
    Database, ExecOutput, RelationMeta, ReorgStats, SCRUB_FILE, WAL_FILE,
};
pub use engine::{Engine, LockStats, ReorgDaemon, Session, SessionLimits};
pub use exec::QueryStats;
pub use guard::QueryGuard;
pub use interval::TInterval;
pub use tdbms_plan::{AccessPath, PlanStep, QueryPlan};
pub use tdbms_storage::{
    AccessMethod, BufferConfig, EvictionPolicy, PhaseIo,
};
pub use tdbms_wal::{CheckpointPolicy, GroupCommitConfig};
