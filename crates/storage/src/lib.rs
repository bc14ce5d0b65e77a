//! # tdbms-storage
//!
//! The Ingres-style page storage engine underneath the temporal DBMS:
//!
//! * [`page`] — 1024-byte slotted pages with per-page overflow pointers.
//! * [`disk`] — page-granularity storage ([`MemDisk`] for benchmarking,
//!   [`FileDisk`] for durability).
//! * [`pager`] — buffer management with per-file frame pools (default one
//!   frame per file, the paper's configuration) and page-access accounting.
//! * [`iostats`] — the benchmark's metric: page reads/writes per file.
//! * [`heap`], [`hash`], [`isam`] — the three access methods the paper
//!   exercises.
//! * [`overflow`] — the head-page-plus-chain mechanics hash and ISAM
//!   share: the behaviour the paper's analysis is built on.
//! * [`relfile`] — the access methods behind one interface.
//! * [`audit`] — the structural audit of a file against the shape its
//!   organization writes: page kinds per region, slot counts, overflow
//!   pointers, chains, orphans.
//! * [`catalog`] — the registry of stored relations plus the `modify`
//!   reorganization.
//!
//! The engine is deliberately faithful to the prototype: static bucket
//! counts, chain-walking inserts, no early termination on keyed lookups —
//! because those are the behaviours whose cost the paper measures.

pub mod audit;
pub mod bloom;
pub mod catalog;
pub mod checksum;
pub mod disk;
pub mod fault;
pub mod hash;
pub mod heap;
pub mod history;
pub mod iostats;
pub mod isam;
pub mod key;
pub mod overflow;
pub mod page;
pub mod pager;
pub mod persist;
pub mod relfile;
pub mod secondary;
pub mod tuple;

pub use audit::{Audit, Defect};
pub use bloom::Bloom;
pub use catalog::{Catalog, NamedIndex, RelId, StoredRelation};
pub use checksum::{fnv64, ChecksumSet, SUMS_FILE};
pub use disk::{
    drop_if_present, set_len, DiskManager, FileDisk, FileId, MemDisk,
};
pub use fault::{FaultDisk, FaultPlan};
pub use hash::HashFile;
pub use heap::{HeapAppender, HeapFile};
pub use history::{ClusteredHistory, Stamps};
pub use iostats::{FileIo, IoStats, PhaseIo, StatScope};
pub use isam::IsamFile;
pub use key::{HashFn, KeyKind, KeySpec};
pub use overflow::{ChainFile, ChainLookup, ChainScan};
pub use page::{
    page_capacity, rows_per_page_at_fill, Page, PageKind, NO_PAGE,
    PAGE_HEADER, PAGE_SIZE,
};
pub use pager::{
    BufferConfig, EvictionPolicy, Pager, StatementChanges,
    DEFAULT_READ_RETRIES,
};
pub use persist::{decode_catalog, encode_catalog};
pub use relfile::{AccessMethod, RelFile, RelLookup, RelScan};
pub use secondary::{i4_attr, IndexStructure, SecondaryIndex};
pub use tuple::TupleId;
