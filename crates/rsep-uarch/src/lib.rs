//! # rsep-uarch
//!
//! Cycle-level out-of-order superscalar core model for the RSEP
//! reproduction.
//!
//! The paper evaluates RSEP on gem5 with the aggressive 8-wide
//! configuration of Table I. This crate rebuilds that substrate from
//! scratch as a trace-driven cycle-level model:
//!
//! * [`CoreConfig`] — the Table I parameters (pipeline widths, ROB/IQ/LQ/SQ
//!   sizes, register files, functional-unit ports, cache hierarchy, DRAM
//!   latency).
//! * [`CacheHierarchy`] — L1I/L1D/L2/L3 with stride/stream prefetchers and a
//!   flat memory latency.
//! * [`Core`] — the pipeline itself (fetch with TAGE/BTB/RAS, rename,
//!   dispatch, out-of-order issue with port contention, store-to-load
//!   forwarding, in-order commit).
//! * [`SpecEngine`] — the hook through which `rsep-core` plugs every
//!   mechanism studied in the paper (zero-idiom elimination, move
//!   elimination, zero prediction, RSEP register sharing, value
//!   prediction); [`NullEngine`] gives the baseline.
//! * [`SimStats`] — IPC, branch behaviour, per-mechanism coverage
//!   (Figure 5) and squash counts.
//!
//! # Example
//!
//! ```
//! use rsep_trace::{BenchmarkProfile, TraceGenerator};
//! use rsep_uarch::{Core, CoreConfig};
//!
//! let profile = BenchmarkProfile::by_name("gcc").unwrap();
//! let mut trace = TraceGenerator::new(&profile, 1);
//! let mut core = Core::baseline(CoreConfig::small_test());
//! core.run(&mut trace, 5_000).expect("simulation deadlocked");
//! let stats = core.take_stats();
//! assert!(stats.committed >= 5_000);
//! assert!(stats.ipc() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod attribution;
pub mod cache;
pub mod config;
pub mod core;
pub mod engine;
pub mod regfile;
pub mod rename;
pub mod rob;
pub mod sched;
pub mod stats;

// lint: exempt(obs-gate, re-export of the always-compiled attribution types)
pub use attribution::{FetchCycles, IssueCycles, RenameBlock, RenameCycles};
// lint: exempt(obs-gate, re-export of the always-compiled attribution types)
pub use attribution::{StageAttribution, WorkCounts};
pub use cache::{AccessKind, Cache, CacheHierarchy, CacheStats, MemRequest, StridePrefetcher};
pub use config::CoreConfig;
pub use core::{Core, SimError};
pub use engine::{
    Disposition, NullEngine, RenameAction, RenameContext, SpecEngine, ValidationKind,
};
pub use regfile::{PhysRegFile, RegisterFiles, NOT_READY};
pub use rename::RenameMap;
pub use rob::{InflightInst, InstSlot, Rob, SrcRegs};
pub use sched::{StoreQueue, WakeupQueue};
pub use stats::{CoverageCounts, SimStats};
