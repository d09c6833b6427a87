//! # rsep-core
//!
//! Register Sharing for Equality Prediction (RSEP) — the primary
//! contribution of the paper — together with the companion mechanisms it is
//! evaluated against.
//!
//! The crate provides:
//!
//! * the RSEP hardware structures: [`FifoHistory`] pairing (Section
//!   IV-B) and the [`Isrb`] register-sharing reference counter (Section
//!   IV-E2); the TAGE-like distance predictor lives in `rsep-predictors`;
//! * [`RsepConfig`] / [`MechanismConfig`] — the named configurations of the
//!   evaluation (ideal vs realistic RSEP, zero prediction, move
//!   elimination, value prediction, RSEP+VP) with storage accounting that
//!   reproduces the paper's 42.6 KB / 10.1 KB / 10.8 KB figures;
//! * [`RsepEngine`] — the speculation engine that plugs all mechanisms into
//!   the cycle-level core of `rsep-uarch` (Figure 3);
//! * [`RedundancyAnalyzer`] — the commit-time value-redundancy analysis of
//!   Figure 1;
//! * [`run_benchmark`] / [`run_checkpoint`] — the checkpointed methodology
//!   of Section V.
//!
//! # Quick start
//!
//! ```
//! use rsep_core::{run_benchmark, MechanismConfig};
//! use rsep_trace::{BenchmarkProfile, CheckpointSpec};
//! use rsep_uarch::CoreConfig;
//!
//! let profile = BenchmarkProfile::by_name("libquantum").unwrap();
//! let spec = CheckpointSpec::scaled(1, 500, 2_000);
//! let baseline = run_benchmark(&profile, &MechanismConfig::baseline(),
//!                              &CoreConfig::small_test(), spec, 1);
//! let rsep = run_benchmark(&profile, &MechanismConfig::rsep_ideal(),
//!                          &CoreConfig::small_test(), spec, 1);
//! println!("IPC {:.3} -> {:.3}", baseline.ipc, rsep.ipc);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod fifo_history;
pub mod isrb;
pub mod redundancy;
pub mod runner;

pub use config::{MechanismConfig, RsepConfig, SamplingConfig, VpConfig};
pub use engine::{EngineStats, RsepEngine};
pub use fifo_history::{FifoHistory, FifoHistoryConfig, FifoHistoryStats, PairMatch};
pub use isrb::{Isrb, IsrbConfig, IsrbStats};
pub use redundancy::{RedundancyAnalyzer, RedundancyConfig, RedundancyReport};
pub use runner::{
    checkpoint_seed, run_benchmark, run_checkpoint, run_checkpoint_on, BenchmarkResult,
    CheckpointResult,
};
