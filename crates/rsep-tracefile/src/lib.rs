//! Versioned binary trace files: record, analyze, replay.
//!
//! The experiment harness normally drives the simulated core from a live
//! [`TraceGenerator`](rsep_trace::TraceGenerator). This crate freezes
//! that stream into a compact, self-describing, versioned binary file so
//! campaigns replay bit-identically without the generator — for format
//! regression pinning, cross-machine reproduction and sharing traces
//! without leaking raw address layouts.
//!
//! Layer map:
//!
//! - [`format`](mod@format) — the on-disk layout: magic, versioned header chunks,
//!   segment table, checksum trailer, forward-compat policy, keyed
//!   address anonymisation.
//! - [`writer`] / [`reader`] — streaming [`TraceWriter`] and validated
//!   [`TraceFile`] with per-segment [`SegmentSource`] iterators that
//!   implement [`TraceSource`](rsep_trace::TraceSource). A `TraceFile`
//!   keeps no payload in memory: sources read their segment from the
//!   file in digest-checked 64 KiB blocks.
//! - [`record`] — the one shared recipe turning a benchmark profile into
//!   a recorded file with the live runner's seed derivation.
//! - [`analyze`](mod@analyze) — behaviour-distribution reports (op mix, branch rates,
//!   value locality, working sets) in text or byte-stable JSON.
//! - [`sha256`](mod@sha256) — digest for the frozen corpus manifest.
//!
//! Instruction records are delta-encoded varint packs
//! ([`rsep_isa::codec`]); a smoke-sized checkpoint costs a handful of
//! bytes per instruction.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod analyze;
pub mod format;
pub mod reader;
pub mod record;
pub mod sha256;
pub mod writer;

pub use analyze::{analyze, TraceReport};
pub use format::{AnonScheme, SegmentMeta, TraceError, TraceHeader};
pub use reader::{SegmentSource, TraceFile};
pub use record::{header_for, record_profile, RECORD_SLACK};
pub use sha256::{sha256, sha256_hex};
pub use writer::TraceWriter;
