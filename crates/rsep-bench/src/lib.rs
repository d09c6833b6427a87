//! # rsep-bench
//!
//! The simulator's gated micro-benchmarks. Each bench in `benches/` is a
//! plain `fn main()` that times one layer (`cycle_loop`, `predictor_stack`,
//! `trace_gen`, `cache_hierarchy`), checks that its measured paths agree,
//! and — for the first three — writes a `BENCH_*.json` record through
//! [`record::BenchRecord`]. The `bench_gate` binary compares a fresh record
//! against the committed one.
//!
//! Figures and tables come from the `rsep` CLI (in `rsep-campaign`); the
//! campaign benchmark lives in `perfbench/`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod record;
