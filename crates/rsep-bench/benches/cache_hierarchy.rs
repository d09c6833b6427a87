//! Bench: the cache hierarchy, one `access_data`/`access_inst` call per
//! request — the core's access pattern. Every timed run must report the
//! same total latency, so the bench doubles as a coarse determinism check.

#![forbid(unsafe_code)]

use rsep_bench::record::timed;
use rsep_uarch::{AccessKind, CacheHierarchy, CoreConfig, MemRequest};

/// Cycles of a synthetic workload: a handful of loads/stores/ifetches per
/// cycle mixing stride streams (prefetcher-friendly), hot lines (L1 hits)
/// and scattered misses (full L2/L3/DRAM walks with fills). Large enough
/// that the access stream, not hierarchy construction (which each timed
/// run includes, as every campaign cell does), dominates the measurement.
const CYCLES: u64 = 20_000;

/// The request stream in access order, each request with its cycle.
fn request_schedule() -> Vec<(u64, MemRequest)> {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut step = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    let mut requests = Vec::new();
    for cycle in 0..CYCLES {
        for unit in 0..(1 + step() % 4) {
            let pc = 0x40_0000 + (step() % 64) * 4;
            let request = match step() % 8 {
                // Stride stream: trains the L1D prefetcher.
                0 | 1 => MemRequest::load(0x41_0000, 0x1000_0000 + cycle * 64 + unit * 8),
                // Hot working set: L1 hits.
                2 | 3 => MemRequest::load(pc, 0x2000_0000 + (step() % 64) * 64),
                // Scattered misses: full walks + fills.
                4 => MemRequest::load(pc, 0x3000_0000 + (step() % (1 << 22)) / 8 * 8),
                5 => MemRequest::store(pc, 0x3000_0000 + (step() % (1 << 22)) / 8 * 8),
                _ => MemRequest::fetch(0x40_0000 + (step() % 512) * 64),
            };
            requests.push((cycle, request));
        }
    }
    requests
}

/// Drives the whole schedule through a fresh hierarchy, one call per
/// request, and returns the total latency.
fn run_per_access(schedule: &[(u64, MemRequest)]) -> u64 {
    let mut hierarchy = CacheHierarchy::new(&CoreConfig::table1());
    let mut total = 0u64;
    for &(cycle, request) in schedule {
        total += match request.kind {
            AccessKind::Fetch => hierarchy.access_inst(request.addr, cycle),
            kind => hierarchy.access_data(request.pc, request.addr, kind, cycle),
        };
    }
    total
}

/// Timed runs.
const RUNS: usize = 3;

/// Prints the best-of-[`RUNS`] wall-clock, asserting on every run that it
/// reports the reference total latency.
fn main() {
    let schedule = request_schedule();
    // Untimed warm-up, which also fixes the reference total latency.
    let reference = run_per_access(&schedule);
    let mut best = f64::MAX;
    for _ in 0..RUNS {
        let (secs, total) = timed(|| run_per_access(&schedule));
        assert_eq!(total, reference, "per_access total latency changed between runs");
        best = best.min(secs);
    }
    println!("cache_hierarchy/per_access {:>8.3} ms/run", best * 1e3);
}
