//! Bench: the cache hierarchy under both entry points.
//!
//! `cache_hierarchy/{path}` compares the batched `access_batch` entry
//! point against one `access_data`/`access_inst` call per request — the
//! measurement behind the cache half of the flat in-flight core refactor.
//! Every timed run of either path must report the same total latency, so
//! the bench doubles as a coarse equivalence check.

#![forbid(unsafe_code)]

use rsep_bench::record::timed;
use rsep_uarch::{AccessKind, CacheHierarchy, CoreConfig, MemRequest};

/// Cycles of a synthetic workload: a handful of loads/stores/ifetches per
/// cycle mixing stride streams (prefetcher-friendly), hot lines (L1 hits)
/// and scattered misses (full L2/L3/DRAM walks with fills). Large enough
/// that the access stream, not hierarchy construction (which each timed
/// run includes, as every campaign cell does), dominates the measurement.
const CYCLES: usize = 20_000;

/// The request stream, flattened: `requests[ranges[cycle]]` are cycle
/// `cycle`'s accesses. `access_batch` only writes the `latency` output
/// field, so the same buffer can be resolved in place run after run —
/// both entry points then do identical work except for call granularity.
struct Schedule {
    requests: Vec<MemRequest>,
    ranges: Vec<std::ops::Range<usize>>,
}

fn request_schedule() -> Schedule {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut step = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    let mut requests = Vec::new();
    let mut ranges = Vec::with_capacity(CYCLES);
    for cycle in 0..CYCLES as u64 {
        let start = requests.len();
        for unit in 0..(1 + step() % 4) {
            let pc = 0x40_0000 + (step() % 64) * 4;
            requests.push(match step() % 8 {
                // Stride stream: trains the L1D prefetcher.
                0 | 1 => MemRequest::load(0x41_0000, 0x1000_0000 + cycle * 64 + unit * 8),
                // Hot working set: L1 hits.
                2 | 3 => MemRequest::load(pc, 0x2000_0000 + (step() % 64) * 64),
                // Scattered misses: full walks + fills.
                4 => MemRequest::load(pc, 0x3000_0000 + (step() % (1 << 22)) / 8 * 8),
                5 => MemRequest::store(pc, 0x3000_0000 + (step() % (1 << 22)) / 8 * 8),
                _ => MemRequest::fetch(0x40_0000 + (step() % 512) * 64),
            });
        }
        ranges.push(start..requests.len());
    }
    Schedule { requests, ranges }
}

/// Drives the whole schedule through `access_batch` (one call per cycle).
fn run_batched(schedule: &mut Schedule) -> u64 {
    let mut hierarchy = CacheHierarchy::new(&CoreConfig::table1());
    let mut total = 0u64;
    for (cycle, range) in schedule.ranges.iter().enumerate() {
        let batch = &mut schedule.requests[range.clone()];
        hierarchy.access_batch(batch, cycle as u64);
        total += batch.iter().map(|r| r.latency).sum::<u64>();
    }
    total
}

/// Drives the same schedule with one hierarchy call per request (the
/// pre-refactor core's access pattern).
fn run_per_access(schedule: &Schedule) -> u64 {
    let mut hierarchy = CacheHierarchy::new(&CoreConfig::table1());
    let mut total = 0u64;
    for (cycle, range) in schedule.ranges.iter().enumerate() {
        for request in &schedule.requests[range.clone()] {
            total += match request.kind {
                AccessKind::Fetch => hierarchy.access_inst(request.addr, cycle as u64),
                kind => hierarchy.access_data(request.pc, request.addr, kind, cycle as u64),
            };
        }
    }
    total
}

/// Timed runs per path.
const RUNS: usize = 3;

/// One benched path: label + the function driving the whole schedule.
type BenchPath = (&'static str, fn(&mut Schedule) -> u64);

/// Prints the best-of-[`RUNS`] wall-clock of each entry point, asserting
/// on every run that it reports the reference total latency.
fn main() {
    let mut schedule = request_schedule();
    // Untimed warm-up, which also fixes the reference total latency.
    let reference = run_batched(&mut schedule);
    let paths: [BenchPath; 2] =
        [("batched", run_batched), ("per_access", |schedule| run_per_access(schedule))];
    for (label, run) in paths {
        let mut best = f64::MAX;
        for _ in 0..RUNS {
            let (secs, total) = timed(|| run(&mut schedule));
            assert_eq!(total, reference, "{label} disagrees with batched on total latency");
            best = best.min(secs);
        }
        println!("cache_hierarchy/{label:<12} {:>8.3} ms/run", best * 1e3);
    }
}
