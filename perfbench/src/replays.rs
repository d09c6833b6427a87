//! Standalone replays of the two layers that live inside `Core::run`,
//! where a wrapper cannot reach them: the cache hierarchy and the
//! front-end predictor stack. Each distinct instruction stream of the
//! workload (one per profile and checkpoint) is turned into its memory
//! accesses and its branches, which are then fed to a fresh
//! `CacheHierarchy` and `PredictorStack` under a timer.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rsep_isa::BranchInfo;
use rsep_predictors::{PredictRequest, PredictorStack};
use rsep_uarch::{AccessKind, CacheHierarchy, MemRequest};

use crate::grid::Grid;
use crate::measure::median;

/// Timed rounds per stream; the median round is kept.
const ROUNDS: usize = 3;

/// Host time per operation of the replayed layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTimes {
    pub cache_ns_per_access: f64,
    pub frontend_ns_per_branch: f64,
}

/// Replays every distinct stream of a simulation grid (the mechanism axis
/// does not change the stream). Returns zeros for Figure 1, whose cells
/// run neither layer.
pub fn replay(grid: &Grid) -> ReplayTimes {
    if !grid.workload.simulates() {
        return ReplayTimes::default();
    }
    let config = &grid.spec.core_config;
    let line_shift = config.line_bytes.trailing_zeros();
    let (mut cache_time, mut accesses) = (Duration::ZERO, 0u64);
    let (mut frontend_time, mut branches_seen) = (Duration::ZERO, 0u64);
    // The first mechanism's cells cover every (profile, checkpoint) stream.
    for index in (0..grid.cells()).filter(|&i| grid.coords(i).1 == 0) {
        let mut requests = Vec::new();
        let mut branches: Vec<(u64, BranchInfo)> = Vec::new();
        let mut last_line = u64::MAX;
        for inst in grid.stream(index).take(grid.insts_per_cell() as usize) {
            if inst.pc >> line_shift != last_line {
                last_line = inst.pc >> line_shift;
                requests.push(MemRequest::fetch(inst.pc));
            }
            if let Some(mem) = inst.mem {
                requests.push(if inst.op.is_store() {
                    MemRequest::store(inst.pc, mem.addr)
                } else {
                    MemRequest::load(inst.pc, mem.addr)
                });
            }
            if let Some(branch) = inst.branch {
                branches.push((inst.pc, branch));
            }
        }
        cache_time += median_round(|| {
            let mut hierarchy = CacheHierarchy::new(config);
            let start = Instant::now();
            let mut latency = 0u64;
            for (now, request) in requests.iter().enumerate() {
                latency += match request.kind {
                    AccessKind::Fetch => hierarchy.access_inst(request.addr, now as u64),
                    kind => hierarchy.access_data(request.pc, request.addr, kind, now as u64),
                };
            }
            black_box(latency);
            start.elapsed()
        });
        accesses += requests.len() as u64;
        frontend_time += median_round(|| {
            let mut stack = PredictorStack::table1();
            let mut block: Vec<PredictRequest> = Vec::with_capacity(config.fetch_width);
            let start = Instant::now();
            let mut cursor = 0usize;
            let mut mispredicted = 0usize;
            while cursor < branches.len() {
                let end = (cursor + config.fetch_width).min(branches.len());
                block.clear();
                block.extend(
                    branches[cursor..end].iter().map(|&(pc, b)| PredictRequest::new(pc, b)),
                );
                let resolved = stack.predict_block(&mut block);
                mispredicted += block[..resolved].iter().filter(|r| r.mispredicted).count();
                cursor += resolved;
            }
            black_box(mispredicted);
            start.elapsed()
        });
        branches_seen += branches.len() as u64;
    }
    ReplayTimes {
        cache_ns_per_access: cache_time.as_nanos() as f64 / accesses.max(1) as f64,
        frontend_ns_per_branch: frontend_time.as_nanos() as f64 / branches_seen.max(1) as f64,
    }
}

fn median_round(mut round: impl FnMut() -> Duration) -> Duration {
    let rounds: Vec<f64> = (0..ROUNDS).map(|_| round().as_secs_f64()).collect();
    Duration::from_secs_f64(median(&rounds))
}
