//! Bench: the front-end predictor stack in isolation.
//!
//! Two comparisons behind the unified-predictor refactor, measured rather
//! than asserted:
//!
//! * `batched` vs `per_branch` — the same branch stream resolved through
//!   one `predict_block` call per fetch-width block versus one
//!   `predict_one` call per branch (the retained reference protocol).
//! * `tage_flat` vs `tage_legacy` — two in-bench TAGE clones differing
//!   *only* in table layout (one flat packed-word array vs the retired
//!   `Vec<Vec<Entry>>`), predict + update per branch, isolating the layout
//!   effect from codegen context. `tage_trait` drives the real [`Tage`]
//!   for the end-to-end number.
//!
//! Before timing, the bench asserts that the two stack entry points and
//! the three TAGE variants count the same mispredictions. It then prints
//! branches-per-second for each path and writes the same numbers as
//! machine-readable JSON to `BENCH_predictor_stack.json` at the workspace
//! root (override with `RSEP_BENCH_PREDICTOR_JSON`), so the bench
//! trajectory is tracked per PR next to `BENCH_cycle_loop.json`.

#![forbid(unsafe_code)]

use rsep_bench::record::{timed, BenchRecord};
use rsep_isa::{BranchInfo, BranchKind};
use rsep_predictors::{
    FoldedHistory, GlobalHistory, Lfsr, PredictRequest, PredictorStack, Tage, TageConfig,
};
use rsep_stats::json::Json;

const BRANCHES: usize = 100_000;
const BLOCK: usize = 8;

/// One benched path: label + the function driving the whole stream.
type BenchPath = (&'static str, fn(&[(u64, BranchInfo)]) -> u64);

/// A deterministic branch stream shaped like a fetch front end sees it:
/// mostly conditionals over a modest PC working set (loop exits, periodic
/// patterns, a slice of hard-to-predict directions), with calls and
/// returns mixed in.
fn branch_stream() -> Vec<(u64, BranchInfo)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut step = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    (0..BRANCHES)
        .map(|i| {
            let r = step();
            let pc = 0x40_0000 + (r % 96) * 4;
            let branch = match r % 16 {
                0 => BranchInfo { kind: BranchKind::Unconditional, taken: true, target: pc + 64 },
                1 => BranchInfo { kind: BranchKind::Return, taken: true, target: pc + 4 },
                // Loop-exit pattern: taken 15 of 16 times.
                2..=9 => BranchInfo {
                    kind: BranchKind::Conditional,
                    taken: i % 16 != 15,
                    target: pc + 32,
                },
                // Periodic.
                10..=13 => {
                    BranchInfo { kind: BranchKind::Conditional, taken: i % 5 != 4, target: pc + 32 }
                }
                // Hard.
                _ => BranchInfo {
                    kind: BranchKind::Conditional,
                    taken: step() & 1 == 1,
                    target: pc + 32,
                },
            };
            (pc, branch)
        })
        .collect()
}

/// Resolves the stream in fetch-width blocks through `predict_block`.
/// Returns the misprediction count (used as the black-box payload and as a
/// cross-path equivalence check).
fn run_batched(stream: &[(u64, BranchInfo)]) -> u64 {
    let mut stack = PredictorStack::table1();
    let mut mispredicts = 0u64;
    let mut requests: Vec<PredictRequest> = Vec::with_capacity(BLOCK);
    let mut cursor = 0usize;
    while cursor < stream.len() {
        let end = (cursor + BLOCK).min(stream.len());
        requests.clear();
        requests.extend(stream[cursor..end].iter().map(|&(pc, b)| PredictRequest::new(pc, b)));
        let resolved = stack.predict_block(&mut requests);
        mispredicts += requests[..resolved].iter().filter(|r| r.mispredicted).count() as u64;
        cursor += resolved;
    }
    mispredicts
}

/// Resolves the stream one branch at a time through the reference path.
fn run_per_branch(stream: &[(u64, BranchInfo)]) -> u64 {
    let mut stack = PredictorStack::table1();
    stream.iter().filter(|&&(pc, branch)| stack.predict_one(pc, branch)).count() as u64
}

// ---------------------------------------------------------- legacy TAGE

/// In-bench copy of the retired `Vec<Vec<Entry>>` TAGE layout (predict +
/// update only), so the SoA flattening is measured against what it
/// replaced even though the legacy layout no longer ships.
struct LegacyTage {
    config: TageConfig,
    base: Vec<i8>,
    tagged: Vec<Vec<(u16, i8, u8)>>, // (tag, ctr, useful)
    index_fold: Vec<FoldedHistory>,
    tag_fold0: Vec<FoldedHistory>,
    tag_fold1: Vec<FoldedHistory>,
    lfsr: Lfsr,
}

impl LegacyTage {
    fn table1() -> LegacyTage {
        let config = TageConfig::table1();
        LegacyTage {
            base: vec![0i8; 1 << config.base_log2],
            tagged: (0..config.num_tagged)
                .map(|_| vec![(0u16, 0i8, 0u8); 1 << config.tagged_log2])
                .collect(),
            index_fold: (0..config.num_tagged)
                .map(|i| FoldedHistory::new(config.history_length(i), config.tagged_log2 as usize))
                .collect(),
            tag_fold0: (0..config.num_tagged)
                .map(|i| FoldedHistory::new(config.history_length(i), config.tag_bits[i] as usize))
                .collect(),
            tag_fold1: (0..config.num_tagged)
                .map(|i| {
                    FoldedHistory::new(
                        config.history_length(i),
                        (config.tag_bits[i] as usize).saturating_sub(1).max(1),
                    )
                })
                .collect(),
            lfsr: Lfsr::new(0xb5ad_4ece_da1c_e2a9),
            config,
        }
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << self.config.base_log2) - 1)
    }

    fn tagged_index(&self, pc: u64, comp: usize, history: &GlobalHistory) -> usize {
        let mask = (1usize << self.config.tagged_log2) - 1;
        let pc = pc >> 2;
        let h = self.index_fold[comp].value();
        let path = history.path(8);
        ((pc ^ (pc >> self.config.tagged_log2 as u64) ^ h ^ (path << 1) ^ comp as u64) as usize)
            & mask
    }

    fn tag(&self, pc: u64, comp: usize) -> u16 {
        let mask = (1u64 << self.config.tag_bits[comp]) - 1;
        let pc = pc >> 2;
        ((pc ^ self.tag_fold0[comp].value() ^ (self.tag_fold1[comp].value() << 1)) & mask) as u16
    }

    /// `(taken, provider, alt)`.
    fn predict(&self, pc: u64, history: &GlobalHistory) -> (bool, Option<usize>, bool) {
        let base_taken = self.base[self.base_index(pc)] >= 0;
        let mut provider = None;
        let mut alt: Option<bool> = None;
        let mut provider_taken = base_taken;
        for comp in (0..self.config.num_tagged).rev() {
            let idx = self.tagged_index(pc, comp, history);
            let entry = &self.tagged[comp][idx];
            if entry.0 == self.tag(pc, comp) {
                if provider.is_none() {
                    provider = Some(comp);
                    provider_taken = entry.1 >= 0;
                } else if alt.is_none() {
                    alt = Some(entry.1 >= 0);
                }
            }
        }
        (provider_taken, provider, alt.unwrap_or(base_taken))
    }

    fn update(
        &mut self,
        pc: u64,
        taken: bool,
        pred: (bool, Option<usize>, bool),
        history: &GlobalHistory,
    ) {
        let mispredicted = pred.0 != taken;
        match pred.1 {
            Some(comp) => {
                let idx = self.tagged_index(pc, comp, history);
                let entry = &mut self.tagged[comp][idx];
                entry.1 = if taken { (entry.1 + 1).min(3) } else { (entry.1 - 1).max(-4) };
                if pred.0 != pred.2 {
                    if !mispredicted {
                        entry.2 = (entry.2 + 1).min(3);
                    } else {
                        entry.2 = entry.2.saturating_sub(1);
                    }
                }
            }
            None => {
                let idx = self.base_index(pc);
                let c = &mut self.base[idx];
                *c = if taken { (*c + 1).min(1) } else { (*c - 1).max(-2) };
            }
        }
        if mispredicted {
            let start = pred.1.map(|p| p + 1).unwrap_or(0);
            let mut allocated = false;
            for comp in start..self.config.num_tagged {
                let idx = self.tagged_index(pc, comp, history);
                if self.tagged[comp][idx].2 == 0 {
                    let tag = self.tag(pc, comp);
                    self.tagged[comp][idx] = (tag, if taken { 0 } else { -1 }, 0);
                    allocated = true;
                    break;
                }
            }
            if !allocated && self.lfsr.one_in(4) {
                for comp in start..self.config.num_tagged {
                    let idx = self.tagged_index(pc, comp, history);
                    self.tagged[comp][idx].2 = self.tagged[comp][idx].2.saturating_sub(1);
                }
            }
        }
    }

    fn on_history_update(&mut self, history: &GlobalHistory) {
        for f in self.index_fold.iter_mut() {
            f.update(history);
        }
        for f in self.tag_fold0.iter_mut() {
            f.update(history);
        }
        for f in self.tag_fold1.iter_mut() {
            f.update(history);
        }
    }
}

/// In-bench copy of the *new* flat packed-word layout (identical logic to
/// [`LegacyTage`], different storage), so `tage_flat` vs `tage_legacy`
/// compares layouts under identical codegen conditions.
struct FlatTage {
    config: TageConfig,
    base: Box<[i8]>,
    entries: Box<[u32]>,
    index_fold: Vec<FoldedHistory>,
    tag_fold0: Vec<FoldedHistory>,
    tag_fold1: Vec<FoldedHistory>,
    lfsr: Lfsr,
}

impl FlatTage {
    fn table1() -> FlatTage {
        let config = TageConfig::table1();
        FlatTage {
            base: vec![0i8; 1 << config.base_log2].into_boxed_slice(),
            entries: vec![4u32 << 16; config.num_tagged << config.tagged_log2].into_boxed_slice(),
            index_fold: (0..config.num_tagged)
                .map(|i| FoldedHistory::new(config.history_length(i), config.tagged_log2 as usize))
                .collect(),
            tag_fold0: (0..config.num_tagged)
                .map(|i| FoldedHistory::new(config.history_length(i), config.tag_bits[i] as usize))
                .collect(),
            tag_fold1: (0..config.num_tagged)
                .map(|i| {
                    FoldedHistory::new(
                        config.history_length(i),
                        (config.tag_bits[i] as usize).saturating_sub(1).max(1),
                    )
                })
                .collect(),
            lfsr: Lfsr::new(0xb5ad_4ece_da1c_e2a9),
            config,
        }
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << self.config.base_log2) - 1)
    }

    fn flat(&self, comp: usize, idx: usize) -> usize {
        (comp << self.config.tagged_log2) | idx
    }

    fn tagged_index(&self, pc: u64, comp: usize, history: &GlobalHistory) -> usize {
        let mask = (1usize << self.config.tagged_log2) - 1;
        let pc = pc >> 2;
        let h = self.index_fold[comp].value();
        let path = history.path(8);
        ((pc ^ (pc >> self.config.tagged_log2 as u64) ^ h ^ (path << 1) ^ comp as u64) as usize)
            & mask
    }

    fn tag(&self, pc: u64, comp: usize) -> u16 {
        let mask = (1u64 << self.config.tag_bits[comp]) - 1;
        let pc = pc >> 2;
        ((pc ^ self.tag_fold0[comp].value() ^ (self.tag_fold1[comp].value() << 1)) & mask) as u16
    }

    fn predict(&self, pc: u64, history: &GlobalHistory) -> (bool, Option<usize>, bool) {
        let base_taken = self.base[self.base_index(pc)] >= 0;
        let mut provider = None;
        let mut alt: Option<bool> = None;
        let mut provider_taken = base_taken;
        for comp in (0..self.config.num_tagged).rev() {
            let idx = self.flat(comp, self.tagged_index(pc, comp, history));
            let entry = self.entries[idx];
            if entry as u16 == self.tag(pc, comp) {
                if provider.is_none() {
                    provider = Some(comp);
                    provider_taken = (((entry >> 16) & 7) as i8 - 4) >= 0;
                } else if alt.is_none() {
                    alt = Some((((entry >> 16) & 7) as i8 - 4) >= 0);
                }
            }
        }
        (provider_taken, provider, alt.unwrap_or(base_taken))
    }

    fn update(
        &mut self,
        pc: u64,
        taken: bool,
        pred: (bool, Option<usize>, bool),
        history: &GlobalHistory,
    ) {
        let mispredicted = pred.0 != taken;
        match pred.1 {
            Some(comp) => {
                let idx = self.flat(comp, self.tagged_index(pc, comp, history));
                let entry = self.entries[idx];
                let mut ctr = ((entry >> 16) & 7) as i8 - 4;
                let mut useful = ((entry >> 19) & 3) as u8;
                ctr = if taken { (ctr + 1).min(3) } else { (ctr - 1).max(-4) };
                if pred.0 != pred.2 {
                    if !mispredicted {
                        useful = (useful + 1).min(3);
                    } else {
                        useful = useful.saturating_sub(1);
                    }
                }
                self.entries[idx] = (entry as u16 as u32)
                    | ((((ctr + 4) as u32) & 7) << 16)
                    | (u32::from(useful) << 19);
            }
            None => {
                let idx = self.base_index(pc);
                let c = &mut self.base[idx];
                *c = if taken { (*c + 1).min(1) } else { (*c - 1).max(-2) };
            }
        }
        if mispredicted {
            let start = pred.1.map(|p| p + 1).unwrap_or(0);
            let mut allocated = false;
            for comp in start..self.config.num_tagged {
                let idx = self.flat(comp, self.tagged_index(pc, comp, history));
                if (self.entries[idx] >> 19) & 3 == 0 {
                    let tag = self.tag(pc, comp);
                    let ctr: i8 = if taken { 0 } else { -1 };
                    self.entries[idx] = u32::from(tag) | ((((ctr + 4) as u32) & 7) << 16);
                    allocated = true;
                    break;
                }
            }
            if !allocated && self.lfsr.one_in(4) {
                for comp in start..self.config.num_tagged {
                    let idx = self.flat(comp, self.tagged_index(pc, comp, history));
                    let entry = self.entries[idx];
                    let useful = (((entry >> 19) & 3) as u8).saturating_sub(1);
                    self.entries[idx] = (entry & !(3 << 19)) | (u32::from(useful) << 19);
                }
            }
        }
    }

    fn on_history_update(&mut self, history: &GlobalHistory) {
        for f in self.index_fold.iter_mut() {
            f.update(history);
        }
        for f in self.tag_fold0.iter_mut() {
            f.update(history);
        }
        for f in self.tag_fold1.iter_mut() {
            f.update(history);
        }
    }
}

/// The layout comparison's flat arm: same in-bench code shape as
/// [`run_tage_legacy`], packed-flat storage.
fn run_tage_flat(stream: &[(u64, BranchInfo)]) -> u64 {
    let mut tage = FlatTage::table1();
    let mut hist = GlobalHistory::new();
    let mut mispredicts = 0u64;
    for &(pc, branch) in stream {
        if branch.kind != BranchKind::Conditional {
            continue;
        }
        let pred = tage.predict(pc, &hist);
        if pred.0 != branch.taken {
            mispredicts += 1;
        }
        tage.update(pc, branch.taken, pred, &hist);
        hist.push(branch.taken, pc);
        tage.on_history_update(&hist);
    }
    mispredicts
}

/// Drives the real packed-flat [`Tage`] (predict + train + history) over
/// the conditional branches of the stream.
fn run_tage_trait(stream: &[(u64, BranchInfo)]) -> u64 {
    let mut tage = Tage::table1();
    let mut hist = GlobalHistory::new();
    let mut mispredicts = 0u64;
    for &(pc, branch) in stream {
        if branch.kind != BranchKind::Conditional {
            continue;
        }
        let pred = tage.predict(pc, &hist).expect("TAGE always answers");
        if pred.taken != branch.taken {
            mispredicts += 1;
        }
        tage.train(pc, (branch.taken, pred), &hist);
        hist.push(branch.taken, pc);
        tage.on_history_update(&hist);
    }
    mispredicts
}

/// The same drive through the legacy nested layout.
fn run_tage_legacy(stream: &[(u64, BranchInfo)]) -> u64 {
    let mut tage = LegacyTage::table1();
    let mut hist = GlobalHistory::new();
    let mut mispredicts = 0u64;
    for &(pc, branch) in stream {
        if branch.kind != BranchKind::Conditional {
            continue;
        }
        let pred = tage.predict(pc, &hist);
        if pred.0 != branch.taken {
            mispredicts += 1;
        }
        tage.update(pc, branch.taken, pred, &hist);
        hist.push(branch.taken, pc);
        tage.on_history_update(&hist);
    }
    mispredicts
}

/// Default output path of the machine-readable throughput record: the
/// workspace root, next to `BENCH_cycle_loop.json`.
const BENCH_JSON_DEFAULT: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_predictor_stack.json");

/// Checks that the paths agree, then prints absolute throughput (branches
/// per second) for each path and records it as schema-v2 JSON
/// (`BENCH_predictor_stack.json`) with host metadata and max-RSS. No core
/// runs here, so the attribution slot is always `null`.
fn main() {
    let stream = branch_stream();
    // The two stack entry points and the three TAGE variants must agree —
    // the bench doubles as a coarse equivalence check, and these untimed
    // runs warm every path up.
    assert_eq!(run_batched(&stream), run_per_branch(&stream));
    assert_eq!(run_tage_trait(&stream), run_tage_legacy(&stream));
    assert_eq!(run_tage_trait(&stream), run_tage_flat(&stream));
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let mut results = Vec::new();
    let paths: [BenchPath; 5] = [
        ("batched", run_batched),
        ("per_branch", run_per_branch),
        ("tage_flat", run_tage_flat),
        ("tage_legacy", run_tage_legacy),
        ("tage_trait", run_tage_trait),
    ];
    // Interleave the paths round-robin and keep each path's best round:
    // on a noisy (single-core VM) host, machine-wide slow spells then hit
    // every path alike instead of whichever label was being timed, so the
    // cross-path comparison the CI gate reads is not an artifact of
    // sampling order.
    // Eight rounds (not the cycle-loop bench's five): with five paths on a
    // one-core host a quiet window has to line up with the whole sweep, and
    // more rounds make catching one near-certain.
    let mut best = [f64::MAX; 5];
    for _ in 0..8 {
        for (slot, (_, run)) in paths.iter().enumerate() {
            let (secs, _) = timed(|| run(&stream));
            best[slot] = best[slot].min(secs);
        }
    }
    for (slot, (label, _)) in paths.iter().enumerate() {
        let best = best[slot];
        let mbranches = BRANCHES as f64 / best / 1e6;
        println!("predictor_stack/throughput/{label:<12} {mbranches:>8.2} Mbranches/s");
        results.push(Json::Object(vec![
            ("path".to_string(), Json::Str(label.to_string())),
            ("ms_per_run".to_string(), Json::Num((best * 1e6).round() / 1e3)),
            ("mbranches_per_sec".to_string(), Json::Num(round2(mbranches))),
        ]));
    }
    let record = BenchRecord {
        bench: "predictor_stack",
        params: vec![("branches", Json::Num(BRANCHES as f64)), ("block", Json::Num(BLOCK as f64))],
        results,
        attribution: Json::Null,
    };
    record.write("RSEP_BENCH_PREDICTOR_JSON", BENCH_JSON_DEFAULT);
}
