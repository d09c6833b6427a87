//! The front-end predictor stack: TAGE + BTB + RAS + global history,
//! resolved one fetch block at a time.
//!
//! [`PredictorStack`] owns every structure the fetch stage consults —
//! the [`Tage`] direction predictor, the [`Btb`], the
//! [`ReturnAddressStack`] and the [`GlobalHistory`] all of them index
//! with — and exposes three entry points:
//!
//! * [`PredictorStack::predict_block`] — the batched hot path the core
//!   uses: one call per fetch block per cycle, resolving the block's
//!   [`PredictRequest`]s in three phases. **Gather** computes every
//!   conditional branch's TAGE probe set (flat index + partial tag per
//!   tagged component) against the history as of that branch *without
//!   mutating any state*: per-branch fold values come from the O(1)
//!   closed form ([`FoldStateSoa::virtual_value`](crate::FoldStateSoa::virtual_value) via
//!   [`Tage::gather_block_probes_at`]) and the path bits from a local
//!   virtual path register. **Probe** then reads all gathered entries
//!   component-major, visiting each tagged table once per block;
//!   **resolve** walks the branches in fetch order against the probed
//!   words, training as it goes and stopping at the first misprediction
//!   (which ends the block). Only then does the resolved prefix enter the
//!   architectural history — plain pushes plus one whole-block fold jump
//!   ([`Tage::finish_block`]) — so there is nothing to roll back.
//! * [`PredictorStack::predict_one`] — the per-branch protocol the
//!   block path must match, and the unit-test/proptest oracle. (The
//!   sequential probe block path — one full table walk per branch — was
//!   retired after its equivalence proofs landed; `predict_one` driven
//!   in a loop is the surviving reference.)
//!
//! # Bit-identity of the batched path
//!
//! Prediction order is observable: each branch's TAGE lookup reads the
//! global history *including every earlier branch of the same block*, the
//! RAS pops/pushes in branch order, and a mispredicted branch ends the
//! fetch block (younger instructions are not fetched this cycle, so their
//! branches must not touch any predictor state). The three-phase schedule
//! preserves all of that:
//!
//! * Gathered indices/tags equal the sequential walk's exactly: branch
//!   `j`'s fold values after `j` in-block pushes are evaluated by the
//!   closed form of the fold recurrence (proven bit-identical to `j`
//!   successive advances — `history` module docs and proptests), over the
//!   block's oracle outcomes, and `train` derives the same indices as
//!   `predict` (folds advance only after training), so one gathered set
//!   serves both.
//! * Probes are pure reads and every in-block table write lands in the
//!   resolve phase, so hoisting and reordering the reads is invisible —
//!   *except* for a provider counter update hitting an entry a younger
//!   branch also probed. [`Tage::train_probed`] reports that one write
//!   and `predict_block` patches it into the younger probed copies
//!   (allocation and grace-decay writes occur only on mispredictions,
//!   which terminate the block, so only provider updates need this).
//! * BTB and RAS accesses stay in the resolve phase in fetch order (the
//!   BTB is PC-indexed and ignores history, so deferring the history
//!   pushes doesn't affect it).
//! * The architectural history/fold state is written once, after the
//!   block's end is known: exactly the `resolved` outcomes are pushed and
//!   the folds jump by `resolved` steps, landing bit-for-bit on the
//!   sequential state — speculative pushes, checkpoints and rollback are
//!   gone entirely.
//!
//! `predict_block` resolves requests strictly in slice order and **stops
//! after the first misprediction**, returning how many requests it
//! resolved — the unresolved tail is handed back untouched, exactly as
//! the per-branch loop would have left it. See `DESIGN.md` ("Front-end
//! predictor stack") for the full argument, and
//! `tests/block_probe_oracle.rs` for the proof harness.

use crate::btb::{Btb, ReturnAddressStack};
use crate::history::GlobalHistory;
use crate::predictor::{Predictor, PredictorStats};
use crate::tage::Tage;
use rsep_isa::{BranchInfo, BranchKind};

/// One branch of a fetch block, resolved by
/// [`PredictorStack::predict_block`].
#[derive(Debug, Clone, Copy)]
pub struct PredictRequest {
    /// PC of the branch instruction.
    pub pc: u64,
    /// Oracle branch information travelling with the trace (kind, actual
    /// direction, actual target).
    pub branch: BranchInfo,
    /// Output: whether the front end mispredicted this branch (wrong
    /// direction, wrong/missing BTB target, or RAS mismatch).
    pub mispredicted: bool,
}

impl PredictRequest {
    /// A request for the branch at `pc`.
    pub fn new(pc: u64, branch: BranchInfo) -> PredictRequest {
        PredictRequest { pc, branch, mispredicted: false }
    }
}

/// Reusable scratch of the batched path: gathered probe indices/tags and
/// probed (and intra-block patched) entry words — all slot-major, one slot
/// per *conditional* branch of the block. Grown to the widest block seen,
/// so `predict_block` is allocation-free at steady state.
#[derive(Debug, Default)]
struct BlockScratch {
    idx: Vec<u32>,
    tag: Vec<u16>,
    entry: Vec<u32>,
}

/// The front-end predictor stack (see the module docs).
#[derive(Debug)]
pub struct PredictorStack {
    tage: Tage,
    btb: Btb,
    ras: ReturnAddressStack,
    ghist: GlobalHistory,
    scratch: BlockScratch,
}

impl PredictorStack {
    /// Builds a stack from its components.
    pub fn new(tage: Tage, btb: Btb, ras: ReturnAddressStack) -> PredictorStack {
        PredictorStack {
            tage,
            btb,
            ras,
            ghist: GlobalHistory::new(),
            scratch: BlockScratch::default(),
        }
    }

    /// The Table I front end: 1+12-component TAGE, 2-way 4K-entry BTB,
    /// 32-entry RAS.
    pub fn table1() -> PredictorStack {
        PredictorStack::new(Tage::table1(), Btb::table1(), ReturnAddressStack::table1())
    }

    /// Resolves one fetch block's branch predictions in fetch order,
    /// stopping after the first mispredicted branch (which ends the
    /// block). Returns the number of requests resolved; requests past that
    /// point were not touched and must not be treated as fetched.
    ///
    /// Batched gather/probe/resolve schedule — bit-identical to a
    /// per-branch [`PredictorStack::predict_one`] walk (see the module
    /// docs for the argument, `tests/block_probe_oracle.rs` for the
    /// proof).
    pub fn predict_block(&mut self, requests: &mut [PredictRequest]) -> usize {
        if requests.is_empty() {
            return 0;
        }
        if requests.len() > Tage::MAX_BLOCK {
            // Wider than the packed block windows support (never hit by the
            // core's fetch width) — the per-branch protocol is the same
            // observable behaviour by construction.
            for (i, request) in requests.iter_mut().enumerate() {
                request.mispredicted = predict_one_inner(
                    &mut self.tage,
                    &mut self.btb,
                    &mut self.ras,
                    &mut self.ghist,
                    request.pc,
                    request.branch,
                );
                if request.mispredicted {
                    return i + 1;
                }
            }
            return requests.len();
        }
        let PredictorStack { tage, btb, ras, ghist, scratch } = self;
        let lanes_per_slot = tage.num_tagged();

        // Phase 1 — gather, without touching any predictor or history
        // state. Each conditional branch's probe set (flat index + partial
        // tag per component) is computed against the history as of that
        // branch: fold values read off a detached working copy stepped one
        // element-wise (vectorisable) pass per branch, path bits via a
        // local virtual path register. Non-conditional branches gather
        // nothing — the dead TAGE walk stays eliminated — but still step
        // the working copy and the virtual path (every branch enters the
        // history).
        let outcomes = requests
            .iter()
            .fold(0u64, |packed, request| (packed << 1) | request.branch.taken as u64);
        tage.begin_block(ghist, outcomes, requests.len());
        let lanes = requests.len() * lanes_per_slot;
        if scratch.idx.len() < lanes {
            // Grow-only: shrinking would just re-zero on the next wide block.
            scratch.idx.resize(lanes, 0);
            scratch.tag.resize(lanes, 0);
            scratch.entry.resize(lanes, 0);
        }
        let mut slots = 0usize;
        let mut path = ghist.path(64);
        for (pushes, request) in requests.iter().enumerate() {
            if request.branch.kind == BranchKind::Conditional {
                let at = slots * lanes_per_slot;
                tage.gather_block_probes_at(
                    request.pc,
                    path & 0xff,
                    &mut scratch.idx[at..at + lanes_per_slot],
                    &mut scratch.tag[at..at + lanes_per_slot],
                );
                slots += 1;
            }
            tage.advance_block(pushes);
            path = (path << 1) | ((request.pc >> 2) & 1);
        }

        // Phase 2 — probe every gathered entry component-major: each
        // tagged table is visited once for the whole block.
        tage.probe_entries(&scratch.idx, &mut scratch.entry, slots);

        // Phase 3 — resolve in fetch order against the probed words.
        let mut resolved = requests.len();
        let mut cond = 0usize;
        for (i, request) in requests.iter_mut().enumerate() {
            let pc = request.pc;
            let branch = request.branch;
            request.mispredicted = match branch.kind {
                BranchKind::Return => match ras.pop() {
                    Some(target) => target != branch.target,
                    None => true,
                },
                BranchKind::Unconditional | BranchKind::Indirect => {
                    btb.predict(pc, ghist) != Some(branch.target)
                }
                BranchKind::Conditional => {
                    let at = cond * lanes_per_slot;
                    cond += 1;
                    let prediction = tage.predict_probed(
                        pc,
                        &scratch.entry[at..at + lanes_per_slot],
                        &scratch.tag[at..at + lanes_per_slot],
                    );
                    let direction_wrong = prediction.taken != branch.taken;
                    let target_wrong =
                        branch.taken && btb.predict(pc, ghist) != Some(branch.target);
                    let (idx, tag, entry) = (&scratch.idx, &scratch.tag, &mut scratch.entry);
                    tage.train_probed(
                        pc,
                        (branch.taken, prediction),
                        &idx[at..at + lanes_per_slot],
                        &tag[at..at + lanes_per_slot],
                        // Forward the provider update into younger probed
                        // copies of the same entry word. The flat index
                        // encodes component + index, so only the same
                        // component's lane of each younger slot can alias
                        // it — one compare per younger slot.
                        |comp, flat, word| {
                            for slot in cond..slots {
                                let lane = slot * lanes_per_slot + comp;
                                if idx[lane] == flat {
                                    entry[lane] = word;
                                }
                            }
                        },
                    );
                    direction_wrong || target_wrong
                }
            };
            if branch.taken {
                btb.train(pc, branch.target, ghist);
            }
            if branch.kind == BranchKind::Unconditional {
                // Calls push the fall-through address for a later return.
                ras.push(pc + 4);
            }
            if request.mispredicted {
                resolved = i + 1;
                break;
            }
        }

        // Phase 4 — commit. Nothing speculative was written during the
        // block, so committing is just pushing the resolved prefix into
        // the global history and jumping the fold state forward by the
        // same prefix in one O(lanes) pass.
        for request in requests[..resolved].iter() {
            ghist.push(request.branch.taken, request.pc);
        }
        tage.finish_block(resolved);
        resolved
    }

    /// Predicts one branch, updates the predictors and returns `true` if
    /// the front end mispredicted it — the retired per-branch protocol,
    /// kept as the reference for [`PredictorStack::predict_block`].
    pub fn predict_one(&mut self, pc: u64, branch: BranchInfo) -> bool {
        predict_one_inner(&mut self.tage, &mut self.btb, &mut self.ras, &mut self.ghist, pc, branch)
    }

    /// Statistics of the trained components, labelled by family name.
    pub fn stats(&self) -> Vec<(&'static str, PredictorStats)> {
        vec![(self.tage.name(), self.tage.stats()), (self.btb.name(), self.btb.stats())]
    }

    /// Total storage of the front-end stack in bits (TAGE + BTB + RAS).
    pub fn storage_bits(&self) -> u64 {
        self.tage.storage_bits() + self.btb.storage_bits() + self.ras.storage_bits()
    }

    /// The global history the stack maintains (pushed once per branch).
    pub fn history(&self) -> &GlobalHistory {
        &self.ghist
    }
}

/// The per-branch prediction protocol, shared by [`PredictorStack::predict_one`]
/// and the wide-block fallback of [`PredictorStack::predict_block`] (free
/// function so the block loop can call it while iterating a borrowed
/// request slice).
#[inline]
fn predict_one_inner(
    tage: &mut Tage,
    btb: &mut Btb,
    ras: &mut ReturnAddressStack,
    ghist: &mut GlobalHistory,
    pc: u64,
    branch: BranchInfo,
) -> bool {
    // The TAGE walk runs only for conditional branches: its prediction is
    // never consumed for returns/unconditionals/indirects, and `predict`
    // has no table side effects, so skipping it there is pure dead-work
    // elimination (bit-identical simulated behaviour; only the lookup
    // counter changes meaning — it now counts real direction lookups).
    let mut prediction = None;
    let mispredicted = match branch.kind {
        BranchKind::Return => match ras.pop() {
            Some(target) => target != branch.target,
            None => true,
        },
        BranchKind::Unconditional | BranchKind::Indirect => {
            // Direction is known; the target must come from the BTB.
            btb.predict(pc, ghist) != Some(branch.target)
        }
        BranchKind::Conditional => {
            let p = tage.predict(pc, ghist).expect("TAGE always answers");
            prediction = Some(p);
            let direction_wrong = p.taken != branch.taken;
            let target_wrong = branch.taken && btb.predict(pc, ghist) != Some(branch.target);
            direction_wrong || target_wrong
        }
    };
    if let Some(prediction) = prediction {
        tage.train(pc, (branch.taken, prediction), ghist);
    }
    if branch.taken {
        btb.train(pc, branch.target, ghist);
    }
    if branch.kind == BranchKind::Unconditional {
        // Calls push the fall-through address for a later return.
        ras.push(pc + 4);
    }
    ghist.push(branch.taken, pc);
    tage.on_history_update(ghist);
    mispredicted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conditional(taken: bool, target: u64) -> BranchInfo {
        BranchInfo { kind: BranchKind::Conditional, taken, target }
    }

    /// A deterministic stream of branches with a mix of kinds, predictable
    /// and random directions.
    fn stream(len: usize) -> Vec<(u64, BranchInfo)> {
        let mut state = 0x1234_5678_9abc_def0u64;
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pc = 0x40_0000 + (i as u64 % 24) * 4;
                let branch = match state % 7 {
                    0 => {
                        BranchInfo { kind: BranchKind::Unconditional, taken: true, target: pc + 64 }
                    }
                    1 => BranchInfo { kind: BranchKind::Return, taken: true, target: pc + 4 },
                    _ => conditional(i % 5 != 4, pc + 32),
                };
                (pc, branch)
            })
            .collect()
    }

    #[test]
    fn batched_blocks_match_the_per_branch_reference() {
        // Feed the identical branch stream through both entry points in
        // blocks of varying width: resolved prefixes, mispredict flags,
        // statistics and history state must match exactly.
        let mut batched = PredictorStack::table1();
        let mut reference = PredictorStack::table1();
        let stream = stream(4_000);
        let mut cursor = 0usize;
        let mut block = 1usize;
        while cursor < stream.len() {
            let width = 1 + block % 8;
            block += 1;
            let end = (cursor + width).min(stream.len());
            let mut requests: Vec<PredictRequest> =
                stream[cursor..end].iter().map(|&(pc, b)| PredictRequest::new(pc, b)).collect();
            let resolved = batched.predict_block(&mut requests);
            for (offset, request) in requests[..resolved].iter().enumerate() {
                let (pc, branch) = stream[cursor + offset];
                let expected = reference.predict_one(pc, branch);
                assert_eq!(
                    request.mispredicted,
                    expected,
                    "branch {} diverges between batched and per-branch paths",
                    cursor + offset
                );
            }
            // The batched path stops exactly at the first misprediction.
            if resolved < requests.len() {
                assert!(requests[resolved - 1].mispredicted);
            }
            cursor += resolved;
        }
        assert_eq!(batched.stats(), reference.stats());
        assert_eq!(batched.history().recent(64), reference.history().recent(64));
    }

    #[test]
    fn block_stops_at_the_first_misprediction() {
        let mut stack = PredictorStack::table1();
        // A cold conditional taken branch always mispredicts (no BTB
        // entry), so a block of three resolves exactly one request.
        let mut requests = vec![
            PredictRequest::new(0x1000, conditional(true, 0x9000)),
            PredictRequest::new(0x1004, conditional(false, 0x9100)),
            PredictRequest::new(0x1008, conditional(false, 0x9200)),
        ];
        let resolved = stack.predict_block(&mut requests);
        assert_eq!(resolved, 1);
        assert!(requests[0].mispredicted);
        assert!(!requests[1].mispredicted, "unresolved requests stay untouched");
        // Only the resolved branch entered the history and the stats.
        assert_eq!(stack.stats()[0].1.lookups, 1);
    }

    #[test]
    fn trained_branches_stop_mispredicting() {
        let mut stack = PredictorStack::table1();
        let pc = 0x2000;
        let branch = conditional(true, 0x5000);
        // First sight: direction may be right but the BTB misses.
        assert!(stack.predict_one(pc, branch));
        let mut mispredicts = 0;
        for _ in 0..200 {
            if stack.predict_one(pc, branch) {
                mispredicts += 1;
            }
        }
        assert!(mispredicts < 10, "always-taken branch kept mispredicting ({mispredicts})");
    }

    #[test]
    fn returns_match_the_call_stack() {
        let mut stack = PredictorStack::table1();
        let call_pc = 0x3000;
        // A call (unconditional) pushes call_pc + 4; the matching return
        // predicts correctly, a mismatched one does not.
        let call = BranchInfo { kind: BranchKind::Unconditional, taken: true, target: 0x8000 };
        stack.predict_one(call_pc, call);
        let good = BranchInfo { kind: BranchKind::Return, taken: true, target: call_pc + 4 };
        assert!(!stack.predict_one(0x8010, good));
        let bad = BranchInfo { kind: BranchKind::Return, taken: true, target: 0x1234 };
        assert!(stack.predict_one(0x8010, bad));
    }

    #[test]
    fn storage_covers_all_components() {
        let stack = PredictorStack::table1();
        let expected = Tage::table1().storage_bits()
            + Btb::table1().storage_bits()
            + ReturnAddressStack::table1().storage_bits();
        assert_eq!(stack.storage_bits(), expected);
    }
}
