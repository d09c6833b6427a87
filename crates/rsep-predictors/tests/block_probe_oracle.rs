//! Proof harness for the batched fetch-block front end: the
//! gather/probe/resolve schedule must be *bit-identical* to the sequential
//! per-branch walk it replaced (see the `stack` module docs for the
//! argument this pins down).
//!
//! Two layers:
//!
//! * **TAGE block protocol** — `begin_block` / `gather_block_probes_at` /
//!   `advance_block` / `probe_entries` / `predict_probed` /
//!   `train_probed` / `finish_block` driven over random blocks against a
//!   second `Tage` running `predict` / `train` / `on_history_update` one
//!   branch at a time. Probing each bank once per block (component-major,
//!   against pre-block table state, with provider updates patched into
//!   younger probed copies) must produce the sequential walk's exact
//!   predictions — provider and alternate included — and identical table
//!   state afterwards. A small geometry keeps aliasing, allocation and
//!   useful-aging firing constantly, which is precisely what makes probe
//!   reordering observable if it were wrong.
//! * **Full stack** — `predict_block` against a per-branch `predict_one`
//!   walk (one full table walk per branch, stopping at the first
//!   misprediction as the fetch stage does) over random mixed-kind branch
//!   streams cut into random block widths: same resolved prefixes, same
//!   mispredict flags, same statistics, same history.

use proptest::collection;
use proptest::prelude::*;
use rsep_isa::{BranchInfo, BranchKind};
use rsep_predictors::{GlobalHistory, PredictRequest, PredictorStack, Tage, TageConfig};

/// A small TAGE geometry (as in `proptest_predictors.rs`) so tag aliasing
/// and allocation churn happen within a few blocks.
fn small_tage_config() -> TageConfig {
    TageConfig {
        base_log2: 5,
        tagged_log2: 4,
        num_tagged: 4,
        min_history: 2,
        max_history: 32,
        tag_bits: vec![5, 6, 7, 8],
    }
}

proptest! {
    /// Drives the batched block protocol at the `Tage` level against the
    /// sequential predict/train walk, block by block. A mispredicted
    /// branch terminates the block (as in the front end); the gathered
    /// tail is discarded, and `finish_block` must still land the fold
    /// state exactly where the reference's per-branch updates land it.
    #[test]
    fn batched_tage_blocks_match_the_sequential_walk(
        blocks in collection::vec(
            collection::vec((0u64..48, any::<bool>()), 1..9),
            1..80
        )
    ) {
        let mut batched = Tage::new(small_tage_config());
        let mut reference = Tage::new(small_tage_config());
        let mut h = GlobalHistory::new();
        let mut ref_h = GlobalHistory::new();
        let lanes = batched.num_tagged();
        let mut idx = Vec::new();
        let mut tags = Vec::new();
        let mut entries = Vec::new();

        for (block_no, block) in blocks.iter().enumerate() {
            let len = block.len();
            let outcomes = block
                .iter()
                .fold(0u64, |packed, &(_, taken)| (packed << 1) | taken as u64);

            // Gather phase: every branch's probe set against the history
            // as of that branch, off the stepped working copy — no
            // predictor or history state is touched.
            batched.begin_block(&mut h, outcomes, len);
            idx.clear();
            idx.resize(len * lanes, 0u32);
            tags.clear();
            tags.resize(len * lanes, 0u16);
            let mut path = h.path(64);
            for (j, &(pc_sel, _)) in block.iter().enumerate() {
                let pc = 0x40_0000 + pc_sel * 4;
                let at = j * lanes;
                batched.gather_block_probes_at(
                    pc,
                    path & 0xff,
                    &mut idx[at..at + lanes],
                    &mut tags[at..at + lanes],
                );
                batched.advance_block(j);
                path = (path << 1) | ((pc >> 2) & 1);
            }

            // Probe phase: each bank read once for the whole block.
            entries.clear();
            entries.resize(len * lanes, 0u32);
            batched.probe_entries(&idx, &mut entries, len);

            // Resolve phase, in fetch order, against the probed words.
            let mut resolved = len;
            for (j, &(pc_sel, taken)) in block.iter().enumerate() {
                let pc = 0x40_0000 + pc_sel * 4;
                let at = j * lanes;
                let prediction =
                    batched.predict_probed(pc, &entries[at..at + lanes], &tags[at..at + lanes]);
                let ref_prediction = reference.predict(pc, &ref_h).expect("TAGE always answers");
                prop_assert_eq!(
                    prediction, ref_prediction,
                    "block {} branch {} prediction diverges at {:#x}", block_no, j, pc
                );
                let (idx, tags, entries) = (&idx, &tags, &mut entries);
                batched.train_probed(
                    pc,
                    (taken, prediction),
                    &idx[at..at + lanes],
                    &tags[at..at + lanes],
                    // Forward the provider update into younger probed
                    // copies of the same entry word, as the stack driver
                    // does.
                    |comp, flat, word| {
                        for slot in j + 1..len {
                            let lane = slot * lanes + comp;
                            if idx[lane] == flat {
                                entries[lane] = word;
                            }
                        }
                    },
                );
                reference.train(pc, (taken, ref_prediction), &ref_h);
                ref_h.push(taken, pc);
                reference.on_history_update(&ref_h);
                if prediction.taken != taken {
                    // A misprediction ends the fetch block: the gathered
                    // tail is discarded unresolved.
                    resolved = j + 1;
                    break;
                }
            }

            // Commit phase: push the resolved prefix and land the folds.
            for &(pc_sel, taken) in block.iter().take(resolved) {
                h.push(taken, 0x40_0000 + pc_sel * 4);
            }
            batched.finish_block(resolved);
            prop_assert_eq!(h.recent(64), ref_h.recent(64), "history diverges");
        }
        prop_assert_eq!(batched.stats(), reference.stats(), "statistics diverge");
    }

    /// Drives identical mixed-kind branch streams through
    /// `predict_block` and a per-branch `predict_one` walk in random
    /// block widths: the full front-end stack (TAGE + BTB + RAS +
    /// history) must behave identically.
    #[test]
    fn predict_block_matches_the_per_branch_reference(
        stream in collection::vec((0u64..24, 0u8..8, any::<bool>()), 1..400),
        widths in collection::vec(1usize..9, 1..40)
    ) {
        let mut batched = PredictorStack::table1();
        let mut sequential = PredictorStack::table1();
        let branches: Vec<(u64, BranchInfo)> = stream
            .iter()
            .map(|&(pc_sel, kind_sel, taken)| {
                let pc = 0x40_0000 + pc_sel * 4;
                let branch = match kind_sel {
                    0 => BranchInfo {
                        kind: BranchKind::Unconditional,
                        taken: true,
                        target: pc + 64,
                    },
                    1 => BranchInfo { kind: BranchKind::Return, taken: true, target: pc + 4 },
                    2 => BranchInfo {
                        kind: BranchKind::Indirect,
                        taken: true,
                        target: pc + 16 + u64::from(taken) * 32,
                    },
                    _ => BranchInfo { kind: BranchKind::Conditional, taken, target: pc + 32 },
                };
                (pc, branch)
            })
            .collect();

        let mut cursor = 0usize;
        let mut width_at = 0usize;
        while cursor < branches.len() {
            let width = widths[width_at % widths.len()];
            width_at += 1;
            let end = (cursor + width).min(branches.len());
            let mut requests: Vec<PredictRequest> = branches[cursor..end]
                .iter()
                .map(|&(pc, branch)| PredictRequest::new(pc, branch))
                .collect();
            let ref_requests = requests.clone();
            let resolved = batched.predict_block(&mut requests);
            // The per-branch reference: one full table walk per branch,
            // stopping at the first misprediction exactly as the fetch
            // stage (and the block path) does.
            let mut ref_resolved = ref_requests.len();
            for (j, reference) in ref_requests.iter().enumerate() {
                let mispredicted = sequential.predict_one(reference.pc, reference.branch);
                prop_assert_eq!(
                    requests[j].mispredicted,
                    mispredicted,
                    "branch {} mispredict flag diverges", cursor + j
                );
                if mispredicted {
                    ref_resolved = j + 1;
                    break;
                }
            }
            prop_assert_eq!(
                resolved, ref_resolved,
                "resolved prefix diverges at branch {}", cursor
            );
            cursor += resolved;
        }
        prop_assert_eq!(batched.stats(), sequential.stats(), "statistics diverge");
        prop_assert_eq!(
            batched.history().recent(64),
            sequential.history().recent(64),
            "history diverges"
        );
    }
}
