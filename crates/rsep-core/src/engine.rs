//! The RSEP speculation engine.
//!
//! [`RsepEngine`] implements the [`SpecEngine`] interface of `rsep-uarch`
//! and composes every mechanism the paper studies, according to a
//! [`MechanismConfig`]:
//!
//! * zero-idiom elimination (baseline rename feature, Table I),
//! * move elimination (Section IV-H1, enabled together with RSEP),
//! * zero prediction (Section III),
//! * RSEP distance prediction with register sharing through the ISRB and
//!   a configurable validation policy (Section IV),
//! * conventional value prediction with D-VTAGE (Section II-A).
//!
//! The engine mirrors the pipeline of Figure 3: the distance predictor is
//! consulted at Rename (the ROB is indexed with the predicted distance to
//! find the provider register), predictions are validated by issuing the
//! predicted instruction a second time (charged by the core according to
//! the validation policy), and training happens at Commit from the FIFO
//! history — with optional commit-group sampling plus the
//! likely-candidate/validation-path refinement of Section IV-B3.

use crate::config::{MechanismConfig, RsepConfig, VpConfig};
use crate::fifo_history::FifoHistory;
use crate::isrb::Isrb;
use rsep_isa::{DynInst, OpClass, PhysReg};
use rsep_predictors::{DistancePredictor, Dvtage, GlobalHistory, PredictorStats, ZeroPredictor};
use rsep_uarch::{Disposition, RenameAction, RenameContext, SpecEngine};
use std::collections::VecDeque;

/// Counters describing the engine's own activity (in addition to the
/// core's [`rsep_uarch::SimStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Rename-time RSEP opportunities dropped because the provider had
    /// already left the ROB.
    pub provider_out_of_window: u64,
    /// Rename-time RSEP opportunities dropped because provider and
    /// destination live in different register files.
    pub class_mismatch: u64,
    /// Rename-time RSEP opportunities dropped because the ISRB was full.
    pub isrb_full: u64,
    /// Distance predictions used for sharing.
    pub shares_attempted: u64,
    /// Value predictions used.
    pub value_predictions_used: u64,
    /// Zero predictions used.
    pub zero_predictions_used: u64,
}

/// Predicted distances propagated from Rename to Commit (Section VI-B
/// counts 224 B for this FIFO), as `(seq, distance)` in sequence order.
/// Rename runs in program order, so pushes arrive in order; commit takes
/// from the front and a squash truncates the back.
#[derive(Debug, Default)]
struct PendingDistances(VecDeque<(u64, u32)>);

impl PendingDistances {
    /// Records the distance predicted for the instruction renamed as
    /// `seq`, younger than every entry.
    fn push(&mut self, seq: u64, distance: u32) {
        debug_assert!(self.0.back().is_none_or(|&(s, _)| s < seq), "rename is in order");
        self.0.push_back((seq, distance));
    }

    /// Removes and returns the distance of the committing instruction
    /// `seq`. Commit is in order, so entries older than `seq` can never be
    /// asked for again: they go too.
    fn take(&mut self, seq: u64) -> Option<u32> {
        while let Some(&(front, distance)) = self.0.front() {
            if front > seq {
                break;
            }
            self.0.pop_front();
            if front == seq {
                return Some(distance);
            }
        }
        None
    }

    /// Drops the entries of instructions squashed from `from_seq` on.
    fn squash(&mut self, from_seq: u64) {
        self.0.truncate(self.0.partition_point(|&(seq, _)| seq < from_seq));
    }
}

/// The composed speculation engine.
#[derive(Debug)]
pub struct RsepEngine {
    config: MechanismConfig,
    ghist: GlobalHistory,
    distance: Option<DistancePredictor>,
    fifo: Option<FifoHistory>,
    isrb: Option<Isrb>,
    dvtage: Option<Dvtage>,
    zero: Option<ZeroPredictor>,
    pending_distances: PendingDistances,
    stats: EngineStats,
}

impl RsepEngine {
    /// Builds an engine from a mechanism configuration.
    pub fn new(config: MechanismConfig) -> RsepEngine {
        let distance = config.rsep.as_ref().map(|r| DistancePredictor::new(r.predictor.clone()));
        let fifo = config.rsep.as_ref().map(|r| FifoHistory::new(r.history));
        let isrb = config.rsep.as_ref().map(|r| Isrb::new(r.isrb));
        let dvtage = config.vp.as_ref().map(|v: &VpConfig| Dvtage::new(v.predictor.clone()));
        let zero = config.zero_pred.map(ZeroPredictor::new);
        RsepEngine {
            config,
            ghist: GlobalHistory::new(),
            distance,
            fifo,
            isrb,
            dvtage,
            zero,
            pending_distances: PendingDistances::default(),
            stats: EngineStats::default(),
        }
    }

    /// The mechanism configuration driving this engine.
    pub fn config(&self) -> &MechanismConfig {
        &self.config
    }

    /// Engine-side statistics.
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// ISRB statistics, when RSEP is enabled.
    pub fn isrb_stats(&self) -> Option<crate::isrb::IsrbStats> {
        self.isrb.as_ref().map(|i| i.stats())
    }

    /// Registers the ISRB currently tracks, when RSEP is enabled.
    pub fn isrb_occupancy(&self) -> Option<usize> {
        self.isrb.as_ref().map(|i| i.occupancy())
    }

    /// Distance-predictor statistics, when RSEP is enabled.
    pub fn distance_stats(&self) -> Option<PredictorStats> {
        self.distance.as_ref().map(|d| d.stats())
    }

    /// FIFO-history statistics, when RSEP is enabled.
    pub fn fifo_stats(&self) -> Option<crate::fifo_history::FifoHistoryStats> {
        self.fifo.as_ref().map(|f| f.stats())
    }

    /// RSEP configuration, when the mechanism is enabled.
    pub fn rsep_config(&self) -> Option<&RsepConfig> {
        self.config.rsep.as_ref()
    }

    /// Attempts an RSEP share for `inst`; returns the action when the whole
    /// chain (confident prediction, provider in the ROB, same register
    /// class, ISRB space) succeeds.
    fn try_share(&mut self, inst: &DynInst, ctx: &RenameContext<'_>) -> Option<RenameAction> {
        let rsep = self.config.rsep.as_ref()?;
        let predictor = self.distance.as_mut()?;
        let prediction = predictor.predict(inst.pc, &self.ghist)?;
        // Remember the predicted distance so commit can prefer it when
        // searching the FIFO history (and so likely candidates can train
        // through the validation path).
        let start_train = rsep.sampling.map(|s| s.start_train_raw).unwrap_or(0);
        if prediction.usable() || prediction.likely_candidate(start_train) {
            self.pending_distances.push(inst.seq, prediction.distance);
        }
        if !prediction.usable() || prediction.distance == 0 {
            return None;
        }
        let provider_seq = inst.seq.checked_sub(u64::from(prediction.distance))?;
        let Some(provider) = ctx.rob.find_by_seq(provider_seq) else {
            self.stats.provider_out_of_window += 1;
            return None;
        };
        if !provider.inst.produces_register() {
            self.stats.provider_out_of_window += 1;
            return None;
        }
        let provider_preg = provider.dest_preg?;
        let dest_class = inst.dest?.class();
        if provider_preg.class() != dest_class {
            self.stats.class_mismatch += 1;
            return None;
        }
        let isrb = self.isrb.as_mut()?;
        if !isrb.try_share(provider_preg, inst.seq) {
            self.stats.isrb_full += 1;
            return None;
        }
        self.stats.shares_attempted += 1;
        Some(RenameAction::Share {
            provider_seq,
            correct: inst.result == provider.inst.result,
            validation: rsep.validation,
        })
    }

    /// Trains the RSEP machinery for one committed register producer.
    fn train_rsep(&mut self, inst: &DynInst, clock: u64) {
        let Some(rsep) = self.config.rsep.as_ref() else {
            return;
        };
        let (Some(fifo), Some(predictor)) = (self.fifo.as_mut(), self.distance.as_mut()) else {
            return;
        };
        let predicted = self.pending_distances.take(inst.seq);
        let mut search_allowed = true;
        if rsep.sampling.is_some() {
            let is_candidate = predicted.is_some();
            if is_candidate {
                // Likely candidates finish training through the validation
                // mechanism: they compare against the register they would
                // have shared (the predicted distance) instead of searching
                // the history at commit.
                search_allowed = false;
                let d = predicted.expect("candidate implies a propagated distance");
                if let Some(m) = fifo.find_pair(inst.seq, inst.result, Some(d)) {
                    predictor.train(inst.pc, m.distance, &self.ghist);
                } else {
                    // No live pair: decay by training toward the maximal
                    // distance, which will reset confidence.
                    let max_distance = predictor.max_distance();
                    predictor.train(inst.pc, max_distance, &self.ghist);
                }
            } else {
                // Non-candidates only search when they win the commit-group
                // sampling lottery (one per cycle).
                search_allowed = fifo.admit_sampled(clock, 8);
            }
        }
        if search_allowed {
            if let Some(m) = fifo.find_pair(inst.seq, inst.result, predicted) {
                predictor.train(inst.pc, m.distance, &self.ghist);
            }
        }
        // Every retired producer enters the history regardless of sampling.
        fifo.push(inst.seq, inst.result);
    }
}

impl SpecEngine for RsepEngine {
    fn name(&self) -> String {
        self.config.label.clone()
    }

    fn on_branch(&mut self, pc: u64, taken: bool) {
        self.ghist.push(taken, pc);
        if let Some(d) = self.distance.as_mut() {
            d.on_history_update(&self.ghist);
        }
        if let Some(v) = self.dvtage.as_mut() {
            v.on_history_update(&self.ghist);
        }
    }

    fn at_rename(&mut self, inst: &DynInst, ctx: &RenameContext<'_>) -> RenameAction {
        // Non-speculative eliminations first (Decode/Rename features).
        if inst.op == OpClass::ZeroIdiom && self.config.zero_idiom_elim {
            return RenameAction::EliminateZeroIdiom;
        }
        if inst.op == OpClass::Move && self.config.move_elim && inst.num_sources() > 0 {
            return RenameAction::EliminateMove;
        }
        if !inst.eligible_for_prediction() {
            return RenameAction::Normal;
        }
        // RSEP has priority; VP covers instructions RSEP does not capture
        // (this is the composition used for the RSEP+VP configuration).
        if self.config.rsep.is_some() {
            if let Some(action) = self.try_share(inst, ctx) {
                return action;
            }
        }
        if let Some(dvtage) = self.dvtage.as_mut() {
            if let Some(p) = dvtage.predict(inst.pc, &self.ghist) {
                if p.usable() {
                    self.stats.value_predictions_used += 1;
                    return RenameAction::PredictValue { correct: p.value == inst.result };
                }
            }
        }
        if let Some(zero) = self.zero.as_mut() {
            if zero.predict(inst.pc, &self.ghist).is_some() {
                self.stats.zero_predictions_used += 1;
                return RenameAction::PredictZero { correct: inst.result == 0 };
            }
        }
        RenameAction::Normal
    }

    fn at_commit(&mut self, inst: &DynInst, disposition: Disposition, clock: u64) {
        if matches!(disposition, Disposition::DistPred { .. }) {
            if let Some(isrb) = self.isrb.as_mut() {
                isrb.on_sharer_commit(inst.seq);
            }
        }
        if !inst.eligible_for_prediction() {
            self.pending_distances.take(inst.seq);
            return;
        }
        // Commit-time training of every enabled predictor.
        if let Some(zero) = self.zero.as_mut() {
            zero.train(inst.pc, inst.result == 0, &self.ghist);
        }
        if let Some(dvtage) = self.dvtage.as_mut() {
            dvtage.train(inst.pc, inst.result, &self.ghist);
        }
        if self.config.rsep.is_some() {
            self.train_rsep(inst, clock);
        } else {
            self.pending_distances.take(inst.seq);
        }
    }

    fn release_register(&mut self, preg: PhysReg) -> bool {
        if let Some(isrb) = self.isrb.as_mut() {
            isrb.on_release(preg);
        }
        true
    }

    fn on_squash(&mut self, from_seq: u64) -> Vec<PhysReg> {
        self.pending_distances.squash(from_seq);
        // The predictors train at commit only, so a squash leaves them be.
        if let Some(isrb) = self.isrb.as_mut() {
            isrb.on_squash(from_seq);
        }
        Vec::new()
    }

    fn predictor_stats(&self) -> Vec<(&'static str, PredictorStats)> {
        let mut stats = Vec::new();
        if let Some(d) = self.distance.as_ref() {
            stats.push((d.name(), d.stats()));
        }
        if let Some(v) = self.dvtage.as_ref() {
            stats.push((v.name(), v.stats()));
        }
        if let Some(z) = self.zero.as_ref() {
            stats.push((z.name(), z.stats()));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MechanismConfig;
    use proptest::prelude::*;
    use rsep_isa::ArchReg;
    use rsep_uarch::Rob;

    fn ctx(rob: &Rob) -> RenameContext<'_> {
        RenameContext { clock: 0, rob }
    }

    #[test]
    fn zero_idioms_are_eliminated() {
        let mut engine = RsepEngine::new(MechanismConfig::baseline());
        let rob = Rob::new(8);
        let inst = DynInst::simple(0, 0x400000, OpClass::ZeroIdiom, ArchReg::int(1), 0);
        assert_eq!(engine.at_rename(&inst, &ctx(&rob)), RenameAction::EliminateZeroIdiom);
    }

    #[test]
    fn moves_are_eliminated_only_when_enabled() {
        let rob = Rob::new(8);
        let mv = rsep_isa::DynInstBuilder::new(0, 0x400000, OpClass::Move)
            .dest(ArchReg::int(2))
            .src(ArchReg::int(3))
            .result(9)
            .build();
        let mut without = RsepEngine::new(MechanismConfig::baseline());
        assert_eq!(without.at_rename(&mv, &ctx(&rob)), RenameAction::Normal);
        let mut with = RsepEngine::new(MechanismConfig::move_elim());
        assert_eq!(with.at_rename(&mv, &ctx(&rob)), RenameAction::EliminateMove);
    }

    #[test]
    fn zero_prediction_engages_after_training() {
        let mut engine = RsepEngine::new(MechanismConfig::zero_pred());
        let rob = Rob::new(8);
        let inst = DynInst::simple(0, 0x400100, OpClass::IntAlu, ArchReg::int(1), 0);
        // Train heavily.
        for s in 0..20_000u64 {
            let mut i = inst.clone();
            i.seq = s;
            engine.at_commit(&i, Disposition::None, s);
        }
        let mut i = inst.clone();
        i.seq = 30_000;
        let action = engine.at_rename(&i, &ctx(&rob));
        assert_eq!(action, RenameAction::PredictZero { correct: true });
        // A non-zero result is flagged as an incorrect speculation.
        let mut wrong = inst;
        wrong.seq = 30_001;
        wrong.result = 7;
        assert_eq!(
            engine.at_rename(&wrong, &ctx(&rob)),
            RenameAction::PredictZero { correct: false }
        );
    }

    #[test]
    fn value_prediction_engages_for_constant_streams() {
        let mut engine = RsepEngine::new(MechanismConfig::value_pred());
        let rob = Rob::new(8);
        let make =
            |seq: u64| DynInst::simple(seq, 0x400200, OpClass::IntAlu, ArchReg::int(1), 0x42);
        for s in 0..20_000u64 {
            engine.at_commit(&make(s), Disposition::None, s);
        }
        let action = engine.at_rename(&make(30_000), &ctx(&rob));
        assert_eq!(action, RenameAction::PredictValue { correct: true });
        assert!(engine.engine_stats().value_predictions_used > 0);
    }

    #[test]
    fn rsep_engine_reports_configuration() {
        let engine = RsepEngine::new(MechanismConfig::rsep_realistic());
        assert_eq!(engine.name(), "rsep-realistic");
        assert!(engine.config().rsep.is_some());
        assert!(engine.isrb_stats().is_some());
        assert!(engine.distance_stats().is_some());
        assert!(engine.fifo_stats().is_some());
        let baseline = RsepEngine::new(MechanismConfig::baseline());
        assert!(baseline.isrb_stats().is_none());
    }

    #[test]
    fn release_register_defers_to_the_isrb() {
        let preg = PhysReg::new(rsep_isa::RegClass::Int, 4);
        let mut engine = RsepEngine::new(MechanismConfig::baseline());
        engine.release_register(preg);
        assert_eq!(engine.isrb_occupancy(), None);
        let mut rsep = RsepEngine::new(MechanismConfig::rsep_ideal());
        assert!(rsep.isrb.as_mut().unwrap().try_share(preg, 7));
        assert_eq!(rsep.isrb_occupancy(), Some(1));
        // Back to one owner: the register's ISRB entry retires.
        rsep.release_register(preg);
        assert_eq!(rsep.isrb_occupancy(), Some(0));
    }

    #[test]
    fn isrb_empties_once_same_register_sharers_are_overwritten() {
        // Each iteration's second instruction writes the value its first
        // one just wrote, into the same architectural register: once the
        // distance predictor is confident, the second shares the first's
        // register. (The third instruction shifts the loop against the
        // commit groups, so the second one wins commit-group sampling.)
        // After the loop, a tail that overwrites that register with
        // unshared values must leave every ISRB entry retired.
        let mut insts = Vec::new();
        for i in 0..20_000u64 {
            let value = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let seq = 3 * i;
            insts.push(DynInst::simple(seq, 0x40_1000, OpClass::IntAlu, ArchReg::int(1), value));
            insts.push(DynInst::simple(
                seq + 1,
                0x40_1004,
                OpClass::IntAlu,
                ArchReg::int(1),
                value,
            ));
            insts.push(DynInst::simple(
                seq + 2,
                0x40_1008,
                OpClass::IntAlu,
                ArchReg::int(2),
                !value,
            ));
        }
        for seq in 60_000..60_100u64 {
            let pc = 0x50_0000 + seq * 4;
            insts.push(DynInst::simple(seq, pc, OpClass::IntAlu, ArchReg::int(1), seq));
        }
        let total = insts.len() as u64;
        let engine = RsepEngine::new(MechanismConfig::rsep_realistic());
        let mut core = rsep_uarch::Core::new(rsep_uarch::CoreConfig::small_test(), engine);
        assert_eq!(core.run(&mut insts.into_iter(), total), Ok(total));
        let engine = core.engine();
        assert!(engine.isrb_stats().unwrap().shares_accepted > 100, "the loop must share");
        assert_eq!(engine.isrb_occupancy(), Some(0));
        core.validate_invariants().expect("registers are conserved");
    }

    #[test]
    fn squash_clears_pending_distances() {
        let mut engine = RsepEngine::new(MechanismConfig::rsep_ideal());
        engine.pending_distances.push(10, 3);
        engine.pending_distances.push(20, 5);
        let freed = engine.on_squash(15);
        assert!(freed.is_empty());
        assert_eq!(engine.pending_distances.0, [(10, 3)]);
        assert_eq!(engine.pending_distances.take(10), Some(3));
        assert_eq!(engine.pending_distances.take(20), None);
    }

    proptest! {
        /// The in-order ring answers every commit as the keyed map it
        /// replaced (insert at rename, remove at commit, `retain` at
        /// squash) on random rename/commit/squash streams.
        #[test]
        fn pending_distances_match_the_map_model(
            ops in proptest::collection::vec((0u8..8, 0u32..64, 0u64..16), 1..300),
        ) {
            let mut ring = PendingDistances::default();
            let mut model = std::collections::BTreeMap::new();
            // In flight: sequence numbers `committed..renamed`.
            let (mut committed, mut renamed) = (0u64, 0u64);
            for (kind, distance, offset) in ops {
                match kind {
                    // Rename the next instruction; a third carry no
                    // distance.
                    0..=3 => {
                        if distance % 3 != 0 {
                            ring.push(renamed, distance);
                            model.insert(renamed, distance);
                        }
                        renamed += 1;
                    }
                    // Commit the oldest in-flight instruction.
                    4..=6 => {
                        if committed < renamed {
                            prop_assert_eq!(ring.take(committed), model.remove(&committed));
                            committed += 1;
                        }
                    }
                    // Squash from a point inside the window, or at its end.
                    _ => {
                        let from = committed + offset % (renamed - committed + 1);
                        ring.squash(from);
                        model.retain(|&seq, _| seq < from);
                        renamed = from;
                    }
                }
                let live: Vec<(u64, u32)> = model.iter().map(|(&s, &d)| (s, d)).collect();
                prop_assert_eq!(ring.0.iter().copied().collect::<Vec<_>>(), live);
            }
        }
    }
}
