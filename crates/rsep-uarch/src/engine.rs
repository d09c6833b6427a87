//! Speculation engine interface.
//!
//! The cycle-level core is mechanism-agnostic: every rename-time
//! optimisation studied in the paper (zero-idiom elimination, move
//! elimination, zero prediction, RSEP distance prediction, value
//! prediction) is implemented behind the [`SpecEngine`] trait, provided by
//! the `rsep-core` crate. The baseline core uses [`NullEngine`].
//!
//! The protocol mirrors Figure 3 of the paper:
//!
//! * at **fetch**, branch outcomes are reported so the engine can maintain
//!   the global history its TAGE-like predictors index with
//!   ([`SpecEngine::on_branch`]);
//! * at **rename**, the engine decides how the destination register is
//!   mapped ([`SpecEngine::at_rename`] returning a [`RenameAction`]);
//! * at **commit**, the engine trains its predictors and updates its
//!   sharing state ([`SpecEngine::at_commit`]);
//! * when a physical register drops back to at most one owner, the engine
//!   is notified ([`SpecEngine::release_register`]) so it can retire its
//!   sharing state for it (the ISRB of Section IV-E2);
//! * on a pipeline squash the engine rolls back speculative sharing state
//!   ([`SpecEngine::on_squash`]).
//!
//! The engine never decides when a register is freed: the register file's
//! reference count does (see [`crate::regfile`]), and the core ignores what
//! the two notifications return.

use crate::rob::Rob;
use rsep_isa::{DynInst, PhysReg};
use rsep_predictors::PredictorStats;

/// How equality-prediction validation is charged (Section IV-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationKind {
    /// Ideal (free) validation: no extra issue bandwidth is consumed.
    Free,
    /// The predicted instruction is issued a second time to the *same*
    /// functional-unit class (locks the FU; load validations consume load
    /// ports).
    SameFu,
    /// The predicted instruction is issued a second time to *any* available
    /// port, preferring non-load ports (the bypass-network solution the
    /// paper recommends).
    AnyFu,
}

impl rsep_isa::Fingerprint for ValidationKind {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        h.write_str("ValidationKind");
        h.write_u64(match self {
            ValidationKind::Free => 0,
            ValidationKind::SameFu => 1,
            ValidationKind::AnyFu => 2,
        });
    }
}

/// Decision taken by the speculation engine for one instruction at Rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameAction {
    /// No special handling: allocate a fresh destination register.
    Normal,
    /// Non-speculative zero-idiom elimination: the destination is renamed
    /// onto the hardwired zero register and the instruction does not
    /// execute.
    EliminateZeroIdiom,
    /// Non-speculative move elimination: the destination is renamed onto
    /// the physical register of the move's source and the instruction does
    /// not execute.
    EliminateMove,
    /// Zero prediction (Section III): the destination is renamed onto the
    /// hardwired zero register; the instruction still executes to validate.
    PredictZero {
        /// Whether the speculation will turn out correct (known to the
        /// trace-driven model; acted on at commit).
        correct: bool,
    },
    /// RSEP (Section IV): share the destination register of the older
    /// in-flight instruction with sequence number `provider_seq`.
    Share {
        /// Sequence number of the providing (older) instruction.
        provider_seq: u64,
        /// Whether the predicted equality holds.
        correct: bool,
        /// How validation is charged.
        validation: ValidationKind,
    },
    /// Conventional value prediction: dependents may consume the predicted
    /// value immediately; validation happens at commit.
    PredictValue {
        /// Whether the predicted value matches the actual result.
        correct: bool,
    },
}

/// Final classification of a committed instruction, used for the coverage
/// breakdown of Figure 5 and for training decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// Handled by no mechanism.
    None,
    /// Eliminated as a zero idiom at Decode/Rename.
    ZeroIdiomElim,
    /// Eliminated as a register-to-register move.
    MoveElim,
    /// Zero predicted (speculative).
    ZeroPred {
        /// Whether the result really was zero.
        correct: bool,
    },
    /// Distance predicted / register shared (RSEP).
    DistPred {
        /// Whether the shared register really held the same value.
        correct: bool,
    },
    /// Value predicted by D-VTAGE.
    ValuePred {
        /// Whether the predicted value was correct.
        correct: bool,
    },
}

impl Disposition {
    /// Returns `true` if the disposition is a *speculative* prediction that
    /// turned out wrong (and therefore costs a pipeline flush at commit).
    pub fn is_misprediction(self) -> bool {
        matches!(
            self,
            Disposition::ZeroPred { correct: false }
                | Disposition::DistPred { correct: false }
                | Disposition::ValuePred { correct: false }
        )
    }
}

impl From<RenameAction> for Disposition {
    fn from(action: RenameAction) -> Disposition {
        match action {
            RenameAction::Normal => Disposition::None,
            RenameAction::EliminateZeroIdiom => Disposition::ZeroIdiomElim,
            RenameAction::EliminateMove => Disposition::MoveElim,
            RenameAction::PredictZero { correct } => Disposition::ZeroPred { correct },
            RenameAction::Share { correct, .. } => Disposition::DistPred { correct },
            RenameAction::PredictValue { correct } => Disposition::ValuePred { correct },
        }
    }
}

/// Read-only view of the core state offered to the engine at rename time.
#[derive(Debug)]
pub struct RenameContext<'a> {
    /// Current cycle.
    pub clock: u64,
    /// The reorder buffer (older in-flight instructions).
    pub rob: &'a Rob,
}

/// Interface implemented by speculation mechanisms (see module docs).
pub trait SpecEngine: std::fmt::Debug {
    /// Human-readable name of the engine configuration (for reports).
    fn name(&self) -> String;

    /// Reports a branch outcome observed by the front end, in fetch order.
    fn on_branch(&mut self, _pc: u64, _taken: bool) {}

    /// Decides the rename-time handling of `inst`.
    fn at_rename(&mut self, _inst: &DynInst, _ctx: &RenameContext<'_>) -> RenameAction {
        RenameAction::Normal
    }

    /// Notifies the engine that `inst` committed with the given
    /// disposition at cycle `clock`; predictors are trained here
    /// (commit-time training, as in the paper). The cycle is needed for
    /// commit-group sampling (Section IV-B3).
    fn at_commit(&mut self, _inst: &DynInst, _disposition: Disposition, _clock: u64) {}

    /// Notifies the engine that `preg` is back to at most one owner (a
    /// commit overwrote one of its mappings, or a squash removed one of its
    /// in-flight destinations), so it is no longer shared. Notification
    /// only: the core ignores the answer.
    fn release_register(&mut self, _preg: PhysReg) -> bool {
        true
    }

    /// Notifies the engine that all instructions with sequence number
    /// greater than or equal to `from_seq` were squashed. Notification
    /// only: the core ignores the returned registers.
    fn on_squash(&mut self, _from_seq: u64) -> Vec<PhysReg> {
        Vec::new()
    }

    /// The unified statistics of every predictor the engine drives,
    /// labelled by family name. The core appends these to
    /// [`SimStats::predictors`](crate::SimStats) alongside the front-end
    /// stack's own counters when statistics are finalised.
    fn predictor_stats(&self) -> Vec<(&'static str, PredictorStats)> {
        Vec::new()
    }
}

/// The baseline engine: no speculation, every instruction renames normally.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullEngine;

impl SpecEngine for NullEngine {
    fn name(&self) -> String {
        "baseline".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disposition_from_action() {
        assert_eq!(Disposition::from(RenameAction::Normal), Disposition::None);
        assert_eq!(Disposition::from(RenameAction::EliminateZeroIdiom), Disposition::ZeroIdiomElim);
        assert_eq!(Disposition::from(RenameAction::EliminateMove), Disposition::MoveElim);
        assert_eq!(
            Disposition::from(RenameAction::PredictZero { correct: true }),
            Disposition::ZeroPred { correct: true }
        );
        assert_eq!(
            Disposition::from(RenameAction::Share {
                provider_seq: 3,
                correct: false,
                validation: ValidationKind::AnyFu
            }),
            Disposition::DistPred { correct: false }
        );
        assert_eq!(
            Disposition::from(RenameAction::PredictValue { correct: true }),
            Disposition::ValuePred { correct: true }
        );
    }

    #[test]
    fn misprediction_classification() {
        assert!(Disposition::DistPred { correct: false }.is_misprediction());
        assert!(Disposition::ValuePred { correct: false }.is_misprediction());
        assert!(Disposition::ZeroPred { correct: false }.is_misprediction());
        assert!(!Disposition::DistPred { correct: true }.is_misprediction());
        assert!(!Disposition::MoveElim.is_misprediction());
        assert!(!Disposition::None.is_misprediction());
    }

    #[test]
    fn null_engine_renames_normally() {
        let mut engine = NullEngine;
        assert_eq!(engine.name(), "baseline");
        assert!(engine.release_register(rsep_isa::PhysReg::new(rsep_isa::RegClass::Int, 5)));
    }
}
