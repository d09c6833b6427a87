//! The unified predictor API.
//!
//! Every predictor family of the reproduction — TAGE (branch direction),
//! the TAGE-like instruction-distance predictor, D-VTAGE (values), the
//! zero predictor and the BTB (branch targets) — implements one trait,
//! [`Predictor`], so the rest of the workspace can train, interrogate,
//! fingerprint and *cost* them uniformly:
//!
//! * `predict` / `train` — the two halves of every prediction loop. The
//!   lookup key is always a PC plus the [`GlobalHistory`]; families that
//!   ignore the history (zero predictor, BTB) simply don't read it.
//!   `predict` takes `&mut self` everywhere (it maintains statistics), so
//!   the old `predict(&self)` vs `predict(&mut self)` split is gone.
//! * `on_history_update` — TAGE-style predictors maintain folded history
//!   images that must advance once per pushed branch outcome.
//! * `on_squash` — a pipeline squash rolls back nothing here (all five
//!   families train at commit, which is never speculative), but the hook
//!   is part of the contract so engines can notify the whole stack
//!   uniformly.
//! * `storage_bits` — the storage budget argument of the paper (10.1 KB
//!   distance predictor vs ≈256 KB D-VTAGE) computed from one method per
//!   family; `rsep run --storage` renders the comparison from these.
//! * `fingerprint` — the content-addressed identity of the configuration,
//!   used by the campaign result stores.
//!
//! Statistics are unified too: every family reports the same
//! [`PredictorStats`] (lookups / used predictions / correct / incorrect
//! trainings) with one [`PredictorStats::merge`], which is what
//! `SimStats` aggregates across checkpoints.

use crate::history::GlobalHistory;
use rsep_isa::Fingerprint;

/// Outcome statistics shared by every predictor family.
///
/// The per-family structs this replaces (`TageStats`, `DvtageStats`,
/// `DistancePredictorStats`, `ZeroPredictorStats`) all counted the same
/// four things under different names; this is the one shape behind the
/// [`Predictor::stats`] associated type, merged across checkpoints by
/// `SimStats` with [`PredictorStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Prediction lookups performed.
    pub lookups: u64,
    /// Lookups whose prediction was confident enough to be *used* (for
    /// TAGE and the BTB, which always answer, this counts every hit).
    pub used: u64,
    /// Training updates that confirmed the stored prediction.
    pub correct: u64,
    /// Training updates that contradicted the stored prediction.
    pub incorrect: u64,
}

impl PredictorStats {
    /// Accumulates another run's counters into this one (order-independent,
    /// which the campaign engine relies on for thread-count-invariant
    /// results).
    pub fn merge(&mut self, other: &PredictorStats) {
        let Self { lookups, used, correct, incorrect } = other;
        self.lookups += lookups;
        self.used += used;
        self.correct += correct;
        self.incorrect += incorrect;
    }

    /// The counters accumulated since `baseline` was captured (counters
    /// are monotonic, so plain subtraction yields the window between two
    /// snapshots — how the core separates warm-up from measurement).
    pub fn since(&self, baseline: &PredictorStats) -> PredictorStats {
        PredictorStats {
            lookups: self.lookups - baseline.lookups,
            used: self.used - baseline.used,
            correct: self.correct - baseline.correct,
            incorrect: self.incorrect - baseline.incorrect,
        }
    }

    /// Fraction of trainings that confirmed the prediction.
    pub fn accuracy(&self) -> f64 {
        let total = self.correct + self.incorrect;
        if total == 0 {
            1.0
        } else {
            self.correct as f64 / total as f64
        }
    }

    /// Incorrect trainings per kilo-instruction (for TAGE this is branch
    /// MPKI).
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.incorrect as f64 * 1000.0 / instructions as f64
        }
    }
}

/// The unified predictor interface (see the module docs).
pub trait Predictor {
    /// Configuration type; fingerprintable so campaign cells that embed
    /// this predictor are content-addressed.
    type Config: Fingerprint + Clone + std::fmt::Debug;
    /// What a successful lookup returns.
    type Prediction;
    /// What commit-time training consumes (the observed truth).
    type Outcome;
    /// Statistics type — [`PredictorStats`] for every in-tree family.
    type Stats;

    /// Short family name, used to label statistics and storage reports.
    fn name(&self) -> &'static str;

    /// Looks up a prediction for the instruction at `pc`. `None` means the
    /// predictor holds nothing for this instruction.
    fn predict(&mut self, pc: u64, history: &GlobalHistory) -> Option<Self::Prediction>;

    /// Trains the predictor with the observed outcome for `pc`.
    fn train(&mut self, pc: u64, outcome: Self::Outcome, history: &GlobalHistory);

    /// Advances folded history images after [`GlobalHistory::push`].
    /// Families that do not fold history ignore it.
    fn on_history_update(&mut self, _history: &GlobalHistory) {}

    /// Notifies the predictor that instructions with sequence number
    /// `>= from_seq` were squashed. All in-tree families train at commit
    /// (never speculatively), so the default is a no-op — but the hook
    /// keeps the engine's squash broadcast uniform.
    fn on_squash(&mut self, _from_seq: u64) {}

    /// The configuration in use.
    fn config(&self) -> &Self::Config;

    /// Statistics collected so far.
    fn stats(&self) -> Self::Stats;

    /// Total storage cost in bits (the paper's comparison metric).
    fn storage_bits(&self) -> u64;

    /// Content-addressed identity of the configuration.
    fn fingerprint(&self) -> u64 {
        self.config().fingerprint_value()
    }
}

/// Branch-direction predictors (TAGE).
pub trait BranchPredictor: Predictor {
    /// Convenience: the predicted direction alone.
    fn predict_taken(&mut self, pc: u64, history: &GlobalHistory) -> bool;
}

/// Confidence-gated predictors whose prediction is only *used* once a
/// probabilistic confidence counter saturates (D-VTAGE, the zero
/// predictor) — the >99.5%-accuracy regime of Section VI-B.
pub trait ValuePredictor<P>: Predictor<Prediction = P> {
    /// Returns `true` when the prediction is confident enough to act on.
    fn usable(prediction: &P) -> bool;
}

/// Instruction-distance predictors (the RSEP predictor of Section IV-C):
/// predictions are distances back to an in-flight provider, clamped to the
/// representable range.
pub trait IDistPredictor: Predictor {
    /// Largest representable distance (ROB-bounded).
    fn max_distance(&self) -> u32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_accumulates_every_counter() {
        let mut a = PredictorStats { lookups: 1, used: 2, correct: 3, incorrect: 4 };
        let b = PredictorStats { lookups: 10, used: 20, correct: 30, incorrect: 40 };
        a.merge(&b);
        assert_eq!(a, PredictorStats { lookups: 11, used: 22, correct: 33, incorrect: 44 });
    }

    #[test]
    fn since_subtracts_a_snapshot() {
        let early = PredictorStats { lookups: 5, used: 2, correct: 3, incorrect: 1 };
        let late = PredictorStats { lookups: 50, used: 20, correct: 30, incorrect: 10 };
        assert_eq!(
            late.since(&early),
            PredictorStats { lookups: 45, used: 18, correct: 27, incorrect: 9 }
        );
        assert_eq!(late.since(&PredictorStats::default()), late);
    }

    #[test]
    fn accuracy_and_mpki() {
        let s = PredictorStats { lookups: 0, used: 0, correct: 995, incorrect: 5 };
        assert!((s.accuracy() - 0.995).abs() < 1e-12);
        assert!((s.mpki(1000) - 5.0).abs() < 1e-12);
        assert_eq!(PredictorStats::default().accuracy(), 1.0);
        assert_eq!(PredictorStats::default().mpki(0), 0.0);
    }
}
