//! Statistics shared by every predictor family.
//!
//! The five families — TAGE (branch direction), the TAGE-like
//! instruction-distance predictor, D-VTAGE (values), the zero predictor
//! and the BTB (branch targets) — share one method shape, each inherent on
//! its type:
//!
//! * `predict` / `train` — the two halves of every prediction loop. The
//!   lookup key is always a PC plus the [`GlobalHistory`](crate::GlobalHistory);
//!   families that ignore the history (zero predictor, BTB) simply don't
//!   read it. All five train at commit, which is never speculative, so a
//!   pipeline squash has nothing to roll back.
//! * `on_history_update` — TAGE-style predictors maintain folded history
//!   images that must advance once per pushed branch outcome.
//! * `storage_bits` — the storage budget argument of the paper (10.1 KB
//!   distance predictor vs ≈256 KB D-VTAGE); `rsep run --storage` renders
//!   the comparison from the configurations' `storage_bits`.
//! * `stats` — the same [`PredictorStats`] (lookups / used predictions /
//!   correct / incorrect trainings) with one [`PredictorStats::merge`],
//!   which is what `SimStats` aggregates across checkpoints.

/// Outcome statistics shared by every predictor family.
///
/// The per-family structs this replaces (`TageStats`, `DvtageStats`,
/// `DistancePredictorStats`, `ZeroPredictorStats`) all counted the same
/// four things under different names; this is the one shape every
/// family's `stats()` returns, merged across checkpoints by `SimStats`
/// with [`PredictorStats::merge`].
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
