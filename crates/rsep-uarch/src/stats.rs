//! Simulation statistics.

use crate::cache::CacheStats;
use crate::engine::Disposition;
use rsep_predictors::PredictorStats;

/// Per-mechanism coverage counts (the quantities plotted in Figure 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageCounts {
    /// Zero idioms eliminated at Decode/Rename.
    pub zero_idiom_elim: u64,
    /// Moves eliminated at Rename.
    pub move_elim: u64,
    /// Non-load instructions zero predicted.
    pub zero_pred: u64,
    /// Loads zero predicted.
    pub load_zero_pred: u64,
    /// Non-load instructions distance predicted (RSEP).
    pub dist_pred: u64,
    /// Loads distance predicted (RSEP).
    pub load_dist_pred: u64,
    /// Non-load instructions value predicted.
    pub value_pred: u64,
    /// Loads value predicted.
    pub load_value_pred: u64,
}

impl CoverageCounts {
    /// Records a committed instruction's disposition.
    pub fn record(&mut self, disposition: Disposition, is_load: bool) {
        match disposition {
            Disposition::None => {}
            Disposition::ZeroIdiomElim => self.zero_idiom_elim += 1,
            Disposition::MoveElim => self.move_elim += 1,
            Disposition::ZeroPred { .. } => {
                if is_load {
                    self.load_zero_pred += 1;
                } else {
                    self.zero_pred += 1;
                }
            }
            Disposition::DistPred { .. } => {
                if is_load {
                    self.load_dist_pred += 1;
                } else {
                    self.dist_pred += 1;
                }
            }
            Disposition::ValuePred { .. } => {
                if is_load {
                    self.load_value_pred += 1;
                } else {
                    self.value_pred += 1;
                }
            }
        }
    }

    /// Instructions covered specifically by distance prediction.
    pub fn total_dist_pred(&self) -> u64 {
        self.dist_pred + self.load_dist_pred
    }

    /// Instructions covered specifically by value prediction.
    pub fn total_value_pred(&self) -> u64 {
        self.value_pred + self.load_value_pred
    }

    /// Accumulates another checkpoint's coverage counts into this one.
    pub fn merge(&mut self, other: &CoverageCounts) {
        let Self {
            zero_idiom_elim,
            move_elim,
            zero_pred,
            load_zero_pred,
            dist_pred,
            load_dist_pred,
            value_pred,
            load_value_pred,
        } = other;
        self.zero_idiom_elim += zero_idiom_elim;
        self.move_elim += move_elim;
        self.zero_pred += zero_pred;
        self.load_zero_pred += load_zero_pred;
        self.dist_pred += dist_pred;
        self.load_dist_pred += load_dist_pred;
        self.value_pred += value_pred;
        self.load_value_pred += load_value_pred;
    }
}

/// End-to-end statistics of one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Cycles simulated while measuring.
    pub cycles: u64,
    /// Instructions committed while measuring.
    pub committed: u64,
    /// Committed loads.
    pub committed_loads: u64,
    /// Committed stores.
    pub committed_stores: u64,
    /// Committed branches.
    pub committed_branches: u64,
    /// Branches the front end mispredicted.
    pub branch_mispredictions: u64,
    /// Pipeline squashes caused by value / equality / zero mispredictions
    /// detected at commit.
    pub prediction_squashes: u64,
    /// Correct speculative predictions committed (RSEP + VP + zero pred).
    pub correct_predictions: u64,
    /// Incorrect speculative predictions committed.
    pub incorrect_predictions: u64,
    /// Committed instructions eligible for prediction (register-producing,
    /// not move/zero-idiom — the denominator of the paper's coverage
    /// metric).
    pub eligible_instructions: u64,
    /// Cycles during which rename stalled for lack of a free physical
    /// register.
    pub prf_stall_cycles: u64,
    /// Cycles during which rename stalled because the ROB/IQ/LQ/SQ was
    /// full.
    pub queue_stall_cycles: u64,
    /// Watchdog recoveries: full pipeline flushes triggered after a long
    /// period without commit (safety net of the timing model; should be
    /// rare — each one costs a redirect penalty plus a refill).
    pub watchdog_flushes: u64,
    /// Validation µ-ops issued (second issue of RSEP-predicted
    /// instructions).
    pub validation_issues: u64,
    /// Extra cycles validation µ-ops waited for an issue port.
    pub validation_port_conflicts: u64,
    /// Loads served by store-to-load forwarding from the youngest older
    /// same-address in-flight store.
    pub stlf_forwards: u64,
    /// Per-mechanism coverage (Figure 5).
    pub coverage: CoverageCounts,
    /// Cache statistics at the end of the run, per level.
    pub cache: Vec<(&'static str, CacheStats)>,
    /// Unified per-predictor statistics at the end of the run, labelled by
    /// family name (front-end stack first, then the speculation engine's
    /// predictors), merged across checkpoints with
    /// [`PredictorStats::merge`].
    pub predictors: Vec<(&'static str, PredictorStats)>,
    /// Sum of ROB occupancy sampled every cycle (for averaging).
    pub rob_occupancy_sum: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch mispredictions per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.branch_mispredictions as f64 * 1000.0 / self.committed as f64
        }
    }

    /// Fraction of *eligible* instructions covered by speculative
    /// prediction (the 28.5% average coverage metric of Section VI-B).
    pub fn eligible_coverage_fraction(&self) -> f64 {
        if self.eligible_instructions == 0 {
            0.0
        } else {
            (self.coverage.total_dist_pred()
                + self.coverage.total_value_pred()
                + self.coverage.zero_pred
                + self.coverage.load_zero_pred) as f64
                / self.eligible_instructions as f64
        }
    }

    /// Prediction accuracy over committed speculative predictions (the
    /// >99.5% figure of Section VI-B).
    pub fn prediction_accuracy(&self) -> f64 {
        let total = self.correct_predictions + self.incorrect_predictions;
        if total == 0 {
            1.0
        } else {
            self.correct_predictions as f64 / total as f64
        }
    }

    /// Average ROB occupancy.
    pub fn avg_rob_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rob_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Accumulates another run's statistics into this one (used to merge
    /// per-checkpoint results; the merge is order-independent, which the
    /// campaign engine relies on for thread-count-invariant results).
    pub fn merge(&mut self, other: &SimStats) {
        let Self {
            cycles,
            committed,
            committed_loads,
            committed_stores,
            committed_branches,
            branch_mispredictions,
            prediction_squashes,
            correct_predictions,
            incorrect_predictions,
            eligible_instructions,
            prf_stall_cycles,
            queue_stall_cycles,
            watchdog_flushes,
            validation_issues,
            validation_port_conflicts,
            stlf_forwards,
            coverage,
            rob_occupancy_sum,
            cache,
            predictors,
        } = other;
        self.cycles += cycles;
        self.committed += committed;
        self.committed_loads += committed_loads;
        self.committed_stores += committed_stores;
        self.committed_branches += committed_branches;
        self.branch_mispredictions += branch_mispredictions;
        self.prediction_squashes += prediction_squashes;
        self.correct_predictions += correct_predictions;
        self.incorrect_predictions += incorrect_predictions;
        self.eligible_instructions += eligible_instructions;
        self.prf_stall_cycles += prf_stall_cycles;
        self.queue_stall_cycles += queue_stall_cycles;
        self.watchdog_flushes += watchdog_flushes;
        self.validation_issues += validation_issues;
        self.validation_port_conflicts += validation_port_conflicts;
        self.stlf_forwards += stlf_forwards;
        self.coverage.merge(coverage);
        self.rob_occupancy_sum += rob_occupancy_sum;
        for (level, stats) in cache {
            match self.cache.iter_mut().find(|(name, _)| name == level) {
                Some((_, mine)) => mine.merge(stats),
                None => self.cache.push((level, *stats)),
            }
        }
        for (family, stats) in predictors {
            match self.predictors.iter_mut().find(|(name, _)| name == family) {
                Some((_, mine)) => mine.merge(stats),
                None => self.predictors.push((family, *stats)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_mpki() {
        let stats = SimStats {
            cycles: 1000,
            committed: 2000,
            branch_mispredictions: 10,
            ..SimStats::default()
        };
        assert!((stats.ipc() - 2.0).abs() < 1e-12);
        assert!((stats.branch_mpki() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let stats = SimStats::default();
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.branch_mpki(), 0.0);
        assert_eq!(stats.eligible_coverage_fraction(), 0.0);
        assert_eq!(stats.prediction_accuracy(), 1.0);
        assert_eq!(stats.avg_rob_occupancy(), 0.0);
    }

    #[test]
    fn coverage_records_by_category() {
        let mut c = CoverageCounts::default();
        c.record(Disposition::DistPred { correct: true }, true);
        c.record(Disposition::DistPred { correct: true }, false);
        c.record(Disposition::ValuePred { correct: true }, false);
        c.record(Disposition::ZeroIdiomElim, false);
        c.record(Disposition::MoveElim, false);
        c.record(Disposition::ZeroPred { correct: true }, true);
        c.record(Disposition::None, false);
        assert_eq!(c.load_dist_pred, 1);
        assert_eq!(c.dist_pred, 1);
        assert_eq!(c.value_pred, 1);
        assert_eq!(c.zero_idiom_elim, 1);
        assert_eq!(c.move_elim, 1);
        assert_eq!(c.load_zero_pred, 1);
        assert_eq!(c.total_dist_pred(), 2);
        assert_eq!(c.total_value_pred(), 1);
    }

    #[test]
    fn accuracy_computation() {
        let stats =
            SimStats { correct_predictions: 995, incorrect_predictions: 5, ..SimStats::default() };
        assert!((stats.prediction_accuracy() - 0.995).abs() < 1e-12);
    }
}
