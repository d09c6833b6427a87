//! Zero predictor (Section III of the paper).
//!
//! Zero-idiom elimination only covers instructions that *provably* write
//! zero. The zero predictor goes further: it speculates that a static
//! instruction's result is zero based on its history, renaming the
//! destination onto the hardwired zero register. The instruction still
//! executes to validate the prediction, but register sharing is trivial
//! (the zero register is never allocated or freed).
//!
//! The table is a flat array of raw confidence bytes (PC-indexed,
//! untagged) updated through the table-wide [`ConfidenceParams`].

use crate::counters::{ConfidenceParams, Lfsr};
use crate::history::GlobalHistory;
use crate::predictor::PredictorStats;

/// Configuration of the zero predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroPredictorConfig {
    /// log2 of the number of entries (PC-indexed, untagged).
    pub entries_log2: u8,
    /// Confidence counter width in bits.
    pub confidence_bits: u8,
    /// Probabilistic increment denominator.
    pub confidence_denominator: u32,
}

impl ZeroPredictorConfig {
    /// Default configuration: 4K entries of 3-bit probabilistic counters
    /// (1.5 KB).
    pub fn default_config() -> ZeroPredictorConfig {
        ZeroPredictorConfig { entries_log2: 12, confidence_bits: 3, confidence_denominator: 36 }
    }

    /// Storage in bits.
    pub fn storage_bits(&self) -> u64 {
        (1u64 << self.entries_log2) * u64::from(self.confidence_bits)
    }
}

impl Default for ZeroPredictorConfig {
    fn default() -> Self {
        ZeroPredictorConfig::default_config()
    }
}

impl rsep_isa::Fingerprint for ZeroPredictorConfig {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self { entries_log2, confidence_bits, confidence_denominator } = self;
        h.write_str("ZeroPredictorConfig");
        entries_log2.fingerprint(h);
        confidence_bits.fingerprint(h);
        confidence_denominator.fingerprint(h);
    }
}

/// A zero prediction: returned (as `Some`) only when the confidence
/// counter of the instruction's entry is saturated, i.e. when the
/// prediction is strong enough to rename onto the zero register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroPrediction {
    /// Raw confidence of the entry (always the saturation value).
    pub confidence: u8,
}

/// PC-indexed zero predictor.
#[derive(Debug)]
pub struct ZeroPredictor {
    config: ZeroPredictorConfig,
    conf: ConfidenceParams,
    /// Raw confidence counters, one byte per entry.
    table: Box<[u8]>,
    lfsr: Lfsr,
    stats: PredictorStats,
}

impl ZeroPredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: ZeroPredictorConfig) -> ZeroPredictor {
        let conf = ConfidenceParams::new(config.confidence_bits, config.confidence_denominator);
        ZeroPredictor {
            config,
            conf,
            table: vec![0u8; 1 << config.entries_log2].into_boxed_slice(),
            lfsr: Lfsr::new(0x02e0_5eed),
            stats: PredictorStats::default(),
        }
    }

    /// Creates a predictor with the default configuration.
    pub fn default_config() -> ZeroPredictor {
        ZeroPredictor::new(ZeroPredictorConfig::default_config())
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << self.config.entries_log2) - 1)
    }

    /// Short family name, used to label statistics and storage reports.
    pub fn name(&self) -> &'static str {
        "zero"
    }

    /// Returns `Some` iff the instruction at `pc` should be predicted to
    /// produce zero (the entry's counter is saturated). The global history
    /// is unused: the table is PC-indexed.
    pub fn predict(&mut self, pc: u64, _history: &GlobalHistory) -> Option<ZeroPrediction> {
        self.stats.lookups += 1;
        let value = self.table[self.index(pc)];
        if self.conf.is_saturated(value) {
            self.stats.used += 1;
            Some(ZeroPrediction { confidence: value })
        } else {
            None
        }
    }

    /// Trains the predictor with the committed result of the instruction at
    /// `pc`.
    pub fn train(&mut self, pc: u64, result_was_zero: bool, _history: &GlobalHistory) {
        let idx = self.index(pc);
        if result_was_zero {
            self.stats.correct += 1;
            self.conf.record_correct(&mut self.table[idx], &mut self.lfsr);
        } else {
            self.stats.incorrect += 1;
            self.conf.record_incorrect(&mut self.table[idx]);
        }
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Total storage cost in bits (the paper's comparison metric).
    pub fn storage_bits(&self) -> u64 {
        self.config.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> GlobalHistory {
        GlobalHistory::new()
    }

    #[test]
    fn storage_is_small() {
        let cfg = ZeroPredictorConfig::default_config();
        assert_eq!(cfg.storage_bits(), 4096 * 3);
        assert_eq!(ZeroPredictor::default_config().storage_bits(), 4096 * 3);
    }

    #[test]
    fn always_zero_instructions_become_predicted() {
        let mut p = ZeroPredictor::default_config();
        let pc = 0x40_0000;
        let mut predicted = 0;
        for _ in 0..20_000 {
            if p.predict(pc, &hist()).is_some() {
                predicted += 1;
            }
            p.train(pc, true, &hist());
        }
        assert!(predicted > 5_000, "always-zero instruction never became predicted");
    }

    #[test]
    fn occasionally_nonzero_instructions_are_not_predicted() {
        let mut p = ZeroPredictor::default_config();
        let pc = 0x40_0040;
        let mut predicted = 0;
        for i in 0..20_000 {
            if p.predict(pc, &hist()).is_some() {
                predicted += 1;
            }
            // Non-zero once every 16 instances: the counter keeps resetting
            // before it can express high confidence for long.
            p.train(pc, i % 16 != 0, &hist());
        }
        assert!(predicted < 2_000, "unstable zero behaviour predicted too often ({predicted})");
    }

    #[test]
    fn distinct_pcs_do_not_interfere_when_not_aliased() {
        let mut p = ZeroPredictor::default_config();
        for _ in 0..20_000 {
            p.train(0x40_0000, true, &hist());
            p.train(0x40_0004, false, &hist());
        }
        assert!(p.predict(0x40_0000, &hist()).is_some());
        assert!(p.predict(0x40_0004, &hist()).is_none());
    }

    #[test]
    fn stats_are_collected() {
        let mut p = ZeroPredictor::default_config();
        p.train(0x10, true, &hist());
        p.train(0x10, false, &hist());
        let _ = p.predict(0x10, &hist());
        let s = p.stats();
        assert_eq!(s.correct, 1);
        assert_eq!(s.incorrect, 1);
        assert_eq!(s.lookups, 1);
    }
}
