//! D-VTAGE value predictor (Perais & Seznec, HPCA 2015 — reference \[6\]).
//!
//! D-VTAGE is the state-of-the-art value predictor the paper compares RSEP
//! against. It combines a last-value table (the base component) with
//! TAGE-like tagged components that store *strides* relative to the last
//! value, indexed by PC and global branch history. The paper's VP
//! configuration uses "the parameters given in \[6\] (amounting to a roughly
//! 256KB D-VTAGE predictor)".
//!
//! As in the paper's VP baseline, validation happens at commit and a
//! misprediction squashes the whole pipeline, so predictions are only used
//! when a probabilistic confidence counter is saturated.
//!
//! Storage is flat packed arrays: each tagged entry's tag, confidence,
//! valid and useful bits share one word (`comp << tagged_log2 | idx`), so
//! the provider walk touches a single cache line per component; the
//! 64-bit strides live in a parallel array read only on a tag match. The
//! confidence counters are raw bit fields updated through the table-wide
//! [`ConfidenceParams`] — bit-for-bit the former per-entry counters.

use crate::counters::{ConfidenceParams, Lfsr};
use crate::history::{FoldStateSoa, GlobalHistory};
use crate::predictor::{Predictor, PredictorStats, ValuePredictor};

/// Configuration of a D-VTAGE value predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct DvtageConfig {
    /// log2 of the number of entries of the base (last value + stride)
    /// component.
    pub base_log2: u8,
    /// log2 of the number of entries of each tagged component.
    pub tagged_log2: u8,
    /// Number of tagged components.
    pub num_tagged: usize,
    /// Tag width per tagged component.
    pub tag_bits: Vec<u8>,
    /// Shortest and longest history lengths.
    pub min_history: usize,
    /// Longest history length.
    pub max_history: usize,
    /// Stride width in bits (strides are stored as small signed deltas).
    pub stride_bits: u8,
    /// Confidence counter width. At most 6 bits: the confidence shares a
    /// packed metadata word with the valid/useful flags (the per-entry
    /// counters this replaced accepted up to 7; the paper uses 3).
    pub confidence_bits: u8,
    /// Probabilistic increment denominator.
    pub confidence_denominator: u32,
}

impl DvtageConfig {
    /// The ≈256 KB configuration used by the paper for its VP baseline:
    /// a 16K-entry base holding full 64-bit last values plus six 2K-entry
    /// tagged stride components.
    pub fn paper_256kb() -> DvtageConfig {
        DvtageConfig {
            base_log2: 14,
            tagged_log2: 11,
            num_tagged: 6,
            tag_bits: vec![12, 12, 13, 13, 14, 14],
            min_history: 2,
            max_history: 64,
            stride_bits: 32,
            confidence_bits: 3,
            confidence_denominator: 36,
        }
    }

    /// Geometric history length of tagged component `i`.
    pub fn history_length(&self, i: usize) -> usize {
        if self.num_tagged <= 1 {
            return self.min_history;
        }
        let ratio = (self.max_history as f64 / self.min_history as f64)
            .powf(1.0 / (self.num_tagged as f64 - 1.0));
        ((self.min_history as f64) * ratio.powi(i as i32)).round() as usize
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        // Base: 64-bit last value + stride + confidence.
        let base_entry = 64 + u64::from(self.stride_bits) + u64::from(self.confidence_bits);
        let base = (1u64 << self.base_log2) * base_entry;
        let mut tagged = 0u64;
        for i in 0..self.num_tagged {
            let per_entry = u64::from(self.stride_bits)
                + u64::from(self.confidence_bits)
                + 1
                + u64::from(self.tag_bits[i]);
            tagged += (1u64 << self.tagged_log2) * per_entry;
        }
        base + tagged
    }

    /// Total storage in kilobytes.
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8.0 / 1024.0
    }
}

impl rsep_isa::Fingerprint for DvtageConfig {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self {
            base_log2,
            tagged_log2,
            num_tagged,
            tag_bits,
            min_history,
            max_history,
            stride_bits,
            confidence_bits,
            confidence_denominator,
        } = self;
        h.write_str("DvtageConfig");
        base_log2.fingerprint(h);
        tagged_log2.fingerprint(h);
        num_tagged.fingerprint(h);
        tag_bits.fingerprint(h);
        min_history.fingerprint(h);
        max_history.fingerprint(h);
        stride_bits.fingerprint(h);
        confidence_bits.fingerprint(h);
        confidence_denominator.fingerprint(h);
    }
}

/// Valid flag of a packed base metadata byte.
const VALID: u8 = 1 << 7;
/// Confidence mask of a packed base metadata byte: the low 6 bits.
const CONF_MASK: u8 = (1 << 6) - 1;

/// Packed tagged-entry word: tag in bits 0..32, raw confidence in bits
/// 32..38, valid in bit 38, useful in bit 39.
const T_CONF_SHIFT: u32 = 32;
const T_VALID: u64 = 1 << 38;
const T_USEFUL: u64 = 1 << 39;

#[inline]
fn t_tag(entry: u64) -> u32 {
    entry as u32
}

#[inline]
fn t_conf(entry: u64) -> u8 {
    ((entry >> T_CONF_SHIFT) & 0x3f) as u8
}

#[inline]
fn t_pack(tag: u32, conf: u8, valid: bool, useful: bool) -> u64 {
    u64::from(tag)
        | ((u64::from(conf) & 0x3f) << T_CONF_SHIFT)
        | if valid { T_VALID } else { 0 }
        | if useful { T_USEFUL } else { 0 }
}

/// A value prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValuePrediction {
    /// Predicted 64-bit result.
    pub value: u64,
    /// Raw confidence of the providing entry.
    pub confidence: u8,
    /// Saturation point of the confidence counter.
    pub confidence_max: u8,
}

impl ValuePrediction {
    /// Returns `true` when the prediction is confident enough to be used.
    pub fn usable(&self) -> bool {
        self.confidence == self.confidence_max
    }
}

/// D-VTAGE value predictor.
#[derive(Debug)]
pub struct Dvtage {
    config: DvtageConfig,
    conf: ConfidenceParams,
    /// Base-component last values.
    base_value: Box<[u64]>,
    /// Base-component fallback strides.
    base_stride: Box<[i64]>,
    /// Base-component packed valid/confidence bytes.
    base_meta: Box<[u8]>,
    /// Packed tagged entries (tag | confidence | valid | useful), one word
    /// per entry, `comp << tagged_log2 | idx`.
    tagged: Box<[u64]>,
    /// Tagged-component strides, same indexing (read only on a tag match).
    strides: Box<[i64]>,
    /// Folded histories as one SoA family, role-major: lanes
    /// `0..num_tagged` index folds, `num_tagged..2*num_tagged` tag folds.
    folds: FoldStateSoa,
    lfsr: Lfsr,
    stats: PredictorStats,
}

impl Dvtage {
    /// Creates a predictor with the given configuration.
    pub fn new(config: DvtageConfig) -> Dvtage {
        assert_eq!(config.tag_bits.len(), config.num_tagged, "one tag width per component");
        assert!(
            config.confidence_bits <= 6,
            "confidence must fit the packed metadata byte (6 bits)"
        );
        let conf = ConfidenceParams::new(config.confidence_bits, config.confidence_denominator);
        let base_entries = 1usize << config.base_log2;
        let tagged_entries = config.num_tagged << config.tagged_log2;
        let mut geometry = Vec::with_capacity(2 * config.num_tagged);
        geometry.extend(
            (0..config.num_tagged).map(|i| (config.history_length(i), config.tagged_log2 as usize)),
        );
        geometry.extend(
            (0..config.num_tagged).map(|i| (config.history_length(i), config.tag_bits[i] as usize)),
        );
        Dvtage {
            folds: FoldStateSoa::new(&geometry),
            config,
            conf,
            base_value: vec![0u64; base_entries].into_boxed_slice(),
            base_stride: vec![0i64; base_entries].into_boxed_slice(),
            base_meta: vec![0u8; base_entries].into_boxed_slice(),
            tagged: vec![0u64; tagged_entries].into_boxed_slice(),
            strides: vec![0i64; tagged_entries].into_boxed_slice(),
            lfsr: Lfsr::new(0xc0ff_ee15_600d),
            stats: PredictorStats::default(),
        }
    }

    /// Creates the paper's ≈256 KB baseline predictor.
    pub fn paper_256kb() -> Dvtage {
        Dvtage::new(DvtageConfig::paper_256kb())
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << self.config.base_log2) - 1)
    }

    /// Flat index of entry `idx` of tagged component `comp`.
    #[inline]
    fn flat(&self, comp: usize, idx: usize) -> usize {
        (comp << self.config.tagged_log2) | idx
    }

    fn tagged_index(&self, pc: u64, comp: usize, history: &GlobalHistory) -> usize {
        let mask = (1usize << self.config.tagged_log2) - 1;
        let pc = pc >> 2;
        let h = self.folds.value(comp);
        ((pc ^ (pc >> self.config.tagged_log2 as u64) ^ h ^ history.path(4) ^ (comp as u64) << 3)
            as usize)
            & mask
    }

    fn tag(&self, pc: u64, comp: usize) -> u32 {
        let mask = (1u64 << self.config.tag_bits[comp]) - 1;
        ((pc >> 2) ^ ((pc >> 2) >> 9) ^ self.folds.value(self.config.num_tagged + comp)) as u32
            & mask as u32
    }

    fn clamp_stride(stride: i64, bits: u8) -> i64 {
        let max = (1i64 << (bits - 1)) - 1;
        stride.clamp(-max - 1, max)
    }

    fn allocate(&mut self, pc: u64, stride: i64, from_comp: usize, history: &GlobalHistory) {
        for comp in from_comp..self.config.num_tagged {
            let idx = self.tagged_index(pc, comp, history);
            let tag = self.tag(pc, comp);
            let flat = self.flat(comp, idx);
            if self.tagged[flat] & T_USEFUL == 0 {
                self.strides[flat] = stride;
                let mut conf = t_conf(self.tagged[flat]);
                self.conf.record_incorrect(&mut conf);
                self.tagged[flat] = t_pack(tag, conf, true, false);
                return;
            }
        }
        if self.lfsr.one_in(8) {
            for comp in from_comp..self.config.num_tagged {
                let idx = self.tagged_index(pc, comp, history);
                let flat = self.flat(comp, idx);
                self.tagged[flat] &= !T_USEFUL;
            }
        }
    }
}

impl Predictor for Dvtage {
    type Config = DvtageConfig;
    type Prediction = ValuePrediction;
    /// The committed 64-bit result.
    type Outcome = u64;
    type Stats = PredictorStats;

    fn name(&self) -> &'static str {
        "dvtage"
    }

    /// Looks up a value prediction for the instruction at `pc`.
    fn predict(&mut self, pc: u64, history: &GlobalHistory) -> Option<ValuePrediction> {
        self.stats.lookups += 1;
        let base_idx = self.base_index(pc);
        if self.base_meta[base_idx] & VALID == 0 {
            return None;
        }
        // Longest matching tagged component provides the stride; the base
        // provides the last value (and a fallback stride).
        let mut stride = self.base_stride[base_idx];
        let mut confidence = self.base_meta[base_idx] & CONF_MASK;
        for comp in (0..self.config.num_tagged).rev() {
            let idx = self.tagged_index(pc, comp, history);
            let flat = self.flat(comp, idx);
            let entry = self.tagged[flat];
            if entry & T_VALID != 0 && t_tag(entry) == self.tag(pc, comp) {
                stride = self.strides[flat];
                confidence = t_conf(entry);
                break;
            }
        }
        let prediction = ValuePrediction {
            value: self.base_value[base_idx].wrapping_add_signed(stride),
            confidence,
            confidence_max: self.conf.max(),
        };
        if prediction.usable() {
            self.stats.used += 1;
        }
        Some(prediction)
    }

    /// Trains the predictor with the committed result of the instruction at
    /// `pc`.
    fn train(&mut self, pc: u64, actual: u64, history: &GlobalHistory) {
        let base_idx = self.base_index(pc);
        let predicted = if self.base_meta[base_idx] & VALID != 0 {
            let mut stride = self.base_stride[base_idx];
            let mut provider: Option<(usize, usize)> = None;
            for comp in (0..self.config.num_tagged).rev() {
                let idx = self.tagged_index(pc, comp, history);
                let flat = self.flat(comp, idx);
                let entry = self.tagged[flat];
                if entry & T_VALID != 0 && t_tag(entry) == self.tag(pc, comp) {
                    stride = self.strides[flat];
                    provider = Some((comp, idx));
                    break;
                }
            }
            Some((self.base_value[base_idx].wrapping_add_signed(stride), provider))
        } else {
            None
        };

        match predicted {
            Some((value, provider)) => {
                let correct = value == actual;
                if correct {
                    self.stats.correct += 1;
                } else {
                    self.stats.incorrect += 1;
                }
                let observed_stride = actual.wrapping_sub(self.base_value[base_idx]) as i64;
                let clamped = Self::clamp_stride(observed_stride, self.config.stride_bits);
                match provider {
                    Some((comp, idx)) => {
                        let flat = self.flat(comp, idx);
                        let entry = self.tagged[flat];
                        let mut conf = t_conf(entry);
                        if correct {
                            self.conf.record_correct(&mut conf, &mut self.lfsr);
                            self.tagged[flat] =
                                t_pack(t_tag(entry), conf, entry & T_VALID != 0, true);
                        } else {
                            let mut useful = entry & T_USEFUL != 0;
                            if conf == 0 {
                                self.strides[flat] = clamped;
                                useful = false;
                            }
                            self.conf.record_incorrect(&mut conf);
                            self.tagged[flat] =
                                t_pack(t_tag(entry), conf, entry & T_VALID != 0, useful);
                            self.allocate(pc, clamped, comp + 1, history);
                        }
                    }
                    None => {
                        let mut conf = self.base_meta[base_idx] & CONF_MASK;
                        if correct {
                            self.conf.record_correct(&mut conf, &mut self.lfsr);
                            self.base_meta[base_idx] = VALID | conf;
                        } else {
                            if conf == 0 {
                                self.base_stride[base_idx] = clamped;
                            }
                            self.conf.record_incorrect(&mut conf);
                            self.base_meta[base_idx] = VALID | conf;
                            self.allocate(pc, clamped, 0, history);
                        }
                    }
                }
                self.base_value[base_idx] = actual;
            }
            None => {
                self.base_value[base_idx] = actual;
                self.base_stride[base_idx] = 0;
                let mut conf = self.base_meta[base_idx] & CONF_MASK;
                self.conf.record_incorrect(&mut conf);
                self.base_meta[base_idx] = VALID | conf;
            }
        }
    }

    /// Advances the folded histories after a branch outcome was pushed.
    fn on_history_update(&mut self, history: &GlobalHistory) {
        self.folds.advance(history);
    }

    fn config(&self) -> &DvtageConfig {
        &self.config
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }

    fn storage_bits(&self) -> u64 {
        self.config.storage_bits()
    }
}

impl ValuePredictor<ValuePrediction> for Dvtage {
    fn usable(prediction: &ValuePrediction) -> bool {
        prediction.usable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_packing_round_trips() {
        for tag in [0u32, 1, u32::MAX] {
            for conf in [0u8, 1, 0x3f, 0x40, u8::MAX] {
                for valid in [false, true] {
                    for useful in [false, true] {
                        let packed = t_pack(tag, conf, valid, useful);
                        assert_eq!(t_tag(packed), tag);
                        assert_eq!(t_conf(packed), conf & 0x3f);
                        assert_eq!(packed & T_VALID != 0, valid);
                        assert_eq!(packed & T_USEFUL != 0, useful);
                    }
                }
            }
        }
    }

    #[test]
    fn storage_is_roughly_256kb() {
        let kb = DvtageConfig::paper_256kb().storage_kb();
        assert!((200.0..320.0).contains(&kb), "D-VTAGE storage {kb:.1} KB");
    }

    #[test]
    fn constant_values_become_predictable() {
        let mut p = Dvtage::paper_256kb();
        let hist = GlobalHistory::new();
        let pc = 0x40_0100;
        let mut usable_and_correct = 0;
        for _ in 0..20_000 {
            if let Some(pred) = p.predict(pc, &hist) {
                if pred.usable() && pred.value == 0x1234 {
                    usable_and_correct += 1;
                }
            }
            p.train(pc, 0x1234, &hist);
        }
        assert!(usable_and_correct > 1_000, "constant never became predictable");
    }

    #[test]
    fn strided_values_become_predictable() {
        let mut p = Dvtage::paper_256kb();
        let hist = GlobalHistory::new();
        let pc = 0x40_0200;
        let mut value = 1000u64;
        let mut correct_usable = 0;
        let mut wrong_usable = 0;
        for _ in 0..30_000 {
            if let Some(pred) = p.predict(pc, &hist) {
                if pred.usable() {
                    if pred.value == value {
                        correct_usable += 1;
                    } else {
                        wrong_usable += 1;
                    }
                }
            }
            p.train(pc, value, &hist);
            value = value.wrapping_add(8);
        }
        assert!(correct_usable > 1_000, "stride never learned ({correct_usable})");
        assert!(
            wrong_usable < correct_usable / 20,
            "too many wrong usable predictions ({wrong_usable} vs {correct_usable})"
        );
    }

    #[test]
    fn random_values_stay_unpredicted() {
        let mut p = Dvtage::paper_256kb();
        let hist = GlobalHistory::new();
        let mut lfsr = Lfsr::new(5);
        let pc = 0x40_0300;
        let mut usable = 0;
        for _ in 0..20_000 {
            if let Some(pred) = p.predict(pc, &hist) {
                if pred.usable() {
                    usable += 1;
                }
            }
            p.train(pc, lfsr.next_u64(), &hist);
        }
        assert!(usable < 100, "random stream should not be confidently predicted ({usable})");
    }

    #[test]
    fn unknown_pc_has_no_prediction() {
        let mut p = Dvtage::paper_256kb();
        let hist = GlobalHistory::new();
        assert!(p.predict(0xdead_beef, &hist).is_none());
    }

    #[test]
    fn stats_are_collected() {
        let mut p = Dvtage::paper_256kb();
        let hist = GlobalHistory::new();
        let _ = p.predict(0x100, &hist);
        p.train(0x100, 1, &hist);
        p.train(0x100, 2, &hist);
        let s = p.stats();
        assert_eq!(s.lookups, 1);
        assert!(s.correct + s.incorrect >= 1);
    }

    #[test]
    fn stride_clamping() {
        assert_eq!(Dvtage::clamp_stride(1 << 40, 16), (1 << 15) - 1);
        assert_eq!(Dvtage::clamp_stride(-(1 << 40), 16), -(1 << 15));
        assert_eq!(Dvtage::clamp_stride(5, 16), 5);
    }

    #[test]
    fn usable_gate_via_the_value_predictor_trait() {
        let p = ValuePrediction { value: 1, confidence: 7, confidence_max: 7 };
        assert!(<Dvtage as ValuePredictor<_>>::usable(&p));
        let p = ValuePrediction { value: 1, confidence: 3, confidence_max: 7 };
        assert!(!<Dvtage as ValuePredictor<_>>::usable(&p));
    }
}
