//! TAGE-like instruction-distance predictor (Section IV-C of the paper).
//!
//! The distance predictor maps a static instruction (by PC, refined with
//! global branch/path history in the tagged components) to the *Instruction
//! Distance* (IDist): how many instructions separate it from the most recent
//! older instruction producing the same result. Because mispredicting costs
//! a full pipeline squash, each entry carries a probabilistic confidence
//! counter and a prediction is only *used* once the counter is saturated;
//! a lower `start_train` threshold marks an instruction as a *likely
//! candidate* so commit-time sampling can hand training over to the
//! validation path (Section IV-B3).
//!
//! Storage is one flat array of packed entry words per component family
//! (`comp << tagged_log2 | idx` for the tagged components): tag, distance,
//! confidence and useful bit share a single word, so the
//! longest-to-shortest provider walk touches one cache line per component
//! instead of one per field array. The confidence counters are raw bit
//! fields updated through the table-wide [`ConfidenceParams`], bit-for-bit
//! the old per-entry [`ProbabilisticCounter`](crate::ProbabilisticCounter)
//! behaviour.
//!
//! Two standard configurations are provided:
//!
//! * [`DistancePredictorConfig::ideal`] — 16K-entry base + 6 × 1K-entry
//!   tagged components with 13..18-bit tags, ≈ 42.6 KB (Section IV-C).
//! * [`DistancePredictorConfig::realistic`] — 2K-entry base + 6 × 512-entry
//!   tagged components with 5..10-bit tags, ≈ 10.1 KB (Section VI-B).

use crate::counters::{ConfidenceParams, Lfsr};
use crate::history::{FoldStateSoa, GlobalHistory};
use crate::predictor::PredictorStats;

/// Configuration of the distance predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct DistancePredictorConfig {
    /// log2 of the number of entries of the untagged base component.
    pub base_log2: u8,
    /// log2 of the number of entries of each tagged component.
    pub tagged_log2: u8,
    /// Number of tagged components.
    pub num_tagged: usize,
    /// Tag width per tagged component, shortest history first.
    pub tag_bits: Vec<u8>,
    /// Shortest and longest history lengths of the tagged components.
    pub min_history: usize,
    /// Longest history length.
    pub max_history: usize,
    /// Number of bits used to store a distance (8 for a 256-entry ROB,
    /// 9 for 512).
    pub distance_bits: u8,
    /// Width of the confidence counters in bits.
    pub confidence_bits: u8,
    /// Denominator of the probabilistic confidence increment (an increment
    /// happens with probability 1 / `confidence_denominator`).
    pub confidence_denominator: u32,
}

impl DistancePredictorConfig {
    /// The large exploration configuration of Section IV-C: 16K-entry base
    /// plus six 1K-entry tagged components with 13–18-bit tags (≈ 42.6 KB).
    pub fn ideal() -> DistancePredictorConfig {
        DistancePredictorConfig {
            base_log2: 14,
            tagged_log2: 10,
            num_tagged: 6,
            tag_bits: vec![13, 14, 15, 16, 17, 18],
            min_history: 2,
            max_history: 64,
            distance_bits: 8,
            confidence_bits: 3,
            confidence_denominator: 36,
        }
    }

    /// The realistic configuration of Section VI-B: 2K-entry base plus six
    /// 512-entry tagged components with 5–10-bit tags (≈ 10.1 KB).
    pub fn realistic() -> DistancePredictorConfig {
        DistancePredictorConfig {
            base_log2: 11,
            tagged_log2: 9,
            num_tagged: 6,
            tag_bits: vec![5, 6, 7, 8, 9, 10],
            min_history: 2,
            max_history: 64,
            distance_bits: 8,
            confidence_bits: 3,
            confidence_denominator: 36,
        }
    }

    /// Maximum representable distance.
    pub fn max_distance(&self) -> u32 {
        (1u32 << self.distance_bits) - 1
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

    /// Total storage in bits (the quantity reported by the paper: 42.6 KB
    /// for the ideal configuration, 10.1 KB for the realistic one).
    pub fn storage_bits(&self) -> u64 {
        let base_entry = u64::from(self.distance_bits) + u64::from(self.confidence_bits);
        let base = (1u64 << self.base_log2) * base_entry;
        let mut tagged = 0u64;
        for i in 0..self.num_tagged {
            let per_entry = u64::from(self.distance_bits)
                + u64::from(self.confidence_bits)
                + 1 /* useful */
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

impl rsep_isa::Fingerprint for DistancePredictorConfig {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self {
            base_log2,
            tagged_log2,
            num_tagged,
            tag_bits,
            min_history,
            max_history,
            distance_bits,
            confidence_bits,
            confidence_denominator,
        } = self;
        h.write_str("DistancePredictorConfig");
        base_log2.fingerprint(h);
        tagged_log2.fingerprint(h);
        num_tagged.fingerprint(h);
        tag_bits.fingerprint(h);
        min_history.fingerprint(h);
        max_history.fingerprint(h);
        distance_bits.fingerprint(h);
        confidence_bits.fingerprint(h);
        confidence_denominator.fingerprint(h);
    }
}

/// "No distance stored" sentinel of the packed distance field (the former
/// `BaseEntry`/`TaggedEntry` invalid marker).
const NO_DISTANCE: u16 = u16::MAX;

/// Packed tagged-entry word: tag in bits 0..32, distance in bits 32..48,
/// raw confidence in bits 48..55 (counter widths are 1..=7 bits), useful
/// flag in bit 55. A fresh entry is tag `u32::MAX` + [`NO_DISTANCE`].
const T_DIST_SHIFT: u32 = 32;
const T_CONF_SHIFT: u32 = 48;
const T_USEFUL: u64 = 1 << 55;
const FRESH_TAGGED: u64 = (u32::MAX as u64) | ((NO_DISTANCE as u64) << T_DIST_SHIFT);

#[inline]
fn t_tag(entry: u64) -> u32 {
    entry as u32
}

#[inline]
fn t_dist(entry: u64) -> u16 {
    (entry >> T_DIST_SHIFT) as u16
}

#[inline]
fn t_conf(entry: u64) -> u8 {
    ((entry >> T_CONF_SHIFT) & 0x7f) as u8
}

#[inline]
fn t_pack(tag: u32, dist: u16, conf: u8, useful: bool) -> u64 {
    u64::from(tag)
        | (u64::from(dist) << T_DIST_SHIFT)
        | ((u64::from(conf) & 0x7f) << T_CONF_SHIFT)
        | if useful { T_USEFUL } else { 0 }
}

/// Packed base-entry word: distance in bits 0..16, raw confidence above.
const B_CONF_SHIFT: u32 = 16;
const FRESH_BASE: u32 = NO_DISTANCE as u32;

#[inline]
fn b_dist(entry: u32) -> u16 {
    entry as u16
}

#[inline]
fn b_conf(entry: u32) -> u8 {
    (entry >> B_CONF_SHIFT) as u8
}

#[inline]
fn b_pack(dist: u16, conf: u8) -> u32 {
    u32::from(dist) | (u32::from(conf) << B_CONF_SHIFT)
}

/// Identifies the component that provided a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provider {
    Base,
    Tagged(usize),
}

/// A distance prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistancePrediction {
    /// Predicted instruction distance.
    pub distance: u32,
    /// Raw confidence counter value of the providing entry.
    pub confidence: u8,
    /// Maximum value the confidence counter can take.
    pub confidence_max: u8,
    /// Which component provided the prediction (internal; used by `train`).
    provider: Provider,
    provider_index: usize,
}

impl DistancePrediction {
    /// Returns `true` when the prediction is confident enough to be *used*
    /// (the `use_pred` threshold of Section IV-B3: the counter is
    /// saturated).
    pub fn usable(&self) -> bool {
        self.confidence == self.confidence_max
    }

    /// Returns `true` when the instruction is at least a *likely candidate*
    /// for RSEP at the given raw `start_train` threshold (Section IV-B3).
    pub fn likely_candidate(&self, start_train: u8) -> bool {
        self.confidence >= start_train.min(self.confidence_max)
    }
}

/// TAGE-like instruction-distance predictor.
#[derive(Debug)]
pub struct DistancePredictor {
    config: DistancePredictorConfig,
    conf: ConfidenceParams,
    /// Packed base entries (distance | confidence), one word per entry.
    base: Box<[u32]>,
    /// Packed tagged entries (tag | distance | confidence | useful), one
    /// word per entry, `comp << tagged_log2 | idx`.
    tagged: Box<[u64]>,
    /// Folded histories as one SoA family, role-major: lanes
    /// `0..num_tagged` index folds, `num_tagged..2*num_tagged` tag folds.
    folds: FoldStateSoa,
    lfsr: Lfsr,
    stats: PredictorStats,
}

impl DistancePredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: DistancePredictorConfig) -> DistancePredictor {
        assert_eq!(config.tag_bits.len(), config.num_tagged, "one tag width per component");
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
        DistancePredictor {
            folds: FoldStateSoa::new(&geometry),
            config,
            conf,
            base: vec![FRESH_BASE; base_entries].into_boxed_slice(),
            tagged: vec![FRESH_TAGGED; tagged_entries].into_boxed_slice(),
            lfsr: Lfsr::new(0xdeed_beef_1234_5678),
            stats: PredictorStats::default(),
        }
    }

    /// Creates the large exploration predictor (≈ 42.6 KB).
    pub fn ideal() -> DistancePredictor {
        DistancePredictor::new(DistancePredictorConfig::ideal())
    }

    /// Creates the realistic predictor (≈ 10.1 KB).
    pub fn realistic() -> DistancePredictor {
        DistancePredictor::new(DistancePredictorConfig::realistic())
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
        let path = history.path(6);
        ((pc ^ (pc >> self.config.tagged_log2 as u64) ^ h ^ (path << 2) ^ (comp as u64) << 1)
            as usize)
            & mask
    }

    fn tag(&self, pc: u64, comp: usize) -> u32 {
        let mask = (1u64 << self.config.tag_bits[comp]) - 1;
        let pc = pc >> 2;
        ((pc ^ (pc >> 7) ^ self.folds.value(self.config.num_tagged + comp)) & mask) as u32
    }

    fn lookup_provider(&self, pc: u64, history: &GlobalHistory) -> Option<(Provider, usize)> {
        for comp in (0..self.config.num_tagged).rev() {
            let idx = self.tagged_index(pc, comp, history);
            let entry = self.tagged[self.flat(comp, idx)];
            if t_tag(entry) == self.tag(pc, comp) && t_dist(entry) != NO_DISTANCE {
                return Some((Provider::Tagged(comp), idx));
            }
        }
        let idx = self.base_index(pc);
        if b_dist(self.base[idx]) != NO_DISTANCE {
            return Some((Provider::Base, idx));
        }
        None
    }

    /// Allocates an entry in a component with longer history than
    /// `from_comp` (TAGE allocation on mis-training).
    fn allocate(&mut self, pc: u64, observed: u16, from_comp: usize, history: &GlobalHistory) {
        for comp in from_comp..self.config.num_tagged {
            let idx = self.tagged_index(pc, comp, history);
            let tag = self.tag(pc, comp);
            let flat = self.flat(comp, idx);
            if self.tagged[flat] & T_USEFUL == 0 {
                let mut conf = t_conf(self.tagged[flat]);
                self.conf.record_incorrect(&mut conf);
                self.tagged[flat] = t_pack(tag, observed, conf, false);
                return;
            }
        }
        // No room: occasionally age useful bits so allocation cannot starve.
        if self.lfsr.one_in(8) {
            for comp in from_comp..self.config.num_tagged {
                let idx = self.tagged_index(pc, comp, history);
                let flat = self.flat(comp, idx);
                self.tagged[flat] &= !T_USEFUL;
            }
        }
    }

    /// Short family name, used to label statistics and storage reports.
    pub fn name(&self) -> &'static str {
        "distance"
    }

    /// Looks up a distance prediction for the instruction at `pc`.
    ///
    /// Returns `None` when no component holds an entry for this
    /// instruction. The returned prediction may still be unusable if its
    /// confidence is not saturated — check [`DistancePrediction::usable`].
    pub fn predict(&mut self, pc: u64, history: &GlobalHistory) -> Option<DistancePrediction> {
        self.stats.lookups += 1;
        // Longest-history matching tagged component wins.
        for comp in (0..self.config.num_tagged).rev() {
            let idx = self.tagged_index(pc, comp, history);
            let entry = self.tagged[self.flat(comp, idx)];
            if t_tag(entry) == self.tag(pc, comp) && t_dist(entry) != NO_DISTANCE {
                let p = DistancePrediction {
                    distance: u32::from(t_dist(entry)),
                    confidence: t_conf(entry),
                    confidence_max: self.conf.max(),
                    provider: Provider::Tagged(comp),
                    provider_index: idx,
                };
                if p.usable() {
                    self.stats.used += 1;
                }
                return Some(p);
            }
        }
        let idx = self.base_index(pc);
        let entry = self.base[idx];
        if b_dist(entry) == NO_DISTANCE {
            return None;
        }
        let p = DistancePrediction {
            distance: u32::from(b_dist(entry)),
            confidence: b_conf(entry),
            confidence_max: self.conf.max(),
            provider: Provider::Base,
            provider_index: idx,
        };
        if p.usable() {
            self.stats.used += 1;
        }
        Some(p)
    }

    /// Trains the predictor with an observed distance for the instruction
    /// at `pc` (from the FIFO history or the validation mechanism).
    /// Distances beyond [`DistancePredictor::max_distance`] are clamped to
    /// it.
    pub fn train(&mut self, pc: u64, observed: u32, history: &GlobalHistory) {
        let observed = observed.min(self.config.max_distance()) as u16;
        // Find the providing component exactly as predict would.
        let prediction = self.lookup_provider(pc, history);
        match prediction {
            Some((Provider::Tagged(comp), idx)) => {
                let tag = self.tag(pc, comp);
                let flat = self.flat(comp, idx);
                let entry = self.tagged[flat];
                debug_assert_eq!(t_tag(entry), tag);
                if t_dist(entry) == observed {
                    self.stats.correct += 1;
                    let mut conf = t_conf(entry);
                    self.conf.record_correct(&mut conf, &mut self.lfsr);
                    self.tagged[flat] = t_pack(tag, observed, conf, true);
                } else {
                    self.stats.incorrect += 1;
                    let mut conf = t_conf(entry);
                    if conf == 0 {
                        // Replace the distance; useful clears.
                        self.tagged[flat] = t_pack(tag, observed, conf, false);
                    } else {
                        self.conf.record_incorrect(&mut conf);
                        self.tagged[flat] = t_pack(tag, t_dist(entry), conf, entry & T_USEFUL != 0);
                    }
                    self.allocate(pc, observed, comp + 1, history);
                }
            }
            Some((Provider::Base, idx)) => {
                let entry = self.base[idx];
                if b_dist(entry) == observed {
                    self.stats.correct += 1;
                    let mut conf = b_conf(entry);
                    self.conf.record_correct(&mut conf, &mut self.lfsr);
                    self.base[idx] = b_pack(observed, conf);
                } else {
                    self.stats.incorrect += 1;
                    if b_conf(entry) == 0 {
                        self.base[idx] = b_pack(observed, 0);
                    } else {
                        let mut conf = b_conf(entry);
                        self.conf.record_incorrect(&mut conf);
                        self.base[idx] = b_pack(b_dist(entry), conf);
                    }
                    self.allocate(pc, observed, 0, history);
                }
            }
            None => {
                // First sighting: install in the base component.
                let idx = self.base_index(pc);
                let mut conf = b_conf(self.base[idx]);
                self.conf.record_incorrect(&mut conf);
                self.base[idx] = b_pack(observed, conf);
            }
        }
    }

    /// Advances the folded histories after a branch outcome has been pushed
    /// into the global history.
    pub fn on_history_update(&mut self, history: &GlobalHistory) {
        self.folds.advance(history);
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Total storage cost in bits (the paper's comparison metric).
    pub fn storage_bits(&self) -> u64 {
        self.config.storage_bits()
    }

    /// Largest representable distance (ROB-bounded).
    pub fn max_distance(&self) -> u32 {
        self.config.max_distance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::ProbabilisticCounter;

    #[test]
    fn entry_packing_round_trips() {
        let confs = [0u8, 1, 0x7f, 0x80, u8::MAX];
        for tag in [0u32, 1, u32::MAX] {
            for dist in [0u16, 1, NO_DISTANCE] {
                for conf in confs {
                    for useful in [false, true] {
                        let packed = t_pack(tag, dist, conf, useful);
                        assert_eq!(t_tag(packed), tag);
                        assert_eq!(t_dist(packed), dist);
                        assert_eq!(t_conf(packed), conf & 0x7f);
                        assert_eq!(packed & T_USEFUL != 0, useful);
                    }
                }
            }
        }
        assert_eq!((t_tag(FRESH_TAGGED), t_dist(FRESH_TAGGED)), (u32::MAX, NO_DISTANCE));
        assert_eq!((t_conf(FRESH_TAGGED), FRESH_TAGGED & T_USEFUL), (0, 0));
        for dist in [0u16, 1, NO_DISTANCE] {
            for conf in confs {
                let packed = b_pack(dist, conf);
                assert_eq!((b_dist(packed), b_conf(packed)), (dist, conf));
            }
        }
        assert_eq!((b_dist(FRESH_BASE), b_conf(FRESH_BASE)), (NO_DISTANCE, 0));
    }

    #[test]
    fn storage_matches_paper_figures() {
        let ideal = DistancePredictorConfig::ideal();
        let realistic = DistancePredictorConfig::realistic();
        let ideal_kb = ideal.storage_kb();
        let realistic_kb = realistic.storage_kb();
        assert!(
            (ideal_kb - 42.6).abs() < 1.0,
            "ideal distance predictor is {ideal_kb:.1} KB, paper says 42.6 KB"
        );
        assert!(
            (realistic_kb - 10.1).abs() < 0.7,
            "realistic distance predictor is {realistic_kb:.1} KB, paper says 10.1 KB"
        );
    }

    #[test]
    fn max_distance_fits_rob() {
        assert_eq!(DistancePredictorConfig::ideal().max_distance(), 255);
        assert_eq!(DistancePredictor::ideal().max_distance(), 255);
    }

    #[test]
    fn stable_distances_become_usable_after_training() {
        let mut p = DistancePredictor::ideal();
        let hist = GlobalHistory::new();
        let pc = 0x40_1000;
        let expected_training = ProbabilisticCounter::paper_default().expected_training_length();
        let mut first_usable = None;
        for i in 0..(expected_training * 4) {
            if let Some(pred) = p.predict(pc, &hist) {
                if pred.usable() && first_usable.is_none() {
                    first_usable = Some(i);
                }
                if pred.usable() {
                    assert_eq!(pred.distance, 17);
                }
            }
            p.train(pc, 17, &hist);
        }
        let when = first_usable.expect("prediction never became usable");
        // Training length should be in the same ballpark as the paper's 255
        // occurrences (probabilistic, so allow a wide band).
        assert!(when > 20, "became usable suspiciously fast ({when})");
        assert!(when < expected_training * 4, "became usable too slowly ({when})");
    }

    #[test]
    fn unstable_distances_never_reach_confidence() {
        let mut p = DistancePredictor::ideal();
        let hist = GlobalHistory::new();
        let pc = 0x40_2000;
        for i in 0..20_000u32 {
            let d = if i % 2 == 0 { 10 } else { 30 };
            p.train(pc, d, &hist);
            if let Some(pred) = p.predict(pc, &hist) {
                assert!(!pred.usable(), "iteration {i}: unstable distance became usable");
            }
        }
    }

    #[test]
    fn unknown_pc_has_no_prediction() {
        let mut p = DistancePredictor::realistic();
        let hist = GlobalHistory::new();
        assert!(p.predict(0xdead_0000, &hist).is_none());
    }

    #[test]
    fn distances_are_clamped_to_the_representable_range() {
        let mut p = DistancePredictor::ideal();
        let hist = GlobalHistory::new();
        let pc = 0x40_3000;
        for _ in 0..50_000 {
            p.train(pc, 10_000, &hist);
        }
        let pred = p.predict(pc, &hist).unwrap();
        assert_eq!(pred.distance, 255);
    }

    #[test]
    fn history_dependent_distances_use_tagged_components() {
        // A PC whose distance depends on recent branch history: the base
        // component alone cannot capture it, the tagged components can.
        let mut p = DistancePredictor::ideal();
        let mut hist = GlobalHistory::new();
        let pc = 0x40_4000;
        let mut usable_correct = 0u64;
        let mut usable_total = 0u64;
        for i in 0..400_000u64 {
            // Alternate history phases of 8 branches.
            let phase_taken = (i / 8) % 2 == 0;
            hist.push(phase_taken, 0x500 + (i % 8) * 4);
            p.on_history_update(&hist);
            let d = if phase_taken { 12 } else { 40 };
            if let Some(pred) = p.predict(pc, &hist) {
                if pred.usable() {
                    usable_total += 1;
                    if pred.distance == d {
                        usable_correct += 1;
                    }
                }
            }
            p.train(pc, d, &hist);
        }
        if usable_total > 0 {
            let acc = usable_correct as f64 / usable_total as f64;
            assert!(acc > 0.9, "history-dependent accuracy {acc}");
        }
    }

    #[test]
    fn likely_candidate_threshold_is_lower_than_usable() {
        let mut p = DistancePredictor::ideal();
        let hist = GlobalHistory::new();
        let pc = 0x40_5000;
        // A handful of trainings: not enough to saturate (on average), but
        // enough that confidence is non-decreasing.
        for _ in 0..100 {
            p.train(pc, 5, &hist);
        }
        if let Some(pred) = p.predict(pc, &hist) {
            assert!(pred.likely_candidate(0));
            // usable() implies likely_candidate at any threshold <= max.
            if pred.usable() {
                assert!(pred.likely_candidate(pred.confidence_max));
            }
        }
    }

    #[test]
    fn stats_are_collected() {
        let mut p = DistancePredictor::realistic();
        let hist = GlobalHistory::new();
        let _ = p.predict(0x100, &hist);
        p.train(0x100, 3, &hist);
        p.train(0x100, 3, &hist);
        p.train(0x100, 9, &hist);
        let s = p.stats();
        assert_eq!(s.lookups, 1);
        assert!(s.correct >= 1);
        assert!(s.incorrect >= 1);
    }
}
