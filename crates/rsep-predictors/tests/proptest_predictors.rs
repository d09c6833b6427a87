//! Model-based equivalence: every migrated predictor against its
//! pre-refactor reference behaviour.
//!
//! The table flattening (packed entry words — tag, counter/confidence
//! and useful/valid bits in one word — with raw confidence values updated
//! through the table-wide `ConfidenceParams`) must be
//! *behaviour-preserving*: same predictions, same training
//! decisions, same LFSR draw sequence. This test keeps compact copies of
//! the retired `Vec`-of-struct implementations — per-entry
//! `ProbabilisticCounter`s and all — and drives each family against its
//! reference under randomised predict/train/history/squash sequences,
//! comparing every prediction as it is made.
//!
//! This is the structure-level complement to the golden-stats campaigns
//! (which prove the same equivalence end-to-end through the simulator) and
//! the byte-identical fig4/fig7 campaign JSON check against the
//! pre-refactor binary.

use proptest::collection;
use proptest::prelude::*;
use rsep_predictors::{
    Btb, DistancePredictor, DistancePredictorConfig, Dvtage, DvtageConfig, FoldedHistory,
    GlobalHistory, Lfsr, ProbabilisticCounter, Tage, TageConfig, ZeroPredictor,
    ZeroPredictorConfig,
};

// ----------------------------------------------------------- reference TAGE

#[derive(Clone, Copy, Default)]
struct RefTaggedEntry {
    tag: u16,
    ctr: i8,
    useful: u8,
}

/// The pre-refactor `Vec<Vec<Entry>>` TAGE (predict/update logic copied
/// verbatim from the retired implementation).
struct RefTage {
    config: TageConfig,
    base: Vec<i8>,
    tagged: Vec<Vec<RefTaggedEntry>>,
    index_fold: Vec<FoldedHistory>,
    tag_fold0: Vec<FoldedHistory>,
    tag_fold1: Vec<FoldedHistory>,
    lfsr: Lfsr,
}

impl RefTage {
    fn new(config: TageConfig) -> RefTage {
        let base = vec![0i8; 1 << config.base_log2];
        let tagged = (0..config.num_tagged)
            .map(|_| vec![RefTaggedEntry::default(); 1 << config.tagged_log2])
            .collect();
        let index_fold = (0..config.num_tagged)
            .map(|i| FoldedHistory::new(config.history_length(i), config.tagged_log2 as usize))
            .collect();
        let tag_fold0 = (0..config.num_tagged)
            .map(|i| FoldedHistory::new(config.history_length(i), config.tag_bits[i] as usize))
            .collect();
        let tag_fold1 = (0..config.num_tagged)
            .map(|i| {
                FoldedHistory::new(
                    config.history_length(i),
                    (config.tag_bits[i] as usize).saturating_sub(1).max(1),
                )
            })
            .collect();
        RefTage {
            config,
            base,
            tagged,
            index_fold,
            tag_fold0,
            tag_fold1,
            lfsr: Lfsr::new(0xb5ad_4ece_da1c_e2a9),
        }
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << self.config.base_log2) - 1)
    }

    fn tagged_index(&self, pc: u64, comp: usize, history: &GlobalHistory) -> usize {
        let mask = (1usize << self.config.tagged_log2) - 1;
        let pc = pc >> 2;
        let h = self.index_fold[comp].value();
        let path = history.path(8);
        ((pc ^ (pc >> self.config.tagged_log2 as u64) ^ h ^ (path << 1) ^ comp as u64) as usize)
            & mask
    }

    fn tag(&self, pc: u64, comp: usize) -> u16 {
        let mask = (1u64 << self.config.tag_bits[comp]) - 1;
        let pc = pc >> 2;
        ((pc ^ self.tag_fold0[comp].value() ^ (self.tag_fold1[comp].value() << 1)) & mask) as u16
    }

    /// `(taken, provider, alt_taken)`.
    fn predict(&self, pc: u64, history: &GlobalHistory) -> (bool, Option<usize>, bool) {
        let base_taken = self.base[self.base_index(pc)] >= 0;
        let mut provider = None;
        let mut alt: Option<bool> = None;
        let mut provider_taken = base_taken;
        for comp in (0..self.config.num_tagged).rev() {
            let idx = self.tagged_index(pc, comp, history);
            let entry = &self.tagged[comp][idx];
            if entry.tag == self.tag(pc, comp) {
                if provider.is_none() {
                    provider = Some(comp);
                    provider_taken = entry.ctr >= 0;
                } else if alt.is_none() {
                    alt = Some(entry.ctr >= 0);
                }
            }
        }
        (provider_taken, provider, alt.unwrap_or(base_taken))
    }

    fn update(
        &mut self,
        pc: u64,
        taken: bool,
        prediction: (bool, Option<usize>, bool),
        history: &GlobalHistory,
    ) {
        let (pred_taken, pred_provider, pred_alt) = prediction;
        let mispredicted = pred_taken != taken;
        match pred_provider {
            Some(comp) => {
                let idx = self.tagged_index(pc, comp, history);
                let entry = &mut self.tagged[comp][idx];
                entry.ctr = if taken { (entry.ctr + 1).min(3) } else { (entry.ctr - 1).max(-4) };
                if pred_taken != pred_alt {
                    if !mispredicted {
                        entry.useful = (entry.useful + 1).min(3);
                    } else {
                        entry.useful = entry.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let idx = self.base_index(pc);
                let c = &mut self.base[idx];
                *c = if taken { (*c + 1).min(1) } else { (*c - 1).max(-2) };
            }
        }
        if mispredicted {
            let start = pred_provider.map(|p| p + 1).unwrap_or(0);
            let mut allocated = false;
            for comp in start..self.config.num_tagged {
                let idx = self.tagged_index(pc, comp, history);
                if self.tagged[comp][idx].useful == 0 {
                    let tag = self.tag(pc, comp);
                    let entry = &mut self.tagged[comp][idx];
                    entry.tag = tag;
                    entry.ctr = if taken { 0 } else { -1 };
                    entry.useful = 0;
                    allocated = true;
                    break;
                }
            }
            if !allocated && self.lfsr.one_in(4) {
                for comp in start..self.config.num_tagged {
                    let idx = self.tagged_index(pc, comp, history);
                    self.tagged[comp][idx].useful = self.tagged[comp][idx].useful.saturating_sub(1);
                }
            }
        }
    }

    fn on_history_update(&mut self, history: &GlobalHistory) {
        for f in self.index_fold.iter_mut() {
            f.update(history);
        }
        for f in self.tag_fold0.iter_mut() {
            f.update(history);
        }
        for f in self.tag_fold1.iter_mut() {
            f.update(history);
        }
    }
}

/// A small TAGE geometry so aliasing, allocation and useful-aging all fire
/// within a few hundred operations.
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
    #[test]
    fn tage_matches_the_pre_refactor_reference(
        ops in collection::vec((0u64..48, any::<bool>(), 0u8..4), 1..400)
    ) {
        let mut new = Tage::new(small_tage_config());
        let mut reference = RefTage::new(small_tage_config());
        let mut hist = GlobalHistory::new();
        for &(pc_sel, taken, kind) in &ops {
            let pc = 0x40_0000 + pc_sel * 4;
            let pred = new.predict(pc, &hist).unwrap();
            let ref_pred = reference.predict(pc, &hist);
            prop_assert_eq!(pred.taken, ref_pred.0, "direction diverges at pc {:#x}", pc);
            prop_assert_eq!(pred.provider, ref_pred.1, "provider diverges");
            prop_assert_eq!(pred.alt_taken, ref_pred.2, "alternate diverges");
            match kind {
                // Train (the common case).
                0..=1 => {
                    new.train(pc, (taken, pred), &hist);
                    reference.update(pc, taken, ref_pred, &hist);
                }
                // Push an outcome into the history (what fetch does after
                // every branch).
                2 => {
                    hist.push(taken, pc);
                    new.on_history_update(&hist);
                    reference.on_history_update(&hist);
                }
                // Squash: commit-trained predictors have nothing to undo.
                _ => {}
            }
        }
    }
}

// ------------------------------------------------- reference distance pred.

#[derive(Clone)]
struct RefDistBase {
    distance: u16,
    confidence: ProbabilisticCounter,
}

#[derive(Clone)]
struct RefDistTagged {
    tag: u32,
    distance: u16,
    confidence: ProbabilisticCounter,
    useful: bool,
}

enum RefProvider {
    Base(usize),
    Tagged(usize, usize),
}

/// The pre-refactor distance predictor (per-entry counters, nested Vecs).
struct RefDistance {
    config: DistancePredictorConfig,
    base: Vec<RefDistBase>,
    tagged: Vec<Vec<RefDistTagged>>,
    index_fold: Vec<FoldedHistory>,
    tag_fold: Vec<FoldedHistory>,
    lfsr: Lfsr,
}

impl RefDistance {
    fn new(config: DistancePredictorConfig) -> RefDistance {
        let proto =
            ProbabilisticCounter::new(config.confidence_bits, config.confidence_denominator);
        let base =
            vec![RefDistBase { distance: u16::MAX, confidence: proto }; 1 << config.base_log2];
        let tagged = (0..config.num_tagged)
            .map(|_| {
                vec![
                    RefDistTagged {
                        tag: u32::MAX,
                        distance: u16::MAX,
                        confidence: proto,
                        useful: false
                    };
                    1 << config.tagged_log2
                ]
            })
            .collect();
        let index_fold = (0..config.num_tagged)
            .map(|i| FoldedHistory::new(config.history_length(i), config.tagged_log2 as usize))
            .collect();
        let tag_fold = (0..config.num_tagged)
            .map(|i| FoldedHistory::new(config.history_length(i), config.tag_bits[i] as usize))
            .collect();
        RefDistance {
            config,
            base,
            tagged,
            index_fold,
            tag_fold,
            lfsr: Lfsr::new(0xdeed_beef_1234_5678),
        }
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << self.config.base_log2) - 1)
    }

    fn tagged_index(&self, pc: u64, comp: usize, history: &GlobalHistory) -> usize {
        let mask = (1usize << self.config.tagged_log2) - 1;
        let pc = pc >> 2;
        let h = self.index_fold[comp].value();
        let path = history.path(6);
        ((pc ^ (pc >> self.config.tagged_log2 as u64) ^ h ^ (path << 2) ^ (comp as u64) << 1)
            as usize)
            & mask
    }

    fn tag(&self, pc: u64, comp: usize) -> u32 {
        let mask = (1u64 << self.config.tag_bits[comp]) - 1;
        let pc = pc >> 2;
        ((pc ^ (pc >> 7) ^ self.tag_fold[comp].value()) & mask) as u32
    }

    /// `(distance, confidence)`.
    fn predict(&self, pc: u64, history: &GlobalHistory) -> Option<(u32, u8)> {
        for comp in (0..self.config.num_tagged).rev() {
            let idx = self.tagged_index(pc, comp, history);
            let entry = &self.tagged[comp][idx];
            if entry.tag == self.tag(pc, comp) && entry.distance != u16::MAX {
                return Some((u32::from(entry.distance), entry.confidence.value()));
            }
        }
        let entry = &self.base[self.base_index(pc)];
        if entry.distance == u16::MAX {
            return None;
        }
        Some((u32::from(entry.distance), entry.confidence.value()))
    }

    fn lookup_provider(&self, pc: u64, history: &GlobalHistory) -> Option<RefProvider> {
        for comp in (0..self.config.num_tagged).rev() {
            let idx = self.tagged_index(pc, comp, history);
            let entry = &self.tagged[comp][idx];
            if entry.tag == self.tag(pc, comp) && entry.distance != u16::MAX {
                return Some(RefProvider::Tagged(comp, idx));
            }
        }
        let idx = self.base_index(pc);
        if self.base[idx].distance != u16::MAX {
            return Some(RefProvider::Base(idx));
        }
        None
    }

    fn train(&mut self, pc: u64, observed: u32, history: &GlobalHistory) {
        let observed = observed.min(self.config.max_distance()) as u16;
        match self.lookup_provider(pc, history) {
            Some(RefProvider::Tagged(comp, idx)) => {
                let entry = &mut self.tagged[comp][idx];
                if entry.distance == observed {
                    entry.confidence.record_correct(&mut self.lfsr);
                    entry.useful = true;
                } else {
                    if entry.confidence.value() == 0 {
                        entry.distance = observed;
                        entry.useful = false;
                    } else {
                        entry.confidence.record_incorrect();
                    }
                    self.allocate(pc, observed, comp + 1, history);
                }
            }
            Some(RefProvider::Base(idx)) => {
                let entry = &mut self.base[idx];
                if entry.distance == observed {
                    entry.confidence.record_correct(&mut self.lfsr);
                } else {
                    if entry.confidence.value() == 0 {
                        entry.distance = observed;
                    } else {
                        entry.confidence.record_incorrect();
                    }
                    self.allocate(pc, observed, 0, history);
                }
            }
            None => {
                let idx = self.base_index(pc);
                let entry = &mut self.base[idx];
                entry.distance = observed;
                entry.confidence.record_incorrect();
            }
        }
    }

    fn allocate(&mut self, pc: u64, observed: u16, from_comp: usize, history: &GlobalHistory) {
        for comp in from_comp..self.config.num_tagged {
            let idx = self.tagged_index(pc, comp, history);
            let tag = self.tag(pc, comp);
            let entry = &mut self.tagged[comp][idx];
            if !entry.useful {
                entry.tag = tag;
                entry.distance = observed;
                entry.confidence.record_incorrect();
                return;
            }
        }
        if self.lfsr.one_in(8) {
            for comp in from_comp..self.config.num_tagged {
                let idx = self.tagged_index(pc, comp, history);
                self.tagged[comp][idx].useful = false;
            }
        }
    }

    fn on_history_update(&mut self, history: &GlobalHistory) {
        for f in self.index_fold.iter_mut() {
            f.update(history);
        }
        for f in self.tag_fold.iter_mut() {
            f.update(history);
        }
    }
}

/// Small distance-predictor geometry, with a low confidence denominator so
/// saturation (and the LFSR draws behind it) happens within a test case.
fn small_distance_config() -> DistancePredictorConfig {
    DistancePredictorConfig {
        base_log2: 5,
        tagged_log2: 4,
        num_tagged: 3,
        tag_bits: vec![5, 6, 7],
        min_history: 2,
        max_history: 16,
        distance_bits: 6,
        confidence_bits: 3,
        confidence_denominator: 3,
    }
}

proptest! {
    #[test]
    fn distance_predictor_matches_the_pre_refactor_reference(
        ops in collection::vec((0u64..48, 0u32..80, any::<bool>(), 0u8..5), 1..400)
    ) {
        let mut new = DistancePredictor::new(small_distance_config());
        let mut reference = RefDistance::new(small_distance_config());
        let mut hist = GlobalHistory::new();
        for &(pc_sel, observed, taken, kind) in &ops {
            let pc = 0x40_0000 + pc_sel * 4;
            let pred = new.predict(pc, &hist).map(|p| (p.distance, p.confidence));
            prop_assert_eq!(pred, reference.predict(pc, &hist), "prediction diverges at {:#x}", pc);
            match kind {
                0..=2 => {
                    new.train(pc, observed, &hist);
                    reference.train(pc, observed, &hist);
                }
                3 => {
                    hist.push(taken, pc);
                    new.on_history_update(&hist);
                    reference.on_history_update(&hist);
                }
                _ => {}
            }
        }
    }
}

// -------------------------------------------------------- reference D-VTAGE

#[derive(Clone)]
struct RefVtBase {
    valid: bool,
    last_value: u64,
    stride: i64,
    confidence: ProbabilisticCounter,
}

#[derive(Clone)]
struct RefVtTagged {
    tag: u32,
    valid: bool,
    stride: i64,
    confidence: ProbabilisticCounter,
    useful: bool,
}

/// The pre-refactor D-VTAGE (per-entry counters, nested Vecs).
struct RefDvtage {
    config: DvtageConfig,
    base: Vec<RefVtBase>,
    tagged: Vec<Vec<RefVtTagged>>,
    index_fold: Vec<FoldedHistory>,
    tag_fold: Vec<FoldedHistory>,
    lfsr: Lfsr,
}

impl RefDvtage {
    fn new(config: DvtageConfig) -> RefDvtage {
        let conf = ProbabilisticCounter::new(config.confidence_bits, config.confidence_denominator);
        let base = vec![
            RefVtBase { valid: false, last_value: 0, stride: 0, confidence: conf };
            1 << config.base_log2
        ];
        let tagged =
            (0..config.num_tagged)
                .map(|_| {
                    vec![
                        RefVtTagged {
                            tag: 0,
                            valid: false,
                            stride: 0,
                            confidence: conf,
                            useful: false
                        };
                        1 << config.tagged_log2
                    ]
                })
                .collect();
        let index_fold = (0..config.num_tagged)
            .map(|i| FoldedHistory::new(config.history_length(i), config.tagged_log2 as usize))
            .collect();
        let tag_fold = (0..config.num_tagged)
            .map(|i| FoldedHistory::new(config.history_length(i), config.tag_bits[i] as usize))
            .collect();
        RefDvtage { config, base, tagged, index_fold, tag_fold, lfsr: Lfsr::new(0xc0ff_ee15_600d) }
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << self.config.base_log2) - 1)
    }

    fn tagged_index(&self, pc: u64, comp: usize, history: &GlobalHistory) -> usize {
        let mask = (1usize << self.config.tagged_log2) - 1;
        let pc = pc >> 2;
        let h = self.index_fold[comp].value();
        ((pc ^ (pc >> self.config.tagged_log2 as u64) ^ h ^ history.path(4) ^ (comp as u64) << 3)
            as usize)
            & mask
    }

    fn tag(&self, pc: u64, comp: usize) -> u32 {
        let mask = (1u64 << self.config.tag_bits[comp]) - 1;
        ((pc >> 2) ^ ((pc >> 2) >> 9) ^ self.tag_fold[comp].value()) as u32 & mask as u32
    }

    fn clamp_stride(stride: i64, bits: u8) -> i64 {
        let max = (1i64 << (bits - 1)) - 1;
        stride.clamp(-max - 1, max)
    }

    /// `(value, confidence)`.
    fn predict(&self, pc: u64, history: &GlobalHistory) -> Option<(u64, u8)> {
        let base = &self.base[self.base_index(pc)];
        if !base.valid {
            return None;
        }
        let mut stride = base.stride;
        let mut confidence = base.confidence;
        for comp in (0..self.config.num_tagged).rev() {
            let idx = self.tagged_index(pc, comp, history);
            let entry = &self.tagged[comp][idx];
            if entry.valid && entry.tag == self.tag(pc, comp) {
                stride = entry.stride;
                confidence = entry.confidence;
                break;
            }
        }
        Some((base.last_value.wrapping_add_signed(stride), confidence.value()))
    }

    fn train(&mut self, pc: u64, actual: u64, history: &GlobalHistory) {
        let base_idx = self.base_index(pc);
        let predicted = if self.base[base_idx].valid {
            let base = &self.base[base_idx];
            let mut stride = base.stride;
            let mut provider: Option<(usize, usize)> = None;
            for comp in (0..self.config.num_tagged).rev() {
                let idx = self.tagged_index(pc, comp, history);
                let entry = &self.tagged[comp][idx];
                if entry.valid && entry.tag == self.tag(pc, comp) {
                    stride = entry.stride;
                    provider = Some((comp, idx));
                    break;
                }
            }
            Some((base.last_value.wrapping_add_signed(stride), provider))
        } else {
            None
        };
        match predicted {
            Some((value, provider)) => {
                let correct = value == actual;
                let observed_stride = actual.wrapping_sub(self.base[base_idx].last_value) as i64;
                let clamped = Self::clamp_stride(observed_stride, self.config.stride_bits);
                match provider {
                    Some((comp, idx)) => {
                        let entry = &mut self.tagged[comp][idx];
                        if correct {
                            entry.confidence.record_correct(&mut self.lfsr);
                            entry.useful = true;
                        } else {
                            if entry.confidence.value() == 0 {
                                entry.stride = clamped;
                                entry.useful = false;
                            }
                            entry.confidence.record_incorrect();
                            self.allocate(pc, clamped, comp + 1, history);
                        }
                    }
                    None => {
                        let entry = &mut self.base[base_idx];
                        if correct {
                            entry.confidence.record_correct(&mut self.lfsr);
                        } else {
                            if entry.confidence.value() == 0 {
                                entry.stride = clamped;
                            }
                            entry.confidence.record_incorrect();
                            self.allocate(pc, clamped, 0, history);
                        }
                    }
                }
                self.base[base_idx].last_value = actual;
            }
            None => {
                let entry = &mut self.base[base_idx];
                entry.valid = true;
                entry.last_value = actual;
                entry.stride = 0;
                entry.confidence.record_incorrect();
            }
        }
    }

    fn allocate(&mut self, pc: u64, stride: i64, from_comp: usize, history: &GlobalHistory) {
        for comp in from_comp..self.config.num_tagged {
            let idx = self.tagged_index(pc, comp, history);
            let tag = self.tag(pc, comp);
            let entry = &mut self.tagged[comp][idx];
            if !entry.useful {
                entry.valid = true;
                entry.tag = tag;
                entry.stride = stride;
                entry.confidence.record_incorrect();
                return;
            }
        }
        if self.lfsr.one_in(8) {
            for comp in from_comp..self.config.num_tagged {
                let idx = self.tagged_index(pc, comp, history);
                self.tagged[comp][idx].useful = false;
            }
        }
    }

    fn on_history_update(&mut self, history: &GlobalHistory) {
        for f in self.index_fold.iter_mut() {
            f.update(history);
        }
        for f in self.tag_fold.iter_mut() {
            f.update(history);
        }
    }
}

/// Small D-VTAGE geometry with a fast confidence counter.
fn small_dvtage_config() -> DvtageConfig {
    DvtageConfig {
        base_log2: 5,
        tagged_log2: 4,
        num_tagged: 3,
        tag_bits: vec![5, 6, 7],
        min_history: 2,
        max_history: 16,
        stride_bits: 8,
        confidence_bits: 3,
        confidence_denominator: 3,
    }
}

proptest! {
    #[test]
    fn dvtage_matches_the_pre_refactor_reference(
        ops in collection::vec((0u64..48, 0u64..16, any::<bool>(), 0u8..5), 1..400)
    ) {
        let mut new = Dvtage::new(small_dvtage_config());
        let mut reference = RefDvtage::new(small_dvtage_config());
        let mut hist = GlobalHistory::new();
        for &(pc_sel, value_sel, taken, kind) in &ops {
            let pc = 0x40_0000 + pc_sel * 4;
            // Values from a small pool plus a strided component so both
            // constant and stride paths (and mis-trainings) fire.
            let actual = value_sel * 3 + pc_sel;
            let pred = new.predict(pc, &hist).map(|p| (p.value, p.confidence));
            prop_assert_eq!(pred, reference.predict(pc, &hist), "prediction diverges at {:#x}", pc);
            match kind {
                0..=2 => {
                    new.train(pc, actual, &hist);
                    reference.train(pc, actual, &hist);
                }
                3 => {
                    hist.push(taken, pc);
                    new.on_history_update(&hist);
                    reference.on_history_update(&hist);
                }
                _ => {}
            }
        }
    }
}

// -------------------------------------------- reference zero predictor, BTB

proptest! {
    #[test]
    fn zero_predictor_matches_the_pre_refactor_reference(
        ops in collection::vec((0u64..64, any::<bool>()), 1..600)
    ) {
        // The reference is the per-entry counter table the flat byte array
        // replaced.
        let config = ZeroPredictorConfig { entries_log2: 4, confidence_bits: 3, confidence_denominator: 3 };
        let mut new = ZeroPredictor::new(config);
        let mut table =
            vec![ProbabilisticCounter::new(config.confidence_bits, config.confidence_denominator); 1 << config.entries_log2];
        let mut lfsr = Lfsr::new(0x02e0_5eed);
        let hist = GlobalHistory::new();
        for &(pc_sel, was_zero) in &ops {
            let pc = 0x40_0000 + pc_sel * 4;
            let idx = ((pc >> 2) as usize) & ((1 << config.entries_log2) - 1);
            prop_assert_eq!(
                new.predict(pc, &hist).is_some(),
                table[idx].is_saturated(),
                "zero prediction diverges at {:#x}", pc
            );
            new.train(pc, was_zero, &hist);
            if was_zero {
                table[idx].record_correct(&mut lfsr);
            } else {
                table[idx].record_incorrect();
            }
        }
    }

    #[test]
    fn btb_matches_the_pre_refactor_reference(
        ops in collection::vec((0u64..24, 0u64..8, any::<bool>()), 1..600)
    ) {
        // Reference: the retired array-of-struct sets with a round-robin
        // replacement pointer per set.
        #[derive(Clone, Copy, Default)]
        struct RefEntry { valid: bool, tag: u64, target: u64 }
        const ENTRIES: usize = 8; // 4 sets, 2 ways
        let mut new = Btb::new(ENTRIES);
        let mut sets = [[RefEntry::default(); 2]; ENTRIES / 2];
        let mut replace = [0u8; ENTRIES / 2];
        let set_mask = (ENTRIES as u64 / 2) - 1;
        let hist = GlobalHistory::new();
        for &(pc_sel, target_sel, lookup) in &ops {
            let pc = 0x40_0000 + pc_sel * 4;
            let target = 0x50_0000 + target_sel * 4;
            let set = ((pc >> 2) & set_mask) as usize;
            if lookup {
                let expected =
                    sets[set].iter().find(|e| e.valid && e.tag == pc).map(|e| e.target);
                prop_assert_eq!(new.predict(pc, &hist), expected, "BTB lookup diverges at {:#x}", pc);
            } else {
                new.train(pc, target, &hist);
                if let Some(entry) = sets[set].iter_mut().find(|e| e.valid && e.tag == pc) {
                    entry.target = target;
                } else if let Some(entry) = sets[set].iter_mut().find(|e| !e.valid) {
                    *entry = RefEntry { valid: true, tag: pc, target };
                } else {
                    let way = replace[set] as usize % 2;
                    sets[set][way] = RefEntry { valid: true, tag: pc, target };
                    replace[set] = replace[set].wrapping_add(1);
                }
            }
        }
    }
}
