//! TAGE conditional branch predictor.
//!
//! The Table I front end uses a TAGE predictor with one base (bimodal)
//! component plus 12 partially-tagged components totalling about 15K
//! entries, with a minimum misprediction penalty of 17 cycles. This module
//! implements a standard TAGE \[31\]: geometric history lengths, partial tags,
//! useful bits, and allocation on mispredictions.
//!
//! Storage is one flat array of packed entry words across all tagged
//! components (entry `idx` of component `comp` lives at
//! `comp << tagged_log2 | idx`): the partial tag in the low 16 bits, the
//! 3-bit signed counter (biased by +4) and the 2-bit useful counter above
//! it. The provider walk of [`Predictor::predict`] touches one random
//! entry per component, so a single packed word per entry — one cache
//! line touch — beats both the retired `Vec<Vec<Entry>>` layout and a
//! split tag-array/metadata-array layout (measured by the
//! `predictor_stack` bench).

use crate::counters::Lfsr;
use crate::history::{FoldStateSoa, GlobalHistory, MAX_HISTORY_BITS};
use crate::predictor::{BranchPredictor, Predictor, PredictorStats};

/// Configuration of a TAGE branch predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct TageConfig {
    /// log2 of the number of entries of the bimodal base table.
    pub base_log2: u8,
    /// log2 of the number of entries of each tagged component.
    pub tagged_log2: u8,
    /// Number of tagged components.
    pub num_tagged: usize,
    /// Shortest history length.
    pub min_history: usize,
    /// Longest history length.
    pub max_history: usize,
    /// Tag width in bits for each tagged component (short to long history).
    pub tag_bits: Vec<u8>,
}

impl TageConfig {
    /// The Table I configuration: 1 + 12 components, roughly 15K entries in
    /// total (4K-entry bimodal + 12 × 1K-entry tagged components).
    pub fn table1() -> TageConfig {
        TageConfig {
            base_log2: 12,
            tagged_log2: 10,
            num_tagged: 12,
            min_history: 4,
            max_history: 640,
            tag_bits: vec![8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13],
        }
    }

    /// Geometric history length of tagged component `i` (0 = shortest).
    pub fn history_length(&self, i: usize) -> usize {
        if self.num_tagged == 1 {
            return self.min_history;
        }
        let ratio = (self.max_history as f64 / self.min_history as f64)
            .powf(1.0 / (self.num_tagged as f64 - 1.0));
        ((self.min_history as f64) * ratio.powi(i as i32)).round() as usize
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        let base = (1u64 << self.base_log2) * 2;
        let mut tagged = 0u64;
        for i in 0..self.num_tagged {
            let per_entry = 3 /* ctr */ + 1 /* useful */ + u64::from(self.tag_bits[i]);
            tagged += (1u64 << self.tagged_log2) * per_entry;
        }
        base + tagged
    }
}

impl rsep_isa::Fingerprint for TageConfig {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self { base_log2, tagged_log2, num_tagged, min_history, max_history, tag_bits } = self;
        h.write_str("TageConfig");
        base_log2.fingerprint(h);
        tagged_log2.fingerprint(h);
        num_tagged.fingerprint(h);
        min_history.fingerprint(h);
        max_history.fingerprint(h);
        tag_bits.fingerprint(h);
    }
}

/// Packed tagged-entry word: the partial tag in bits 0..16, the 3-bit
/// signed counter (-4..=3, biased by +4) in bits 16..19, the 2-bit useful
/// counter in bits 19..21. A fresh entry decodes to
/// `tag = 0, ctr = 0, useful = 0` — exactly the old
/// `TaggedEntry::default()`.
const CTR_BIAS: i8 = 4;
const CTR_SHIFT: u32 = 16;
const USEFUL_SHIFT: u32 = 19;
const NEW_ENTRY: u32 = (CTR_BIAS as u32) << CTR_SHIFT;

#[inline]
fn entry_tag(entry: u32) -> u16 {
    entry as u16
}

#[inline]
fn entry_ctr(entry: u32) -> i8 {
    ((entry >> CTR_SHIFT) & 0b111) as i8 - CTR_BIAS
}

#[inline]
fn entry_useful(entry: u32) -> u8 {
    ((entry >> USEFUL_SHIFT) & 0b11) as u8
}

#[inline]
fn pack_entry(tag: u16, ctr: i8, useful: u8) -> u32 {
    u32::from(tag)
        | ((((ctr + CTR_BIAS) as u32) & 0b111) << CTR_SHIFT)
        | ((u32::from(useful) & 0b11) << USEFUL_SHIFT)
}

/// Where a TAGE prediction came from (used for the update policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagePrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Providing component: `None` for the bimodal base, `Some(i)` for
    /// tagged component `i`.
    pub provider: Option<usize>,
    /// Alternate prediction (prediction without the provider).
    pub alt_taken: bool,
}

/// TAGE conditional branch predictor.
#[derive(Debug)]
pub struct Tage {
    config: TageConfig,
    base: Box<[i8]>,
    /// Packed tagged entries (tag | counter | useful), one word per entry,
    /// `comp << tagged_log2 | idx`.
    entries: Box<[u32]>,
    /// All folded-history images as one SoA family, role-major: lanes
    /// `0..num_tagged` are the index folds, `num_tagged..2*num_tagged` the
    /// primary tag folds, `2*num_tagged..3*num_tagged` the secondary tag
    /// folds. One [`FoldStateSoa::advance`] per outcome replaces 36
    /// per-object updates.
    folds: FoldStateSoa,
    /// In-flight fetch-block scratch ([`Tage::begin_block`]): per-lane
    /// packed evicted-bit windows, the packed block outcomes and the
    /// block length — the inputs the closed-form fold evaluation
    /// ([`FoldStateSoa::virtual_value`]) needs to serve any branch of the
    /// block from the *unmodified* fold state. Never part of predictor
    /// state proper — `folds` itself is untouched until
    /// [`Tage::finish_block`].
    block_evicted: Box<[u64]>,
    /// Detached working copy of the fold values, stepped branch-by-branch
    /// through the block by [`Tage::advance_block`] so each gather is a
    /// plain row read. Seeded from `folds` by [`Tage::begin_block`]; the
    /// element-wise step ([`FoldStateSoa::advance_values`]) is the loop the
    /// AVX2 build vectorises.
    block_values: Box<[u64]>,
    block_outcomes: u64,
    block_len: usize,
    lfsr: Lfsr,
    stats: PredictorStats,
}

impl Tage {
    /// Creates a predictor with the given configuration.
    pub fn new(config: TageConfig) -> Tage {
        assert_eq!(config.tag_bits.len(), config.num_tagged, "one tag width per component");
        let base = vec![0i8; 1 << config.base_log2].into_boxed_slice();
        let tagged_entries = config.num_tagged << config.tagged_log2;
        let entries = vec![NEW_ENTRY; tagged_entries].into_boxed_slice();
        let mut geometry = Vec::with_capacity(3 * config.num_tagged);
        geometry.extend(
            (0..config.num_tagged).map(|i| (config.history_length(i), config.tagged_log2 as usize)),
        );
        geometry.extend(
            (0..config.num_tagged).map(|i| (config.history_length(i), config.tag_bits[i] as usize)),
        );
        geometry.extend((0..config.num_tagged).map(|i| {
            (config.history_length(i), (config.tag_bits[i] as usize).saturating_sub(1).max(1))
        }));
        Tage {
            folds: FoldStateSoa::new(&geometry),
            block_evicted: vec![0u64; 3 * config.num_tagged].into_boxed_slice(),
            block_values: vec![0u64; 3 * config.num_tagged].into_boxed_slice(),
            config,
            base,
            entries,
            lfsr: Lfsr::new(0xb5ad_4ece_da1c_e2a9),
            block_outcomes: 0,
            block_len: 0,
            stats: PredictorStats::default(),
        }
    }

    /// Creates the Table I predictor.
    pub fn table1() -> Tage {
        Tage::new(TageConfig::table1())
    }

    #[inline]
    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << self.config.base_log2) - 1)
    }

    /// Flat index of entry `idx` of tagged component `comp`.
    #[inline]
    fn flat(&self, comp: usize, idx: usize) -> usize {
        (comp << self.config.tagged_log2) | idx
    }

    #[inline]
    fn tagged_index(&self, pc: u64, comp: usize, history: &GlobalHistory) -> usize {
        let mask = (1usize << self.config.tagged_log2) - 1;
        let pc = pc >> 2;
        let h = self.folds.value(comp);
        let path = history.path(8);
        ((pc ^ (pc >> self.config.tagged_log2 as u64) ^ h ^ (path << 1) ^ comp as u64) as usize)
            & mask
    }

    #[inline]
    fn tag(&self, pc: u64, comp: usize) -> u16 {
        let mask = (1u64 << self.config.tag_bits[comp]) - 1;
        let pc = pc >> 2;
        let c = self.config.num_tagged;
        ((pc ^ self.folds.value(c + comp) ^ (self.folds.value(2 * c + comp) << 1)) & mask) as u16
    }

    /// Number of tagged components — the number of probe lanes per branch
    /// that [`Tage::gather_block_probes_at`] fills.
    #[inline]
    pub fn num_tagged(&self) -> usize {
        self.config.num_tagged
    }

    /// Maximum fetch-block width of the batched block protocol: the block
    /// outcome and evicted-bit windows are packed into `u64`s, capped so
    /// the shifted windows of [`FoldStateSoa::virtual_value`] cannot
    /// overflow.
    pub const MAX_BLOCK: usize = 32;

    /// Starts a batched fetch block from the block's packed oracle
    /// outcomes (`len` bits, branch 0 at bit `len-1`): precomputes, per
    /// tagged component, the packed window of bits that leave its history
    /// window as the outcomes are pushed — everything the closed-form
    /// fold evaluation needs; no predictor state is modified until
    /// [`Tage::finish_block`]. `len` must be at most [`Tage::MAX_BLOCK`].
    /// The history is `&mut` only for [`GlobalHistory::window`]'s lazy
    /// word-ring sync; no observable history state changes.
    #[inline]
    pub fn begin_block(&mut self, history: &mut GlobalHistory, outcomes: u64, len: usize) {
        debug_assert!(len <= Self::MAX_BLOCK && outcomes < (1u64 << len));
        self.block_outcomes = outcomes;
        self.block_len = len;
        for comp in 0..self.config.num_tagged {
            let orig = self.folds.orig_len(comp);
            // Window bit i is the bit `orig - len + i` pushes old at block
            // start; once the block outlives the window (age < 0) the
            // evicted bits are the block's own outcomes. Full-window
            // lanes never evict: their window stays zero.
            let w = if orig >= MAX_HISTORY_BITS {
                0
            } else if orig >= len {
                history.window(orig - len, len)
            } else {
                let mut w = 0u64;
                for i in 0..len as isize {
                    let age = orig as isize - len as isize + i;
                    let bit = if age >= 0 {
                        history.bit(age as usize) as u64
                    } else {
                        (outcomes >> (len as isize + age)) & 1
                    };
                    w |= bit << i;
                }
                w
            };
            self.block_evicted[comp] = w;
        }
        // The three fold roles of a component share its history window;
        // replicate role-major so per-lane reads need no index mapping.
        let c = self.config.num_tagged;
        for lane in c..3 * c {
            self.block_evicted[lane] = self.block_evicted[lane - c];
        }
        self.block_values.copy_from_slice(self.folds.values());
    }

    /// Steps the block's working fold copy past branch `j`: one
    /// element-wise [`FoldStateSoa::advance_values`] pass feeding each
    /// lane's evicted bit from the windows prepared by
    /// [`Tage::begin_block`]. Called once per block branch (conditional or
    /// not — every branch enters the history), after that branch's
    /// gather; afterwards [`Tage::gather_block_probes_at`] serves branch
    /// `j + 1`.
    #[inline]
    pub fn advance_block(&mut self, j: usize) {
        debug_assert!(j < self.block_len);
        let shift = (self.block_len - 1 - j) as u32;
        let inserted = (self.block_outcomes >> shift) & 1;
        self.folds.advance_values(&mut self.block_values, inserted, &self.block_evicted, shift);
    }

    /// Computes the flat entry index and partial tag of every tagged
    /// component for the conditional branch the block's working fold copy
    /// currently sits at — exactly the values [`Predictor::predict`] and
    /// [`Predictor::train`] would derive after the preceding outcomes
    /// entered the history (`train` recomputes `predict`'s indices, so one
    /// gathered set serves both). Per-branch fold values are plain row
    /// reads of the working copy stepped by [`Tage::advance_block`];
    /// `path8` is the caller's virtual path register masked to 8 bits.
    /// `idx_out` and `tag_out` must be [`Tage::num_tagged`] long.
    #[inline]
    pub fn gather_block_probes_at(
        &self,
        pc: u64,
        path8: u64,
        idx_out: &mut [u32],
        tag_out: &mut [u16],
    ) {
        let c = self.config.num_tagged;
        let idx_mask = (1u64 << self.config.tagged_log2) - 1;
        let pc2 = pc >> 2;
        for comp in 0..c {
            let h = self.block_values[comp];
            let t0 = self.block_values[c + comp];
            let t1 = self.block_values[2 * c + comp];
            let idx =
                ((pc2 ^ (pc2 >> self.config.tagged_log2 as u64) ^ h ^ (path8 << 1) ^ comp as u64)
                    & idx_mask) as usize;
            idx_out[comp] = self.flat(comp, idx) as u32;
            let tag_mask = (1u64 << self.config.tag_bits[comp]) - 1;
            tag_out[comp] = ((pc2 ^ t0 ^ (t1 << 1)) & tag_mask) as u16;
        }
    }

    /// Commits a resolved block prefix into the fold state — bit-identical
    /// to one [`Predictor::on_history_update`] per resolved branch, with
    /// nothing to roll back since the block never touched the fold state.
    /// A fully resolved block adopts the working copy outright (it was
    /// stepped past every branch); a mispredict-truncated prefix is
    /// committed with one closed-form [`FoldStateSoa::jump`] over the
    /// block windows instead. The caller pushes the same outcomes into
    /// the shared [`GlobalHistory`].
    #[inline]
    pub fn finish_block(&mut self, resolved: usize) {
        debug_assert!(resolved <= self.block_len);
        let shift = self.block_len - resolved;
        if shift == 0 {
            let Tage { folds, block_values, .. } = self;
            folds.restore(block_values);
            return;
        }
        let inserted = self.block_outcomes >> shift;
        let Tage { folds, block_evicted, .. } = self;
        folds.jump(resolved, inserted, |lane| block_evicted[lane] >> shift);
    }

    /// Reads the probed entry words for `branches` gathered branches.
    /// `idx` and `out` are slot-major (`slot * num_tagged + comp`, as laid
    /// out by per-slot [`Tage::gather_block_probes_at`] calls), but the walk
    /// is component-major: all of component 0's slots, then component 1's,
    /// … — so each tagged table is probed once per block with its accesses
    /// adjacent instead of being re-visited per branch.
    ///
    /// Probes are read-only against the pre-block table state; the caller
    /// forwards any intra-block provider updates via the `patched` hook of
    /// [`Tage::train_probed`].
    #[inline]
    pub fn probe_entries(&self, idx: &[u32], out: &mut [u32], branches: usize) {
        let c = self.config.num_tagged;
        debug_assert!(idx.len() >= branches * c && out.len() >= branches * c);
        for comp in 0..c {
            for slot in 0..branches {
                let k = slot * c + comp;
                out[k] = self.entries[idx[k] as usize];
            }
        }
    }

    /// [`Predictor::predict`] against pre-read entry words and gathered
    /// tags (each [`Tage::num_tagged`] long for this branch). Bit-identical
    /// to `predict` when `entries[comp]` equals the live table word at the
    /// gathered index — the block driver guarantees that by patching
    /// provider updates of older in-flight branches into younger slots.
    #[inline]
    pub fn predict_probed(&mut self, pc: u64, entries: &[u32], tags: &[u16]) -> TagePrediction {
        self.stats.lookups += 1;
        let base_taken = self.base[self.base_index(pc)] >= 0;
        let mut provider = None;
        let mut alt: Option<bool> = None;
        let mut provider_taken = base_taken;
        // Search from longest history to shortest.
        for comp in (0..self.config.num_tagged).rev() {
            let entry = entries[comp];
            if entry_tag(entry) == tags[comp] {
                if provider.is_none() {
                    provider = Some(comp);
                    provider_taken = entry_ctr(entry) >= 0;
                } else if alt.is_none() {
                    alt = Some(entry_ctr(entry) >= 0);
                }
            }
        }
        if provider.is_some() {
            self.stats.used += 1;
        }
        TagePrediction { taken: provider_taken, provider, alt_taken: alt.unwrap_or(base_taken) }
    }

    /// [`Predictor::train`] against gathered indices and tags (each
    /// [`Tage::num_tagged`] long, as written by [`Tage::gather_block_probes_at`]
    /// for this branch — `train` recomputes the very same values, so no
    /// history is needed here). The provider counter/useful update is
    /// reported through `patched(component, flat_index, new_word)` so the
    /// block driver can forward it into younger branches' probed copies
    /// (only the same component's lane of a younger slot can alias the
    /// flat index, so one lane per slot needs checking); allocation and
    /// grace-decay writes happen only on mispredictions, which terminate
    /// the fetch block, so they never need forwarding.
    #[inline]
    pub fn train_probed(
        &mut self,
        pc: u64,
        (taken, prediction): (bool, TagePrediction),
        idx: &[u32],
        tags: &[u16],
        mut patched: impl FnMut(usize, u32, u32),
    ) {
        let mispredicted = prediction.taken != taken;
        if mispredicted {
            self.stats.incorrect += 1;
        } else {
            self.stats.correct += 1;
        }

        // Update the provider.
        match prediction.provider {
            Some(comp) => {
                let k = idx[comp] as usize;
                let entry = self.entries[k];
                let mut ctr = entry_ctr(entry);
                let mut useful = entry_useful(entry);
                ctr = if taken { (ctr + 1).min(3) } else { (ctr - 1).max(-4) };
                if prediction.taken != prediction.alt_taken {
                    if !mispredicted {
                        useful = (useful + 1).min(3);
                    } else {
                        useful = useful.saturating_sub(1);
                    }
                }
                let new = pack_entry(entry_tag(entry), ctr, useful);
                self.entries[k] = new;
                patched(comp, idx[comp], new);
            }
            None => {
                let k = self.base_index(pc);
                let c = &mut self.base[k];
                *c = if taken { (*c + 1).min(1) } else { (*c - 1).max(-2) };
            }
        }

        // Allocate a new entry in a longer-history component on a
        // misprediction.
        if mispredicted {
            let start = prediction.provider.map(|p| p + 1).unwrap_or(0);
            let mut allocated = false;
            for comp in start..self.config.num_tagged {
                let k = idx[comp] as usize;
                if entry_useful(self.entries[k]) == 0 {
                    self.entries[k] = pack_entry(tags[comp], if taken { 0 } else { -1 }, 0);
                    allocated = true;
                    break;
                }
            }
            if !allocated && self.lfsr.one_in(4) {
                // Grace: periodically age useful bits so allocation does not
                // starve.
                for &flat in &idx[start..self.config.num_tagged] {
                    let k = flat as usize;
                    let entry = self.entries[k];
                    self.entries[k] = pack_entry(
                        entry_tag(entry),
                        entry_ctr(entry),
                        entry_useful(entry).saturating_sub(1),
                    );
                }
            }
        }
    }
}

impl Predictor for Tage {
    type Config = TageConfig;
    type Prediction = TagePrediction;
    /// The observed direction plus the prediction being trained against
    /// (TAGE's update policy depends on provider/alternate agreement).
    type Outcome = (bool, TagePrediction);
    type Stats = PredictorStats;

    fn name(&self) -> &'static str {
        "tage"
    }

    /// Predicts the direction of the conditional branch at `pc`. TAGE
    /// always answers (the bimodal base backs every lookup), so this is
    /// never `None`.
    fn predict(&mut self, pc: u64, history: &GlobalHistory) -> Option<TagePrediction> {
        self.stats.lookups += 1;
        let base_taken = self.base[self.base_index(pc)] >= 0;
        let mut provider = None;
        let mut alt: Option<bool> = None;
        let mut provider_taken = base_taken;
        // Search from longest history to shortest.
        for comp in (0..self.config.num_tagged).rev() {
            let idx = self.flat(comp, self.tagged_index(pc, comp, history));
            let entry = self.entries[idx];
            if entry_tag(entry) == self.tag(pc, comp) {
                if provider.is_none() {
                    provider = Some(comp);
                    provider_taken = entry_ctr(entry) >= 0;
                } else if alt.is_none() {
                    alt = Some(entry_ctr(entry) >= 0);
                }
            }
        }
        if provider.is_some() {
            self.stats.used += 1;
        }
        Some(TagePrediction {
            taken: provider_taken,
            provider,
            alt_taken: alt.unwrap_or(base_taken),
        })
    }

    /// Updates the predictor with the actual outcome of the branch at `pc`.
    ///
    /// The outcome carries the value returned by [`Predictor::predict`] for
    /// this dynamic branch; `history` is the global history *at prediction
    /// time* (i.e. before pushing this branch's outcome).
    fn train(
        &mut self,
        pc: u64,
        (taken, prediction): (bool, TagePrediction),
        history: &GlobalHistory,
    ) {
        let mispredicted = prediction.taken != taken;
        if mispredicted {
            self.stats.incorrect += 1;
        } else {
            self.stats.correct += 1;
        }

        // Update the provider.
        match prediction.provider {
            Some(comp) => {
                let idx = self.flat(comp, self.tagged_index(pc, comp, history));
                let entry = self.entries[idx];
                let mut ctr = entry_ctr(entry);
                let mut useful = entry_useful(entry);
                ctr = if taken { (ctr + 1).min(3) } else { (ctr - 1).max(-4) };
                if prediction.taken != prediction.alt_taken {
                    if !mispredicted {
                        useful = (useful + 1).min(3);
                    } else {
                        useful = useful.saturating_sub(1);
                    }
                }
                self.entries[idx] = pack_entry(entry_tag(entry), ctr, useful);
            }
            None => {
                let idx = self.base_index(pc);
                let c = &mut self.base[idx];
                *c = if taken { (*c + 1).min(1) } else { (*c - 1).max(-2) };
            }
        }

        // Allocate a new entry in a longer-history component on a
        // misprediction.
        if mispredicted {
            let start = prediction.provider.map(|p| p + 1).unwrap_or(0);
            let mut allocated = false;
            for comp in start..self.config.num_tagged {
                let idx = self.flat(comp, self.tagged_index(pc, comp, history));
                if entry_useful(self.entries[idx]) == 0 {
                    let tag = self.tag(pc, comp);
                    self.entries[idx] = pack_entry(tag, if taken { 0 } else { -1 }, 0);
                    allocated = true;
                    break;
                }
            }
            if !allocated && self.lfsr.one_in(4) {
                // Grace: periodically age useful bits so allocation does not
                // starve.
                for comp in start..self.config.num_tagged {
                    let idx = self.flat(comp, self.tagged_index(pc, comp, history));
                    let entry = self.entries[idx];
                    self.entries[idx] = pack_entry(
                        entry_tag(entry),
                        entry_ctr(entry),
                        entry_useful(entry).saturating_sub(1),
                    );
                }
            }
        }
    }

    /// Advances the folded histories after a branch outcome has been pushed
    /// into the global history. Must be called once per outcome, after
    /// [`GlobalHistory::push`].
    fn on_history_update(&mut self, history: &GlobalHistory) {
        self.folds.advance(history);
    }

    fn config(&self) -> &TageConfig {
        &self.config
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }

    fn storage_bits(&self) -> u64 {
        self.config.storage_bits()
    }
}

impl BranchPredictor for Tage {
    fn predict_taken(&mut self, pc: u64, history: &GlobalHistory) -> bool {
        self.predict(pc, history).expect("TAGE always answers").taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the predictor over a synthetic branch outcome stream and
    /// returns the final accuracy.
    fn accuracy<F: FnMut(u64) -> bool>(mut outcome: F, branches: u64) -> f64 {
        let mut tage = Tage::table1();
        let mut hist = GlobalHistory::new();
        let mut correct = 0u64;
        for i in 0..branches {
            let pc = 0x40_0000 + (i % 13) * 4;
            let taken = outcome(i);
            let pred = tage.predict(pc, &hist).unwrap();
            if pred.taken == taken {
                correct += 1;
            }
            tage.train(pc, (taken, pred), &hist);
            hist.push(taken, pc);
            tage.on_history_update(&hist);
        }
        correct as f64 / branches as f64
    }

    #[test]
    fn config_matches_table1_size() {
        let cfg = TageConfig::table1();
        let total_entries =
            (1u64 << cfg.base_log2) + cfg.num_tagged as u64 * (1 << cfg.tagged_log2);
        assert_eq!(total_entries, 4096 + 12 * 1024); // ~16K entries ("15K entry total")
        assert!(cfg.storage_bits() > 0);
    }

    #[test]
    fn history_lengths_are_geometric_and_increasing() {
        let cfg = TageConfig::table1();
        let lens: Vec<usize> = (0..cfg.num_tagged).map(|i| cfg.history_length(i)).collect();
        assert_eq!(lens[0], cfg.min_history);
        assert_eq!(*lens.last().unwrap(), cfg.max_history);
        assert!(lens.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn always_taken_branches_are_learned() {
        let acc = accuracy(|_| true, 20_000);
        assert!(acc > 0.99, "accuracy {acc}");
    }

    #[test]
    fn short_periodic_patterns_are_learned() {
        let acc = accuracy(|i| i % 5 != 4, 50_000);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn loop_with_fixed_trip_count_is_learned() {
        // Taken 15 times, not taken once — classic loop-exit pattern that
        // needs history to disambiguate.
        let acc = accuracy(|i| i % 16 != 15, 50_000);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn random_branches_are_not_predictable() {
        let mut lfsr = Lfsr::new(99);
        let acc = accuracy(|_| lfsr.next_u64().is_multiple_of(2), 20_000);
        assert!(acc < 0.65, "accuracy {acc} suspiciously high for random outcomes");
    }

    #[test]
    fn stats_track_mispredictions() {
        let mut tage = Tage::table1();
        let hist = GlobalHistory::new();
        let pred = tage.predict(0x1000, &hist).unwrap();
        tage.train(0x1000, (!pred.taken, pred), &hist);
        assert_eq!(tage.stats().lookups, 1);
        assert_eq!(tage.stats().incorrect, 1);
        assert!(tage.stats().mpki(1000) > 0.0);
    }

    #[test]
    fn entry_packing_round_trips() {
        for ctr in -4i8..=3 {
            for useful in 0u8..=3 {
                for tag in [0u16, 1, 0x1fff, u16::MAX] {
                    let packed = pack_entry(tag, ctr, useful);
                    assert_eq!(entry_tag(packed), tag);
                    assert_eq!(entry_ctr(packed), ctr);
                    assert_eq!(entry_useful(packed), useful);
                }
            }
        }
        assert_eq!(entry_tag(NEW_ENTRY), 0);
        assert_eq!(entry_ctr(NEW_ENTRY), 0);
        assert_eq!(entry_useful(NEW_ENTRY), 0);
    }

    #[test]
    fn entry_packing_fields_are_disjoint() {
        // Each field's footprint is what `pack_entry` writes when only that
        // field is all-ones (the biased counter's zero is `-CTR_BIAS`).
        let tag = pack_entry(u16::MAX, -CTR_BIAS, 0);
        let ctr = pack_entry(0, 3, 0);
        let useful = pack_entry(0, -CTR_BIAS, 3);
        assert_eq!([tag.count_ones(), ctr.count_ones(), useful.count_ones()], [16, 3, 2]);
        assert_eq!(tag & ctr, 0, "tag and counter overlap");
        assert_eq!(tag & useful, 0, "tag and useful overlap");
        assert_eq!(ctr & useful, 0, "counter and useful overlap");
    }

    #[test]
    fn predictor_trait_surface() {
        use rsep_isa::Fingerprint as _;
        let mut tage = Tage::table1();
        assert_eq!(tage.name(), "tage");
        assert_eq!(tage.storage_bits(), TageConfig::table1().storage_bits());
        assert_eq!(Predictor::fingerprint(&tage), TageConfig::table1().fingerprint_value());
        let hist = GlobalHistory::new();
        let taken = tage.predict_taken(0x4000, &hist);
        let pred = tage.predict(0x4000, &hist).unwrap();
        assert_eq!(pred.taken, taken);
    }

    #[test]
    #[should_panic(expected = "one tag width per component")]
    fn config_validation() {
        let mut cfg = TageConfig::table1();
        cfg.tag_bits.pop();
        let _ = Tage::new(cfg);
    }
}
