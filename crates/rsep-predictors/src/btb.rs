//! Branch target buffer and return address stack (Table I front end).
//!
//! The BTB is the fifth family on the unified [`Predictor`] trait: a
//! `predict` is a target lookup, a `train` installs or updates the target
//! of a taken branch. Storage is struct-of-arrays — flat tag and target
//! arrays indexed `set * 2 + way` plus one packed valid/replacement byte
//! per set — instead of the former `Vec<[Entry; 2]>` of structs.

use crate::history::GlobalHistory;
use crate::predictor::{Predictor, PredictorStats};

/// Configuration of a [`Btb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbConfig {
    /// Total entries (2-way associative).
    pub entries: usize,
}

impl BtbConfig {
    /// The Table I configuration (2-way, 4K entries).
    pub fn table1() -> BtbConfig {
        BtbConfig { entries: 4096 }
    }

    /// Storage in bits. The model keys entries by full PC for exactness;
    /// the hardware cost is estimated with the customary partial tag plus
    /// a compressed target (tag ≈ 20 bits, target ≈ 32 bits, 1 valid bit
    /// per entry, 1 replacement bit per set).
    pub fn storage_bits(&self) -> u64 {
        let per_entry = 20 /* tag */ + 32 /* target */ + 1 /* valid */;
        self.entries as u64 * per_entry + (self.entries as u64 / 2/* replace */)
    }
}

impl rsep_isa::Fingerprint for BtbConfig {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self { entries } = self;
        h.write_str("BtbConfig");
        entries.fingerprint(h);
    }
}

/// Per-set packed byte: way-0 and way-1 valid bits plus the round-robin
/// replacement pointer.
const WAY0_VALID: u8 = 1 << 0;
const WAY1_VALID: u8 = 1 << 1;
const REPLACE: u8 = 1 << 2;

/// A set-associative branch target buffer.
///
/// Table I specifies a 2-way, 4K-entry BTB. The BTB supplies the target of
/// taken branches at fetch time; a taken branch that misses in the BTB
/// cannot be redirected by the front end and is charged as a misprediction
/// by the core model.
#[derive(Debug)]
pub struct Btb {
    config: BtbConfig,
    /// Flat tags, `set * 2 + way`.
    tags: Box<[u64]>,
    /// Flat targets, same indexing.
    targets: Box<[u64]>,
    /// Packed valid/replacement byte per set.
    meta: Box<[u8]>,
    set_mask: u64,
    stats: PredictorStats,
}

impl Btb {
    /// Creates a BTB with `entries` total entries, 2-way associative.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or is smaller than 2.
    pub fn new(entries: usize) -> Btb {
        assert!(
            entries >= 2 && entries.is_power_of_two(),
            "BTB entries must be a power of two >= 2"
        );
        let sets = entries / 2;
        Btb {
            config: BtbConfig { entries },
            tags: vec![0u64; entries].into_boxed_slice(),
            targets: vec![0u64; entries].into_boxed_slice(),
            meta: vec![0u8; sets].into_boxed_slice(),
            set_mask: sets as u64 - 1,
            stats: PredictorStats::default(),
        }
    }

    /// The Table I configuration (2-way, 4K entries).
    pub fn table1() -> Btb {
        Btb::new(4096)
    }

    #[inline]
    fn set_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.set_mask) as usize
    }

    /// Index of the way holding `pc` in set `set`, if present.
    #[inline]
    fn find_way(&self, set: usize, pc: u64) -> Option<usize> {
        let meta = self.meta[set];
        (0..2).find(|&way| {
            let valid = meta & (WAY0_VALID << way) != 0;
            valid && self.tags[set * 2 + way] == pc
        })
    }
}

impl Predictor for Btb {
    type Config = BtbConfig;
    /// The predicted target address.
    type Prediction = u64;
    /// The observed target of a taken branch.
    type Outcome = u64;
    type Stats = PredictorStats;

    fn name(&self) -> &'static str {
        "btb"
    }

    /// Looks up the predicted target of the branch at `pc`. The global
    /// history is unused: the BTB is PC-indexed.
    #[inline]
    fn predict(&mut self, pc: u64, _history: &GlobalHistory) -> Option<u64> {
        self.stats.lookups += 1;
        let set = self.set_index(pc);
        let way = self.find_way(set, pc)?;
        self.stats.used += 1;
        Some(self.targets[set * 2 + way])
    }

    /// Installs or updates the target of the taken branch at `pc`.
    #[inline]
    fn train(&mut self, pc: u64, target: u64, _history: &GlobalHistory) {
        let set = self.set_index(pc);
        if let Some(way) = self.find_way(set, pc) {
            if self.targets[set * 2 + way] == target {
                self.stats.correct += 1;
            } else {
                self.stats.incorrect += 1;
            }
            self.targets[set * 2 + way] = target;
            return;
        }
        self.stats.incorrect += 1;
        let meta = self.meta[set];
        let way = if meta & WAY0_VALID == 0 {
            0
        } else if meta & WAY1_VALID == 0 {
            1
        } else {
            // Round-robin replacement, advancing the pointer.
            let victim = usize::from(meta & REPLACE != 0);
            self.meta[set] ^= REPLACE;
            victim
        };
        self.tags[set * 2 + way] = pc;
        self.targets[set * 2 + way] = target;
        self.meta[set] |= WAY0_VALID << way;
    }

    fn config(&self) -> &BtbConfig {
        &self.config
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }

    fn storage_bits(&self) -> u64 {
        self.config.storage_bits()
    }
}

/// A return address stack.
///
/// Table I specifies a 32-entry RAS. Pushes wrap around (overwriting the
/// oldest entry) as in real hardware. The RAS is a stack, not a trained
/// table, so it sits beside the [`Predictor`] family inside the
/// [`PredictorStack`](crate::PredictorStack) rather than on the trait.
#[derive(Debug)]
pub struct ReturnAddressStack {
    entries: Vec<u64>,
    top: usize,
    depth: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS with the given capacity.
    pub fn new(capacity: usize) -> ReturnAddressStack {
        assert!(capacity > 0);
        ReturnAddressStack { entries: vec![0; capacity], top: 0, depth: 0 }
    }

    /// The Table I configuration (32 entries).
    pub fn table1() -> ReturnAddressStack {
        ReturnAddressStack::new(32)
    }

    /// Pushes a return address (on a call).
    #[inline]
    pub fn push(&mut self, return_addr: u64) {
        self.top = (self.top + 1) % self.entries.len();
        self.entries[self.top] = return_addr;
        self.depth = (self.depth + 1).min(self.entries.len());
    }

    /// Pops the predicted return address (on a return). Returns `None` when
    /// the stack is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let addr = self.entries[self.top];
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.depth -= 1;
        Some(addr)
    }

    /// Number of valid entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Storage in bits (full 64-bit return addresses).
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> GlobalHistory {
        GlobalHistory::new()
    }

    #[test]
    fn btb_stores_and_returns_targets() {
        let mut btb = Btb::table1();
        assert_eq!(btb.predict(0x1000, &hist()), None);
        btb.train(0x1000, 0x2000, &hist());
        assert_eq!(btb.predict(0x1000, &hist()), Some(0x2000));
        btb.train(0x1000, 0x3000, &hist());
        assert_eq!(btb.predict(0x1000, &hist()), Some(0x3000));
        assert!(btb.stats().lookups >= 3);
        assert!(btb.stats().used >= 2);
    }

    #[test]
    fn btb_two_way_associativity_avoids_immediate_eviction() {
        let mut btb = Btb::new(8); // 4 sets, 2 ways.
                                   // Two PCs mapping to the same set (stride = 4 sets * 4 bytes).
        btb.train(0x1000, 0xa, &hist());
        btb.train(0x1000 + 16, 0xb, &hist());
        assert_eq!(btb.predict(0x1000, &hist()), Some(0xa));
        assert_eq!(btb.predict(0x1000 + 16, &hist()), Some(0xb));
        // A third conflicting PC evicts one of them but not both.
        btb.train(0x1000 + 32, 0xc, &hist());
        let survivors = [0x1000u64, 0x1000 + 16]
            .iter()
            .filter(|&&pc| btb.predict(pc, &hist()).is_some())
            .count();
        assert_eq!(survivors, 1);
        assert_eq!(btb.predict(0x1000 + 32, &hist()), Some(0xc));
    }

    #[test]
    fn btb_round_robin_replacement_alternates_ways() {
        let mut btb = Btb::new(2); // one set, two ways
        btb.train(0x1000, 0xa, &hist());
        btb.train(0x1010, 0xb, &hist());
        // Full set: consecutive conflicting installs evict alternating ways,
        // so the two most recent victims are always resident.
        btb.train(0x1020, 0xc, &hist());
        btb.train(0x1030, 0xd, &hist());
        assert_eq!(btb.predict(0x1020, &hist()), Some(0xc));
        assert_eq!(btb.predict(0x1030, &hist()), Some(0xd));
        assert_eq!(btb.predict(0x1000, &hist()), None);
        assert_eq!(btb.predict(0x1010, &hist()), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn btb_size_is_validated() {
        let _ = Btb::new(3);
    }

    #[test]
    fn btb_storage_and_config() {
        let btb = Btb::table1();
        assert_eq!(btb.config().entries, 4096);
        assert_eq!(btb.storage_bits(), BtbConfig::table1().storage_bits());
        assert!(btb.storage_bits() > 4096 * 50);
    }

    #[test]
    fn ras_is_lifo() {
        let mut ras = ReturnAddressStack::table1();
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_overflow_wraps() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }
}
