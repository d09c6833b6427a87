//! Commit-time FIFO history and pairing (Section IV-B2 / IV-B3 / IV-D2).
//!
//! At commit, the hashes of retiring register-producing instructions are
//! compared against the hashes of the last `capacity` retired producers to
//! discover pairs that produced the same result; the resulting instruction
//! distance (difference of commit sequence numbers) trains the distance
//! predictor. The structure is a FIFO, the *explicit IDist* variant of
//! Section IV-D2a: every entry carries a commit sequence number so the
//! distance is computed with a subtraction.
//!
//! When a distance prediction is being propagated with the instruction, the
//! match that corresponds to the predicted distance is preferred over the
//! most recent one (Section VI-A2: this filters "per chance" matches).
//!
//! Commit-time sampling (Section IV-B3) limits the number of comparisons:
//! only one randomly chosen committing instruction per cycle searches the
//! history; instructions whose confidence already exceeds the
//! `start_train` threshold are trained through the validation path instead.
//!
//! # Hash chains
//!
//! The hardware compares the searching hash against every entry in
//! parallel; a model that did the same serially would pay `capacity`
//! comparisons per search (2048 for the ideal history), although only
//! entries with the *same* hash can match. The model therefore keeps the
//! FIFO as a ring of `capacity` slots indexed by push ordinal (the `n`-th
//! push lands in slot `n % capacity`), plus a hash chain over it:
//!
//! * a head table, one word per hash value (at most 2^16), holds the
//!   ordinal of the youngest push with that hash;
//! * each slot links to the ordinal of the next-older push with the same
//!   hash.
//!
//! An entry is live iff its ordinal is among the last `capacity` pushes.
//! Chains run youngest to oldest, so the walk in [`FifoHistory::find_pair`]
//! stops at the first dead ordinal; links into slots that have since been
//! overwritten are never followed, because the overwrite made their
//! ordinal dead. The walk visits exactly the live same-hash entries, in
//! the youngest-first order of a full scan, so every [`PairMatch`] and
//! [`FifoHistoryStats`] value is that of the scan.
//!
//! A configured capacity of 0 behaves as a one-entry history: the most
//! recent producer is always remembered.

use rsep_isa::FoldHash;
use rsep_predictors::Lfsr;

/// Configuration of the FIFO history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoHistoryConfig {
    /// Number of retired producers remembered (128 in Section VI-B; the
    /// ideal configuration uses a history much larger than the ROB).
    pub capacity: usize,
    /// Hash width in bits (14 in Section IV-A).
    pub hash_bits: u8,
    /// Width of the stored commit sequence numbers (10 bits in the paper's
    /// sizing; only used for storage accounting — the model keeps full
    /// sequence numbers and computes distances exactly).
    pub csn_bits: u8,
}

impl FifoHistoryConfig {
    /// The realistic configuration of Section VI-B: 128 entries, 14-bit
    /// hashes, 10-bit CSNs (384 bytes).
    pub fn realistic() -> FifoHistoryConfig {
        FifoHistoryConfig { capacity: 128, hash_bits: 14, csn_bits: 10 }
    }

    /// A history much larger than the ROB (the "ideal" configuration of
    /// Section VI-A1).
    pub fn ideal() -> FifoHistoryConfig {
        FifoHistoryConfig { capacity: 2048, hash_bits: 14, csn_bits: 12 }
    }

    /// Storage in bits (hash + CSN per entry).
    pub fn storage_bits(&self) -> u64 {
        self.capacity as u64 * (u64::from(self.hash_bits) + u64::from(self.csn_bits))
    }

    /// Number of hash comparators needed for an unsampled implementation at
    /// the given commit width (Section IV-B2's 2076-comparator example).
    pub fn comparators(&self, commit_width: usize) -> u64 {
        let within_group = (commit_width * (commit_width - 1) / 2) as u64;
        self.capacity as u64 * commit_width as u64 + within_group
    }
}

impl rsep_isa::Fingerprint for FifoHistoryConfig {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self { capacity, hash_bits, csn_bits } = self;
        h.write_str("FifoHistoryConfig");
        capacity.fingerprint(h);
        hash_bits.fingerprint(h);
        csn_bits.fingerprint(h);
    }
}

/// One slot of the history ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HistoryEntry {
    csn: u64,
    /// Link to the next-older push with the same hash: its ordinal plus
    /// one, or 0 for the end of the chain.
    older: u64,
}

/// Result of a history search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairMatch {
    /// Instruction distance (difference of commit sequence numbers).
    pub distance: u32,
    /// Whether the match corresponds to the propagated predicted distance.
    pub matched_prediction: bool,
}

/// Commit-time FIFO history.
#[derive(Debug)]
pub struct FifoHistory {
    config: FifoHistoryConfig,
    hash: FoldHash,
    /// The ring: push ordinal `n` lives in slot `n % slots_cap` (filled
    /// lazily, so a huge configured capacity costs nothing until used).
    entries: Vec<HistoryEntry>,
    /// Ring size: `capacity`, or 1 for a zero capacity.
    slots_cap: u64,
    /// Per hash value, the youngest push with that hash: its ordinal plus
    /// one, or 0 when there was none.
    heads: Vec<u64>,
    /// Number of pushes so far (the next push's ordinal).
    pushed: u64,
    lfsr: Lfsr,
    /// Committing producers seen in the current cycle (for sampling).
    seen_this_cycle: u32,
    current_cycle: u64,
    stats: FifoHistoryStats,
}

/// Statistics of the FIFO history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoHistoryStats {
    /// Searches performed.
    pub searches: u64,
    /// Searches that found at least one matching hash.
    pub matches: u64,
    /// Searches whose best match was the propagated predicted distance.
    pub predicted_distance_matches: u64,
    /// Producers pushed into the history.
    pub pushes: u64,
    /// Committing producers skipped because of sampling.
    pub sampled_out: u64,
}

impl FifoHistory {
    /// Creates a FIFO history.
    pub fn new(config: FifoHistoryConfig) -> FifoHistory {
        FifoHistory {
            config,
            hash: FoldHash::new(config.hash_bits),
            entries: Vec::with_capacity(config.capacity.clamp(1, 1 << 16)),
            slots_cap: config.capacity.max(1) as u64,
            heads: vec![0; 1 << config.hash_bits.min(16)],
            pushed: 0,
            lfsr: Lfsr::new(0xf1f0_0123_4567),
            seen_this_cycle: 0,
            current_cycle: u64::MAX,
            stats: FifoHistoryStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> FifoHistoryConfig {
        self.config
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> FifoHistoryStats {
        self.stats
    }

    /// Current number of remembered producers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the history is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The live entry pushed with ordinal `link - 1`, or `None` when `link`
    /// ends the chain or names an entry that has left the FIFO.
    fn live(&self, link: u64) -> Option<&HistoryEntry> {
        let ordinal = link.checked_sub(1)?;
        if self.pushed - ordinal > self.slots_cap {
            return None;
        }
        Some(&self.entries[(ordinal % self.slots_cap) as usize])
    }

    /// Decides whether a committing producer may search the history this
    /// cycle under commit-time sampling: only the first randomly retained
    /// producer of each cycle searches.
    ///
    /// `cycle` is the commit cycle; `commit_width` scales the retention
    /// probability so on average one producer per full-width commit group
    /// searches.
    pub fn admit_sampled(&mut self, cycle: u64, commit_width: u32) -> bool {
        if cycle != self.current_cycle {
            self.current_cycle = cycle;
            self.seen_this_cycle = 0;
        }
        self.seen_this_cycle += 1;
        if self.seen_this_cycle > 1 {
            self.stats.sampled_out += 1;
            return false;
        }
        let _ = commit_width;
        true
    }

    /// Searches the history for an older producer with the same result
    /// hash. `predicted_distance`, when provided, is preferred over the
    /// most recent match.
    pub fn find_pair(
        &mut self,
        csn: u64,
        result: u64,
        predicted_distance: Option<u32>,
    ) -> Option<PairMatch> {
        self.stats.searches += 1;
        let h = self.hash.hash(result);
        let mut best: Option<PairMatch> = None;
        // Walk the hash chain youngest (closest) first so the default match
        // is the most recent older instruction, as in the paper.
        let mut link = self.heads[usize::from(h)];
        while let Some(entry) = self.live(link) {
            let distance = (csn - entry.csn) as u32;
            if best.is_none() {
                best = Some(PairMatch { distance, matched_prediction: false });
            }
            if predicted_distance == Some(distance) {
                best = Some(PairMatch { distance, matched_prediction: true });
                break;
            }
            link = entry.older;
        }
        if let Some(m) = best {
            self.stats.matches += 1;
            if m.matched_prediction {
                self.stats.predicted_distance_matches += 1;
            }
        }
        best
    }

    /// Pushes a retiring producer into the history.
    pub fn push(&mut self, csn: u64, result: u64) {
        self.stats.pushes += 1;
        let h = self.hash.hash(result);
        let head = &mut self.heads[usize::from(h)];
        let entry = HistoryEntry { csn, older: *head };
        self.pushed += 1;
        *head = self.pushed;
        let slot = ((self.pushed - 1) % self.slots_cap) as usize;
        if slot == self.entries.len() {
            self.entries.push(entry);
        } else {
            self.entries[slot] = entry;
        }
    }

    /// Randomly selects one of `group` committing producers (sampling as
    /// described in Section IV-B3); exposed for the harness's comparator
    /// accounting experiments.
    pub fn pick_random(&mut self, group: u32) -> u32 {
        if group <= 1 {
            0
        } else {
            (self.lfsr.next_u64() % u64::from(group)) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_matches_paper_sizing() {
        // Section VI-B: 128 entries × (14-bit hash + 10-bit CSN) = 384 B.
        let bytes = FifoHistoryConfig::realistic().storage_bits() / 8;
        assert_eq!(bytes, 384);
    }

    #[test]
    fn comparator_count_matches_section_iv_b2() {
        // 256 entries, commit width 8: 2048 + 28 = 2076 comparators.
        let cfg = FifoHistoryConfig { capacity: 256, hash_bits: 14, csn_bits: 10 };
        assert_eq!(cfg.comparators(8), 2076);
    }

    #[test]
    fn finds_the_most_recent_matching_producer() {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::realistic());
        fifo.push(10, 0xaaaa);
        fifo.push(20, 0xbbbb);
        fifo.push(30, 0xaaaa);
        let m = fifo.find_pair(40, 0xaaaa, None).unwrap();
        assert_eq!(m.distance, 10); // most recent producer of 0xaaaa is CSN 30
        assert!(!m.matched_prediction);
    }

    #[test]
    fn prefers_the_predicted_distance_over_the_most_recent_match() {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::realistic());
        fifo.push(10, 0xaaaa);
        fifo.push(30, 0xaaaa);
        let m = fifo.find_pair(40, 0xaaaa, Some(30)).unwrap();
        assert_eq!(m.distance, 30);
        assert!(m.matched_prediction);
        assert_eq!(fifo.stats().predicted_distance_matches, 1);
    }

    #[test]
    fn no_match_for_unseen_values() {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::realistic());
        fifo.push(1, 123);
        assert!(fifo.find_pair(2, 456, None).is_none());
        assert_eq!(fifo.stats().matches, 0);
    }

    #[test]
    fn capacity_is_bounded() {
        let cfg = FifoHistoryConfig { capacity: 4, hash_bits: 14, csn_bits: 10 };
        let mut fifo = FifoHistory::new(cfg);
        for i in 0..10u64 {
            fifo.push(i, i);
        }
        assert_eq!(fifo.len(), 4);
        // The oldest entries fell out: value 0 is no longer matchable.
        assert!(fifo.find_pair(20, 0, None).is_none());
        assert!(fifo.find_pair(20, 9, None).is_some());
    }

    #[test]
    fn sampling_admits_one_producer_per_cycle() {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::realistic());
        assert!(fifo.admit_sampled(100, 8));
        assert!(!fifo.admit_sampled(100, 8));
        assert!(!fifo.admit_sampled(100, 8));
        assert!(fifo.admit_sampled(101, 8));
        assert_eq!(fifo.stats().sampled_out, 2);
    }

    #[test]
    fn hash_collisions_can_cause_false_matches() {
        // With a 1-bit hash everything collides; the history reports a
        // match even for unequal values. This is exactly the accuracy /
        // complexity trade-off of Section IV-A, resolved by validation.
        let cfg = FifoHistoryConfig { capacity: 16, hash_bits: 1, csn_bits: 10 };
        let mut fifo = FifoHistory::new(cfg);
        fifo.push(1, 2);
        assert!(fifo.find_pair(2, 4, None).is_some());
    }

    #[test]
    fn pick_random_is_in_range() {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::realistic());
        for _ in 0..100 {
            assert!(fifo.pick_random(8) < 8);
        }
        assert_eq!(fifo.pick_random(1), 0);
    }
}
