//! Inflight Shared Registers Buffer (ISRB), Section IV-E2.
//!
//! RSEP shares a physical register between the provider instruction and the
//! predicted instruction, so registers can no longer be freed as soon as
//! their architectural mapping is overwritten. In the paper the ISRB both
//! tracks shared registers and decides when they are freed: each entry holds
//! a `referenced` counter (extra references, including speculative ones) and
//! a `committed` counter (committed de-references), and the register frees
//! when `committed` exceeds `referenced`.
//!
//! In this model the free decision belongs to the register file's
//! per-register reference count, for every register (`rsep_uarch::regfile`).
//! The ISRB keeps its role as a filter on *accepting* a share: a small
//! fully-associative buffer (24 entries of 6-bit counters in the paper's
//! final configuration) that rejects a share when it is full or the entry's
//! `referenced` counter would saturate. Squashed sharers roll their
//! references back, and an entry retires when the core reports its register
//! back to one owner ([`Isrb::on_release`]).

use rsep_isa::PhysReg;

/// One ISRB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IsrbEntry {
    preg: PhysReg,
    /// Number of extra references to the register (sharers), including
    /// speculative ones.
    referenced: u32,
}

/// A speculative (not yet committed) sharing reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingShare {
    seq: u64,
    preg: PhysReg,
}

/// Configuration of the ISRB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsrbConfig {
    /// Number of entries (24 in Section VI-A3).
    pub entries: usize,
    /// Width of each counter in bits (6 in Section VI-A3).
    pub counter_bits: u8,
}

impl IsrbConfig {
    /// The paper's final configuration: 24 entries of two 6-bit counters.
    pub fn paper() -> IsrbConfig {
        IsrbConfig { entries: 24, counter_bits: 6 }
    }

    /// An effectively unlimited ISRB (used for the ideal configuration).
    pub fn unlimited() -> IsrbConfig {
        IsrbConfig { entries: usize::MAX, counter_bits: 16 }
    }

    /// Storage in bits of the paper's ISRB: two counters plus a physical
    /// register tag per entry (the 63 bytes reported in Section VI-B for 24
    /// entries). The register file's reference count stands in for the
    /// `committed` counter in this model, but the hardware budget is the
    /// paper's.
    pub fn storage_bits(&self) -> u64 {
        if self.entries == usize::MAX {
            return 0;
        }
        let preg_tag_bits = 9; // 235 < 512 physical registers per class + class bit
        self.entries as u64 * (2 * u64::from(self.counter_bits) + preg_tag_bits)
    }

    fn counter_max(&self) -> u32 {
        if self.counter_bits >= 32 {
            u32::MAX
        } else {
            (1u32 << self.counter_bits) - 1
        }
    }
}

impl rsep_isa::Fingerprint for IsrbConfig {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self { entries, counter_bits } = self;
        h.write_str("IsrbConfig");
        entries.fingerprint(h);
        counter_bits.fingerprint(h);
    }
}

/// Statistics of the ISRB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsrbStats {
    /// Sharing requests that were accepted.
    pub shares_accepted: u64,
    /// Sharing requests rejected because the buffer was full.
    pub shares_rejected_full: u64,
    /// Maximum occupancy observed.
    pub max_occupancy: usize,
}

/// The Inflight Shared Registers Buffer.
#[derive(Debug)]
pub struct Isrb {
    config: IsrbConfig,
    entries: Vec<IsrbEntry>,
    pending: Vec<PendingShare>,
    stats: IsrbStats,
}

impl Isrb {
    /// Creates an ISRB with the given configuration.
    pub fn new(config: IsrbConfig) -> Isrb {
        Isrb { config, entries: Vec::new(), pending: Vec::new(), stats: IsrbStats::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> IsrbConfig {
        self.config
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> IsrbStats {
        self.stats
    }

    /// Current number of tracked registers.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Attempts to record that the instruction with sequence number `seq`
    /// shares `preg`. Returns `false` (no sharing) when the buffer is full
    /// or the entry's counter would overflow.
    pub fn try_share(&mut self, preg: PhysReg, seq: u64) -> bool {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.preg == preg) {
            if entry.referenced >= self.config.counter_max() {
                self.stats.shares_rejected_full += 1;
                return false;
            }
            entry.referenced += 1;
        } else {
            if self.entries.len() >= self.config.entries {
                self.stats.shares_rejected_full += 1;
                return false;
            }
            self.entries.push(IsrbEntry { preg, referenced: 1 });
            self.stats.max_occupancy = self.stats.max_occupancy.max(self.entries.len());
        }
        self.pending.push(PendingShare { seq, preg });
        self.stats.shares_accepted += 1;
        true
    }

    /// Notifies the ISRB that the sharing instruction `seq` committed (its
    /// reference is no longer speculative).
    pub fn on_sharer_commit(&mut self, seq: u64) {
        self.pending.retain(|p| p.seq != seq);
    }

    /// Called when `preg` is back to at most one owner: it is no longer
    /// shared, so its entry (if any) retires.
    pub fn on_release(&mut self, preg: PhysReg) {
        if let Some(idx) = self.entries.iter().position(|e| e.preg == preg) {
            self.entries.swap_remove(idx);
        }
    }

    /// Rolls back all speculative references made by instructions with
    /// sequence number `>= from_seq` (checkpoint recovery / pipeline
    /// squash).
    pub fn on_squash(&mut self, from_seq: u64) {
        let entries = &mut self.entries;
        self.pending.retain(|share| {
            if share.seq < from_seq {
                return true;
            }
            if let Some(entry) = entries.iter_mut().find(|e| e.preg == share.preg) {
                entry.referenced = entry.referenced.saturating_sub(1);
            }
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsep_isa::RegClass;

    fn preg(i: u16) -> PhysReg {
        PhysReg::new(RegClass::Int, i)
    }

    #[test]
    fn paper_config_storage_is_about_63_bytes() {
        let bits = IsrbConfig::paper().storage_bits();
        let bytes = bits as f64 / 8.0;
        assert!((60.0..=68.0).contains(&bytes), "ISRB storage {bytes} bytes, paper says 63");
    }

    #[test]
    fn entry_retires_when_its_register_is_back_to_one_owner() {
        let mut isrb = Isrb::new(IsrbConfig::paper());
        assert!(isrb.try_share(preg(7), 100));
        assert!(isrb.try_share(preg(7), 101));
        assert_eq!(isrb.occupancy(), 1, "sharers of one register share its entry");
        isrb.on_sharer_commit(100);
        isrb.on_release(preg(7));
        assert_eq!(isrb.occupancy(), 0);
    }

    #[test]
    fn unshared_registers_free_immediately() {
        // The ISRB holds nothing for a register it never accepted a share
        // of, so a release leaves it untouched.
        let mut isrb = Isrb::new(IsrbConfig::paper());
        assert!(isrb.try_share(preg(3), 1));
        isrb.on_release(preg(9));
        assert_eq!(isrb.occupancy(), 1);
    }

    #[test]
    fn full_buffer_rejects_new_pairs() {
        let mut isrb = Isrb::new(IsrbConfig { entries: 2, counter_bits: 6 });
        assert!(isrb.try_share(preg(1), 1));
        assert!(isrb.try_share(preg(2), 2));
        assert!(!isrb.try_share(preg(3), 3));
        assert_eq!(isrb.stats().shares_rejected_full, 1);
        // Sharing an already-tracked register still works.
        assert!(isrb.try_share(preg(1), 4));
        // A retired entry makes room again.
        isrb.on_release(preg(2));
        assert!(isrb.try_share(preg(3), 5));
    }

    #[test]
    fn saturated_counter_rejects_further_sharers() {
        let mut isrb = Isrb::new(IsrbConfig { entries: 4, counter_bits: 2 });
        for seq in 0..3 {
            assert!(isrb.try_share(preg(5), seq));
        }
        assert!(!isrb.try_share(preg(5), 3), "a 2-bit counter holds 3 sharers");
        assert_eq!(isrb.stats().shares_rejected_full, 1);
        // Squashing the youngest sharer frees a count.
        isrb.on_squash(2);
        assert!(isrb.try_share(preg(5), 4));
    }

    #[test]
    fn squash_rolls_back_speculative_references() {
        let mut isrb = Isrb::new(IsrbConfig { entries: 4, counter_bits: 1 });
        assert!(isrb.try_share(preg(5), 10));
        assert!(!isrb.try_share(preg(5), 11), "a 1-bit counter holds one sharer");
        // The sharer is squashed: its reference is undone, so the counter
        // has room for a new one.
        isrb.on_squash(10);
        assert!(isrb.try_share(preg(5), 12));
    }

    #[test]
    fn squash_only_affects_younger_sequences() {
        let mut isrb = Isrb::new(IsrbConfig { entries: 4, counter_bits: 1 });
        assert!(isrb.try_share(preg(5), 10));
        assert!(isrb.try_share(preg(6), 20));
        isrb.on_squash(15);
        // preg 6's reference was rolled back; preg 5's remains.
        assert!(!isrb.try_share(preg(5), 21));
        assert!(isrb.try_share(preg(6), 22));
    }

    #[test]
    fn committed_sharer_references_survive_squash() {
        let mut isrb = Isrb::new(IsrbConfig { entries: 4, counter_bits: 1 });
        assert!(isrb.try_share(preg(8), 30));
        isrb.on_sharer_commit(30);
        isrb.on_squash(0);
        assert!(!isrb.try_share(preg(8), 31), "the committed reference still counts");
        assert_eq!(isrb.occupancy(), 1);
    }

    #[test]
    fn unlimited_config_never_rejects() {
        let mut isrb = Isrb::new(IsrbConfig::unlimited());
        for i in 0..10_000u16 {
            assert!(isrb.try_share(preg(i % 400), u64::from(i)));
        }
        assert_eq!(isrb.stats().shares_rejected_full, 0);
        assert_eq!(IsrbConfig::unlimited().storage_bits(), 0);
    }
}
