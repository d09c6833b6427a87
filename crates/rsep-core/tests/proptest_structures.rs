//! Property-based tests on the RSEP hardware structures: the ISRB
//! reference-counting protocol and the commit FIFO history, plus the
//! Figure 1 redundancy analyzer's counted value window.

use proptest::prelude::*;
use rsep_core::{
    FifoHistory, FifoHistoryConfig, FifoHistoryStats, Isrb, IsrbConfig, PairMatch,
    RedundancyAnalyzer, RedundancyConfig, RedundancyReport,
};
use rsep_isa::{ArchReg, DynInst, DynInstBuilder, FoldHash, OpClass, PhysReg, RegClass};
use std::collections::VecDeque;

/// The scanning Figure 1 analyzer that the counted value window replaced,
/// kept as its model: membership is a scan of the last `window` producer
/// results. A zero window keeps the latest result, because the eviction
/// test runs before the push.
#[derive(Debug)]
struct ScanAnalyzer {
    window: usize,
    recent: VecDeque<u64>,
    report: RedundancyReport,
}

impl ScanAnalyzer {
    fn observe(&mut self, inst: &DynInst) {
        self.report.committed += 1;
        if !inst.produces_register() || inst.op == OpClass::ZeroIdiom {
            return;
        }
        let is_load = inst.op.is_load();
        if inst.result == 0 {
            if is_load {
                self.report.zero_loads += 1;
            } else {
                self.report.zero_others += 1;
            }
        } else if self.recent.contains(&inst.result) {
            if is_load {
                self.report.prf_loads += 1;
            } else {
                self.report.prf_others += 1;
            }
        }
        if self.recent.len() >= self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(inst.result);
    }
}

/// The linear-scan FIFO history that the hash-chained [`FifoHistory`]
/// replaced, kept as its model: every search compares the hash of every
/// remembered producer, youngest first. A zero capacity remembers one
/// producer.
#[derive(Debug)]
struct ScanHistory {
    capacity: usize,
    hash: FoldHash,
    /// `(csn, hash)` per remembered producer, oldest first.
    entries: VecDeque<(u64, u16)>,
    current_cycle: u64,
    seen_this_cycle: u32,
    stats: FifoHistoryStats,
}

impl ScanHistory {
    fn new(config: FifoHistoryConfig) -> ScanHistory {
        ScanHistory {
            capacity: config.capacity,
            hash: FoldHash::new(config.hash_bits),
            entries: VecDeque::new(),
            current_cycle: u64::MAX,
            seen_this_cycle: 0,
            stats: FifoHistoryStats::default(),
        }
    }

    fn admit_sampled(&mut self, cycle: u64) -> bool {
        if cycle != self.current_cycle {
            self.current_cycle = cycle;
            self.seen_this_cycle = 0;
        }
        self.seen_this_cycle += 1;
        if self.seen_this_cycle > 1 {
            self.stats.sampled_out += 1;
            return false;
        }
        true
    }

    fn find_pair(&mut self, csn: u64, result: u64, predicted: Option<u32>) -> Option<PairMatch> {
        self.stats.searches += 1;
        let h = self.hash.hash(result);
        let mut best = None;
        for &(entry_csn, entry_hash) in self.entries.iter().rev() {
            if entry_hash != h {
                continue;
            }
            let distance = (csn - entry_csn) as u32;
            if best.is_none() {
                best = Some(PairMatch { distance, matched_prediction: false });
            }
            if predicted == Some(distance) {
                best = Some(PairMatch { distance, matched_prediction: true });
                break;
            }
        }
        if let Some(m) = best {
            self.stats.matches += 1;
            if m.matched_prediction {
                self.stats.predicted_distance_matches += 1;
            }
        }
        best
    }

    fn push(&mut self, csn: u64, result: u64) {
        self.stats.pushes += 1;
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((csn, self.hash.hash(result)));
    }
}

proptest! {
    /// An ISRB entry's `referenced` counter accepts exactly as many
    /// sharers as its width can count, rejects the next one, and a
    /// back-to-one-owner release retires the entry so sharing starts over.
    #[test]
    fn isrb_counter_saturates_at_its_width(counter_bits in 1u8..7) {
        let mut isrb = Isrb::new(IsrbConfig { entries: 32, counter_bits });
        let preg = PhysReg::new(RegClass::Int, 17);
        let max = (1u64 << counter_bits) - 1;
        for seq in 0..max {
            prop_assert!(isrb.try_share(preg, seq));
        }
        prop_assert!(!isrb.try_share(preg, max));
        isrb.on_release(preg);
        prop_assert_eq!(isrb.occupancy(), 0);
        prop_assert!(isrb.try_share(preg, max + 1));
    }

    /// Squashing every speculative sharer rolls the counter back to zero:
    /// the entry then accepts a full counter's worth of new sharers.
    #[test]
    fn isrb_squash_rolls_back_all_speculative_references(shares in 1u64..8) {
        let mut isrb = Isrb::new(IsrbConfig { entries: 32, counter_bits: 3 });
        let preg = PhysReg::new(RegClass::Int, 3);
        for seq in 0..shares {
            prop_assert!(isrb.try_share(preg, seq));
        }
        isrb.on_squash(0);
        for seq in 0..7 {
            prop_assert!(isrb.try_share(preg, 100 + seq));
        }
        prop_assert!(!isrb.try_share(preg, 107));
    }

    /// The ISRB never exceeds its configured capacity, regardless of the
    /// request stream.
    #[test]
    fn isrb_occupancy_is_bounded(requests in proptest::collection::vec((0u16..64, 0u64..1000), 1..200),
                                 capacity in 1usize..16) {
        let mut isrb = Isrb::new(IsrbConfig { entries: capacity, counter_bits: 6 });
        for (reg, seq) in requests {
            let _ = isrb.try_share(PhysReg::new(RegClass::Int, reg), seq);
            prop_assert!(isrb.occupancy() <= capacity);
        }
    }

    /// FIFO history: a producer pushed within the last `capacity` producers
    /// is always found, and the reported distance is exact.
    #[test]
    fn fifo_history_finds_recent_producers(gap in 1u64..100, value in any::<u64>()) {
        let mut fifo = FifoHistory::new(FifoHistoryConfig { capacity: 128, hash_bits: 14, csn_bits: 10 });
        fifo.push(1000, value);
        // Push unrelated producers in between (odd values that cannot hash
        // equal to themselves being irrelevant — distance must still point
        // at the most recent equal-hash producer or closer).
        for i in 0..gap.min(100) {
            fifo.push(1001 + i, value ^ (0xdead_beef << 1) ^ i);
        }
        let csn = 1001 + gap.min(100);
        let m = fifo.find_pair(csn, value, None);
        prop_assert!(m.is_some());
        prop_assert!(m.unwrap().distance <= (csn - 1000) as u32);
    }

    /// FIFO history: the propagated predicted distance is preferred whenever
    /// it corresponds to a real match.
    #[test]
    fn fifo_history_prefers_the_predicted_distance(extra in 1u64..50, value in any::<u64>()) {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::ideal());
        fifo.push(100, value);          // older instance, distance = extra + 10
        fifo.push(100 + extra, value);  // most recent instance, distance = 10
        let csn = 110 + extra;
        let predicted = (csn - 100) as u32;
        let m = fifo.find_pair(csn, value, Some(predicted)).unwrap();
        prop_assert!(m.matched_prediction);
        prop_assert_eq!(m.distance, predicted);
    }

    /// FIFO history never remembers more than its capacity.
    #[test]
    fn fifo_history_capacity_is_bounded(pushes in 1usize..500, capacity in 1usize..64) {
        let mut fifo = FifoHistory::new(FifoHistoryConfig { capacity, hash_bits: 14, csn_bits: 10 });
        for i in 0..pushes {
            fifo.push(i as u64, i as u64);
            prop_assert!(fifo.len() <= capacity);
        }
    }

    /// FIFO history: the hash-chained history agrees with the linear-scan
    /// model on every push / search / sampling sequence — every match, every
    /// statistic and the occupancy. Hash widths of 1–4 bits force long
    /// chains of colliding entries; sequences run past the capacity so
    /// entries are evicted (also exactly at capacity); the predicted
    /// distances span the history, so both preferred and default matches
    /// occur.
    #[test]
    fn fifo_history_matches_the_linear_scan_model(
        shape in (0usize..5, 0usize..5, 0u64..4),
        ops in proptest::collection::vec((0u8..8, 0u64..24, 0u64..5000, 0u64..3), 1..400),
    ) {
        let capacity = [0, 1, 2, 128, 2048][shape.0];
        let hash_bits = [1, 2, 3, 4, 14][shape.1];
        let config = FifoHistoryConfig { capacity, hash_bits, csn_bits: 10 };
        let mut fifo = FifoHistory::new(config);
        let mut model = ScanHistory::new(config);
        // Large histories need long sequences to fill: repeat the drawn
        // operations until roughly half of them (the pushes) reach past
        // capacity. Eviction exactly at capacity has its own test below.
        let rounds = if capacity > 400 { (capacity / ops.len()).max(1) + shape.2 as usize } else { 1 };
        let (mut csn, mut cycle) = (0u64, 0u64);
        for (kind, value, raw_distance, cycle_step) in ops.iter().cycle().take(ops.len() * rounds) {
            csn += 1;
            cycle += cycle_step;
            let result = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            match kind {
                0..=3 => {
                    fifo.push(csn, result);
                    model.push(csn, result);
                }
                4 => prop_assert_eq!(fifo.admit_sampled(cycle, 8), model.admit_sampled(cycle)),
                _ => {
                    let span = 2 * capacity.max(1) as u64 + 2;
                    let predicted = match raw_distance % span {
                        0 => None,
                        d => Some(d as u32),
                    };
                    prop_assert_eq!(
                        fifo.find_pair(csn, result, predicted),
                        model.find_pair(csn, result, predicted)
                    );
                }
            }
            prop_assert_eq!(fifo.len(), model.entries.len());
        }
        prop_assert_eq!(fifo.stats(), model.stats);
    }

    /// Redundancy analyzer: the counted value window agrees with the
    /// scanning model after every committed instruction, for windows 0, 1,
    /// 2 and 192. Small value alphabets (always including 0) keep values
    /// repeating inside the window and force repeated counts of one value;
    /// the 500-value alphabet makes values leave the window before they
    /// recur. Loads, ALU ops, zero idioms, stores and zero-register
    /// destinations cover every classification path.
    #[test]
    fn redundancy_window_matches_the_scan_model(
        shape in (0usize..4, 0usize..3),
        insts in proptest::collection::vec((0u8..6, 0u64..500), 1..1200),
    ) {
        let window = [0, 1, 2, 192][shape.0];
        let alphabet = [2, 7, 500][shape.1];
        let mut analyzer = RedundancyAnalyzer::new(RedundancyConfig { window });
        let mut model = ScanAnalyzer { window, recent: VecDeque::new(), report: RedundancyReport::default() };
        for (seq, &(kind, raw)) in insts.iter().enumerate() {
            let seq = seq as u64;
            let result = raw % alphabet;
            let inst = match kind {
                0 => DynInst::simple(seq, 0x40_0000, OpClass::Load, ArchReg::int(2), result),
                1 | 2 => DynInst::simple(seq, 0x40_0004, OpClass::IntAlu, ArchReg::int(3), result),
                3 => DynInst::simple(seq, 0x40_0008, OpClass::ZeroIdiom, ArchReg::int(4), 0),
                4 => DynInstBuilder::new(seq, 0x40_000c, OpClass::Store)
                    .mem(0x1000, 8)
                    .result(result)
                    .build(),
                _ => DynInst::simple(seq, 0x40_0010, OpClass::IntAlu, ArchReg::ZERO, result),
            };
            analyzer.observe(&inst);
            model.observe(&inst);
            prop_assert_eq!(analyzer.report(), model.report);
        }
    }
}

/// FIFO history: eviction happens exactly at capacity. With `capacity`
/// producers pushed the oldest is still found, whichever hash width; one
/// more push evicts it, and the model agrees at every step.
#[test]
fn fifo_history_evicts_exactly_at_capacity() {
    for capacity in [1, 2, 128, 2048] {
        for hash_bits in [1, 4, 14] {
            let config = FifoHistoryConfig { capacity, hash_bits, csn_bits: 10 };
            let mut fifo = FifoHistory::new(config);
            let mut model = ScanHistory::new(config);
            // Every producer computes the same value, so every entry is on
            // the one chain; predicting the oldest entry's distance asks
            // for the far end of it.
            for csn in 1..=capacity as u64 {
                fifo.push(csn, 7);
                model.push(csn, 7);
            }
            let oldest = capacity as u32;
            let search = capacity as u64 + 1;
            let found = fifo.find_pair(search, 7, Some(oldest));
            assert_eq!(found, Some(PairMatch { distance: oldest, matched_prediction: true }));
            assert_eq!(found, model.find_pair(search, 7, Some(oldest)));
            fifo.push(search, 7);
            model.push(search, 7);
            let after = fifo.find_pair(search + 1, 7, Some(oldest + 1));
            assert_eq!(after, Some(PairMatch { distance: 1, matched_prediction: false }));
            assert_eq!(after, model.find_pair(search + 1, 7, Some(oldest + 1)));
            assert_eq!(fifo.len(), capacity);
            assert_eq!(fifo.stats(), model.stats);
        }
    }
}
