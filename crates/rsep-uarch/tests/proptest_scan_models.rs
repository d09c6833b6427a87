//! Model-based tests for the core's constant-time structures.
//!
//! Each structure replaced a slower one — a cache set scanned twice per
//! miss, a store queue with a per-dword index, a wakeup calendar kept in a
//! binary heap — and each replaced version is kept here as the model. On
//! random operation streams the real structure and its model must give the
//! same answers and the same statistics at every step.

use proptest::prelude::*;
use rsep_uarch::{
    AccessKind, CacheHierarchy, CacheStats, CoreConfig, InstSlot, StoreQueue, StridePrefetcher,
    WakeupQueue,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

// ----------------------------------------------------------------- cache

const VALID: u64 = 1 << 63;

/// The cache before sentinel tags and carried victims: every hit test
/// checks the valid bit, and a fill rescans the set for its victim.
struct ScanCache {
    tags: Vec<u64>,
    meta: Vec<u64>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
    latency: u64,
    stats: CacheStats,
}

impl ScanCache {
    fn new(bytes: usize, assoc: usize, line_bytes: usize, latency: u64) -> ScanCache {
        let num_sets = (bytes / line_bytes / assoc).max(1);
        let set_mask = num_sets as u64 - 1;
        ScanCache {
            tags: vec![0; num_sets * assoc],
            meta: vec![0; num_sets * assoc],
            assoc,
            line_shift: line_bytes.trailing_zeros(),
            set_mask,
            tag_shift: set_mask.count_ones(),
            latency,
            stats: CacheStats::default(),
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.tag_shift)
    }

    fn access(&mut self, addr: u64, now: u64) -> bool {
        self.stats.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.assoc;
        let hit = (base..base + self.assoc).find(|&i| self.meta[i] >= VALID && self.tags[i] == tag);
        match hit {
            Some(i) => {
                self.meta[i] = VALID | now;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.assoc;
        (base..base + self.assoc).any(|i| self.meta[i] >= VALID && self.tags[i] == tag)
    }

    fn fill_absent(&mut self, addr: u64, now: u64, is_prefetch: bool) {
        if is_prefetch {
            self.stats.prefetch_fills += 1;
        }
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.assoc;
        let mut victim = base;
        for i in base + 1..base + self.assoc {
            if self.meta[i] < self.meta[victim] {
                victim = i;
            }
        }
        self.tags[victim] = tag;
        self.meta[victim] = VALID | now;
    }
}

/// The hierarchy walk over [`ScanCache`]s, as it was before the victim
/// hand-off.
struct ScanHierarchy {
    l1i: ScanCache,
    l1d: ScanCache,
    l2: ScanCache,
    l3: ScanCache,
    dram_latency: u64,
    line_bytes: u64,
    l1d_prefetcher: Option<StridePrefetcher>,
    l2_stream_prefetch: bool,
}

impl ScanHierarchy {
    fn new(c: &CoreConfig) -> ScanHierarchy {
        ScanHierarchy {
            l1i: ScanCache::new(c.l1i_bytes, c.l1i_assoc, c.line_bytes, c.l1i_latency),
            l1d: ScanCache::new(c.l1d_bytes, c.l1d_assoc, c.line_bytes, c.l1d_latency),
            l2: ScanCache::new(c.l2_bytes, c.l2_assoc, c.line_bytes, c.l2_latency),
            l3: ScanCache::new(c.l3_bytes, c.l3_assoc, c.line_bytes, c.l3_latency),
            dram_latency: c.dram_latency,
            line_bytes: c.line_bytes as u64,
            l1d_prefetcher: c.l1d_prefetch.then(|| StridePrefetcher::new(256)),
            l2_stream_prefetch: c.l2_prefetch,
        }
    }

    fn access_data(&mut self, pc: u64, addr: u64, kind: AccessKind, now: u64) -> u64 {
        let latency = self.lookup_and_fill(addr, now);
        if kind == AccessKind::Load {
            let prediction = self.l1d_prefetcher.as_mut().and_then(|p| p.observe(pc, addr));
            if let Some(target) = prediction {
                self.prefetch(target, now);
            }
        }
        if self.l2_stream_prefetch && latency > self.l1d.latency + self.l2.latency {
            self.prefetch(addr.wrapping_add(self.line_bytes), now);
        }
        latency
    }

    fn access_inst(&mut self, addr: u64, now: u64) -> u64 {
        if self.l1i.access(addr, now) {
            return self.l1i.latency;
        }
        let mut latency = self.l1i.latency;
        if self.l2.access(addr, now) {
            latency += self.l2.latency;
        } else if self.l3.access(addr, now) {
            latency += self.l2.latency + self.l3.latency;
            self.l2.fill_absent(addr, now, false);
        } else {
            latency += self.l2.latency + self.l3.latency + self.dram_latency;
            self.l3.fill_absent(addr, now, false);
            self.l2.fill_absent(addr, now, false);
        }
        self.l1i.fill_absent(addr, now, false);
        latency
    }

    fn lookup_and_fill(&mut self, addr: u64, now: u64) -> u64 {
        if self.l1d.access(addr, now) {
            return self.l1d.latency;
        }
        let mut latency = self.l1d.latency;
        if self.l2.access(addr, now) {
            latency += self.l2.latency;
        } else if self.l3.access(addr, now) {
            latency += self.l2.latency + self.l3.latency;
            self.l2.fill_absent(addr, now, false);
        } else {
            latency += self.l2.latency + self.l3.latency + self.dram_latency;
            self.l3.fill_absent(addr, now, false);
            self.l2.fill_absent(addr, now, false);
        }
        self.l1d.fill_absent(addr, now, false);
        latency
    }

    fn prefetch(&mut self, addr: u64, now: u64) {
        if self.l1d.probe(addr) {
            return;
        }
        if !self.l3.probe(addr) {
            self.l3.fill_absent(addr, now, true);
        }
        if !self.l2.probe(addr) {
            self.l2.fill_absent(addr, now, true);
        }
        self.l1d.fill_absent(addr, now, true);
    }

    fn stats(&self) -> [CacheStats; 4] {
        [self.l1i.stats, self.l1d.stats, self.l2.stats, self.l3.stats]
    }
}

/// Table I, or a miniature hierarchy (2-way 1 KiB L1s, 4-way 4 KiB L2,
/// 8-way 16 KiB L3) in which random streams evict constantly. Both
/// prefetchers are on.
fn cache_config(tiny: bool) -> CoreConfig {
    let mut config = CoreConfig::table1();
    if tiny {
        config.l1i_bytes = 1024;
        config.l1i_assoc = 2;
        config.l1d_bytes = 1024;
        config.l1d_assoc = 2;
        config.l2_bytes = 4096;
        config.l2_assoc = 4;
        config.l3_bytes = 16 * 1024;
        config.l3_assoc = 8;
    }
    config.l1d_prefetch = true;
    config.l2_prefetch = true;
    config
}

// ----------------------------------------------------------- store queue

/// The store queue with its per-dword index, as it was before the index
/// was replaced by a backward scan of the age-ordered records.
#[derive(Default)]
struct IndexedStoreQueue {
    /// `(seq, dword, issued, complete_at)` in age order.
    records: Vec<(u64, u64, bool, u64)>,
    by_dword: BTreeMap<u64, Vec<u64>>,
    waiters: BTreeMap<u64, Vec<InstSlot>>,
}

impl IndexedStoreQueue {
    fn position(&self, seq: u64) -> Option<usize> {
        self.records.binary_search_by_key(&seq, |r| r.0).ok()
    }

    fn push(&mut self, seq: u64, dword: u64) {
        self.by_dword.entry(dword).or_default().push(seq);
        self.records.push((seq, dword, false, u64::MAX));
    }

    fn youngest_older(&self, dword: u64, before_seq: u64) -> Option<(u64, u64, bool, u64)> {
        let bucket = self.by_dword.get(&dword)?;
        let n_older = bucket.partition_point(|&s| s < before_seq);
        let seq = *bucket.get(n_older.checked_sub(1)?)?;
        self.records.get(self.position(seq)?).copied()
    }

    fn mark_issued(&mut self, seq: u64, complete_at: u64) -> Vec<InstSlot> {
        if let Some(pos) = self.position(seq) {
            self.records[pos].2 = true;
            self.records[pos].3 = complete_at;
        }
        self.waiters.remove(&seq).unwrap_or_default()
    }

    fn remove(&mut self, seq: u64) {
        let Some(pos) = self.position(seq) else {
            return;
        };
        let (_, dword, _, _) = self.records.remove(pos);
        let bucket = self.by_dword.get_mut(&dword).expect("indexed store");
        bucket.retain(|&s| s != seq);
        if bucket.is_empty() {
            self.by_dword.remove(&dword);
        }
        self.waiters.remove(&seq);
    }

    fn squash_from(&mut self, from_seq: u64) {
        let keep = self.records.partition_point(|r| r.0 < from_seq);
        for (seq, dword, _, _) in self.records.drain(keep..) {
            // An earlier squashed store to the same dword may have emptied
            // the bucket already.
            if let Some(bucket) = self.by_dword.get_mut(&dword) {
                bucket.truncate(bucket.partition_point(|&s| s < from_seq));
                if bucket.is_empty() {
                    self.by_dword.remove(&dword);
                }
            }
            self.waiters.remove(&seq);
        }
    }
}

// ------------------------------------------------------- wakeup calendar

/// The wakeup queue as it was before the timing wheel: a binary heap of
/// `(wake_at, slot)` plus the sorted ready set.
#[derive(Default)]
struct HeapWakeupQueue {
    calendar: BinaryHeap<Reverse<(u64, InstSlot)>>,
    ready: BTreeSet<InstSlot>,
}

impl HeapWakeupQueue {
    fn advance(&mut self, clock: u64) {
        while let Some(&Reverse((wake_at, slot))) = self.calendar.peek() {
            if wake_at > clock {
                break;
            }
            self.calendar.pop();
            self.ready.insert(slot);
        }
    }

    fn next_wake(&self) -> Option<u64> {
        self.calendar.peek().map(|&Reverse((wake_at, _))| wake_at)
    }
}

proptest! {
    /// The timing wheel releases the same entries as the heap model, at the
    /// same `advance`, and reports the same next wake-up, at every step of
    /// random `schedule` / `advance` / issue streams. Wake-ups land at the
    /// cursor, before it (overdue), on the horizon's edge or anywhere
    /// between; the clock steps by a cycle or two, jumps to the next
    /// wake-up as the quiescent skip does, or skips far past the whole
    /// wheel. Horizons cover tiny wheels (many wrap-arounds) and Table I's.
    ///
    /// An overdue entry makes the wheel report the cursor where the heap
    /// reports the entry's own, earlier cycle. The core only asks whether
    /// the next wake-up is at or before the clock, which the cursor never
    /// passes, so the check compares the heap's answer clamped to the
    /// cursor.
    #[test]
    fn wakeup_wheel_matches_the_heap_model(
        horizon_pick in 0u8..4,
        ops in proptest::collection::vec((0u8..10, 0u64..1024, 0u64..4), 1..500),
    ) {
        let horizon = [1u64, 7, 100, CoreConfig::table1().wake_horizon()][horizon_pick as usize];
        let mut wheel = WakeupQueue::new(horizon);
        let mut model = HeapWakeupQueue::default();
        let mut clock = 0u64;
        let mut seq = 0u64;
        for (kind, arg, gen) in ops {
            match kind {
                // Schedule: at the cursor, overdue, at the horizon's edge,
                // or anywhere in the window.
                0..=4 => {
                    let wake_at = match kind {
                        0 => clock,
                        1 => clock.saturating_sub(1 + arg % 8),
                        2 => clock + horizon,
                        _ => clock + arg % (horizon + 1),
                    };
                    seq += 1;
                    let slot = InstSlot { seq, gen };
                    wheel.schedule(wake_at, slot);
                    model.calendar.push(Reverse((wake_at, slot)));
                }
                // Step a cycle or a few.
                5 | 6 => clock += arg % 3,
                // Jump to the next wake-up, as the quiescent skip does.
                7 => clock = model.next_wake().map_or(clock, |t| t.max(clock)),
                // A long skip, possibly past the whole wheel.
                8 => clock += arg,
                // Issue the oldest ready entry.
                _ => {
                    if let Some(&oldest) = model.ready.first() {
                        prop_assert_eq!(wheel.ready_get(0), oldest);
                        wheel.remove_ready_at(0);
                        model.ready.remove(&oldest);
                    }
                }
            }
            if (5..=8).contains(&kind) {
                wheel.advance(clock);
                model.advance(clock);
            }
            prop_assert_eq!(wheel.ready_snapshot(), model.ready.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(wheel.next_wake(), model.next_wake().map(|t| t.max(clock)));
            prop_assert_eq!(wheel.len(), model.calendar.len() + model.ready.len());
        }
    }

    /// The cache hierarchy (sentinel tags, victim carried from the miss to
    /// the fill) returns the same latency as the scanning model for every
    /// access of a random load / store / fetch stream with both prefetchers
    /// on, and ends with the same statistics at every level. Strided runs
    /// train the stride prefetcher. Half the accesses share a cycle with
    /// the one before, so lines in a set tie on LRU stamps, and the random
    /// lines span a few times the L1 (the L2 for Table I), so sets fill,
    /// evict and miss again on lines they evicted.
    #[test]
    fn cache_hierarchy_matches_the_scan_model(
        tiny in any::<bool>(),
        accesses in proptest::collection::vec((0u8..4, 0u64..16, 0u64..1 << 16, 0u64..4), 1..600),
    ) {
        let config = cache_config(tiny);
        let lines = if tiny { 64 } else { 16 * 1024 };
        let mut hierarchy = CacheHierarchy::new(&config);
        let mut model = ScanHierarchy::new(&config);
        let mut now = 0u64;
        let mut strided = [0u64; 16];
        for (i, &(kind, pc_slot, line, step)) in accesses.iter().enumerate() {
            now += step / 2;
            let pc = 0x40_0000 + pc_slot * 4;
            let addr = match kind {
                // A strided stream per PC, so the stride prefetcher fires.
                0 => {
                    strided[pc_slot as usize] += 1;
                    0x1000_0000 + (pc_slot << 16) + strided[pc_slot as usize] * 64
                }
                _ => 0x2000_0000 + (line % lines) * 64 + pc_slot,
            };
            let (actual, expected) = match kind {
                0 | 1 => (
                    hierarchy.access_data(pc, addr, AccessKind::Load, now),
                    model.access_data(pc, addr, AccessKind::Load, now),
                ),
                2 => (
                    hierarchy.access_data(pc, addr, AccessKind::Store, now),
                    model.access_data(pc, addr, AccessKind::Store, now),
                ),
                _ => (hierarchy.access_inst(addr, now), model.access_inst(addr, now)),
            };
            prop_assert_eq!(actual, expected, "access {} at cycle {}", i, now);
        }
        let stats = hierarchy.stats().map(|(_, s)| s);
        prop_assert_eq!(stats, model.stats());
    }

    /// `youngest_older` (a filtered backward scan of the age-ordered ring)
    /// agrees with the per-dword index model under push, issue, remove,
    /// squash and waiter parking, for every dword and load position
    /// probed; the woken waiters and the queue length agree too. Half the
    /// dwords differ from the other half only in bit 32 and up, so they
    /// share a filter bucket with it.
    #[test]
    fn store_queue_matches_the_indexed_model(
        ops in proptest::collection::vec((0u8..8, 0u64..8, 0u64..64), 1..400),
    ) {
        let mut queue = StoreQueue::new();
        let mut model = IndexedStoreQueue::default();
        let mut next_seq = 0u64;
        let dword_of = |d: u64| (d & 3) | (d >> 2) << 32;
        for (kind, d, pick) in ops {
            let dword = dword_of(d);
            let live: Vec<u64> = model.records.iter().map(|r| r.0).collect();
            let chosen = (!live.is_empty()).then(|| live[pick as usize % live.len()]);
            match (kind, chosen) {
                (0..=2, _) | (_, None) => {
                    next_seq += 1 + pick % 3;
                    queue.push(next_seq, dword);
                    model.push(next_seq, dword);
                }
                (3, Some(seq)) => {
                    let waiter = InstSlot { seq: seq + 1, gen: pick };
                    queue.add_waiter(seq, waiter);
                    model.waiters.entry(seq).or_default().push(waiter);
                }
                (4, Some(seq)) => {
                    prop_assert_eq!(queue.mark_issued(seq, pick), model.mark_issued(seq, pick));
                }
                // Commit removes the oldest store; removal from the middle
                // is exercised too.
                (5, Some(_)) => {
                    queue.remove(live[0]);
                    model.remove(live[0]);
                }
                (6, Some(seq)) => {
                    queue.remove(seq);
                    model.remove(seq);
                }
                (_, Some(seq)) => {
                    queue.squash_from(seq);
                    model.squash_from(seq);
                    next_seq = seq;
                }
            }
            prop_assert_eq!(queue.len(), model.records.len());
            for dword in (0..8).map(dword_of) {
                for before in [0, next_seq / 2, next_seq, next_seq + 1] {
                    let actual = queue
                        .youngest_older(dword, before)
                        .map(|r| (r.seq, r.dword, r.issued, r.complete_at));
                    prop_assert_eq!(actual, model.youngest_older(dword, before));
                }
            }
        }
    }
}
