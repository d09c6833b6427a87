//! Event-driven wakeup/select structures.
//!
//! The original core re-derived readiness from scratch every cycle by
//! walking the entire ROB and re-checking every source register, plus a
//! linear scan of the in-flight store list for memory disambiguation —
//! O(ROB × sources + stores) work per cycle. This module provides the two
//! structures that turn that into event-driven scheduling:
//!
//! * [`WakeupQueue`] — a calendar of future wakeups plus an age-ordered
//!   ready set. An instruction is inserted exactly once, when its last
//!   outstanding source register is assigned a completion cycle (wakeup on
//!   writeback); the per-cycle select then iterates only the ready set.
//! * [`StoreQueue`] — the in-flight stores in age order, so load
//!   disambiguation and store-to-load forwarding find the *youngest older*
//!   same-address store by scanning back from the load's position; the
//!   queue holds at most `sq_size` (48 in Table I) stores.
//!
//! Entries are generation-tagged [`InstSlot`] handles: squash removes ROB
//! entries but leaves scheduler entries behind, and replayed instructions
//! re-dispatch under the *same* sequence number with a new generation, so
//! every consumer resolves its handle against the live ROB (an O(1) arena
//! index — see [`crate::rob`]) and drops stale entries lazily. This keeps
//! squash cost proportional to the number of squashed instructions.

use crate::rob::InstSlot;
use std::cmp::Reverse;
#[expect(
    clippy::disallowed_types,
    reason = "only used with the deterministic SeqHasher via U64Map below"
)]
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, deterministic hasher for the `u64`-keyed map below (store
/// waiter lists, hit on every store issue).
/// The default SipHash is measurably slower and its DoS resistance buys
/// nothing against simulator-internal keys. Fibonacci multiply + rotate
/// mixes the low-entropy dword/sequence keys well enough for a `HashMap`.
#[derive(Debug, Default, Clone, Copy)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26);
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "deterministic SeqHasher seed and keyed access only; never iterated"
)]
type U64Map<V> = HashMap<u64, V, BuildHasherDefault<SeqHasher>>;

/// Calendar + ready set for event-driven select.
#[derive(Debug, Default)]
pub struct WakeupQueue {
    /// Future wakeups: `(wake_at, slot)`, earliest first.
    calendar: BinaryHeap<Reverse<(u64, InstSlot)>>,
    /// Instructions ready to issue now, kept sorted ascending.
    /// [`InstSlot`] orders by `(seq, gen)`, so iteration is oldest first;
    /// staleness is resolved against the ROB by the caller. Occupancy is
    /// bounded by the scheduler size (tens of entries), where a sorted
    /// `Vec` beats a `BTreeSet` on every operation the select loop uses.
    ready: Vec<InstSlot>,
}

impl WakeupQueue {
    /// Creates an empty queue.
    pub fn new() -> WakeupQueue {
        WakeupQueue::default()
    }

    /// Schedules `slot` to enter the ready set at cycle `wake_at` (the
    /// cycle its last source becomes readable).
    pub fn schedule(&mut self, wake_at: u64, slot: InstSlot) {
        self.calendar.push(Reverse((wake_at, slot)));
    }

    /// Inserts an instruction into the ready set immediately (e.g. a load
    /// re-woken by the store it was waiting on).
    pub fn insert_ready(&mut self, slot: InstSlot) {
        if let Err(pos) = self.ready.binary_search(&slot) {
            self.ready.insert(pos, slot);
        }
    }

    /// Moves every calendar entry due at `clock` into the ready set.
    pub fn advance(&mut self, clock: u64) {
        while let Some(&Reverse((wake_at, slot))) = self.calendar.peek() {
            if wake_at > clock {
                break;
            }
            self.calendar.pop();
            self.insert_ready(slot);
        }
    }

    /// The earliest cycle a calendar entry is due, if any (the entry may be
    /// stale; the core only uses it as a bound on how far it may skip).
    pub(crate) fn next_wake(&self) -> Option<u64> {
        self.calendar.peek().map(|&Reverse((wake_at, _))| wake_at)
    }

    /// Snapshot of the ready set in age order, for tests and debugging —
    /// the select loop walks the set in place via
    /// [`WakeupQueue::ready_get`]/[`WakeupQueue::remove_ready_at`] instead
    /// of cloning it every cycle.
    pub fn ready_snapshot(&self) -> Vec<InstSlot> {
        self.ready.clone()
    }

    /// Number of entries currently in the ready set.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The `idx`-th oldest ready entry.
    ///
    /// Together with [`WakeupQueue::remove_ready_at`] this lets the select
    /// loop walk the ready set in place — nothing inserts into the set
    /// during select (wakeups land in the calendar, store wakeups happen
    /// after select), so index-based iteration sees exactly the entries a
    /// snapshot would, without copying the set every cycle.
    pub fn ready_get(&self, idx: usize) -> InstSlot {
        self.ready[idx]
    }

    /// Removes the `idx`-th oldest ready entry (it issued, parked on a
    /// store, or turned out stale).
    pub fn remove_ready_at(&mut self, idx: usize) {
        self.ready.remove(idx);
    }

    /// Number of pending entries (calendar + ready), for tests.
    pub fn len(&self) -> usize {
        self.calendar.len() + self.ready.len()
    }

    /// Returns `true` when nothing is scheduled or ready.
    pub fn is_empty(&self) -> bool {
        self.calendar.is_empty() && self.ready.is_empty()
    }
}

/// One in-flight store, tracked for disambiguation and forwarding.
#[derive(Debug, Clone, Copy)]
// lint: exempt(dead-pub-api, element type of StoreQueue's pub entries; reached through it)
pub struct StoreRecord {
    /// Sequence number of the store.
    pub seq: u64,
    /// Address divided by 8 (double-word granularity, as in the trace
    /// generator).
    pub dword: u64,
    /// Whether the store has issued (its data is en route).
    pub issued: bool,
    /// Cycle its data is available for forwarding (valid once issued).
    pub complete_at: u64,
}

/// Age-ordered in-flight store queue.
#[derive(Debug, Default)]
pub struct StoreQueue {
    /// All in-flight stores in dispatch (= ascending sequence) order.
    /// Stores enter at the tail, commit from the head and squash off the
    /// tail, so the ring stays sorted and lookup is a binary search.
    records: VecDeque<StoreRecord>,
    /// Loads parked until a specific store issues, keyed by the store's
    /// sequence number.
    waiters: U64Map<Vec<InstSlot>>,
}

impl StoreQueue {
    /// Creates an empty store queue.
    pub fn new() -> StoreQueue {
        StoreQueue::default()
    }

    /// Number of in-flight stores.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no store is in flight.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Index of the record for `seq`, if the store is in flight.
    fn position(&self, seq: u64) -> Option<usize> {
        self.records.binary_search_by_key(&seq, |r| r.seq).ok()
    }

    /// Admits a newly dispatched store. Dispatch is in program order, so
    /// `seq` is strictly larger than every live entry.
    pub fn push(&mut self, seq: u64, dword: u64) {
        debug_assert!(
            self.records.back().is_none_or(|r| r.seq < seq),
            "stores dispatch in age order"
        );
        self.records.push_back(StoreRecord { seq, dword, issued: false, complete_at: u64::MAX });
    }

    /// The youngest in-flight store to `dword` that is older than
    /// `before_seq` — the store a load at `before_seq` would read from.
    /// Scans the older stores youngest first.
    pub fn youngest_older(&self, dword: u64, before_seq: u64) -> Option<StoreRecord> {
        let n_older = self.records.partition_point(|r| r.seq < before_seq);
        self.records.range(..n_older).rev().find(|r| r.dword == dword).copied()
    }

    /// Parks a load until the store `store_seq` issues.
    pub fn add_waiter(&mut self, store_seq: u64, waiter: InstSlot) {
        self.waiters.entry(store_seq).or_default().push(waiter);
    }

    /// Marks a store issued with data available at `complete_at`, and
    /// returns the loads parked on it (to be re-inserted into the ready
    /// set).
    pub fn mark_issued(&mut self, seq: u64, complete_at: u64) -> Vec<InstSlot> {
        if let Some(pos) = self.position(seq) {
            let record = &mut self.records[pos];
            record.issued = true;
            record.complete_at = complete_at;
        }
        if self.waiters.is_empty() {
            return Vec::new();
        }
        self.waiters.remove(&seq).unwrap_or_default()
    }

    /// Removes a committed store. A store commits only after issuing, so
    /// its waiter list has already been drained. Commit is in program
    /// order, so this is almost always a pop from the head of the ring.
    pub fn remove(&mut self, seq: u64) {
        let Some(pos) = self.position(seq) else {
            return;
        };
        self.records.remove(pos);
        self.waiters.remove(&seq);
    }

    /// Removes every store with `seq >= from_seq` (squash). Cost is
    /// proportional to the number of squashed stores, not the queue size.
    pub fn squash_from(&mut self, from_seq: u64) {
        let keep = self.records.partition_point(|r| r.seq < from_seq);
        for record in self.records.drain(keep..) {
            self.waiters.remove(&record.seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(seq: u64, gen: u64) -> InstSlot {
        InstSlot { seq, gen }
    }

    #[test]
    fn calendar_releases_entries_at_their_wake_cycle() {
        let mut q = WakeupQueue::new();
        q.schedule(5, slot(1, 0));
        q.schedule(3, slot(2, 0));
        q.schedule(7, slot(3, 0));
        q.advance(4);
        assert_eq!(q.ready_snapshot(), vec![slot(2, 0)]);
        q.advance(6);
        assert_eq!(q.ready_snapshot(), vec![slot(1, 0), slot(2, 0)]);
        q.remove_ready_at(1); // slot(2, 0)
        q.advance(7);
        assert_eq!(q.ready_snapshot(), vec![slot(1, 0), slot(3, 0)]);
    }

    #[test]
    fn ready_set_iterates_in_age_order() {
        let mut q = WakeupQueue::new();
        q.insert_ready(slot(9, 1));
        q.insert_ready(slot(2, 0));
        q.insert_ready(slot(5, 2));
        assert_eq!(q.ready_snapshot(), vec![slot(2, 0), slot(5, 2), slot(9, 1)]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn youngest_older_picks_the_last_matching_store_before_the_load() {
        let mut sq = StoreQueue::new();
        sq.push(10, 0x100);
        sq.push(20, 0x200);
        sq.push(30, 0x100);
        sq.push(40, 0x100);
        // A load at seq 35 reads dword 0x100: the youngest older store is
        // seq 30 — not the first match (10) and not the younger 40.
        assert_eq!(sq.youngest_older(0x100, 35).unwrap().seq, 30);
        assert_eq!(sq.youngest_older(0x100, 11).unwrap().seq, 10);
        assert!(sq.youngest_older(0x100, 10).is_none());
        assert!(sq.youngest_older(0x300, 100).is_none());
        assert_eq!(sq.youngest_older(0x200, 99).unwrap().seq, 20);
    }

    #[test]
    fn mark_issued_returns_parked_waiters() {
        let mut sq = StoreQueue::new();
        sq.push(10, 0x100);
        sq.add_waiter(10, slot(15, 3));
        sq.add_waiter(10, slot(16, 3));
        let woken = sq.mark_issued(10, 42);
        assert_eq!(woken.len(), 2);
        let record = sq.youngest_older(0x100, 99).unwrap();
        assert!(record.issued);
        assert_eq!(record.complete_at, 42);
        assert!(sq.mark_issued(10, 42).is_empty(), "waiters drain once");
    }

    #[test]
    fn remove_and_squash_keep_the_dword_index_consistent() {
        let mut sq = StoreQueue::new();
        sq.push(1, 0xA);
        sq.push(2, 0xA);
        sq.push(3, 0xB);
        sq.push(4, 0xA);
        sq.remove(1);
        assert_eq!(sq.youngest_older(0xA, 100).unwrap().seq, 4);
        sq.squash_from(3);
        assert_eq!(sq.len(), 1);
        assert_eq!(sq.youngest_older(0xA, 100).unwrap().seq, 2);
        assert!(sq.youngest_older(0xB, 100).is_none());
        // Replay re-dispatches the squashed stores in order.
        sq.push(3, 0xB);
        sq.push(4, 0xA);
        assert_eq!(sq.youngest_older(0xA, 100).unwrap().seq, 4);
    }

    #[test]
    fn seq_hasher_is_deterministic_and_spreads_small_keys() {
        let hash = |v: u64| {
            let mut h = SeqHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        // Consecutive dwords (the common store-address pattern) must not
        // collapse onto each other.
        let hashes: std::collections::BTreeSet<u64> = (0..1024).map(hash).collect();
        assert_eq!(hashes.len(), 1024);
    }
}
