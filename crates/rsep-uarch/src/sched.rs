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
//!   The calendar is a timing wheel: one bucket per cycle of a window
//!   longer than any wake-up distance, and an occupancy bitmap that finds
//!   the next due bucket, so scheduling and releasing an entry are O(1).
//! * [`StoreQueue`] — the in-flight stores in age order, so load
//!   disambiguation and store-to-load forwarding find the *youngest older*
//!   same-address store by scanning back from the load's position; the
//!   queue holds at most `sq_size` (48 in Table I) stores. A per-bucket
//!   count of in-flight store dwords answers most loads (no older store
//!   can match) without the scan.
//!
//! Entries are generation-tagged [`InstSlot`] handles: squash removes ROB
//! entries but leaves scheduler entries behind, and replayed instructions
//! re-dispatch under the *same* sequence number with a new generation, so
//! every consumer resolves its handle against the live ROB (an O(1) arena
//! index — see [`crate::rob`]) and drops stale entries lazily. This keeps
//! squash cost proportional to the number of squashed instructions.

use crate::rob::InstSlot;
use std::collections::VecDeque;

/// End of a calendar bucket's node list.
const NIL: u32 = u32::MAX;

/// Calendar + ready set for event-driven select.
///
/// The calendar is a timing wheel of `N` buckets, `N` the next power of
/// two above the longest wake-up distance (the *horizon*; 262 cycles for
/// Table I, so 512 buckets). The bucket of cycle `t` is `t mod N`. Every
/// entry is due at most `horizon` cycles after the cursor (the last cycle
/// passed to [`WakeupQueue::advance`]), so a bucket only ever holds
/// entries due in one cycle. A wake-up at or before the cursor goes into
/// the cursor's bucket: the next `advance` releases it, as it would
/// release any overdue entry. Buckets are singly linked lists threaded
/// through one node arena, so memory is bounded by the peak number of
/// scheduled entries, not by the number of buckets.
#[derive(Debug)]
pub struct WakeupQueue {
    /// Longest distance past the cursor that [`WakeupQueue::schedule`]
    /// accepts.
    horizon: u64,
    /// `N - 1`: the bucket of cycle `t` is `t & mask`.
    mask: u64,
    /// First node of each bucket's list, [`NIL`] when the bucket is
    /// empty.
    heads: Box<[u32]>,
    /// One bit per bucket, set while its list is non-empty.
    occupied: Box<[u64]>,
    /// Node arena: `(slot, next node)`. Released nodes chain through
    /// `free`.
    nodes: Vec<(InstSlot, u32)>,
    /// Head of the free-node chain, [`NIL`] when every node is in use.
    free: u32,
    /// The last cycle the calendar was advanced to.
    cursor: u64,
    /// The cycle of the first occupied bucket at or after the cursor's
    /// (`u64::MAX` when the calendar is empty): what
    /// [`WakeupQueue::next_wake`] reports, kept current by `schedule` and
    /// recomputed from the bitmap only after a bucket drains.
    next_due: u64,
    /// Entries in the calendar.
    scheduled: usize,
    /// Instructions ready to issue now, kept sorted ascending.
    /// [`InstSlot`] orders by `(seq, gen)`, so iteration is oldest first;
    /// staleness is resolved against the ROB by the caller. Occupancy is
    /// bounded by the scheduler size (tens of entries), where a sorted
    /// `Vec` beats a `BTreeSet` on every operation the select loop uses.
    /// The order in which a bucket drains into it therefore does not
    /// matter.
    ready: Vec<InstSlot>,
}

impl WakeupQueue {
    /// Creates an empty queue whose calendar accepts wake-ups up to
    /// `horizon` cycles ahead (see [`crate::CoreConfig::wake_horizon`]).
    pub fn new(horizon: u64) -> WakeupQueue {
        let buckets = (horizon + 1).next_power_of_two().max(64);
        let len = usize::try_from(buckets).expect("calendar horizon fits in memory");
        WakeupQueue {
            horizon,
            mask: buckets - 1,
            heads: vec![NIL; len].into_boxed_slice(),
            occupied: vec![0; len / 64].into_boxed_slice(),
            nodes: Vec::new(),
            free: NIL,
            cursor: 0,
            next_due: u64::MAX,
            scheduled: 0,
            ready: Vec::new(),
        }
    }

    /// Schedules `slot` to enter the ready set at cycle `wake_at` (the
    /// cycle its last source becomes readable).
    ///
    /// # Panics
    ///
    /// Panics if `wake_at` lies more than the horizon past the cycle the
    /// calendar was last advanced to.
    pub fn schedule(&mut self, wake_at: u64, slot: InstSlot) {
        assert!(
            wake_at <= self.cursor + self.horizon,
            "wake-up at cycle {wake_at} lies beyond the calendar horizon ({} cycles past {})",
            self.horizon,
            self.cursor
        );
        let due = wake_at.max(self.cursor);
        self.next_due = self.next_due.min(due);
        let bucket = (due & self.mask) as usize;
        let node = (slot, self.heads[bucket]);
        let index = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("calendar nodes fit in u32")
        } else {
            let index = self.free;
            self.free = self.nodes[index as usize].1;
            self.nodes[index as usize] = node;
            index
        };
        self.heads[bucket] = index;
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
        self.scheduled += 1;
    }

    /// Inserts an instruction into the ready set immediately (e.g. a load
    /// re-woken by the store it was waiting on).
    pub fn insert_ready(&mut self, slot: InstSlot) {
        if let Err(pos) = self.ready.binary_search(&slot) {
            self.ready.insert(pos, slot);
        }
    }

    /// Moves every calendar entry due at or before `clock` into the ready
    /// set. `clock` never goes back: it is at or after the cursor.
    pub fn advance(&mut self, clock: u64) {
        debug_assert!(clock >= self.cursor, "the calendar only moves forward");
        while self.next_due <= clock {
            self.cursor = self.next_due;
            self.drain((self.next_due & self.mask) as usize);
            self.next_due = self.first_due();
        }
        self.cursor = clock;
    }

    /// Moves one bucket's entries into the ready set and releases its
    /// nodes.
    fn drain(&mut self, bucket: usize) {
        let mut index = std::mem::replace(&mut self.heads[bucket], NIL);
        while index != NIL {
            let (slot, next) = self.nodes[index as usize];
            self.insert_ready(slot);
            self.nodes[index as usize].1 = self.free;
            self.free = index;
            self.scheduled -= 1;
            index = next;
        }
        self.occupied[bucket / 64] &= !(1 << (bucket % 64));
    }

    /// The earliest cycle a calendar entry is due, if any (the entry may be
    /// stale; the core only uses it as a bound on how far it may skip). An
    /// overdue entry reports the cursor. Exact: it is the first occupied
    /// bucket at or after the cursor's.
    pub fn next_wake(&self) -> Option<u64> {
        (self.next_due != u64::MAX).then_some(self.next_due)
    }

    /// The cycle of the first occupied bucket at or after the cursor's,
    /// found in the occupancy bitmap; `u64::MAX` when nothing is
    /// scheduled.
    fn first_due(&self) -> u64 {
        if self.scheduled == 0 {
            return u64::MAX;
        }
        let start = (self.cursor & self.mask) as usize;
        let words = self.occupied.len();
        let first = self.occupied[start / 64] & (u64::MAX << (start % 64));
        let bucket = if first != 0 {
            start / 64 * 64 + first.trailing_zeros() as usize
        } else {
            // Wrap around the wheel; the start word comes last, where only
            // its bits below the cursor's can still be set.
            (1..=words)
                .map(|i| (start / 64 + i) & (words - 1))
                .find_map(|w| {
                    let bits = self.occupied[w];
                    (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
                })
                .expect("a scheduled entry occupies a bucket")
        };
        self.cursor + ((bucket as u64).wrapping_sub(start as u64) & self.mask)
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
        self.scheduled + self.ready.len()
    }

    /// Returns `true` when nothing is scheduled or ready.
    pub fn is_empty(&self) -> bool {
        self.scheduled == 0 && self.ready.is_empty()
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

/// Buckets of the store queue's dword filter.
const FILTER_BUCKETS: usize = 256;

/// The filter bucket of `dword`: its low 24 bits folded into 8. The bits
/// above the low 8 matter because addresses are often aligned, which
/// leaves a dword's low bits constant (a low-bits bucket let 45% of the
/// fig7 loads through, the fold 3%).
fn filter_bucket(dword: u64) -> usize {
    (dword ^ (dword >> 8) ^ (dword >> 16)) as usize & (FILTER_BUCKETS - 1)
}

/// Age-ordered in-flight store queue.
#[derive(Debug)]
pub struct StoreQueue {
    /// All in-flight stores in dispatch (= ascending sequence) order.
    /// Stores enter at the tail, commit from the head and squash off the
    /// tail, so the ring stays sorted and lookup is a binary search.
    records: VecDeque<StoreRecord>,
    /// Loads parked until a store issues, each beside the sequence number
    /// of the store it waits on, in parking order. At most a few loads
    /// wait at once, and most cycles none do.
    parked: Vec<(u64, InstSlot)>,
    /// In-flight stores per [`filter_bucket`]. A load whose bucket counts
    /// none has no same-dword store to search for.
    in_bucket: Box<[u32]>,
}

impl Default for StoreQueue {
    fn default() -> StoreQueue {
        StoreQueue {
            records: VecDeque::new(),
            parked: Vec::new(),
            in_bucket: vec![0; FILTER_BUCKETS].into_boxed_slice(),
        }
    }
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
        self.in_bucket[filter_bucket(dword)] += 1;
    }

    /// The youngest in-flight store to `dword` that is older than
    /// `before_seq` — the store a load at `before_seq` would read from.
    /// Returns at once when no in-flight store shares `dword`'s filter
    /// bucket; otherwise scans the older stores youngest first.
    pub fn youngest_older(&self, dword: u64, before_seq: u64) -> Option<StoreRecord> {
        if self.in_bucket[filter_bucket(dword)] == 0 {
            return None;
        }
        let n_older = self.records.partition_point(|r| r.seq < before_seq);
        self.records.range(..n_older).rev().find(|r| r.dword == dword).copied()
    }

    /// Parks a load until the store `store_seq` issues.
    pub fn add_waiter(&mut self, store_seq: u64, waiter: InstSlot) {
        self.parked.push((store_seq, waiter));
    }

    /// Removes the loads parked on `seq` and returns them in parking
    /// order.
    fn unpark(&mut self, seq: u64) -> Vec<InstSlot> {
        if self.parked.is_empty() {
            return Vec::new();
        }
        let mut woken = Vec::new();
        self.parked.retain(|&(store, waiter)| {
            if store == seq {
                woken.push(waiter);
            }
            store != seq
        });
        woken
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
        self.unpark(seq)
    }

    /// Removes a committed store. A store commits only after issuing, so
    /// no load is parked on it any more. Commit is in program order, so
    /// this is almost always a pop from the head of the ring.
    pub fn remove(&mut self, seq: u64) {
        let Some(record) = self.position(seq).and_then(|pos| self.records.remove(pos)) else {
            return;
        };
        self.in_bucket[filter_bucket(record.dword)] -= 1;
        self.unpark(seq);
    }

    /// Removes every store with `seq >= from_seq` (squash). Cost is
    /// proportional to the number of squashed stores, not the queue size.
    pub fn squash_from(&mut self, from_seq: u64) {
        let keep = self.records.partition_point(|r| r.seq < from_seq);
        for record in self.records.drain(keep..) {
            self.in_bucket[filter_bucket(record.dword)] -= 1;
        }
        self.parked.retain(|&(store, _)| store < from_seq);
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
        let mut q = WakeupQueue::new(16);
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
    fn calendar_wraps_around_the_wheel_and_releases_overdue_entries() {
        // Horizon 100: a 128-bucket wheel, the smallest above the horizon.
        let mut q = WakeupQueue::new(100);
        q.advance(120);
        q.schedule(220, slot(1, 0)); // bucket 92, past the wheel's end
        q.schedule(125, slot(2, 0));
        q.schedule(90, slot(3, 0)); // overdue: due at the cursor
        assert_eq!(q.next_wake(), Some(120));
        q.advance(121);
        assert_eq!(q.ready_snapshot(), vec![slot(3, 0)]);
        assert_eq!(q.next_wake(), Some(125));
        q.advance(219);
        assert_eq!(q.next_wake(), Some(220));
        q.advance(400);
        assert_eq!(q.ready_snapshot(), vec![slot(1, 0), slot(2, 0), slot(3, 0)]);
        assert_eq!(q.next_wake(), None);
        assert_eq!(q.len(), 3);
    }

    #[test]
    #[should_panic(expected = "beyond the calendar horizon")]
    fn calendar_rejects_wakeups_beyond_the_horizon() {
        let mut q = WakeupQueue::new(100);
        q.advance(10);
        q.schedule(111, slot(1, 0));
    }

    #[test]
    fn ready_set_iterates_in_age_order() {
        let mut q = WakeupQueue::new(16);
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
}
