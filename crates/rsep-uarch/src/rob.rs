//! Reorder buffer and in-flight instruction records.
//!
//! The ROB tracks every renamed, not-yet-committed instruction in program
//! order. RSEP indexes the ROB with the predicted instruction distance to
//! retrieve the physical register of the provider instruction
//! (Section IV-E1), which is why the [`Rob`] exposes sequence-number lookup.
//!
//! # Storage
//!
//! The in-flight store is a **slot arena**: a fixed array of
//! `capacity.next_power_of_two()` slots. Sequence numbers in the ROB are
//! dense (dispatch is in program order and replay preserves numbering —
//! asserted on every push), so the slot of `seq` is simply `seq & mask`:
//! every lookup, whether by sequence number or by [`InstSlot`] handle, is a
//! single array index with no search, and squashing truncates the ring in
//! place without allocating. (The original `VecDeque` backend was retained
//! for one PR as `RobKind::Deque` and retired after the PR 4 equivalence
//! proofs; `tests/proptest_rob.rs` still drives the arena against an
//! in-test reference model.)
//!
//! Scheduler-side structures (wakeup lists, ready set, store-queue parking
//! — see [`crate::sched`]) do not store bare sequence numbers: they hold
//! copyable [`InstSlot`] handles, which [`Rob::get`]/[`Rob::get_mut`]
//! resolve in O(1) *and* validate in the same step (a stale handle left
//! behind by a squash fails its generation check and resolves to `None`).

use crate::engine::{Disposition, ValidationKind};
use rsep_isa::{DynInst, PhysReg, RegClass, MAX_SOURCES};

/// Copyable, generation-tagged handle to an in-flight instruction.
///
/// `seq` is the instruction's sequence number — in-flight sequence numbers
/// are dense, so it doubles as the arena index (`seq & mask`). `gen` is the
/// dispatch generation the instruction was renamed under: squash + replay
/// re-dispatches the same sequence number with a fresh generation, so a
/// handle whose generation no longer matches the live entry is stale and
/// resolves to `None`. This is what keeps squash O(squashed): stale handles
/// parked in scheduler structures are dropped lazily when next touched
/// instead of being scrubbed eagerly.
///
/// Ordering is by `(seq, gen)`, i.e. age order — the scheduler's ready set
/// relies on this to select oldest-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstSlot {
    /// Sequence number of the instruction the handle refers to.
    pub seq: u64,
    /// Dispatch generation the handle was created under.
    pub gen: u64,
}

/// Maximum renamed sources an in-flight instruction can carry: the ISA's
/// source operands plus the provider register a shared (RSEP-predicted)
/// instruction depends on (Section IV-F1).
pub const MAX_SRC_REGS: usize = MAX_SOURCES + 1;

/// Inline list of renamed source registers.
///
/// Every dispatched instruction used to carry its sources in a `Vec`,
/// costing one heap allocation per dispatch on the hottest path of the
/// simulator. The bound is small and static ([`MAX_SRC_REGS`]), so the
/// list is stored inline in the ROB entry instead.
#[derive(Clone, Copy)]
pub struct SrcRegs {
    regs: [PhysReg; MAX_SRC_REGS],
    len: u8,
}

impl SrcRegs {
    /// Creates an empty source list.
    pub fn new() -> SrcRegs {
        SrcRegs { regs: [PhysReg::new(RegClass::Int, 0); MAX_SRC_REGS], len: 0 }
    }

    /// Appends a source register.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SRC_REGS`] sources are pushed.
    pub fn push(&mut self, reg: PhysReg) {
        assert!((self.len as usize) < MAX_SRC_REGS, "too many renamed sources");
        self.regs[self.len as usize] = reg;
        self.len += 1;
    }

    /// The sources as a slice.
    pub fn as_slice(&self) -> &[PhysReg] {
        &self.regs[..self.len as usize]
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` when the instruction has no renamed sources.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the sources.
    pub fn iter(&self) -> std::slice::Iter<'_, PhysReg> {
        self.as_slice().iter()
    }
}

impl Default for SrcRegs {
    fn default() -> SrcRegs {
        SrcRegs::new()
    }
}

impl std::ops::Deref for SrcRegs {
    type Target = [PhysReg];

    fn deref(&self) -> &[PhysReg] {
        self.as_slice()
    }
}

impl std::fmt::Debug for SrcRegs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for SrcRegs {
    fn eq(&self, other: &SrcRegs) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SrcRegs {}

impl<'a> IntoIterator for &'a SrcRegs {
    type Item = &'a PhysReg;
    type IntoIter = std::slice::Iter<'a, PhysReg>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<PhysReg> for SrcRegs {
    fn from_iter<I: IntoIterator<Item = PhysReg>>(iter: I) -> SrcRegs {
        let mut regs = SrcRegs::new();
        for reg in iter {
            regs.push(reg);
        }
        regs
    }
}

/// One renamed, in-flight instruction.
#[derive(Debug, Clone)]
pub struct InflightInst {
    /// The dynamic instruction.
    pub inst: DynInst,
    /// Physical register holding (or designated to hold) the result. The
    /// entry counts as one owner of it while in flight.
    pub dest_preg: Option<PhysReg>,
    /// Whether `dest_preg` was freshly allocated for this instruction (as
    /// opposed to shared, hardwired zero, or a move-eliminated source).
    pub allocated_new_preg: bool,
    /// Renamed source registers (plus the provider register for shared
    /// instructions, which adds a dependency per Section IV-F1).
    pub src_pregs: SrcRegs,
    /// Mechanism handling this instruction.
    pub disposition: Disposition,
    /// True for instructions that never execute (move elimination,
    /// zero-idiom elimination, nops).
    pub eliminated: bool,
    /// Whether the instruction currently occupies a scheduler entry.
    pub in_iq: bool,
    /// Whether it has been issued.
    pub issued: bool,
    /// Whether execution has finished (valid once `issued`).
    pub complete_at: u64,
    /// Cycle at which it was renamed/dispatched.
    pub renamed_at: u64,
    /// True if this is a branch the front end mispredicted.
    pub branch_mispredicted: bool,
    /// Pending second (validation) issue for RSEP, if any.
    pub needs_validation_issue: Option<ValidationKind>,
    /// Whether the instruction occupies a load-queue entry.
    pub uses_lq: bool,
    /// Whether the instruction occupies a store-queue entry.
    pub uses_sq: bool,
    /// Dispatch generation: distinguishes this dispatch of the sequence
    /// number from earlier, squashed dispatches of the same instruction, so
    /// stale scheduler entries can be detected and dropped lazily.
    pub sched_gen: u64,
    /// Source registers whose availability cycle is not yet known; the
    /// instruction is inserted into the ready set when this reaches zero
    /// (event-driven wakeup).
    pub pending_srcs: u32,
    /// Earliest cycle the instruction can issue: the maximum of the known
    /// source-availability cycles and the cycle after dispatch.
    pub wake_at: u64,
}

impl InflightInst {
    /// Returns `true` once the instruction has produced its result (or
    /// needs no execution) by `clock`.
    pub fn is_completed(&self, clock: u64) -> bool {
        if self.eliminated {
            return true;
        }
        self.issued && self.complete_at <= clock
    }

    /// Sequence number of the instruction.
    pub fn seq(&self) -> u64 {
        self.inst.seq
    }

    /// The generation-tagged handle of this entry.
    pub fn slot(&self) -> InstSlot {
        InstSlot { seq: self.inst.seq, gen: self.sched_gen }
    }

    /// The destination register whose dependents wake when this
    /// instruction's completion cycle becomes known: only freshly
    /// allocated destinations qualify (shared/zero/move-eliminated
    /// mappings have other owners), and value-predicted destinations were
    /// already marked ready at rename so dependents could consume the
    /// prediction immediately.
    pub fn wakeup_dest(&self) -> Option<PhysReg> {
        if self.allocated_new_preg && !matches!(self.disposition, Disposition::ValuePred { .. }) {
            self.dest_preg
        } else {
            None
        }
    }
}

/// The reorder buffer: a flat slot arena. `slots.len()` is
/// `capacity.next_power_of_two()`, so `seq & mask` maps every live (dense)
/// sequence number to a distinct slot.
#[derive(Debug)]
pub struct Rob {
    slots: Box<[Option<InflightInst>]>,
    mask: u64,
    /// Sequence number of the oldest in-flight instruction (meaningful only
    /// while `len > 0`).
    head_seq: u64,
    len: usize,
    capacity: usize,
}

impl Rob {
    /// Creates a ROB with the given capacity.
    pub fn new(capacity: usize) -> Rob {
        assert!(capacity > 0);
        let slots = capacity.next_power_of_two();
        Rob {
            slots: (0..slots).map(|_| None).collect(),
            mask: slots as u64 - 1,
            head_seq: 0,
            len: 0,
            capacity,
        }
    }

    fn idx(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    fn contains_seq(&self, seq: u64) -> bool {
        self.len > 0 && seq >= self.head_seq && seq - self.head_seq < self.len as u64
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no instruction is in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` when no further instruction can be dispatched.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Appends a newly renamed instruction and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full or the sequence number is not exactly one
    /// past the youngest entry — dispatch is in program order and in-flight
    /// sequence numbers are dense (replay preserves numbering), which is
    /// what makes slot addressing and offset lookup exact.
    pub fn push(&mut self, entry: InflightInst) -> InstSlot {
        assert!(!self.is_full(), "ROB overflow");
        let slot = entry.slot();
        if self.len > 0 {
            assert!(
                entry.seq() == self.head_seq + self.len as u64,
                "out-of-order dispatch into the ROB (in-flight sequence \
                 numbers must be dense)"
            );
        } else {
            self.head_seq = entry.seq();
        }
        let idx = self.idx(entry.seq());
        debug_assert!(self.slots[idx].is_none(), "arena slot collision");
        self.slots[idx] = Some(entry);
        self.len += 1;
        slot
    }

    /// The oldest in-flight instruction.
    pub fn head(&self) -> Option<&InflightInst> {
        if self.len == 0 {
            return None;
        }
        self.slots[self.idx(self.head_seq)].as_ref()
    }

    /// Removes and returns the oldest instruction (it has committed).
    pub fn pop_head(&mut self) -> Option<InflightInst> {
        if self.len == 0 {
            return None;
        }
        let idx = self.idx(self.head_seq);
        let entry = self.slots[idx].take();
        debug_assert!(entry.is_some(), "dense arena head slot must be occupied");
        self.head_seq += 1;
        self.len -= 1;
        entry
    }

    /// Resolves a generation-tagged handle: `None` if the entry left the
    /// window (committed or squashed) or was re-dispatched under a newer
    /// generation. O(1).
    pub fn get(&self, slot: InstSlot) -> Option<&InflightInst> {
        let entry = self.find_by_seq(slot.seq)?;
        (entry.sched_gen == slot.gen).then_some(entry)
    }

    /// Mutable handle resolution (see [`Rob::get`]).
    pub fn get_mut(&mut self, slot: InstSlot) -> Option<&mut InflightInst> {
        let entry = self.find_by_seq_mut(slot.seq)?;
        (entry.sched_gen == slot.gen).then_some(entry)
    }

    /// Looks up an in-flight instruction by sequence number.
    ///
    /// In-flight sequence numbers are dense, so this is direct indexing —
    /// the invariant is asserted at dispatch.
    pub fn find_by_seq(&self, seq: u64) -> Option<&InflightInst> {
        if !self.contains_seq(seq) {
            return None;
        }
        let entry = self.slots[self.idx(seq)].as_ref();
        debug_assert!(entry.is_some_and(|e| e.seq() == seq), "dense-seq invariant broken");
        entry
    }

    /// Mutable lookup by sequence number.
    pub fn find_by_seq_mut(&mut self, seq: u64) -> Option<&mut InflightInst> {
        if !self.contains_seq(seq) {
            return None;
        }
        let idx = self.idx(seq);
        let entry = self.slots[idx].as_mut();
        debug_assert!(entry.as_ref().is_some_and(|e| e.seq() == seq), "dense-seq invariant broken");
        entry
    }

    /// Iterates over in-flight instructions from oldest to youngest.
    pub fn iter(&self) -> RobIter<'_> {
        RobIter { rob: self, next: self.head_seq, remaining: self.len }
    }

    /// Removes every instruction with `seq >= from_seq` (a squash), handing
    /// each to `f` from oldest to youngest. No intermediate collection is
    /// allocated — the arena truncates its ring in place.
    pub fn squash_from_each(&mut self, from_seq: u64, mut f: impl FnMut(InflightInst)) {
        if self.len == 0 {
            return;
        }
        let end = self.head_seq + self.len as u64;
        // Clamp both ways: a `from_seq` below the head squashes the whole
        // window, one beyond the tail is a no-op (the length update below
        // must not run past `end` either way).
        let start = from_seq.clamp(self.head_seq, end);
        for seq in start..end {
            let idx = (seq & self.mask) as usize;
            let entry = self.slots[idx].take().expect("dense arena slot must be occupied");
            debug_assert_eq!(entry.seq(), seq, "dense-seq invariant broken");
            f(entry);
        }
        self.len = (start - self.head_seq) as usize;
    }

    /// Removes every instruction with `seq >= from_seq` (a squash) and
    /// returns them from oldest to youngest. Convenience wrapper around
    /// [`Rob::squash_from_each`] for tests and reference code.
    pub fn squash_from(&mut self, from_seq: u64) -> Vec<InflightInst> {
        let mut squashed = Vec::new();
        self.squash_from_each(from_seq, |entry| squashed.push(entry));
        squashed
    }
}

/// Oldest-to-youngest iterator over the in-flight instructions (see
/// [`Rob::iter`]).
#[derive(Debug)]
pub struct RobIter<'a> {
    rob: &'a Rob,
    next: u64,
    remaining: usize,
}

impl<'a> Iterator for RobIter<'a> {
    type Item = &'a InflightInst;

    fn next(&mut self) -> Option<&'a InflightInst> {
        if self.remaining == 0 {
            return None;
        }
        let entry = self.rob.slots[self.rob.idx(self.next)].as_ref();
        debug_assert!(entry.is_some(), "dense arena slot must be occupied");
        self.next += 1;
        self.remaining -= 1;
        entry
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RobIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rsep_isa::{ArchReg, OpClass};

    fn entry(seq: u64) -> InflightInst {
        InflightInst {
            inst: DynInst::simple(seq, 0x400000 + seq * 4, OpClass::IntAlu, ArchReg::int(1), seq),
            dest_preg: None,
            allocated_new_preg: false,
            src_pregs: SrcRegs::new(),
            disposition: Disposition::None,
            eliminated: false,
            in_iq: true,
            issued: false,
            complete_at: 0,
            renamed_at: 0,
            branch_mispredicted: false,
            needs_validation_issue: None,
            uses_lq: false,
            uses_sq: false,
            sched_gen: 0,
            pending_srcs: 0,
            wake_at: 0,
        }
    }

    #[test]
    fn push_pop_in_order() {
        let mut rob = Rob::new(4);
        assert!(rob.is_empty());
        rob.push(entry(0));
        rob.push(entry(1));
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.head().unwrap().seq(), 0);
        assert_eq!(rob.pop_head().unwrap().seq(), 0);
        assert_eq!(rob.pop_head().unwrap().seq(), 1);
        assert!(rob.pop_head().is_none());
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(0));
        rob.push(entry(1));
    }

    #[test]
    #[should_panic(expected = "out-of-order dispatch")]
    fn out_of_order_dispatch_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(5));
        rob.push(entry(3));
    }

    #[test]
    #[should_panic(expected = "sequence numbers must be dense")]
    fn non_dense_dispatch_panics() {
        // Regression pin for the dense-seq invariant that replaced the
        // linear-scan fallback: a gap in dispatched sequence numbers must
        // trip the assert, not silently corrupt slot addressing.
        let mut rob = Rob::new(8);
        rob.push(entry(0));
        rob.push(entry(2));
    }

    #[test]
    fn find_by_seq_with_dense_numbers() {
        let mut rob = Rob::new(8);
        for s in 10..16 {
            rob.push(entry(s));
        }
        assert_eq!(rob.find_by_seq(12).unwrap().seq(), 12);
        assert!(rob.find_by_seq(9).is_none());
        assert!(rob.find_by_seq(16).is_none());
        rob.find_by_seq_mut(13).unwrap().issued = true;
        assert!(rob.find_by_seq(13).unwrap().issued);
    }

    #[test]
    fn slot_handles_resolve_in_o1_and_validate_generation() {
        let mut rob = Rob::new(8);
        let mut e = entry(3);
        e.sched_gen = 7;
        let slot = InstSlot { seq: 3, gen: 7 };
        rob.push(entry(0));
        rob.push(entry(1));
        rob.push(entry(2));
        assert_eq!(rob.push(e), slot);
        assert_eq!(rob.get(slot).unwrap().seq(), 3);
        // Wrong generation: the entry was re-dispatched; stale handle.
        assert!(rob.get(InstSlot { seq: 3, gen: 6 }).is_none());
        // Committed head: handle beyond the window resolves to None.
        rob.pop_head();
        assert!(rob.get(InstSlot { seq: 0, gen: 0 }).is_none());
        rob.get_mut(slot).unwrap().issued = true;
        assert!(rob.get(slot).unwrap().issued);
    }

    #[test]
    fn arena_slots_wrap_around_the_ring() {
        // Capacity 4 (mask 3): sequence numbers far beyond the capacity
        // keep mapping onto distinct slots as the window slides.
        let mut rob = Rob::new(4);
        for s in 0..4 {
            rob.push(entry(s));
        }
        for s in 4..40 {
            assert!(rob.is_full());
            assert_eq!(rob.pop_head().unwrap().seq(), s - 4);
            rob.push(entry(s));
            assert_eq!(rob.find_by_seq(s).unwrap().seq(), s);
        }
        let seqs: Vec<u64> = rob.iter().map(|e| e.seq()).collect();
        assert_eq!(seqs, vec![36, 37, 38, 39]);
    }

    #[test]
    fn squash_removes_younger_entries() {
        let mut rob = Rob::new(8);
        for s in 0..6 {
            rob.push(entry(s));
        }
        let squashed = rob.squash_from(3);
        assert_eq!(squashed.len(), 3);
        assert_eq!(squashed[0].seq(), 3);
        assert_eq!(rob.len(), 3);
        assert_eq!(rob.iter().last().unwrap().seq(), 2);
        // Replay refills the squashed range.
        for s in 3..6 {
            rob.push(entry(s));
        }
        assert_eq!(rob.len(), 6);
        assert_eq!(rob.find_by_seq(5).unwrap().seq(), 5);
    }

    #[test]
    fn squash_from_each_visits_oldest_first_without_collecting() {
        let mut rob = Rob::new(8);
        for s in 0..6 {
            rob.push(entry(s));
        }
        let mut seen = Vec::new();
        rob.squash_from_each(2, |e| seen.push(e.seq()));
        assert_eq!(seen, vec![2, 3, 4, 5]);
        assert_eq!(rob.len(), 2);
        // A squash point beyond the youngest entry is a no-op and must
        // not corrupt the occupancy (regression: the arena once set
        // `len` from the unclamped squash point).
        rob.squash_from_each(100, |_| panic!("nothing is younger than seq 100"));
        assert_eq!(rob.len(), 2);
        assert!(!rob.is_full());
        rob.push(entry(2));
        assert_eq!(rob.len(), 3);
        // Squashing everything (and an empty ROB) is fine too.
        rob.squash_from_each(0, |_| {});
        assert!(rob.is_empty());
        rob.squash_from_each(0, |_| panic!("empty ROB has nothing to squash"));
    }

    #[test]
    fn src_regs_inline_list_behaves_like_a_vec() {
        let mut srcs = SrcRegs::new();
        assert!(srcs.is_empty());
        let a = PhysReg::new(RegClass::Int, 5);
        let b = PhysReg::new(RegClass::Fp, 9);
        srcs.push(a);
        srcs.push(b);
        assert_eq!(srcs.len(), 2);
        assert_eq!(srcs.as_slice(), &[a, b]);
        assert!(srcs.iter().all(|&r| r == a || r == b));
        let collected: SrcRegs = [a, b].into_iter().collect();
        assert_eq!(collected, srcs);
        // Equality ignores the unused tail of the inline array.
        let mut other = SrcRegs::new();
        other.push(a);
        assert_ne!(other, srcs);
        other.push(b);
        assert_eq!(other, srcs);
    }

    #[test]
    #[should_panic(expected = "too many renamed sources")]
    fn src_regs_overflow_panics() {
        let mut srcs = SrcRegs::new();
        for i in 0..=MAX_SRC_REGS {
            srcs.push(PhysReg::new(RegClass::Int, i as u16));
        }
    }

    #[test]
    fn completion_rules() {
        let mut e = entry(0);
        assert!(!e.is_completed(100));
        e.issued = true;
        e.complete_at = 50;
        assert!(!e.is_completed(49));
        assert!(e.is_completed(50));
        let mut elim = entry(1);
        elim.eliminated = true;
        assert!(elim.is_completed(0));
    }
}
