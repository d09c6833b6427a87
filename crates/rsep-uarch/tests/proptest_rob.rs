//! Model-based equivalence: the slot-arena ROB against a straightforward
//! in-test reference model.
//!
//! The retired `RobKind::Deque` backend used to be the reference; since
//! its removal (the PR 4 equivalence proofs are in), this test keeps the
//! arena pinned against an ordered-`Vec` model that implements the ROB
//! contract in the most obvious way possible. Random sequences of the
//! operations the core actually performs — dispatch, sequence/handle
//! lookup, completion marking, in-order commit and squash-with-replay —
//! are applied to both in lockstep. After every operation the observable
//! state (lengths, heads, per-sequence entries, handle resolution
//! including stale-generation rejection, iteration order) must match
//! exactly. This is the structure-level complement to the golden-stats
//! campaigns, which prove simulator-level behaviour end-to-end.

use proptest::collection;
use proptest::prelude::*;
use rsep_isa::{ArchReg, DynInst, OpClass};
use rsep_uarch::{Disposition, InflightInst, InstSlot, Rob, SrcRegs};

const CAPACITY: usize = 12;

fn entry(seq: u64, gen: u64) -> InflightInst {
    InflightInst {
        inst: DynInst::simple(seq, 0x40_0000 + seq * 4, OpClass::IntAlu, ArchReg::int(1), seq),
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
        sched_gen: gen,
        pending_srcs: 0,
        wake_at: 0,
    }
}

/// The reference model: an ordered `Vec` of in-flight entries (oldest
/// first) with the same dense-sequence contract as the arena.
#[derive(Default)]
struct ModelRob {
    entries: Vec<InflightInst>,
}

impl ModelRob {
    fn push(&mut self, entry: InflightInst) -> InstSlot {
        assert!(self.entries.len() < CAPACITY, "model overflow");
        if let Some(last) = self.entries.last() {
            assert_eq!(entry.seq(), last.seq() + 1, "model: non-dense dispatch");
        }
        let slot = entry.slot();
        self.entries.push(entry);
        slot
    }

    fn pop_head(&mut self) -> Option<InflightInst> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0))
        }
    }

    fn find_by_seq(&self, seq: u64) -> Option<&InflightInst> {
        self.entries.iter().find(|e| e.seq() == seq)
    }

    fn find_by_seq_mut(&mut self, seq: u64) -> Option<&mut InflightInst> {
        self.entries.iter_mut().find(|e| e.seq() == seq)
    }

    fn get(&self, slot: InstSlot) -> Option<&InflightInst> {
        self.find_by_seq(slot.seq).filter(|e| e.sched_gen == slot.gen)
    }

    fn squash_from(&mut self, from_seq: u64) -> Vec<InflightInst> {
        let keep = self.entries.iter().position(|e| e.seq() >= from_seq);
        match keep {
            Some(idx) => self.entries.split_off(idx),
            None => Vec::new(),
        }
    }
}

fn assert_same_entry(a: Option<&InflightInst>, b: Option<&InflightInst>, what: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.seq(), b.seq(), "{what}: seq diverges");
            assert_eq!(a.sched_gen, b.sched_gen, "{what}: generation diverges");
            assert_eq!(a.issued, b.issued, "{what}: issued diverges");
            assert_eq!(a.complete_at, b.complete_at, "{what}: complete_at diverges");
        }
        (a, b) => {
            panic!("{what}: presence diverges (arena={}, model={})", a.is_some(), b.is_some())
        }
    }
}

fn assert_same_state(arena: &Rob, model: &ModelRob) {
    assert_eq!(arena.len(), model.entries.len(), "occupancy diverges");
    assert_eq!(arena.is_empty(), model.entries.is_empty());
    assert_eq!(arena.is_full(), model.entries.len() >= CAPACITY);
    assert_same_entry(arena.head(), model.entries.first(), "head");
    let a_seqs: Vec<(u64, u64)> = arena.iter().map(|e| (e.seq(), e.sched_gen)).collect();
    let m_seqs: Vec<(u64, u64)> = model.entries.iter().map(|e| (e.seq(), e.sched_gen)).collect();
    assert_eq!(a_seqs, m_seqs, "iteration order diverges");
}

/// Raw operation: `(selector, payload, payload2)`.
type RawOp = (u8, u64, u64);

fn run_ops(ops: &[RawOp]) {
    let mut arena = Rob::new(CAPACITY);
    let mut model = ModelRob::default();
    let mut next_seq = 0u64;
    let mut next_gen = 0u64;
    // Handles returned by push, kept (unpruned) so lookups exercise stale
    // generations and committed/squashed sequence numbers too.
    let mut handles: Vec<InstSlot> = Vec::new();

    for &(op_sel, payload, payload2) in ops {
        let head_seq = arena.head().map(|e| e.seq());
        let len = arena.len() as u64;
        match op_sel % 8 {
            // Dispatch (weighted heaviest so the window actually fills).
            0..=2 => {
                if !arena.is_full() {
                    let a = arena.push(entry(next_seq, next_gen));
                    let m = model.push(entry(next_seq, next_gen));
                    assert_eq!(a, m, "push handles diverge");
                    assert_eq!(a, InstSlot { seq: next_seq, gen: next_gen });
                    handles.push(a);
                    next_seq += 1;
                    next_gen += 1;
                }
            }
            // Mark a random in-flight instruction completed (what issue +
            // writeback do).
            3 => {
                if let Some(head) = head_seq {
                    let seq = head + payload % len.max(1);
                    assert_same_entry(arena.find_by_seq(seq), model.find_by_seq(seq), "find");
                    if let Some(e) = arena.find_by_seq_mut(seq) {
                        e.issued = true;
                        e.complete_at = payload2;
                    }
                    if let Some(e) = model.find_by_seq_mut(seq) {
                        e.issued = true;
                        e.complete_at = payload2;
                    }
                }
            }
            // Commit the head.
            4 => {
                let a = arena.pop_head();
                let m = model.pop_head();
                assert_same_entry(a.as_ref(), m.as_ref(), "pop_head");
            }
            // Squash from a random point (possibly the head, possibly
            // beyond the tail = no-op), then replay re-dispatches the same
            // sequence numbers under fresh generations.
            5 => {
                if let Some(head) = head_seq {
                    let from_seq = head + payload % (len + 3);
                    let a_squashed = arena.squash_from(from_seq);
                    let m_squashed = model.squash_from(from_seq);
                    assert_eq!(a_squashed.len(), m_squashed.len(), "squash count diverges");
                    for (a, m) in a_squashed.iter().zip(&m_squashed) {
                        assert_same_entry(Some(a), Some(m), "squashed entry");
                    }
                    // Oldest-first and dense.
                    for (i, e) in a_squashed.iter().enumerate() {
                        assert_eq!(e.seq(), from_seq.max(head) + i as u64);
                    }
                    next_seq = from_seq.max(head).min(next_seq);
                    // Replay a prefix of the squashed instructions now.
                    let replay = payload2 % (a_squashed.len() as u64 + 1);
                    for _ in 0..replay {
                        let a = arena.push(entry(next_seq, next_gen));
                        let m = model.push(entry(next_seq, next_gen));
                        assert_eq!(a, m);
                        handles.push(a);
                        next_seq += 1;
                        next_gen += 1;
                    }
                }
            }
            // Resolve a previously returned handle: both must agree, and a
            // handle whose generation is stale (the sequence number was
            // re-dispatched) must resolve to None.
            6 => {
                if !handles.is_empty() {
                    let slot = handles[(payload % handles.len() as u64) as usize];
                    assert_same_entry(arena.get(slot), model.get(slot), "get(slot)");
                    if let Some(e) = arena.get(slot) {
                        assert_eq!(e.seq(), slot.seq);
                        assert_eq!(e.sched_gen, slot.gen);
                    }
                    let stale = InstSlot { seq: slot.seq, gen: slot.gen + 1_000_000 };
                    assert!(arena.get(stale).is_none(), "stale generation must not resolve");
                    assert!(model.get(stale).is_none());
                }
            }
            // Lookup around the window edges (committed, live, future).
            _ => {
                let base = head_seq.unwrap_or(next_seq);
                let seq = (base + payload % (len + 4)).saturating_sub(2);
                assert_same_entry(arena.find_by_seq(seq), model.find_by_seq(seq), "edge find");
            }
        }
        assert_same_state(&arena, &model);
    }
}

proptest! {
    /// Random dispatch/complete/commit/squash sequences: the arena and the
    /// ordered-Vec reference model stay observably identical after every
    /// operation.
    #[test]
    fn arena_rob_matches_the_reference_model(
        ops in collection::vec(
            (proptest::prelude::any::<u8>(), 0u64..64, 0u64..64),
            1..400,
        )
    ) {
        run_ops(&ops);
    }
}
