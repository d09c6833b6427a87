//! Physical register file, free lists, reference counts and readiness
//! tracking.
//!
//! The timing model does not need register *values* (results travel with
//! the trace); it needs to know, for every physical register, the cycle at
//! which its value becomes available to consumers, and which registers are
//! free. Register index 0 of the integer file is reserved as the hardwired
//! zero register: always ready, never allocated, never freed (Section III).
//! It is counted like any other register, and the architectural zero
//! register's own mapping keeps it owned.
//!
//! Under move elimination and RSEP one physical register can have several
//! owners, so each register carries one reference count: its architectural
//! mappings plus the in-flight ROB entries that name it as destination
//! (Roth, "Physical Register Reference Counting", IEEE CAL 2008). The core
//! adds an owner for every mapping it creates (initial state, allocation,
//! eliminated move, share) and drops one when commit overwrites a mapping
//! or a squash removes a destination; a register returns to the free list
//! exactly when its count reaches zero. The count is the only free
//! decision: the ISRB of Section IV-E2 only filters which shares are
//! accepted.
//!
//! Debug builds also keep a value shadow per register (written with the
//! result of the instruction that allocated it, when it issues), so the
//! core can check at commit that a destination register holds the value
//! the trace says it should.

use crate::rob::InstSlot;
use rsep_isa::{PhysReg, RegClass};

/// Cycle value meaning "not ready yet".
pub const NOT_READY: u64 = u64::MAX;

/// Physical register file for one register class.
#[derive(Debug)]
pub struct PhysRegFile {
    class: RegClass,
    ready_at: Vec<u64>,
    free_list: Vec<u16>,
    /// Per-register reference count: architectural mappings plus in-flight
    /// destinations. Zero for the registers on the free list.
    owners: Vec<u32>,
    /// Per-register wakeup lists: instructions whose last outstanding
    /// source is this register are woken when it is marked ready, instead
    /// of polling readiness every cycle (event-driven select). Entries are
    /// generation-tagged [`InstSlot`] handles — squash leaves stale handles
    /// behind, and the wakeup logic drops them lazily when their generation
    /// no longer matches the live ROB entry.
    waiters: Vec<Vec<InstSlot>>,
    /// Value shadow (debug builds only): the result last written into each
    /// register.
    #[cfg(debug_assertions)]
    values: Vec<u64>,
}

impl PhysRegFile {
    /// Creates a register file of `size` physical registers for `class`,
    /// all free.
    ///
    /// For the integer class, register 0 is reserved as the hardwired zero
    /// register and never enters the free list.
    pub fn new(class: RegClass, size: usize) -> PhysRegFile {
        assert!(size >= 2, "physical register file too small");
        let reserved = if class == RegClass::Int { 1 } else { 0 };
        let mut free_list: Vec<u16> = (reserved as u16..size as u16).rev().collect();
        free_list.shrink_to_fit();
        PhysRegFile {
            class,
            ready_at: vec![0; size],
            free_list,
            owners: vec![0; size],
            waiters: vec![Vec::new(); size],
            #[cfg(debug_assertions)]
            values: vec![0; size],
        }
    }

    /// The hardwired zero register of the integer file.
    pub fn zero_reg() -> PhysReg {
        PhysReg::new(RegClass::Int, 0)
    }

    /// Register class handled by this file.
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// Number of currently free registers.
    pub fn free_count(&self) -> usize {
        self.free_list.len()
    }

    /// Total number of physical registers.
    pub fn size(&self) -> usize {
        self.ready_at.len()
    }

    /// Number of owners of `reg` (zero exactly when it is free).
    pub fn owners(&self, reg: PhysReg) -> u32 {
        debug_assert_eq!(reg.class(), self.class);
        self.owners[reg.index() as usize]
    }

    /// Takes a free register off the free list, returning `None` when the
    /// list is empty. The register is not ready and has no owner yet: the
    /// caller [`acquire`](PhysRegFile::acquire)s it for the mapping it
    /// creates.
    pub fn allocate(&mut self) -> Option<PhysReg> {
        let idx = self.free_list.pop()?;
        debug_assert_eq!(self.owners[idx as usize], 0, "allocated an owned register");
        self.ready_at[idx as usize] = NOT_READY;
        // Any waiters left over from a previous allocation of this register
        // belong to squashed instructions; drop them so they cannot leak
        // into the new producer's wakeup list.
        self.waiters[idx as usize].clear();
        Some(PhysReg::new(self.class, idx))
    }

    /// Adds an owner to `reg`, which must not be on the free list (it was
    /// just allocated, or it already has an owner).
    pub fn acquire(&mut self, reg: PhysReg) {
        debug_assert_eq!(reg.class(), self.class);
        self.owners[reg.index() as usize] += 1;
    }

    /// Takes `reg` off the free list, if it is there, and adds an owner to
    /// it (used to pin the registers backing the initial architectural
    /// state).
    pub fn reserve(&mut self, reg: PhysReg) {
        debug_assert_eq!(reg.class(), self.class);
        self.free_list.retain(|&r| r != reg.index());
        self.acquire(reg);
    }

    /// Drops one owner of `reg` and returns how many remain; at zero the
    /// register returns to the free list.
    ///
    /// # Panics
    ///
    /// Panics if `reg` has no owner, or if this would free the zero
    /// register (a release without a matching acquire is a bug in the
    /// renaming logic and must not be silent).
    pub fn release(&mut self, reg: PhysReg) -> u32 {
        debug_assert_eq!(reg.class(), self.class);
        let count = &mut self.owners[reg.index() as usize];
        assert!(
            reg != Self::zero_reg() || *count > 1,
            "the hardwired zero register must never be freed"
        );
        assert!(*count > 0, "double free of {reg}");
        *count -= 1;
        if *count == 0 {
            self.free_list.push(reg.index());
        }
        *count
    }

    /// Marks a register's value as available from `cycle` on.
    pub fn set_ready_at(&mut self, reg: PhysReg, cycle: u64) {
        debug_assert_eq!(reg.class(), self.class);
        self.ready_at[reg.index() as usize] = cycle;
    }

    /// Cycle at which the register's value is available ([`NOT_READY`] if
    /// unknown).
    pub fn ready_at(&self, reg: PhysReg) -> u64 {
        debug_assert_eq!(reg.class(), self.class);
        self.ready_at[reg.index() as usize]
    }

    /// Returns `true` if the register's value is available at `cycle`.
    pub fn is_ready(&self, reg: PhysReg, cycle: u64) -> bool {
        self.ready_at(reg) <= cycle
    }

    /// Registers a scheduler waiter to be woken when `reg` is marked ready.
    pub fn add_waiter(&mut self, reg: PhysReg, waiter: InstSlot) {
        debug_assert_eq!(reg.class(), self.class);
        self.waiters[reg.index() as usize].push(waiter);
    }

    /// Drains the waiters registered on `reg` into `buf` (cleared first),
    /// for the per-writeback wakeup path: the per-register list keeps its
    /// capacity for the next producer and `buf` is a reusable scratch
    /// buffer.
    pub fn take_waiters_into(&mut self, reg: PhysReg, buf: &mut Vec<InstSlot>) {
        debug_assert_eq!(reg.class(), self.class);
        buf.clear();
        buf.append(&mut self.waiters[reg.index() as usize]);
    }

    /// Checks register conservation against `expected`, the owner count
    /// each register should have (its architectural mappings plus its
    /// in-flight destinations, indexed by register): every count must
    /// match, the free list must hold no duplicate, and it must hold
    /// exactly the registers with no owner, so `free + #(count > 0)` is
    /// the file size.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check_owners(&self, expected: &[u32]) -> Result<(), String> {
        let miscounted = self.owners.iter().zip(expected).position(|(count, want)| count != want);
        if let Some(idx) = miscounted {
            return Err(format!(
                "p{idx} counts {} owners but has {} mappings and in-flight destinations",
                self.owners[idx], expected[idx]
            ));
        }
        let mut on_list = vec![false; self.size()];
        for &idx in &self.free_list {
            let idx = usize::from(idx);
            if std::mem::replace(&mut on_list[idx], true) {
                return Err(format!("p{idx} is on the free list twice"));
            }
            if self.owners[idx] != 0 {
                return Err(format!("p{idx} is free but has {} owners", self.owners[idx]));
            }
        }
        let live = self.owners.iter().filter(|&&count| count > 0).count();
        if self.free_list.len() + live != self.size() {
            return Err(format!(
                "{} free + {live} live registers != {} (leak)",
                self.free_list.len(),
                self.size()
            ));
        }
        Ok(())
    }

    /// Records `value` as the content of `reg` (value shadow).
    #[cfg(debug_assertions)]
    pub fn set_value(&mut self, reg: PhysReg, value: u64) {
        debug_assert_eq!(reg.class(), self.class);
        self.values[reg.index() as usize] = value;
    }

    /// The value last written into `reg` (value shadow).
    #[cfg(debug_assertions)]
    pub fn value(&self, reg: PhysReg) -> u64 {
        debug_assert_eq!(reg.class(), self.class);
        self.values[reg.index() as usize]
    }
}

/// Pair of per-class physical register files.
#[derive(Debug)]
pub struct RegisterFiles {
    int: PhysRegFile,
    fp: PhysRegFile,
}

impl RegisterFiles {
    /// Creates the files with the given sizes.
    pub fn new(int_size: usize, fp_size: usize) -> RegisterFiles {
        RegisterFiles {
            int: PhysRegFile::new(RegClass::Int, int_size),
            fp: PhysRegFile::new(RegClass::Fp, fp_size),
        }
    }

    /// The file for a class.
    pub fn file(&self, class: RegClass) -> &PhysRegFile {
        match class {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }

    /// The file for a class, mutably.
    pub fn file_mut(&mut self, class: RegClass) -> &mut PhysRegFile {
        match class {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        }
    }

    /// Allocates a register of the given class (see
    /// [`PhysRegFile::allocate`]).
    pub fn allocate(&mut self, class: RegClass) -> Option<PhysReg> {
        self.file_mut(class).allocate()
    }

    /// Adds an owner to `reg`.
    pub fn acquire(&mut self, reg: PhysReg) {
        self.file_mut(reg.class()).acquire(reg);
    }

    /// Drops an owner of `reg`, returning how many remain.
    pub fn release(&mut self, reg: PhysReg) -> u32 {
        self.file_mut(reg.class()).release(reg)
    }

    /// Marks a register ready at `cycle`.
    pub fn set_ready_at(&mut self, reg: PhysReg, cycle: u64) {
        self.file_mut(reg.class()).set_ready_at(reg, cycle);
    }

    /// Cycle at which `reg` becomes available.
    pub fn ready_at(&self, reg: PhysReg) -> u64 {
        self.file(reg.class()).ready_at(reg)
    }

    /// Returns `true` if `reg` is available at `cycle`.
    pub fn is_ready(&self, reg: PhysReg, cycle: u64) -> bool {
        self.file(reg.class()).is_ready(reg, cycle)
    }

    /// Registers a wakeup waiter on `reg`.
    pub fn add_waiter(&mut self, reg: PhysReg, waiter: InstSlot) {
        self.file_mut(reg.class()).add_waiter(reg, waiter);
    }

    /// Drains the wakeup waiters of `reg` into a reusable buffer.
    pub fn take_waiters_into(&mut self, reg: PhysReg, buf: &mut Vec<InstSlot>) {
        self.file_mut(reg.class()).take_waiters_into(reg, buf);
    }

    /// Records `value` as the content of `reg` (value shadow).
    #[cfg(debug_assertions)]
    pub fn set_value(&mut self, reg: PhysReg, value: u64) {
        self.file_mut(reg.class()).set_value(reg, value);
    }

    /// The value last written into `reg` (value shadow).
    #[cfg(debug_assertions)]
    pub fn value(&self, reg: PhysReg) -> u64 {
        self.file(reg.class()).value(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_reserved_and_always_ready() {
        let mut prf = PhysRegFile::new(RegClass::Int, 8);
        assert_eq!(prf.free_count(), 7);
        assert!(prf.is_ready(PhysRegFile::zero_reg(), 0));
        // Extra owners of the zero register come and go; it never enters
        // the free list.
        prf.reserve(PhysRegFile::zero_reg());
        prf.acquire(PhysRegFile::zero_reg());
        assert_eq!(prf.release(PhysRegFile::zero_reg()), 1);
        assert_eq!(prf.free_count(), 7);
    }

    #[test]
    fn fp_file_has_no_reserved_register() {
        let prf = PhysRegFile::new(RegClass::Fp, 8);
        assert_eq!(prf.free_count(), 8);
    }

    #[test]
    fn allocate_until_exhaustion_then_free() {
        let mut prf = PhysRegFile::new(RegClass::Fp, 4);
        let regs: Vec<_> = (0..4).map(|_| prf.allocate().unwrap()).collect();
        assert!(prf.allocate().is_none());
        assert_eq!(prf.free_count(), 0);
        for &r in &regs {
            prf.acquire(r);
        }
        for r in regs {
            assert_eq!(prf.release(r), 0);
        }
        assert_eq!(prf.free_count(), 4);
    }

    #[test]
    fn inflight_owner_refcount_tracks_adds_and_removes() {
        let mut prf = PhysRegFile::new(RegClass::Int, 8);
        let r = prf.allocate().unwrap();
        prf.acquire(r);
        prf.acquire(r);
        prf.acquire(r);
        assert_eq!(prf.owners(r), 3);
        assert_eq!(prf.release(r), 2);
        assert_eq!(prf.release(r), 1);
        assert_eq!(prf.free_count(), 6);
        assert_eq!(prf.release(r), 0);
        assert_eq!(prf.free_count(), 7);
    }

    #[test]
    fn reserving_a_free_register_takes_it_off_the_free_list() {
        let mut prf = PhysRegFile::new(RegClass::Fp, 4);
        let r = PhysReg::new(RegClass::Fp, 2);
        prf.reserve(r);
        assert_eq!(prf.free_count(), 3);
        for _ in 0..3 {
            assert_ne!(prf.allocate(), Some(r));
        }
        assert!(prf.allocate().is_none());
    }

    #[test]
    fn readiness_tracking() {
        let mut prf = PhysRegFile::new(RegClass::Int, 8);
        let r = prf.allocate().unwrap();
        assert!(!prf.is_ready(r, 100));
        prf.set_ready_at(r, 50);
        assert!(!prf.is_ready(r, 49));
        assert!(prf.is_ready(r, 50));
        assert_eq!(prf.ready_at(r), 50);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut prf = PhysRegFile::new(RegClass::Int, 8);
        let r = prf.allocate().unwrap();
        prf.acquire(r);
        prf.release(r);
        prf.release(r);
    }

    #[test]
    #[should_panic(expected = "zero register")]
    fn freeing_the_zero_register_panics() {
        let mut prf = PhysRegFile::new(RegClass::Int, 8);
        prf.acquire(PhysRegFile::zero_reg());
        prf.release(PhysRegFile::zero_reg());
    }

    #[test]
    fn waiters_are_drained_once_and_cleared_on_reallocation() {
        let mut prf = PhysRegFile::new(RegClass::Int, 8);
        let r = prf.allocate().unwrap();
        prf.acquire(r);
        prf.add_waiter(r, InstSlot { seq: 10, gen: 1 });
        prf.add_waiter(r, InstSlot { seq: 11, gen: 1 });
        let mut woken = Vec::new();
        prf.take_waiters_into(r, &mut woken);
        assert_eq!(woken.len(), 2);
        prf.take_waiters_into(r, &mut woken);
        assert!(woken.is_empty(), "waiters drain exactly once");
        // Stale waiters left over at free time vanish on reallocation.
        prf.add_waiter(r, InstSlot { seq: 12, gen: 2 });
        prf.release(r);
        let r2 = prf.allocate().unwrap();
        assert_eq!(r2, r, "free list is LIFO in this test");
        prf.take_waiters_into(r2, &mut woken);
        assert!(woken.is_empty(), "stale waiters must not leak");
    }

    #[test]
    fn free_list_validation_passes_on_consistent_state() {
        let mut prf = PhysRegFile::new(RegClass::Fp, 4);
        let mut expected = vec![0; 4];
        assert_eq!(prf.check_owners(&expected), Ok(()));
        let a = prf.allocate().unwrap();
        // A leak and a miscount are both caught. Taken off the free list but owned by nobody: a leak.
        assert!(prf.check_owners(&expected).unwrap_err().contains("leak"));
        prf.acquire(a);
        assert!(prf.check_owners(&expected).unwrap_err().contains("counts 1 owners"));
        expected[usize::from(a.index())] = 1;
        assert_eq!(prf.check_owners(&expected), Ok(()));
        prf.release(a);
        expected[usize::from(a.index())] = 0;
        assert_eq!(prf.check_owners(&expected), Ok(()));
    }

    #[test]
    fn register_files_dispatch_by_class() {
        let mut rf = RegisterFiles::new(40, 40);
        let i = rf.allocate(RegClass::Int).unwrap();
        let f = rf.allocate(RegClass::Fp).unwrap();
        assert_eq!(i.class(), RegClass::Int);
        assert_eq!(f.class(), RegClass::Fp);
        rf.acquire(i);
        rf.acquire(f);
        rf.set_ready_at(i, 3);
        assert!(rf.is_ready(i, 3));
        assert!(!rf.is_ready(f, 1000));
        rf.release(i);
        rf.release(f);
        assert_eq!(rf.file(RegClass::Int).free_count(), 39);
        assert_eq!(rf.file(RegClass::Fp).free_count(), 40);
    }
}
