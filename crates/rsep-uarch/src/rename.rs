//! Register alias tables (speculative and architectural).
//!
//! Rename maintains a speculative map from architectural to physical
//! registers; Commit maintains the architectural (retired) map. A full
//! pipeline squash (value or equality misprediction detected at commit,
//! Section IV-G) simply copies the architectural map over the speculative
//! one — exactly the recovery model assumed by the paper.
//!
//! Under RSEP and move elimination several architectural registers can
//! map to one physical register, and commit asks "is this register still
//! mapped?" for every register it might free. Each map therefore counts
//! its mappings per physical register, so [`RenameMap::maps_to`] is one
//! load rather than a scan of all 64 entries.

use crate::regfile::PhysRegFile;
use rsep_isa::{ArchReg, PhysReg, RegClass};

/// An architectural-to-physical register map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameMap {
    map: Vec<PhysReg>,
    /// Number of architectural registers mapped to each physical register,
    /// at flat index `class_base + index` (integer registers first, then
    /// floating-point ones from `fp_base`).
    mapped: Vec<u8>,
    /// Flat index of the first floating-point physical register: the
    /// integer register file size.
    fp_base: usize,
}

impl RenameMap {
    /// Creates the initial map for register files of `int_prf_size` and
    /// `fp_prf_size` registers: integer architectural register `i` maps to
    /// integer physical register `i` (with the zero register mapped to the
    /// hardwired zero physical register), and similarly for FP registers
    /// offset to avoid the reserved register.
    pub fn initial(int_prf_size: usize, fp_prf_size: usize) -> RenameMap {
        let mut map = Vec::with_capacity(ArchReg::FLAT_COUNT);
        for i in 0..rsep_isa::reg::NUM_INT_ARCH_REGS {
            let arch = ArchReg::int(i);
            let phys = if arch.is_zero_reg() {
                PhysRegFile::zero_reg()
            } else {
                // Physical register 0 is the zero register, so offset by 1.
                PhysReg::new(RegClass::Int, u16::from(i) + 1)
            };
            map.push(phys);
        }
        for i in 0..rsep_isa::reg::NUM_FP_ARCH_REGS {
            map.push(PhysReg::new(RegClass::Fp, u16::from(i)));
        }
        let mut initial =
            RenameMap { map, mapped: vec![0; int_prf_size + fp_prf_size], fp_base: int_prf_size };
        for i in 0..initial.map.len() {
            let slot = initial.slot(initial.map[i]);
            initial.mapped[slot] += 1;
        }
        initial
    }

    /// Flat index of `phys` in `mapped`.
    fn slot(&self, phys: PhysReg) -> usize {
        let base = match phys.class() {
            RegClass::Int => 0,
            RegClass::Fp => self.fp_base,
        };
        base + usize::from(phys.index())
    }

    /// Current mapping of an architectural register.
    pub fn lookup(&self, reg: ArchReg) -> PhysReg {
        self.map[reg.flat_index()]
    }

    /// Redirects `arch` to `phys`, returning the previous mapping.
    pub fn rename(&mut self, arch: ArchReg, phys: PhysReg) -> PhysReg {
        debug_assert!(!arch.is_zero_reg(), "the zero register cannot be renamed");
        let prev = std::mem::replace(&mut self.map[arch.flat_index()], phys);
        let (prev_slot, slot) = (self.slot(prev), self.slot(phys));
        self.mapped[prev_slot] -= 1;
        self.mapped[slot] += 1;
        prev
    }

    /// Copies another map over this one (squash recovery). Both maps must
    /// be built for the same register file sizes.
    pub fn restore_from(&mut self, other: &RenameMap) {
        self.map.copy_from_slice(&other.map);
        self.mapped.copy_from_slice(&other.mapped);
    }

    /// Iterates over all `(architectural, physical)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ArchReg, PhysReg)> + '_ {
        self.map.iter().enumerate().map(|(i, &p)| {
            let arch = if i < rsep_isa::reg::NUM_INT_ARCH_REGS as usize {
                ArchReg::int(i as u8)
            } else {
                ArchReg::fp((i - rsep_isa::reg::NUM_INT_ARCH_REGS as usize) as u8)
            };
            (arch, p)
        })
    }

    /// Returns `true` if any architectural register currently maps to
    /// `phys`.
    pub fn maps_to(&self, phys: PhysReg) -> bool {
        self.mapped[self.slot(phys)] != 0
    }

    /// Set of physical registers referenced by this map (used to seed the
    /// free lists and to validate invariants in tests).
    pub fn live_registers(&self) -> Vec<PhysReg> {
        let mut regs = self.map.clone();
        regs.sort_unstable();
        regs.dedup();
        regs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Register file sizes of the Table I core.
    fn initial() -> RenameMap {
        RenameMap::initial(235, 235)
    }

    #[test]
    fn initial_map_covers_all_architectural_registers() {
        let map = initial();
        assert_eq!(map.lookup(ArchReg::ZERO), PhysRegFile::zero_reg());
        assert_eq!(map.lookup(ArchReg::int(0)), PhysReg::new(RegClass::Int, 1));
        assert_eq!(map.lookup(ArchReg::fp(5)), PhysReg::new(RegClass::Fp, 5));
        // All mappings are distinct.
        let live = map.live_registers();
        assert_eq!(live.len(), ArchReg::FLAT_COUNT);
    }

    #[test]
    fn rename_returns_previous_mapping() {
        let mut map = initial();
        let new = PhysReg::new(RegClass::Int, 100);
        let prev = map.rename(ArchReg::int(3), new);
        assert_eq!(prev, PhysReg::new(RegClass::Int, 4));
        assert_eq!(map.lookup(ArchReg::int(3)), new);
        assert!(map.maps_to(new));
        assert!(!map.maps_to(prev));
    }

    #[test]
    fn restore_reverts_speculative_renames() {
        let architectural = initial();
        let mut speculative = architectural.clone();
        speculative.rename(ArchReg::int(1), PhysReg::new(RegClass::Int, 50));
        speculative.rename(ArchReg::fp(2), PhysReg::new(RegClass::Fp, 60));
        assert_ne!(speculative, architectural);
        speculative.restore_from(&architectural);
        assert_eq!(speculative, architectural);
    }

    #[test]
    fn iter_yields_every_architectural_register_once() {
        let map = initial();
        let pairs: Vec<_> = map.iter().collect();
        assert_eq!(pairs.len(), ArchReg::FLAT_COUNT);
        assert!(pairs.iter().any(|(a, _)| *a == ArchReg::ZERO));
        assert!(pairs.iter().any(|(a, _)| *a == ArchReg::fp(31)));
    }

    #[test]
    #[should_panic(expected = "zero register")]
    fn renaming_the_zero_register_is_rejected_in_debug() {
        if cfg!(debug_assertions) {
            let mut map = initial();
            map.rename(ArchReg::ZERO, PhysReg::new(RegClass::Int, 7));
        } else {
            panic!("zero register"); // keep the expected panic in release
        }
    }
}
