//! Register alias tables (speculative and architectural).
//!
//! Rename maintains a speculative map from architectural to physical
//! registers; Commit maintains the architectural (retired) map. A full
//! pipeline squash (value or equality misprediction detected at commit,
//! Section IV-G) simply copies the architectural map over the speculative
//! one — exactly the recovery model assumed by the paper.
//!
//! Under RSEP and move elimination several architectural registers can
//! map to one physical register; whether a register is still needed is
//! decided by its reference count in the register file, not by the maps.

use crate::regfile::PhysRegFile;
use rsep_isa::{ArchReg, PhysReg, RegClass};

/// An architectural-to-physical register map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameMap {
    map: Vec<PhysReg>,
}

impl RenameMap {
    /// Creates the initial map: integer architectural register `i` maps to
    /// integer physical register `i + 1` (with the zero register mapped to
    /// the hardwired zero physical register), and FP architectural register
    /// `i` to FP physical register `i`.
    pub fn initial() -> RenameMap {
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
        RenameMap { map }
    }

    /// Current mapping of an architectural register.
    pub fn lookup(&self, reg: ArchReg) -> PhysReg {
        self.map[reg.flat_index()]
    }

    /// Redirects `arch` to `phys`, returning the previous mapping.
    pub fn rename(&mut self, arch: ArchReg, phys: PhysReg) -> PhysReg {
        debug_assert!(!arch.is_zero_reg(), "the zero register cannot be renamed");
        std::mem::replace(&mut self.map[arch.flat_index()], phys)
    }

    /// Copies another map over this one (squash recovery).
    pub fn restore_from(&mut self, other: &RenameMap) {
        self.map.copy_from_slice(&other.map);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_map_covers_all_architectural_registers() {
        let map = RenameMap::initial();
        assert_eq!(map.lookup(ArchReg::ZERO), PhysRegFile::zero_reg());
        assert_eq!(map.lookup(ArchReg::int(0)), PhysReg::new(RegClass::Int, 1));
        assert_eq!(map.lookup(ArchReg::fp(5)), PhysReg::new(RegClass::Fp, 5));
        // All mappings are distinct.
        let mut live: Vec<PhysReg> = map.iter().map(|(_, p)| p).collect();
        live.sort_unstable();
        live.dedup();
        assert_eq!(live.len(), ArchReg::FLAT_COUNT);
    }

    #[test]
    fn rename_returns_previous_mapping() {
        let mut map = RenameMap::initial();
        let new = PhysReg::new(RegClass::Int, 100);
        let prev = map.rename(ArchReg::int(3), new);
        assert_eq!(prev, PhysReg::new(RegClass::Int, 4));
        assert_eq!(map.lookup(ArchReg::int(3)), new);
    }

    #[test]
    fn restore_reverts_speculative_renames() {
        let architectural = RenameMap::initial();
        let mut speculative = architectural.clone();
        speculative.rename(ArchReg::int(1), PhysReg::new(RegClass::Int, 50));
        speculative.rename(ArchReg::fp(2), PhysReg::new(RegClass::Fp, 60));
        assert_ne!(speculative, architectural);
        speculative.restore_from(&architectural);
        assert_eq!(speculative, architectural);
    }

    #[test]
    fn iter_yields_every_architectural_register_once() {
        let map = RenameMap::initial();
        let pairs: Vec<_> = map.iter().collect();
        assert_eq!(pairs.len(), ArchReg::FLAT_COUNT);
        assert!(pairs.iter().any(|(a, _)| *a == ArchReg::ZERO));
        assert!(pairs.iter().any(|(a, _)| *a == ArchReg::fp(31)));
    }

    #[test]
    #[should_panic(expected = "zero register")]
    fn renaming_the_zero_register_is_rejected_in_debug() {
        if cfg!(debug_assertions) {
            let mut map = RenameMap::initial();
            map.rename(ArchReg::ZERO, PhysReg::new(RegClass::Int, 7));
        } else {
            panic!("zero register"); // keep the expected panic in release
        }
    }
}
