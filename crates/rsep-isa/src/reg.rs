//! Architectural and physical register identifiers.
//!
//! The micro-ISA exposes 32 integer and 32 floating-point architectural
//! registers. Integer register 31 is the hardwired zero register (`XZR` in
//! Aarch64): it always reads as zero, is never allocated a physical register
//! and writes to it are discarded. Zero prediction (Section III of the paper)
//! renames destinations onto this register.

use std::fmt;

/// Number of integer architectural registers (including the zero register).
pub const NUM_INT_ARCH_REGS: u8 = 32;
/// Number of floating-point architectural registers.
pub const NUM_FP_ARCH_REGS: u8 = 32;
/// Index of the hardwired integer zero register.
pub const ZERO_REG_INDEX: u8 = 31;

/// Register class: integer or floating point.
///
/// The core keeps separate physical register files per class (235 INT and
/// 235 FP registers in the Table I configuration), so every register
/// identifier carries its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// Integer / general-purpose register.
    Int,
    /// Floating-point / SIMD register.
    Fp,
}

impl RegClass {
    /// All register classes, in a fixed order usable for indexing arrays.
    pub const ALL: [RegClass; 2] = [RegClass::Int, RegClass::Fp];

    /// Dense index of the class (0 for `Int`, 1 for `Fp`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegClass::Int => 0,
            RegClass::Fp => 1,
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
        }
    }
}

/// An architectural (ISA-visible) register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg {
    class: RegClass,
    index: u8,
}

impl ArchReg {
    /// The hardwired integer zero register.
    pub const ZERO: ArchReg = ArchReg { class: RegClass::Int, index: ZERO_REG_INDEX };

    /// Creates an integer architectural register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_INT_ARCH_REGS`.
    #[inline]
    pub fn int(index: u8) -> ArchReg {
        assert!(
            index < NUM_INT_ARCH_REGS,
            "integer architectural register index {index} out of range"
        );
        ArchReg { class: RegClass::Int, index }
    }

    /// Creates a floating-point architectural register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_FP_ARCH_REGS`.
    #[inline]
    pub fn fp(index: u8) -> ArchReg {
        assert!(
            index < NUM_FP_ARCH_REGS,
            "floating-point architectural register index {index} out of range"
        );
        ArchReg { class: RegClass::Fp, index }
    }

    /// Register class of this register.
    #[inline]
    pub fn class(self) -> RegClass {
        self.class
    }

    /// Index of the register within its class.
    #[inline]
    pub fn index(self) -> u8 {
        self.index
    }

    /// Returns `true` if this is the hardwired zero register.
    #[inline]
    pub fn is_zero_reg(self) -> bool {
        self == ArchReg::ZERO
    }

    /// Dense index across both classes, usable to address a flat rename map.
    ///
    /// Integer registers occupy `0..32`, floating-point registers `32..64`.
    #[inline]
    pub fn flat_index(self) -> usize {
        match self.class {
            RegClass::Int => self.index as usize,
            RegClass::Fp => NUM_INT_ARCH_REGS as usize + self.index as usize,
        }
    }

    /// Total number of architectural registers across both classes.
    pub const FLAT_COUNT: usize = (NUM_INT_ARCH_REGS + NUM_FP_ARCH_REGS) as usize;
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int if self.is_zero_reg() => write!(f, "xzr"),
            RegClass::Int => write!(f, "x{}", self.index),
            RegClass::Fp => write!(f, "v{}", self.index),
        }
    }
}

/// A physical register identifier.
///
/// Physical registers are allocated by the renamer from a per-class free
/// list. The identifier is dense within its class (`0..num_phys_regs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysReg {
    class: RegClass,
    index: u16,
}

impl PhysReg {
    /// Creates a physical register identifier.
    #[inline]
    pub fn new(class: RegClass, index: u16) -> PhysReg {
        PhysReg { class, index }
    }

    /// Register class of this physical register.
    #[inline]
    pub fn class(self) -> RegClass {
        self.class
    }

    /// Index of the physical register within its class.
    #[inline]
    pub fn index(self) -> u16 {
        self.index
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "p{}", self.index),
            RegClass::Fp => write!(f, "pf{}", self.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_integer_31() {
        assert_eq!(ArchReg::ZERO.class(), RegClass::Int);
        assert_eq!(ArchReg::ZERO.index(), ZERO_REG_INDEX);
        assert!(ArchReg::ZERO.is_zero_reg());
        assert!(!ArchReg::int(0).is_zero_reg());
        assert!(!ArchReg::fp(31).is_zero_reg());
    }

    #[test]
    fn flat_indices_are_unique_and_dense() {
        let mut seen = vec![false; ArchReg::FLAT_COUNT];
        for i in 0..NUM_INT_ARCH_REGS {
            let idx = ArchReg::int(i).flat_index();
            assert!(!seen[idx]);
            seen[idx] = true;
        }
        for i in 0..NUM_FP_ARCH_REGS {
            let idx = ArchReg::fp(i).flat_index();
            assert!(!seen[idx]);
            seen[idx] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_register_index_is_checked() {
        let _ = ArchReg::int(NUM_INT_ARCH_REGS);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_register_index_is_checked() {
        let _ = ArchReg::fp(NUM_FP_ARCH_REGS);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ArchReg::int(3).to_string(), "x3");
        assert_eq!(ArchReg::fp(7).to_string(), "v7");
        assert_eq!(ArchReg::ZERO.to_string(), "xzr");
        assert_eq!(PhysReg::new(RegClass::Int, 12).to_string(), "p12");
        assert_eq!(PhysReg::new(RegClass::Fp, 12).to_string(), "pf12");
    }

    #[test]
    fn phys_reg_ordering_groups_by_class() {
        let a = PhysReg::new(RegClass::Int, 5);
        let b = PhysReg::new(RegClass::Int, 6);
        assert!(a < b);
        assert_eq!(a, PhysReg::new(RegClass::Int, 5));
        assert_ne!(a, PhysReg::new(RegClass::Fp, 5));
    }

    #[test]
    fn reg_class_index_is_dense() {
        assert_eq!(RegClass::Int.index(), 0);
        assert_eq!(RegClass::Fp.index(), 1);
        assert_eq!(RegClass::ALL.len(), 2);
    }
}
