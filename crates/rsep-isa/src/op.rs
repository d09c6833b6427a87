//! Operation classes.
//!
//! The classes mirror the functional-unit inventory of Table I in the paper:
//! 4 ALUs (one of which multiplies, one of which divides), 3 FP units (one
//! FP multiplier, one FP divider), 2 load/store ports and 1 store port.
//! `Move` and `ZeroIdiom` are distinguished because move elimination
//! (Section IV-H1) and zero-idiom elimination (Section III) treat them
//! specially at Rename.

use crate::reg::RegClass;
use std::fmt;

/// The class of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Simple integer ALU operation (1 cycle).
    IntAlu,
    /// Integer multiply (3 cycles, pipelined).
    IntMul,
    /// Integer divide (25 cycles, not pipelined).
    IntDiv,
    /// Simple floating-point operation (3 cycles).
    FpAlu,
    /// Floating-point multiply (3 cycles).
    FpMul,
    /// Floating-point divide (11 cycles, not pipelined).
    FpDiv,
    /// Memory load (4-cycle load-to-use on an L1 hit).
    Load,
    /// Memory store.
    Store,
    /// Conditional, unconditional or indirect branch.
    Branch,
    /// Register-to-register move (64-bit), eligible for move elimination.
    Move,
    /// Zero idiom (e.g. `eor x0, x0, x0`): non-speculatively recognised at
    /// Decode and renamed onto the hardwired zero register.
    ZeroIdiom,
    /// No-operation (consumes front-end bandwidth only).
    Nop,
}

impl OpClass {
    /// All operation classes, in a fixed order usable for indexing arrays.
    pub const ALL: [OpClass; 12] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Move,
        OpClass::ZeroIdiom,
        OpClass::Nop,
    ];

    /// Dense index of the class.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMul => 1,
            OpClass::IntDiv => 2,
            OpClass::FpAlu => 3,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 5,
            OpClass::Load => 6,
            OpClass::Store => 7,
            OpClass::Branch => 8,
            OpClass::Move => 9,
            OpClass::ZeroIdiom => 10,
            OpClass::Nop => 11,
        }
    }

    /// Returns `true` if instructions of this class read or write memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Returns `true` for loads.
    #[inline]
    pub fn is_load(self) -> bool {
        self == OpClass::Load
    }

    /// Returns `true` for stores.
    #[inline]
    pub fn is_store(self) -> bool {
        self == OpClass::Store
    }

    /// Returns `true` for branches.
    #[inline]
    pub fn is_branch(self) -> bool {
        self == OpClass::Branch
    }

    /// Returns `true` if the class produces a register result (i.e. the
    /// instruction has a destination register when one is specified).
    ///
    /// Stores, branches and nops never produce a register; everything else
    /// may.
    #[inline]
    pub fn may_produce_register(self) -> bool {
        !matches!(self, OpClass::Store | OpClass::Branch | OpClass::Nop)
    }

    /// Returns `true` if results of this class are *eligible* for equality
    /// or value prediction in the paper's terms (register-producing,
    /// not a move or zero idiom — those are handled non-speculatively by
    /// move elimination and zero-idiom elimination).
    #[inline]
    pub fn eligible_for_prediction(self) -> bool {
        self.may_produce_register() && !matches!(self, OpClass::Move | OpClass::ZeroIdiom)
    }

    /// Register class of the result this class produces, when it produces
    /// one. Loads are treated as integer producers unless the destination
    /// says otherwise (the trace generator encodes FP loads with an FP
    /// destination register, which takes precedence).
    #[inline]
    pub fn natural_result_class(self) -> RegClass {
        match self {
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => RegClass::Fp,
            _ => RegClass::Int,
        }
    }

    /// Execution latency in cycles for the Table I configuration.
    ///
    /// Loads report the *execution* (address generation + cache access
    /// issue) portion; the memory hierarchy adds the access latency.
    #[inline]
    pub fn base_latency(self) -> u32 {
        match self {
            OpClass::IntAlu | OpClass::Move | OpClass::ZeroIdiom | OpClass::Nop => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 25,
            OpClass::FpAlu => 3,
            OpClass::FpMul => 3,
            OpClass::FpDiv => 11,
            OpClass::Load => 1,
            OpClass::Store => 1,
            OpClass::Branch => 1,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpClass::IntAlu => "int_alu",
            OpClass::IntMul => "int_mul",
            OpClass::IntDiv => "int_div",
            OpClass::FpAlu => "fp_alu",
            OpClass::FpMul => "fp_mul",
            OpClass::FpDiv => "fp_div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Move => "move",
            OpClass::ZeroIdiom => "zero_idiom",
            OpClass::Nop => "nop",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = vec![false; OpClass::ALL.len()];
        for op in OpClass::ALL {
            assert!(!seen[op.index()], "duplicate index for {op}");
            seen[op.index()] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn memory_classification() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(OpClass::Load.is_load());
        assert!(!OpClass::Load.is_store());
        assert!(OpClass::Store.is_store());
        assert!(OpClass::Branch.is_branch());
    }

    #[test]
    fn register_producers() {
        assert!(OpClass::IntAlu.may_produce_register());
        assert!(OpClass::Load.may_produce_register());
        assert!(OpClass::Move.may_produce_register());
        assert!(!OpClass::Store.may_produce_register());
        assert!(!OpClass::Branch.may_produce_register());
        assert!(!OpClass::Nop.may_produce_register());
    }

    #[test]
    fn prediction_eligibility_excludes_moves_and_zero_idioms() {
        assert!(OpClass::IntAlu.eligible_for_prediction());
        assert!(OpClass::Load.eligible_for_prediction());
        assert!(!OpClass::Move.eligible_for_prediction());
        assert!(!OpClass::ZeroIdiom.eligible_for_prediction());
        assert!(!OpClass::Store.eligible_for_prediction());
        assert!(!OpClass::Branch.eligible_for_prediction());
    }

    #[test]
    fn latencies_match_table1() {
        assert_eq!(OpClass::IntAlu.base_latency(), 1);
        assert_eq!(OpClass::IntMul.base_latency(), 3);
        assert_eq!(OpClass::IntDiv.base_latency(), 25);
        assert_eq!(OpClass::FpAlu.base_latency(), 3);
        assert_eq!(OpClass::FpMul.base_latency(), 3);
        assert_eq!(OpClass::FpDiv.base_latency(), 11);
    }

    #[test]
    fn natural_result_class() {
        assert_eq!(OpClass::FpMul.natural_result_class(), RegClass::Fp);
        assert_eq!(OpClass::IntAlu.natural_result_class(), RegClass::Int);
        assert_eq!(OpClass::Load.natural_result_class(), RegClass::Int);
    }
}
