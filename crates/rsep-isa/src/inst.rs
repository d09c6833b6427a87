//! Dynamic (trace) instructions.
//!
//! The reproduction is trace driven: the workload generator
//! (`rsep-trace`) emits a stream of [`DynInst`] records carrying everything
//! the cycle-level core needs — operands, the concrete result value, memory
//! addresses and branch outcomes. The core charges timing for discovering
//! this information at the proper pipeline stage (e.g. a branch outcome is
//! only *acted on* when the branch executes), but having it available up
//! front keeps the simulator simple, exactly as a trace-driven gem5
//! configuration would.

use crate::op::OpClass;
use crate::reg::ArchReg;
use std::fmt;

/// Maximum number of register sources an instruction may have.
///
/// Three sources cover fused-multiply-add style operations and stores with
/// base + offset + data.
pub const MAX_SOURCES: usize = 3;

/// Kind of control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct branch or call.
    Unconditional,
    /// Indirect branch or indirect call.
    Indirect,
    /// Function return (predicted with the return address stack).
    Return,
}

/// Control-flow outcome attached to a branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Kind of branch.
    pub kind: BranchKind,
    /// Whether the branch is taken in this dynamic instance.
    pub taken: bool,
    /// Target address if taken.
    pub target: u64,
}

/// Memory access information attached to a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemInfo {
    /// Effective (virtual) address of the access.
    pub addr: u64,
    /// Access size in bytes (1, 2, 4 or 8).
    pub size: u8,
}

/// One dynamic instruction of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynInst {
    /// Sequence number in program (trace) order, starting at 0.
    pub seq: u64,
    /// Program counter of the static instruction.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Source architectural registers (`None` entries are unused slots).
    pub srcs: [Option<ArchReg>; MAX_SOURCES],
    /// Destination architectural register, if the instruction produces one.
    pub dest: Option<ArchReg>,
    /// Concrete result value written to `dest` (0 when there is no
    /// destination). For stores this is the value stored to memory.
    pub result: u64,
    /// Memory access information for loads and stores.
    pub mem: Option<MemInfo>,
    /// Branch outcome for branches.
    pub branch: Option<BranchInfo>,
}

impl DynInst {
    /// Creates a register-producing ALU-style instruction with the given
    /// result. Intended for tests and examples; the trace generator builds
    /// instructions directly.
    pub fn simple(seq: u64, pc: u64, op: OpClass, dest: ArchReg, result: u64) -> DynInst {
        DynInst {
            seq,
            pc,
            op,
            srcs: [None; MAX_SOURCES],
            dest: Some(dest),
            result,
            mem: None,
            branch: None,
        }
    }

    /// Returns `true` if this dynamic instruction writes an architectural
    /// register other than the hardwired zero register.
    #[inline]
    pub fn produces_register(&self) -> bool {
        matches!(self.dest, Some(d) if !d.is_zero_reg())
    }

    /// Returns `true` if this instruction is eligible for distance or value
    /// prediction: it produces a register and is not a move / zero idiom
    /// (those are handled non-speculatively at Rename).
    #[inline]
    pub fn eligible_for_prediction(&self) -> bool {
        self.produces_register() && self.op.eligible_for_prediction()
    }

    /// Iterator over the used source registers.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().copied().flatten()
    }

    /// Number of used source registers.
    pub fn num_sources(&self) -> usize {
        self.srcs.iter().filter(|s| s.is_some()).count()
    }
}

impl fmt::Display for DynInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>6}] {:#010x} {}", self.seq, self.pc, self.op)?;
        if let Some(dest) = self.dest {
            write!(f, " {dest} <-")?;
        }
        for src in self.sources() {
            write!(f, " {src}")?;
        }
        if self.produces_register() {
            write!(f, " = {:#x}", self.result)?;
        }
        if let Some(mem) = &self.mem {
            write!(f, " @{:#x}/{}", mem.addr, mem.size)?;
        }
        if let Some(br) = &self.branch {
            write!(f, " {} -> {:#x}", if br.taken { "T" } else { "NT" }, br.target)?;
        }
        Ok(())
    }
}

/// Builder for [`DynInst`], used by tests that need full control over
/// every field. (The trace generator builds its instructions in place:
/// each builder call moves the whole instruction.)
#[derive(Debug, Clone)]
pub struct DynInstBuilder {
    inst: DynInst,
}

impl DynInstBuilder {
    /// Starts building an instruction of the given class.
    pub fn new(seq: u64, pc: u64, op: OpClass) -> DynInstBuilder {
        DynInstBuilder {
            inst: DynInst {
                seq,
                pc,
                op,
                srcs: [None; MAX_SOURCES],
                dest: None,
                result: 0,
                mem: None,
                branch: None,
            },
        }
    }

    /// Sets the destination register.
    pub fn dest(mut self, dest: ArchReg) -> Self {
        self.inst.dest = Some(dest);
        self
    }

    /// Adds a source register (up to [`MAX_SOURCES`]).
    ///
    /// # Panics
    ///
    /// Panics if all source slots are already used.
    pub fn src(mut self, src: ArchReg) -> Self {
        let slot =
            self.inst.srcs.iter_mut().find(|s| s.is_none()).expect("too many source registers");
        *slot = Some(src);
        self
    }

    /// Sets the result value.
    pub fn result(mut self, value: u64) -> Self {
        self.inst.result = value;
        self
    }

    /// Attaches memory access information.
    pub fn mem(mut self, addr: u64, size: u8) -> Self {
        self.inst.mem = Some(MemInfo { addr, size });
        self
    }

    /// Attaches a branch outcome.
    pub fn branch(mut self, kind: BranchKind, taken: bool, target: u64) -> Self {
        self.inst.branch = Some(BranchInfo { kind, taken, target });
        self
    }

    /// Finishes building the instruction.
    pub fn build(self) -> DynInst {
        self.inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegClass;

    #[test]
    fn simple_constructor_produces_register() {
        let i = DynInst::simple(0, 0x400000, OpClass::IntAlu, ArchReg::int(3), 7);
        assert!(i.produces_register());
        assert!(i.eligible_for_prediction());
        assert_eq!(i.num_sources(), 0);
    }

    #[test]
    fn zero_register_destination_is_not_a_producer() {
        let i = DynInst::simple(0, 0x400000, OpClass::IntAlu, ArchReg::ZERO, 0);
        assert!(!i.produces_register());
        assert!(!i.eligible_for_prediction());
    }

    #[test]
    fn builder_assembles_all_fields() {
        let i = DynInstBuilder::new(9, 0x1000, OpClass::Load)
            .dest(ArchReg::int(5))
            .src(ArchReg::int(1))
            .src(ArchReg::int(2))
            .result(0xfeed)
            .mem(0x8000_0040, 8)
            .build();
        assert_eq!(i.seq, 9);
        assert_eq!(i.num_sources(), 2);
        assert_eq!(i.sources().collect::<Vec<_>>(), vec![ArchReg::int(1), ArchReg::int(2)]);
        assert_eq!(i.mem.unwrap().addr, 0x8000_0040);
        assert!(i.eligible_for_prediction());
    }

    #[test]
    fn builder_branch() {
        let i = DynInstBuilder::new(1, 0x2000, OpClass::Branch)
            .branch(BranchKind::Conditional, true, 0x2040)
            .build();
        assert!(i.branch.unwrap().taken);
        assert!(!i.produces_register());
        assert!(!i.eligible_for_prediction());
    }

    #[test]
    #[should_panic(expected = "too many source registers")]
    fn builder_rejects_too_many_sources() {
        let _ = DynInstBuilder::new(0, 0, OpClass::IntAlu)
            .src(ArchReg::int(0))
            .src(ArchReg::int(1))
            .src(ArchReg::int(2))
            .src(ArchReg::int(3));
    }

    #[test]
    fn moves_are_not_eligible_for_prediction() {
        let i = DynInstBuilder::new(0, 0, OpClass::Move)
            .dest(ArchReg::int(4))
            .src(ArchReg::int(6))
            .result(55)
            .build();
        assert!(i.produces_register());
        assert!(!i.eligible_for_prediction());
    }

    #[test]
    fn display_is_readable() {
        let i = DynInst::simple(3, 0x400010, OpClass::IntAlu, ArchReg::fp(2), 0x10);
        let s = i.to_string();
        assert!(s.contains("int_alu"));
        assert!(s.contains("v2"));
        assert_eq!(ArchReg::fp(2).class(), RegClass::Fp);
    }
}
