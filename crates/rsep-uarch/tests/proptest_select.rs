//! Property test: the event-driven select issues what a full-ROB rescan
//! would, on every cycle of random instruction DAGs.
//!
//! Random instruction DAGs — mixed op classes, dense register reuse (real
//! dependency chains), same-double-word store/load collisions and
//! hard-to-predict branches — run on the baseline core. In a debug build
//! the core compares each issue cycle's choice with a rescan of the whole
//! ROB (the select of the retired polling scheduler) and steps every
//! quiescent span it skips, panicking on any difference, so each case is
//! one run that must commit every instruction.

use proptest::prelude::*;
use rsep_isa::{ArchReg, BranchKind, DynInst, DynInstBuilder, OpClass};
use rsep_uarch::{Core, CoreConfig, SimStats};

/// One raw generated instruction: `(op selector, dest, src1, src2,
/// address selector, value)`.
type RawInst = (u8, u8, u8, u8, u64, u64);

/// Decodes a raw tuple into a dynamic instruction. Register indices are
/// folded into 8 architectural registers and addresses into 24
/// double-words, so dependency chains and same-address store/load pairs
/// are dense.
fn decode(seq: u64, raw: RawInst) -> DynInst {
    let (op_sel, dest, src1, src2, addr_sel, value) = raw;
    let pc = 0x40_0000 + (seq % 32) * 4;
    let dest = ArchReg::int(dest % 8);
    let src1 = ArchReg::int(src1 % 8);
    let src2 = ArchReg::int(src2 % 8);
    let addr = 0x1000_0000 + (addr_sel % 24) * 8;
    match op_sel % 12 {
        0..=3 => DynInstBuilder::new(seq, pc, OpClass::IntAlu)
            .dest(dest)
            .src(src1)
            .src(src2)
            .result(value)
            .build(),
        4 => DynInstBuilder::new(seq, pc, OpClass::IntMul)
            .dest(dest)
            .src(src1)
            .src(src2)
            .result(value)
            .build(),
        5 => {
            DynInstBuilder::new(seq, pc, OpClass::IntDiv).dest(dest).src(src1).result(value).build()
        }
        6 | 7 => DynInstBuilder::new(seq, pc, OpClass::Load)
            .dest(dest)
            .src(src1)
            .result(value)
            .mem(addr, 8)
            .build(),
        8 | 9 => DynInstBuilder::new(seq, pc, OpClass::Store)
            .src(src1)
            .src(src2)
            .result(value)
            .mem(addr, 8)
            .build(),
        10 => DynInstBuilder::new(seq, pc, OpClass::Branch)
            .branch(BranchKind::Conditional, value & 1 == 1, pc + 4)
            .build(),
        _ => DynInstBuilder::new(seq, pc, OpClass::Nop).build(),
    }
}

fn simulate(insts: &[DynInst]) -> SimStats {
    let mut core = Core::baseline(CoreConfig::small_test());
    let mut trace = insts.iter().cloned();
    core.run(&mut trace, insts.len() as u64).expect("random DAGs cannot wedge the baseline");
    core.take_stats()
}

proptest! {
    /// Every random DAG commits in full with the select and skip checks
    /// passing on every cycle.
    #[test]
    fn event_driven_matches_polling_on_random_dags(
        raws in collection::vec(
            (0u8..12, 0u8..8, 0u8..8, 0u8..8, 0u64..24, 0u64..1_000_000),
            20..220,
        )
    ) {
        let insts: Vec<DynInst> =
            raws.iter().enumerate().map(|(i, &raw)| decode(i as u64, raw)).collect();
        prop_assert_eq!(simulate(&insts).committed, insts.len() as u64);
    }
}
