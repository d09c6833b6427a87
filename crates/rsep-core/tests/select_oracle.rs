//! Select and quiescent-skip checks under full speculation, and
//! squash-path register-file invariants.
//!
//! In a debug build the core checks, on every issue cycle, that the
//! event-driven select issues exactly what a rescan of the whole ROB (the
//! select of the retired polling scheduler) would, and it steps every
//! quiescent span it skips to check the bulk charge. These tests run
//! traces *with every speculation mechanism active* under those checks —
//! register sharing adds provider dependencies at rename, validations
//! consume issue ports, and value/zero/equality mispredictions squash and
//! replay the pipeline, all of which stress the wakeup bookkeeping far
//! harder than the baseline core.

use proptest::prelude::*;
use rsep_core::{run_checkpoint, MechanismConfig, RsepEngine};
use rsep_isa::{ArchReg, BranchKind, DynInst, DynInstBuilder, OpClass};
use rsep_trace::{BenchmarkProfile, CheckpointSpec};
use rsep_uarch::{Core, CoreConfig, SimStats};

#[test]
fn event_driven_matches_polling_under_every_mechanism() {
    let spec = CheckpointSpec::scaled(2, 2_000, 8_000);
    let mechanisms = [
        MechanismConfig::baseline(),
        MechanismConfig::move_elim(),
        MechanismConfig::zero_pred(),
        MechanismConfig::value_pred(),
        MechanismConfig::rsep_ideal(),
        MechanismConfig::rsep_realistic(),
        MechanismConfig::rsep_plus_vp(),
    ];
    for name in ["gcc", "mcf", "libquantum", "perlbench"] {
        let profile = BenchmarkProfile::by_name(name).unwrap();
        for mechanism in &mechanisms {
            for index in 0..spec.count {
                let run =
                    run_checkpoint(&profile, mechanism, &CoreConfig::small_test(), spec, 42, index);
                assert_eq!(run.error, None, "{name}/{}/checkpoint {index}", mechanism.label);
            }
        }
    }
}

/// Raw generated instruction: `(op selector, dest, src1, addr selector,
/// value selector, branch taken)`.
type RawInst = (u8, u8, u8, u64, u64, bool);

/// Decodes a raw tuple into an instruction with deliberately high value
/// redundancy (values drawn from a pool of 8) so distance/value/zero
/// prediction fire — and mispredict — frequently, exercising the squash and
/// replay paths.
fn decode(seq: u64, raw: RawInst) -> DynInst {
    let (op_sel, dest, src1, addr_sel, value_sel, taken) = raw;
    let pc = 0x40_0000 + (seq % 16) * 4;
    let dest = ArchReg::int(dest % 6);
    let src = ArchReg::int(src1 % 6);
    let addr = 0x1000_0000 + (addr_sel % 12) * 8;
    let value = value_sel % 8;
    match op_sel % 10 {
        0..=3 => {
            DynInstBuilder::new(seq, pc, OpClass::IntAlu).dest(dest).src(src).result(value).build()
        }
        4 => DynInstBuilder::new(seq, pc, OpClass::Move).dest(dest).src(src).result(value).build(),
        5 | 6 => DynInstBuilder::new(seq, pc, OpClass::Load)
            .dest(dest)
            .result(value)
            .mem(addr, 8)
            .build(),
        7 => {
            DynInstBuilder::new(seq, pc, OpClass::Store).src(src).result(value).mem(addr, 8).build()
        }
        8 => DynInstBuilder::new(seq, pc, OpClass::Branch)
            .branch(BranchKind::Conditional, taken, pc + 4)
            .build(),
        _ => DynInstBuilder::new(seq, pc, OpClass::ZeroIdiom).dest(dest).result(0).build(),
    }
}

fn simulate(insts: &[DynInst]) -> SimStats {
    let engine = RsepEngine::new(MechanismConfig::rsep_plus_vp());
    let mut core = Core::new(CoreConfig::small_test(), engine);
    let mut trace = insts.iter().cloned();
    core.run(&mut trace, insts.len() as u64).expect("random traces must not wedge");
    core.take_stats()
}

proptest! {
    /// Random redundant DAGs under RSEP + VP retire in full, with the
    /// select and skip checks passing on every cycle.
    #[test]
    fn schedulers_agree_under_speculative_squashes(
        raws in collection::vec(
            (0u8..10, 0u8..6, 0u8..6, 0u64..12, 0u64..8, proptest::prelude::any::<bool>()),
            30..200,
        )
    ) {
        let insts: Vec<DynInst> =
            raws.iter().enumerate().map(|(i, &raw)| decode(i as u64, raw)).collect();
        prop_assert_eq!(simulate(&insts).committed, insts.len() as u64);
    }
}

/// Regression test for the squash path: drive a core whose speculation
/// engine mispredicts constantly (trained value predictions broken on
/// purpose), so commit-time squashes fire while earlier squashes are still
/// replaying, and verify between run segments that registers are conserved
/// — every reference count matches its mappings and in-flight destinations
/// and the free list holds exactly the unowned registers, none twice.
#[test]
fn squash_mid_replay_never_double_frees_registers() {
    let engine = RsepEngine::new(MechanismConfig::rsep_plus_vp());
    let mut core = Core::new(CoreConfig::small_test(), engine);
    // Alternate long trained runs with value flips: predictors gain
    // confidence, then mispredict, squashing mid-stream. Branches keep the
    // fetch queue and replay buffer populated when the squash hits.
    let mut insts: Vec<DynInst> = Vec::new();
    let mut seq = 0u64;
    // The predictors' probabilistic confidence counters (3 bits, 1/36
    // increment probability) need ~250 correct trainings to saturate, so
    // the trained stretches must be long for predictions to engage at all.
    for block in 0..12_000u64 {
        for i in 0..8u64 {
            let pc = 0x40_0000 + i * 4;
            // Long trained stretches, then a value flip once confidence has
            // built up.
            let value = if block % 1_500 == 1_499 { 1_000_000 + block } else { i };
            match i % 4 {
                0..=1 => insts.push(
                    DynInstBuilder::new(seq, pc, OpClass::IntAlu)
                        .dest(ArchReg::int((i % 4) as u8))
                        .src(ArchReg::int(((i + 1) % 4) as u8))
                        .result(value)
                        .build(),
                ),
                2 => insts.push(
                    DynInstBuilder::new(seq, pc, OpClass::Load)
                        .dest(ArchReg::int(4))
                        .result(value)
                        .mem(0x2000_0000 + (block % 8) * 8, 8)
                        .build(),
                ),
                _ => insts.push(
                    DynInstBuilder::new(seq, pc, OpClass::Branch)
                        .branch(BranchKind::Conditional, block % 3 == 0, pc + 4)
                        .build(),
                ),
            }
            seq += 1;
        }
    }
    let total = insts.len() as u64;
    let mut trace = insts.into_iter();
    let mut committed = 0u64;
    while committed < total {
        let done = core.run(&mut trace, 64.min(total - committed)).expect("no deadlock");
        // The invariant under test: after any mixture of squash, replay and
        // re-squash, no physical register is leaked or freed twice.
        core.validate_invariants().expect("registers are conserved");
        if done == committed {
            break; // trace drained
        }
        committed = done;
    }
    let stats = core.take_stats();
    assert_eq!(stats.committed, total);
    assert!(
        stats.prediction_squashes > 0,
        "the trace must actually provoke commit-time squashes for this test to bite"
    );
}
