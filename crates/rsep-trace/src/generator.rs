//! Dynamic trace generation.
//!
//! [`TraceGenerator`] walks a [`StaticProgram`] and emits the dynamic
//! instruction stream as an iterator of [`DynInst`]. Inner loops iterate
//! according to their back-edge behaviour; when the last loop finishes the
//! program starts over, so the stream is unbounded.

use crate::behavior::{BranchState, MemState, ValueState};
use crate::profile::BenchmarkProfile;
use crate::program::{StaticInst, StaticProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rsep_isa::{BranchInfo, DynInst, MemInfo, OpClass, MAX_SOURCES};

/// Generates the dynamic instruction stream of a synthetic benchmark.
///
/// The generator is deterministic for a given `(profile, seed)` pair and is
/// `Iterator<Item = DynInst>`; it never terminates on its own, so callers
/// bound it with [`Iterator::take`].
#[derive(Debug)]
pub struct TraceGenerator {
    program: StaticProgram,
    rng: SmallRng,
    /// Per-static-instruction behaviour state.
    value_states: Vec<ValueState>,
    branch_states: Vec<BranchState>,
    mem_states: Vec<MemState>,
    /// Most recent result produced by each static instruction.
    last_results: Vec<u64>,
    /// Current loop and position within its body.
    loop_idx: usize,
    body_pos: usize,
    /// Next sequence number.
    seq: u64,
}

impl TraceGenerator {
    /// Creates a generator for the given profile and seed.
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> TraceGenerator {
        TraceGenerator::from_program(StaticProgram::synthesize(profile, seed), seed)
    }

    /// Creates a generator over an already-synthesised program.
    pub fn from_program(program: StaticProgram, seed: u64) -> TraceGenerator {
        let n = program.len();
        TraceGenerator {
            program,
            rng: SmallRng::seed_from_u64(seed ^ 0x7ace_0002),
            value_states: vec![ValueState::default(); n],
            branch_states: vec![BranchState::default(); n],
            mem_states: vec![MemState::default(); n],
            last_results: vec![0; n],
            loop_idx: 0,
            body_pos: 0,
            seq: 0,
        }
    }

    /// Builds the dynamic instance of the static instruction at `index` in
    /// place. The RNG is drawn in a fixed order — copy-source pick, result
    /// value, address, store value, branch outcome — which is part of the
    /// stream's definition.
    fn emit(&mut self, index: usize) -> DynInst {
        let inst: &StaticInst = &self.program.insts[index];
        let seq = self.seq;
        self.seq += 1;
        let mut srcs = [None; MAX_SOURCES];
        for (slot, &src) in srcs.iter_mut().zip(&inst.srcs) {
            *slot = Some(src);
        }
        // Resolve the copy source value (most recent result of one of the
        // designated source instructions).
        let copy_value = match inst.copy_sources.as_slice() {
            [] => None,
            [only] => Some(self.last_results[*only]),
            many => Some(self.last_results[many[self.rng.gen_range(0..many.len())]]),
        };
        // Result value.
        let (dest, mut result) = match (inst.dest, inst.value.as_ref()) {
            (Some(dest), Some(value_behavior)) => {
                let result = value_behavior.next_value(
                    &mut self.value_states[index],
                    copy_value,
                    &mut self.rng,
                );
                self.last_results[index] = result;
                (Some(dest), result)
            }
            _ => (None, 0),
        };
        // Memory address.
        let mem = match inst.mem.as_ref() {
            Some(mem) => {
                let dep_value = inst
                    .copy_sources
                    .first()
                    .map(|&s| self.last_results[s])
                    .unwrap_or(self.last_results[index]);
                let addr = mem.next_addr(
                    &mut self.mem_states[index],
                    inst.mem_base,
                    dep_value,
                    &mut self.rng,
                );
                if inst.op == OpClass::Store {
                    // The stored value is the most recent value of the first
                    // source's producer when known, otherwise pseudo-random.
                    result = copy_value.unwrap_or_else(|| self.rng.gen());
                }
                Some(MemInfo { addr, size: 8 })
            }
            None => None,
        };
        // Branch outcome.
        let branch = inst.branch.as_ref().map(|(kind, behavior)| BranchInfo {
            kind: *kind,
            taken: behavior.next_outcome(&mut self.branch_states[index], &mut self.rng),
            target: inst.branch_target,
        });
        DynInst { seq, pc: inst.pc, op: inst.op, srcs, dest, result, mem, branch }
    }

    /// Advances the program position after emitting the instruction at
    /// `index`, honouring loop back-edges.
    fn advance(&mut self, emitted: &DynInst, index: usize) {
        let current_loop = self.program.loops[self.loop_idx];
        let is_backedge = index == current_loop.start + current_loop.len - 1;
        if is_backedge {
            if emitted.branch.map(|br| br.taken).unwrap_or(false) {
                self.body_pos = 0;
            } else {
                // Loop exits; move to the next loop (wrapping to the first).
                self.loop_idx = (self.loop_idx + 1) % self.program.loops.len();
                self.body_pos = 0;
            }
        } else {
            self.body_pos += 1;
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.program.is_empty() {
            return None;
        }
        let current_loop = self.program.loops[self.loop_idx];
        let index = current_loop.start + self.body_pos;
        let inst = self.emit(index);
        self.advance(&inst, index);
        Some(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BenchmarkProfile;
    use rsep_isa::FoldHash;
    use std::collections::VecDeque;

    fn take(name: &str, n: usize) -> Vec<DynInst> {
        let p = BenchmarkProfile::by_name(name).unwrap();
        TraceGenerator::new(&p, 42).take(n).collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let p = BenchmarkProfile::by_name("gcc").unwrap();
        let a: Vec<_> = TraceGenerator::new(&p, 5).take(5_000).collect();
        let b: Vec<_> = TraceGenerator::new(&p, 5).take(5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sequence_numbers_are_consecutive() {
        let trace = take("mcf", 10_000);
        for (i, inst) in trace.iter().enumerate() {
            assert_eq!(inst.seq, i as u64);
        }
    }

    #[test]
    fn instruction_mix_roughly_matches_profile() {
        let p = BenchmarkProfile::by_name("gcc").unwrap();
        let trace = take("gcc", 100_000);
        let loads = trace.iter().filter(|i| i.op.is_load()).count() as f64 / trace.len() as f64;
        let branches =
            trace.iter().filter(|i| i.op.is_branch()).count() as f64 / trace.len() as f64;
        let expected_load = p.mix.load / p.mix.total();
        let expected_branch = p.mix.branch / p.mix.total() + 1.0 / p.loop_body_size as f64;
        assert!((loads - expected_load).abs() < 0.08, "loads {loads} vs {expected_load}");
        assert!(
            (branches - expected_branch).abs() < 0.08,
            "branches {branches} vs {expected_branch}"
        );
    }

    #[test]
    fn loads_and_stores_carry_addresses() {
        let trace = take("mcf", 20_000);
        for inst in &trace {
            if inst.op.is_mem() {
                assert!(inst.mem.is_some(), "{inst}");
            }
            if inst.op.is_branch() {
                assert!(inst.branch.is_some(), "{inst}");
            }
        }
    }

    /// Measures, like Figure 1 of the paper, how often a committed result is
    /// already present among the last few hundred produced values. The
    /// RSEP-friendly profiles must exhibit substantially more redundancy
    /// than a profile with little redundancy.
    fn measured_redundancy(name: &str) -> f64 {
        let trace = take(name, 60_000);
        let hash = FoldHash::paper_default();
        let mut window: VecDeque<u16> = VecDeque::with_capacity(256);
        let mut redundant = 0usize;
        let mut producers = 0usize;
        for inst in &trace {
            if !inst.produces_register() {
                continue;
            }
            producers += 1;
            let h = hash.hash(inst.result);
            if window.contains(&h) {
                redundant += 1;
            }
            if window.len() == 256 {
                window.pop_front();
            }
            window.push_back(h);
        }
        redundant as f64 / producers as f64
    }

    #[test]
    fn redundancy_shape_matches_calibration() {
        let mcf = measured_redundancy("mcf");
        let libq = measured_redundancy("libquantum");
        let gobmk = measured_redundancy("gobmk");
        assert!(mcf > 0.15, "mcf redundancy {mcf}");
        assert!(libq > 0.20, "libquantum redundancy {libq}");
        assert!(gobmk < mcf, "gobmk {gobmk} should be below mcf {mcf}");
    }

    #[test]
    fn zero_results_match_calibration_direction() {
        let count_zero = |name: &str| {
            let trace = take(name, 60_000);
            let (mut zeros, mut producers) = (0usize, 0usize);
            for i in &trace {
                if i.produces_register() && i.op != OpClass::ZeroIdiom {
                    producers += 1;
                    if i.result == 0 {
                        zeros += 1;
                    }
                }
            }
            zeros as f64 / producers as f64
        };
        let zeusmp = count_zero("zeusmp");
        let gcc = count_zero("gcc");
        assert!(zeusmp > gcc, "zeusmp {zeusmp} should exceed gcc {gcc}");
        assert!(zeusmp > 0.10, "zeusmp zero fraction {zeusmp}");
    }

    #[test]
    fn backedge_branches_loop_the_body() {
        let p = BenchmarkProfile::by_name("libquantum").unwrap();
        let trace = take("libquantum", 5_000);
        // The same PCs must repeat many times (loop execution).
        let first_pc = trace[0].pc;
        let repeats = trace.iter().filter(|i| i.pc == first_pc).count();
        assert!(repeats > 5, "expected loop re-execution, repeats = {repeats}");
        // Taken loop back-edges target the start of a body.
        let taken_backedges = trace
            .iter()
            .filter(|i| i.branch.map(|b| b.taken).unwrap_or(false))
            .filter(|i| i.branch.unwrap().target < i.pc)
            .count();
        assert!(taken_backedges > 0);
        assert!(p.loop_trip >= 2);
    }

    #[test]
    fn pointer_chase_loads_have_varying_addresses() {
        let trace = take("mcf", 30_000);
        let mut load_addrs: Vec<u64> =
            trace.iter().filter(|i| i.op.is_load()).filter_map(|i| i.mem.map(|m| m.addr)).collect();
        let total = load_addrs.len();
        load_addrs.sort_unstable();
        load_addrs.dedup();
        assert!(
            load_addrs.len() > total / 4,
            "expected a spread-out load address stream ({} unique of {total})",
            load_addrs.len()
        );
    }
}
