//! Synthetic static programs.
//!
//! A [`StaticProgram`] is a loop nest of [`StaticInst`]s synthesised from a
//! [`BenchmarkProfile`]. Each static instruction
//! carries the behaviour models that govern the dynamic stream it produces
//! (see [`crate::behavior`]). The program is executed by the
//! [`TraceGenerator`](crate::TraceGenerator): each inner loop body is
//! iterated according to its back-edge behaviour, loops run in sequence and
//! the whole program repeats indefinitely.
//!
//! Simplification (documented in `DESIGN.md`): conditional branches inside a
//! loop body do not skip instructions — their taken/not-taken outcome and
//! target are modelled (so the branch predictor and the front end see
//! realistic control flow), but the executed path is the full body. This
//! keeps the dynamic distance between a value producer and its consumer
//! stable, which is the property the paper's distance predictor exploits;
//! the instability knob is [`StaticInst::copy_sources`] instead.

use crate::behavior::{BranchBehavior, MemBehavior, ValueBehavior};
use crate::profile::BenchmarkProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rsep_isa::{ArchReg, BranchKind, OpClass, RegClass};

/// Base address at which the synthetic code is laid out.
// lint: exempt(dead-pub-api, documented layout constant of the synthetic address space)
pub const CODE_BASE: u64 = 0x0040_0000;
/// Base address of the synthetic data segment.
// lint: exempt(dead-pub-api, documented layout constant of the synthetic address space)
pub const DATA_BASE: u64 = 0x1000_0000;
/// Size in bytes of one encoded instruction.
// lint: exempt(dead-pub-api, documented layout constant of the synthetic address space)
pub const INST_BYTES: u64 = 4;

/// One static instruction of a synthetic program.
#[derive(Debug, Clone)]
pub struct StaticInst {
    /// Program counter.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Destination architectural register, if any.
    pub dest: Option<ArchReg>,
    /// Source architectural registers.
    pub srcs: Vec<ArchReg>,
    /// Result-value behaviour (register producers only).
    pub value: Option<ValueBehavior>,
    /// Indices (into the program) of the static instructions whose most
    /// recent result this instruction copies. One entry models a stable
    /// instruction distance; several entries model redundancy whose distance
    /// varies dynamically (the generator picks one at random per instance).
    pub copy_sources: Vec<usize>,
    /// Memory behaviour (loads and stores only).
    pub mem: Option<MemBehavior>,
    /// Base address of the memory region accessed by this instruction.
    pub mem_base: u64,
    /// Branch kind and behaviour (branches only).
    pub branch: Option<(BranchKind, BranchBehavior)>,
    /// Branch target when taken (branches only).
    pub branch_target: u64,
}

impl StaticInst {
    /// Returns `true` if the instruction writes a non-zero architectural
    /// register.
    pub fn produces_register(&self) -> bool {
        matches!(self.dest, Some(d) if !d.is_zero_reg())
    }
}

/// One inner loop of the synthetic program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint: exempt(dead-pub-api, element type of StaticProgram's pub loop list; reached through it)
pub struct Loop {
    /// Index of the first instruction of the body.
    pub start: usize,
    /// Number of instructions in the body (including the back-edge branch).
    pub len: usize,
}

/// A synthetic static program.
#[derive(Debug, Clone)]
pub struct StaticProgram {
    /// All static instructions, laid out loop after loop.
    pub insts: Vec<StaticInst>,
    /// The inner loops, in execution order.
    pub loops: Vec<Loop>,
}

impl StaticProgram {
    /// Synthesises a program from a benchmark profile.
    ///
    /// The synthesis is deterministic for a given `(profile, seed)` pair.
    pub fn synthesize(profile: &BenchmarkProfile, seed: u64) -> StaticProgram {
        Synthesizer::new(profile, seed).run()
    }

    /// Program counter of the instruction at `index`.
    pub fn pc_of(&self, index: usize) -> u64 {
        CODE_BASE + index as u64 * INST_BYTES
    }

    /// Total number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Fraction of static instructions that produce a register.
    pub fn producer_fraction(&self) -> f64 {
        if self.insts.is_empty() {
            return 0.0;
        }
        self.insts.iter().filter(|i| i.produces_register()).count() as f64 / self.insts.len() as f64
    }
}

/// Internal synthesis state.
struct Synthesizer<'a> {
    profile: &'a BenchmarkProfile,
    rng: SmallRng,
    insts: Vec<StaticInst>,
    loops: Vec<Loop>,
    /// Indices of recent register producers (across the whole program so
    /// far), used to wire sources and copy relationships.
    producers: Vec<usize>,
    next_int_dest: u8,
    next_fp_dest: u8,
}

impl<'a> Synthesizer<'a> {
    fn new(profile: &'a BenchmarkProfile, seed: u64) -> Self {
        Synthesizer {
            profile,
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_0001),
            insts: Vec::new(),
            loops: Vec::new(),
            producers: Vec::new(),
            next_int_dest: 0,
            next_fp_dest: 0,
        }
    }

    fn run(mut self) -> StaticProgram {
        for _ in 0..self.profile.num_loops.max(1) {
            self.synthesize_loop();
        }
        StaticProgram { insts: self.insts, loops: self.loops }
    }

    fn alloc_dest(&mut self, class: RegClass) -> ArchReg {
        match class {
            RegClass::Int => {
                // Skip the hardwired zero register (index 31) and reserve
                // indices 27..=30 for pointer-chasing loads so their
                // self-dependency through the architectural register is not
                // broken by unrelated writers.
                let r = ArchReg::int(self.next_int_dest % 27);
                self.next_int_dest = (self.next_int_dest + 1) % 27;
                r
            }
            RegClass::Fp => {
                let r = ArchReg::fp(self.next_fp_dest % 32);
                self.next_fp_dest = (self.next_fp_dest + 1) % 32;
                r
            }
        }
    }

    /// Destination register reserved for pointer-chasing loads (rotating
    /// over architectural registers 27..=30, which `alloc_dest` never
    /// hands out).
    fn alloc_pointer_chase_dest(&mut self) -> ArchReg {
        let r = ArchReg::int(27 + (self.next_int_dest % 4));
        self.next_int_dest = (self.next_int_dest + 1) % 27;
        r
    }

    /// Draws an operation class according to the profile mix. The loop
    /// back-edge branch is emitted separately, so `branch` here only covers
    /// in-body branches.
    fn draw_op(&mut self) -> OpClass {
        let m = &self.profile.mix;
        let total = m.total();
        let mut x = self.rng.gen::<f64>() * total;
        let entries = [
            (OpClass::Load, m.load),
            (OpClass::Store, m.store),
            (OpClass::Branch, m.branch),
            (OpClass::IntAlu, m.int_alu),
            (OpClass::IntMul, m.int_mul),
            (OpClass::IntDiv, m.int_div),
            (OpClass::FpAlu, m.fp_alu),
            (OpClass::FpMul, m.fp_mul),
            (OpClass::FpDiv, m.fp_div),
            (OpClass::Move, m.mov),
            (OpClass::ZeroIdiom, m.zero_idiom),
        ];
        for (op, w) in entries {
            if x < w {
                return op;
            }
            x -= w;
        }
        OpClass::IntAlu
    }

    fn pick_recent_producer(&mut self, within: usize) -> Option<usize> {
        if self.producers.is_empty() {
            return None;
        }
        let window = within.min(self.producers.len());
        let offset = self.rng.gen_range(0..window);
        Some(self.producers[self.producers.len() - 1 - offset])
    }

    fn wire_sources(&mut self, op: OpClass) -> Vec<ArchReg> {
        let mut srcs = Vec::new();
        let nsrc = match op {
            OpClass::Store => 2,
            OpClass::Branch => 1,
            OpClass::Load => 1,
            _ => 2,
        };
        for s in 0..nsrc {
            let idx = if s == 0 && self.rng.gen_bool(self.profile.dep_chain_frac) {
                // Serial chain: depend on the most recent producer.
                self.producers.last().copied()
            } else {
                self.pick_recent_producer(24)
            };
            if let Some(i) = idx {
                if let Some(d) = self.insts[i].dest {
                    srcs.push(d);
                }
            }
        }
        srcs
    }

    fn draw_mem_behavior(&mut self) -> MemBehavior {
        let choices = self.profile.mem_behaviors();
        let total: f64 = choices.iter().map(|(_, w)| w.max(0.0)).sum();
        let mut x = self.rng.gen::<f64>() * total.max(1e-9);
        for (b, w) in &choices {
            let w = w.max(0.0);
            if x < w {
                return b.clone();
            }
            x -= w;
        }
        choices[0].0.clone()
    }

    fn draw_branch_behavior(&mut self) -> BranchBehavior {
        // In-body branches: mostly well-behaved (biased not-taken or
        // periodic); a `hard_branch_frac` share is close to 50/50.
        let x = self.rng.gen::<f64>();
        if x < self.profile.hard_branch_frac {
            BranchBehavior::Biased { p_taken: 0.45 + self.rng.gen::<f64>() * 0.1 }
        } else if x < self.profile.hard_branch_frac + 0.3 {
            BranchBehavior::Pattern { period: 3 + self.rng.gen_range(0..6) }
        } else {
            BranchBehavior::Biased { p_taken: 0.05 }
        }
    }

    /// Decides the value behaviour of a register producer, together with the
    /// copy sources when the behaviour is redundancy-based.
    fn draw_value_behavior(&mut self, op: OpClass, my_index: usize) -> (ValueBehavior, Vec<usize>) {
        let p = self.profile;
        let (zero_frac, redundant_frac) = if op.is_load() {
            (p.zero_frac_load, p.redundant_frac_load)
        } else {
            (p.zero_frac_other, p.redundant_frac_other)
        };
        let x = self.rng.gen::<f64>();
        // Zero producers: behaviours produce zero ~95% of the time, so scale
        // the static fraction up slightly to hit the dynamic target.
        let zero_static_frac = (zero_frac / 0.995).min(1.0);
        if x < zero_static_frac {
            return (ValueBehavior::Zero { p_zero: 0.995 }, Vec::new());
        }
        if x < zero_static_frac + redundant_frac {
            // Redundant producer: copies the most recent result of one (or
            // several) earlier producers.
            let stable = self.rng.gen_bool(p.distance_stability);
            let overlap = self.rng.gen_bool(p.vp_overlap_frac);
            let window = if self.rng.gen_bool(p.short_distance_frac) { 10 } else { 80 };
            let n_sources = if stable { 1 } else { 4 + self.rng.gen_range(0..4) };
            let mut sources = Vec::new();
            for _ in 0..n_sources {
                if let Some(src) = self.pick_recent_producer(window) {
                    if src != my_index && !sources.contains(&src) {
                        sources.push(src);
                    }
                }
            }
            if sources.is_empty() {
                // Not enough earlier producers yet; fall back to a constant.
                return (ValueBehavior::Constant(self.rng.gen::<u64>() | 1), Vec::new());
            }
            if overlap {
                // Make the copied value itself predictable: force the source
                // to be (re)assigned a constant behaviour so both VP and
                // RSEP capture this instruction.
                let src = sources[0];
                if self.insts[src].produces_register() {
                    let c = self.rng.gen::<u64>() | 1;
                    self.insts[src].value = Some(ValueBehavior::Constant(c));
                    self.insts[src].copy_sources.clear();
                }
            }
            let back = my_index.saturating_sub(sources[0]);
            return (ValueBehavior::CopyStatic { back, p_match: 0.999 }, sources);
        }
        if x < zero_static_frac + redundant_frac + p.vp_frac {
            // Conventionally value-predictable producer (constant or
            // strided streams, which D-VTAGE captures with saturated
            // confidence).
            return if self.rng.gen_bool(0.5) {
                (ValueBehavior::Constant(self.rng.gen::<u64>() | 1), Vec::new())
            } else {
                (
                    ValueBehavior::Strided {
                        base: self.rng.gen::<u64>() >> 16,
                        stride: [1i64, 4, 8, 16, 64][self.rng.gen_range(0..5)],
                    },
                    Vec::new(),
                )
            };
        }
        (ValueBehavior::Random, Vec::new())
    }

    fn synthesize_loop(&mut self) {
        let body = self.profile.loop_body_size.max(16);
        let start = self.insts.len();
        for i in 0..body {
            let index = start + i;
            let pc = CODE_BASE + index as u64 * INST_BYTES;
            let is_backedge = i == body - 1;
            let op = if is_backedge { OpClass::Branch } else { self.draw_op() };
            let inst = match op {
                OpClass::Branch => {
                    let (behavior, kind, target) = if is_backedge {
                        (
                            BranchBehavior::LoopBack {
                                trip: self.profile.loop_trip.max(2),
                                jitter: if self.rng.gen_bool(self.profile.hard_branch_frac) {
                                    self.profile.loop_trip / 4
                                } else {
                                    0
                                },
                            },
                            BranchKind::Conditional,
                            CODE_BASE + start as u64 * INST_BYTES,
                        )
                    } else {
                        (self.draw_branch_behavior(), BranchKind::Conditional, pc + INST_BYTES)
                    };
                    StaticInst {
                        pc,
                        op: OpClass::Branch,
                        dest: None,
                        srcs: self.wire_sources(OpClass::Branch),
                        value: None,
                        copy_sources: Vec::new(),
                        mem: None,
                        mem_base: 0,
                        branch: Some((kind, behavior)),
                        branch_target: target,
                    }
                }
                OpClass::Store => {
                    let behavior = self.draw_mem_behavior();
                    StaticInst {
                        pc,
                        op,
                        dest: None,
                        srcs: self.wire_sources(op),
                        value: None,
                        copy_sources: Vec::new(),
                        mem: Some(behavior),
                        mem_base: DATA_BASE + self.rng.gen_range(0..1024u64) * 4096,
                        branch: None,
                        branch_target: 0,
                    }
                }
                OpClass::ZeroIdiom => {
                    let dest = self.alloc_dest(RegClass::Int);
                    StaticInst {
                        pc,
                        op,
                        dest: Some(dest),
                        srcs: Vec::new(),
                        value: Some(ValueBehavior::Constant(0)),
                        copy_sources: Vec::new(),
                        mem: None,
                        mem_base: 0,
                        branch: None,
                        branch_target: 0,
                    }
                }
                OpClass::Move => {
                    // A move copies the most recent result of an earlier
                    // producer and names that producer's register as its
                    // source, so move elimination applies.
                    let src_idx = self.pick_recent_producer(16);
                    let (srcs, copy_sources, class) = match src_idx {
                        Some(s) if self.insts[s].dest.is_some() => {
                            let d = self.insts[s].dest.unwrap();
                            (vec![d], vec![s], d.class())
                        }
                        _ => (Vec::new(), Vec::new(), RegClass::Int),
                    };
                    let dest = self.alloc_dest(class);
                    StaticInst {
                        pc,
                        op,
                        dest: Some(dest),
                        srcs,
                        value: Some(ValueBehavior::CopyStatic { back: 1, p_match: 1.0 }),
                        copy_sources,
                        mem: None,
                        mem_base: 0,
                        branch: None,
                        branch_target: 0,
                    }
                }
                _ => {
                    // Register-producing instruction (ALU / FP / load).
                    let index_now = index;
                    let (value, copy_sources) = self.draw_value_behavior(op, index_now);
                    let pointer_chase =
                        op.is_load() && self.rng.gen_bool(self.profile.pointer_chase_frac);
                    let class = if op.is_load() {
                        if !pointer_chase && self.profile.is_fp() && self.rng.gen_bool(0.4) {
                            RegClass::Fp
                        } else {
                            RegClass::Int
                        }
                    } else {
                        op.natural_result_class()
                    };
                    let dest = if pointer_chase {
                        self.alloc_pointer_chase_dest()
                    } else {
                        self.alloc_dest(class)
                    };
                    let mut srcs = self.wire_sources(op);
                    let (mem, mem_base) = if op.is_load() {
                        let behavior = if pointer_chase {
                            MemBehavior::PointerChase {
                                working_set_bytes: self.profile.working_set_bytes,
                            }
                        } else {
                            self.draw_mem_behavior()
                        };
                        if pointer_chase {
                            // The address of a pointer-chasing load depends on
                            // its own previous value.
                            srcs = vec![dest];
                        }
                        (Some(behavior), DATA_BASE + self.rng.gen_range(0..1024u64) * 4096)
                    } else {
                        (None, 0)
                    };
                    StaticInst {
                        pc,
                        op,
                        dest: Some(dest),
                        srcs,
                        value: Some(value),
                        copy_sources,
                        mem,
                        mem_base,
                        branch: None,
                        branch_target: 0,
                    }
                }
            };
            if inst.produces_register() {
                self.producers.push(index);
            }
            self.insts.push(inst);
        }
        self.loops.push(Loop { start, len: body });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BenchmarkProfile;

    fn program(name: &str) -> StaticProgram {
        StaticProgram::synthesize(&BenchmarkProfile::by_name(name).unwrap(), 1)
    }

    #[test]
    fn synthesis_is_deterministic() {
        let p = BenchmarkProfile::by_name("gcc").unwrap();
        let a = StaticProgram::synthesize(&p, 7);
        let b = StaticProgram::synthesize(&p, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.insts.iter().zip(&b.insts) {
            assert_eq!(x.op, y.op);
            assert_eq!(x.dest, y.dest);
            assert_eq!(x.pc, y.pc);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = BenchmarkProfile::by_name("gcc").unwrap();
        let a = StaticProgram::synthesize(&p, 1);
        let b = StaticProgram::synthesize(&p, 2);
        let same = a.insts.iter().zip(&b.insts).filter(|(x, y)| x.op == y.op).count();
        assert!(same < a.len(), "seeds produced identical programs");
    }

    #[test]
    fn every_loop_ends_with_a_backedge() {
        for name in ["mcf", "dealII", "lbm", "perlbench"] {
            let prog = program(name);
            for l in &prog.loops {
                let last = &prog.insts[l.start + l.len - 1];
                assert_eq!(last.op, OpClass::Branch, "{name}");
                let (_, behavior) = last.branch.as_ref().unwrap();
                assert!(matches!(behavior, BranchBehavior::LoopBack { .. }), "{name}");
                assert_eq!(last.branch_target, prog.pc_of(l.start), "{name}");
            }
        }
    }

    #[test]
    fn program_size_matches_profile() {
        let p = BenchmarkProfile::by_name("hmmer").unwrap();
        let prog = StaticProgram::synthesize(&p, 3);
        assert_eq!(prog.len(), p.loop_body_size * p.num_loops);
        assert_eq!(prog.loops.len(), p.num_loops);
        assert!(!prog.is_empty());
    }

    #[test]
    fn copy_sources_reference_earlier_producers() {
        for name in ["mcf", "dealII", "xalancbmk", "libquantum"] {
            let prog = program(name);
            for (i, inst) in prog.insts.iter().enumerate() {
                for &src in &inst.copy_sources {
                    assert!(src < i, "{name}: copy source {src} not earlier than {i}");
                    assert!(
                        prog.insts[src].produces_register(),
                        "{name}: copy source {src} does not produce a register"
                    );
                }
            }
        }
    }

    #[test]
    fn destinations_avoid_the_zero_register() {
        let prog = program("gcc");
        for inst in &prog.insts {
            if let Some(d) = inst.dest {
                assert!(!d.is_zero_reg());
            }
        }
    }

    #[test]
    fn pcs_are_dense_and_increasing() {
        let prog = program("astar");
        for (i, inst) in prog.insts.iter().enumerate() {
            assert_eq!(inst.pc, CODE_BASE + i as u64 * INST_BYTES);
        }
    }

    #[test]
    fn producer_fraction_is_substantial() {
        for p in BenchmarkProfile::spec2006() {
            let prog = StaticProgram::synthesize(&p, 11);
            let frac = prog.producer_fraction();
            assert!(frac > 0.4, "{}: producer fraction {frac}", p.name);
        }
    }

    #[test]
    fn loads_and_stores_have_memory_behaviour() {
        let prog = program("mcf");
        for inst in &prog.insts {
            if inst.op.is_mem() {
                assert!(inst.mem.is_some());
            } else {
                assert!(inst.mem.is_none());
            }
        }
    }

    #[test]
    fn moves_name_their_source_register() {
        let prog = program("xalancbmk");
        let mut moves = 0;
        for inst in &prog.insts {
            if inst.op == OpClass::Move && !inst.copy_sources.is_empty() {
                moves += 1;
                let src_inst = &prog.insts[inst.copy_sources[0]];
                assert_eq!(inst.srcs.first().copied(), src_inst.dest);
            }
        }
        assert!(moves > 0, "no move instructions synthesised for xalancbmk");
    }
}
