//! Benchmark profiles.
//!
//! A [`BenchmarkProfile`] captures the statistical properties of one
//! workload that matter to the paper's mechanisms. One profile is provided
//! per SPEC CPU2006 benchmark (the suite used in the paper); the parameters
//! are calibrated so that the *shape* of Figures 1, 4 and 5 is reproduced:
//! which benchmarks have abundant zero results, which have results already
//! live in the PRF, which of those are at distances stable enough for the
//! distance predictor, and how much of that behaviour overlaps with
//! conventional value predictability.
//!
//! The calibration is documented per benchmark in `EXPERIMENTS.md`.

use crate::behavior::{BranchBehavior, MemBehavior};

/// Fractions of committed instructions per operation class.
///
/// The fractions are normalised by the generator; they do not need to sum
/// exactly to 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionMix {
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Branches.
    pub branch: f64,
    /// Simple integer ALU operations.
    pub int_alu: f64,
    /// Integer multiplies.
    pub int_mul: f64,
    /// Integer divides.
    pub int_div: f64,
    /// Simple FP operations.
    pub fp_alu: f64,
    /// FP multiplies.
    pub fp_mul: f64,
    /// FP divides.
    pub fp_div: f64,
    /// Register-to-register moves (move-elimination candidates).
    pub mov: f64,
    /// Zero idioms (non-speculatively eliminated at Decode).
    pub zero_idiom: f64,
}

impl InstructionMix {
    /// A typical integer-code mix.
    pub fn integer() -> InstructionMix {
        InstructionMix {
            load: 0.25,
            store: 0.10,
            branch: 0.18,
            int_alu: 0.38,
            int_mul: 0.01,
            int_div: 0.002,
            fp_alu: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
            mov: 0.05,
            zero_idiom: 0.01,
        }
    }

    /// A typical floating-point-code mix.
    pub fn floating_point() -> InstructionMix {
        InstructionMix {
            load: 0.28,
            store: 0.10,
            branch: 0.08,
            int_alu: 0.20,
            int_mul: 0.005,
            int_div: 0.001,
            fp_alu: 0.18,
            fp_mul: 0.12,
            fp_div: 0.01,
            mov: 0.03,
            zero_idiom: 0.005,
        }
    }

    /// Sum of all fractions (used for normalisation).
    pub fn total(&self) -> f64 {
        self.load
            + self.store
            + self.branch
            + self.int_alu
            + self.int_mul
            + self.int_div
            + self.fp_alu
            + self.fp_mul
            + self.fp_div
            + self.mov
            + self.zero_idiom
    }
}

/// Statistical description of one synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (matches the SPEC CPU2006 short name).
    pub name: &'static str,
    /// Instruction mix.
    pub mix: InstructionMix,
    /// Fraction of conditional branches that are hard to predict
    /// (data-dependent, near 50/50). The remainder are loop back-edges and
    /// periodic patterns that TAGE predicts essentially perfectly.
    pub hard_branch_frac: f64,
    /// Working-set size touched by non-streaming memory accesses, in bytes.
    pub working_set_bytes: u64,
    /// Fraction of memory accesses that stream sequentially (prefetchable).
    pub streaming_frac: f64,
    /// Fraction of loads that pointer-chase (next address depends on the
    /// previous load's value), serialising execution on memory latency.
    pub pointer_chase_frac: f64,
    /// Probability that a load's result is zero (Figure 1, "Result is Zero
    /// (Load)").
    pub zero_frac_load: f64,
    /// Probability that a non-load producer's result is zero (Figure 1,
    /// "Result is Zero (Other)").
    pub zero_frac_other: f64,
    /// Fraction of load results that equal the result of an older
    /// in-flight instruction (Figure 1, "Result Already in PRF (Load)").
    pub redundant_frac_load: f64,
    /// Fraction of non-load producer results that equal the result of an
    /// older in-flight instruction (Figure 1, "Result Already in PRF
    /// (Other)").
    pub redundant_frac_other: f64,
    /// Probability that a redundant static instruction repeats the *same*
    /// instruction distance across dynamic instances — what the distance
    /// predictor can learn. Low stability yields Figure-1 potential without
    /// Figure-4 speedup (zeusmp, cactusADM).
    pub distance_stability: f64,
    /// Fraction of redundant pairs whose source lies within a few static
    /// producers (distance well below 32 instructions); the rest are spread
    /// up to the ROB size. Matches the Section VI-A2 observation that a
    /// 32-entry history already captures most of the potential.
    pub short_distance_frac: f64,
    /// Fraction of register producers whose value stream is conventionally
    /// value-predictable (constant / strided / last-value).
    pub vp_frac: f64,
    /// Fraction of the redundant (distance-predictable) producers whose
    /// values are *also* conventionally predictable — the overlap between
    /// RSEP and VP. Near 1.0 for the perlbench-like profile where VP covers
    /// almost all distance-predicted instructions.
    pub vp_overlap_frac: f64,
    /// Fraction of instructions whose first source is the destination of
    /// the immediately preceding producer, creating serial dependency
    /// chains (higher values lower baseline ILP and raise the value of
    /// prediction).
    pub dep_chain_frac: f64,
    /// Number of static instructions in the main loop body.
    pub loop_body_size: usize,
    /// Number of distinct inner loops in the synthetic program.
    pub num_loops: usize,
    /// Nominal inner-loop trip count.
    pub loop_trip: u32,
}

impl BenchmarkProfile {
    /// A generic integer-code profile with moderate redundancy, used as the
    /// base that per-benchmark constructors tweak and as a convenient
    /// default for tests and examples.
    pub fn generic_int(name: &'static str) -> BenchmarkProfile {
        BenchmarkProfile {
            name,
            mix: InstructionMix::integer(),
            hard_branch_frac: 0.06,
            working_set_bytes: 4 << 20,
            streaming_frac: 0.4,
            pointer_chase_frac: 0.05,
            zero_frac_load: 0.03,
            zero_frac_other: 0.04,
            redundant_frac_load: 0.08,
            redundant_frac_other: 0.10,
            distance_stability: 0.7,
            short_distance_frac: 0.8,
            vp_frac: 0.25,
            vp_overlap_frac: 0.4,
            dep_chain_frac: 0.35,
            loop_body_size: 120,
            num_loops: 4,
            loop_trip: 64,
        }
    }

    /// A generic floating-point-code profile.
    pub fn generic_fp(name: &'static str) -> BenchmarkProfile {
        BenchmarkProfile {
            mix: InstructionMix::floating_point(),
            hard_branch_frac: 0.02,
            streaming_frac: 0.7,
            pointer_chase_frac: 0.0,
            working_set_bytes: 16 << 20,
            loop_body_size: 160,
            ..BenchmarkProfile::generic_int(name)
        }
    }

    /// Returns the full SPEC CPU2006 suite (29 profiles), calibrated against
    /// the per-benchmark observations in the paper (Figures 1, 4, 5 and the
    /// text of Section VI).
    pub fn spec2006() -> Vec<BenchmarkProfile> {
        vec![
            // ------------------------------------------------------ SPECint
            // perlbench: VP-friendly; RSEP redundant with VP (Section VI-A1:
            // "in a single case, perlbench, RSEP is redundant with VP").
            BenchmarkProfile {
                redundant_frac_load: 0.10,
                redundant_frac_other: 0.18,
                distance_stability: 0.85,
                vp_frac: 0.40,
                vp_overlap_frac: 0.97,
                hard_branch_frac: 0.08,
                working_set_bytes: 2 << 20,
                ..BenchmarkProfile::generic_int("perlbench")
            },
            // bzip2: moderate everything; the benchmark where sampling with
            // a low threshold hurts (critical-path lengthening during
            // training).
            BenchmarkProfile {
                redundant_frac_load: 0.06,
                redundant_frac_other: 0.09,
                distance_stability: 0.55,
                vp_frac: 0.20,
                vp_overlap_frac: 0.5,
                hard_branch_frac: 0.10,
                dep_chain_frac: 0.5,
                working_set_bytes: 8 << 20,
                ..BenchmarkProfile::generic_int("bzip2")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.08,
                redundant_frac_other: 0.14,
                distance_stability: 0.6,
                vp_frac: 0.25,
                vp_overlap_frac: 0.6,
                hard_branch_frac: 0.09,
                working_set_bytes: 6 << 20,
                ..BenchmarkProfile::generic_int("gcc")
            },
            // mcf: memory bound, pointer chasing; almost only loads are
            // distance predicted and RSEP clearly beats VP.
            BenchmarkProfile {
                mix: InstructionMix { load: 0.35, int_alu: 0.30, ..InstructionMix::integer() },
                redundant_frac_load: 0.30,
                redundant_frac_other: 0.05,
                distance_stability: 0.92,
                short_distance_frac: 0.7,
                vp_frac: 0.10,
                vp_overlap_frac: 0.25,
                pointer_chase_frac: 0.55,
                working_set_bytes: 256 << 20,
                streaming_frac: 0.05,
                hard_branch_frac: 0.10,
                dep_chain_frac: 0.55,
                ..BenchmarkProfile::generic_int("mcf")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.05,
                redundant_frac_other: 0.08,
                distance_stability: 0.45,
                vp_frac: 0.18,
                hard_branch_frac: 0.14,
                working_set_bytes: 2 << 20,
                ..BenchmarkProfile::generic_int("gobmk")
            },
            // hmmer: regular inner loop, lots of reuse of table values;
            // RSEP captures non-load producers and beats VP.
            BenchmarkProfile {
                redundant_frac_load: 0.18,
                redundant_frac_other: 0.28,
                distance_stability: 0.93,
                short_distance_frac: 0.55,
                vp_frac: 0.22,
                vp_overlap_frac: 0.3,
                hard_branch_frac: 0.02,
                dep_chain_frac: 0.5,
                working_set_bytes: 1 << 20,
                loop_body_size: 180,
                ..BenchmarkProfile::generic_int("hmmer")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.05,
                redundant_frac_other: 0.07,
                distance_stability: 0.5,
                vp_frac: 0.15,
                hard_branch_frac: 0.13,
                working_set_bytes: 2 << 20,
                ..BenchmarkProfile::generic_int("sjeng")
            },
            // libquantum: tiny kernel, streaming, very regular; both zero
            // prediction and RSEP find opportunities, RSEP beats VP.
            BenchmarkProfile {
                mix: InstructionMix { load: 0.30, branch: 0.22, ..InstructionMix::integer() },
                zero_frac_load: 0.12,
                zero_frac_other: 0.10,
                redundant_frac_load: 0.35,
                redundant_frac_other: 0.25,
                distance_stability: 0.95,
                short_distance_frac: 0.9,
                vp_frac: 0.30,
                vp_overlap_frac: 0.45,
                hard_branch_frac: 0.01,
                streaming_frac: 0.9,
                working_set_bytes: 64 << 20,
                dep_chain_frac: 0.45,
                loop_body_size: 40,
                ..BenchmarkProfile::generic_int("libquantum")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.10,
                redundant_frac_other: 0.12,
                distance_stability: 0.65,
                vp_frac: 0.30,
                vp_overlap_frac: 0.7,
                hard_branch_frac: 0.05,
                working_set_bytes: 1 << 20,
                ..BenchmarkProfile::generic_int("h264ref")
            },
            // omnetpp: pointer-heavy discrete event simulation; RSEP > VP.
            BenchmarkProfile {
                redundant_frac_load: 0.22,
                redundant_frac_other: 0.16,
                distance_stability: 0.88,
                short_distance_frac: 0.75,
                vp_frac: 0.15,
                vp_overlap_frac: 0.35,
                pointer_chase_frac: 0.35,
                working_set_bytes: 128 << 20,
                streaming_frac: 0.1,
                hard_branch_frac: 0.09,
                dep_chain_frac: 0.5,
                ..BenchmarkProfile::generic_int("omnetpp")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.08,
                redundant_frac_other: 0.08,
                distance_stability: 0.55,
                vp_frac: 0.15,
                pointer_chase_frac: 0.25,
                working_set_bytes: 32 << 20,
                hard_branch_frac: 0.12,
                ..BenchmarkProfile::generic_int("astar")
            },
            // xalancbmk: both RSEP and VP do well, and move elimination
            // captures a visible share.
            BenchmarkProfile {
                mix: InstructionMix { mov: 0.10, ..InstructionMix::integer() },
                redundant_frac_load: 0.20,
                redundant_frac_other: 0.25,
                distance_stability: 0.9,
                short_distance_frac: 0.5,
                vp_frac: 0.35,
                vp_overlap_frac: 0.55,
                pointer_chase_frac: 0.20,
                working_set_bytes: 64 << 20,
                hard_branch_frac: 0.06,
                dep_chain_frac: 0.45,
                ..BenchmarkProfile::generic_int("xalancbmk")
            },
            // ------------------------------------------------------ SPECfp
            BenchmarkProfile {
                redundant_frac_load: 0.06,
                redundant_frac_other: 0.08,
                distance_stability: 0.5,
                vp_frac: 0.30,
                vp_overlap_frac: 0.7,
                ..BenchmarkProfile::generic_fp("bwaves")
            },
            // gamess: one of the two benchmarks with a visible zero-
            // prediction speedup; also frequently retires wide groups of
            // producers.
            BenchmarkProfile {
                zero_frac_load: 0.08,
                zero_frac_other: 0.14,
                redundant_frac_load: 0.12,
                redundant_frac_other: 0.20,
                distance_stability: 0.75,
                vp_frac: 0.30,
                vp_overlap_frac: 0.6,
                loop_body_size: 220,
                ..BenchmarkProfile::generic_fp("gamess")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.10,
                redundant_frac_other: 0.12,
                distance_stability: 0.6,
                vp_frac: 0.35,
                vp_overlap_frac: 0.75,
                working_set_bytes: 96 << 20,
                streaming_frac: 0.8,
                ..BenchmarkProfile::generic_fp("milc")
            },
            // zeusmp: close to 20% zero results (Figure 1) but irregular, so
            // zero prediction gains little; VP gets a small speedup.
            BenchmarkProfile {
                zero_frac_load: 0.14,
                zero_frac_other: 0.20,
                redundant_frac_load: 0.18,
                redundant_frac_other: 0.25,
                distance_stability: 0.35,
                vp_frac: 0.35,
                vp_overlap_frac: 0.7,
                working_set_bytes: 128 << 20,
                ..BenchmarkProfile::generic_fp("zeusmp")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.07,
                redundant_frac_other: 0.10,
                distance_stability: 0.5,
                vp_frac: 0.35,
                vp_overlap_frac: 0.75,
                working_set_bytes: 8 << 20,
                ..BenchmarkProfile::generic_fp("gromacs")
            },
            // cactusADM: like zeusmp, high zero ratio without regularity.
            BenchmarkProfile {
                zero_frac_load: 0.12,
                zero_frac_other: 0.22,
                redundant_frac_load: 0.20,
                redundant_frac_other: 0.28,
                distance_stability: 0.3,
                vp_frac: 0.30,
                vp_overlap_frac: 0.7,
                working_set_bytes: 192 << 20,
                ..BenchmarkProfile::generic_fp("cactusADM")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.08,
                redundant_frac_other: 0.10,
                distance_stability: 0.5,
                vp_frac: 0.35,
                vp_overlap_frac: 0.75,
                working_set_bytes: 64 << 20,
                streaming_frac: 0.85,
                ..BenchmarkProfile::generic_fp("leslie3d")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.06,
                redundant_frac_other: 0.09,
                distance_stability: 0.55,
                vp_frac: 0.25,
                working_set_bytes: 4 << 20,
                ..BenchmarkProfile::generic_fp("namd")
            },
            // dealII: the flagship non-load RSEP benchmark; also benefits
            // from move elimination.
            BenchmarkProfile {
                mix: InstructionMix { mov: 0.08, ..InstructionMix::floating_point() },
                redundant_frac_load: 0.15,
                redundant_frac_other: 0.35,
                distance_stability: 0.93,
                short_distance_frac: 0.45,
                vp_frac: 0.20,
                vp_overlap_frac: 0.3,
                hard_branch_frac: 0.03,
                dep_chain_frac: 0.55,
                working_set_bytes: 24 << 20,
                loop_body_size: 200,
                ..BenchmarkProfile::generic_fp("dealII")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.10,
                redundant_frac_other: 0.14,
                distance_stability: 0.6,
                vp_frac: 0.25,
                working_set_bytes: 48 << 20,
                pointer_chase_frac: 0.1,
                ..BenchmarkProfile::generic_fp("soplex")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.08,
                redundant_frac_other: 0.12,
                distance_stability: 0.6,
                vp_frac: 0.30,
                vp_overlap_frac: 0.7,
                working_set_bytes: 2 << 20,
                hard_branch_frac: 0.05,
                ..BenchmarkProfile::generic_fp("povray")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.08,
                redundant_frac_other: 0.12,
                distance_stability: 0.6,
                vp_frac: 0.30,
                vp_overlap_frac: 0.7,
                working_set_bytes: 16 << 20,
                ..BenchmarkProfile::generic_fp("calculix")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.10,
                redundant_frac_other: 0.14,
                distance_stability: 0.55,
                vp_frac: 0.35,
                vp_overlap_frac: 0.75,
                working_set_bytes: 256 << 20,
                streaming_frac: 0.9,
                ..BenchmarkProfile::generic_fp("GemsFDTD")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.10,
                redundant_frac_other: 0.16,
                distance_stability: 0.65,
                vp_frac: 0.30,
                vp_overlap_frac: 0.65,
                working_set_bytes: 8 << 20,
                ..BenchmarkProfile::generic_fp("tonto")
            },
            // lbm: streaming kernel that frequently retires 8 producers per
            // cycle (Section IV-D2).
            BenchmarkProfile {
                mix: InstructionMix {
                    branch: 0.02,
                    load: 0.30,
                    ..InstructionMix::floating_point()
                },
                redundant_frac_load: 0.06,
                redundant_frac_other: 0.08,
                distance_stability: 0.5,
                vp_frac: 0.30,
                vp_overlap_frac: 0.7,
                working_set_bytes: 384 << 20,
                streaming_frac: 0.95,
                hard_branch_frac: 0.0,
                loop_body_size: 300,
                ..BenchmarkProfile::generic_fp("lbm")
            },
            // wrf: VP clearly better than RSEP.
            BenchmarkProfile {
                redundant_frac_load: 0.08,
                redundant_frac_other: 0.12,
                distance_stability: 0.5,
                vp_frac: 0.45,
                vp_overlap_frac: 0.8,
                working_set_bytes: 64 << 20,
                ..BenchmarkProfile::generic_fp("wrf")
            },
            BenchmarkProfile {
                redundant_frac_load: 0.10,
                redundant_frac_other: 0.12,
                distance_stability: 0.6,
                vp_frac: 0.35,
                vp_overlap_frac: 0.7,
                working_set_bytes: 16 << 20,
                ..BenchmarkProfile::generic_fp("sphinx3")
            },
        ]
    }

    /// Looks up a SPEC CPU2006 profile by name.
    pub fn by_name(name: &str) -> Option<BenchmarkProfile> {
        BenchmarkProfile::spec2006().into_iter().find(|p| p.name == name)
    }

    /// Returns `true` if the profile models a floating-point benchmark.
    pub fn is_fp(&self) -> bool {
        self.mix.fp_alu + self.mix.fp_mul + self.mix.fp_div > 0.0
    }

    /// Overall fraction of producing instructions whose result equals an
    /// older in-flight result (load and non-load combined, weighted by the
    /// instruction mix). Used by tests to sanity-check calibration.
    pub fn overall_redundancy(&self) -> f64 {
        let total = self.mix.total();
        let load_w = self.mix.load / total;
        let other_w = (self.mix.int_alu
            + self.mix.int_mul
            + self.mix.int_div
            + self.mix.fp_alu
            + self.mix.fp_mul
            + self.mix.fp_div)
            / total;
        load_w * self.redundant_frac_load + other_w * self.redundant_frac_other
    }

    /// Default branch behaviour mix for this profile: a loop back-edge, a
    /// periodic pattern and a hard (biased) branch, weighted by
    /// `hard_branch_frac`.
    pub fn branch_behaviors(&self) -> Vec<(BranchBehavior, f64)> {
        vec![
            (BranchBehavior::LoopBack { trip: self.loop_trip, jitter: 0 }, 0.5),
            (BranchBehavior::Pattern { period: 7 }, (1.0 - self.hard_branch_frac) - 0.5),
            (BranchBehavior::Biased { p_taken: 0.55 }, self.hard_branch_frac),
        ]
    }

    /// Default memory behaviour mix for this profile.
    pub fn mem_behaviors(&self) -> Vec<(MemBehavior, f64)> {
        let random_frac = (1.0 - self.streaming_frac - self.pointer_chase_frac).max(0.0);
        vec![
            (
                MemBehavior::Streaming {
                    stride: 64,
                    region_bytes: self.working_set_bytes.max(4096),
                },
                self.streaming_frac,
            ),
            (
                MemBehavior::RandomInSet { working_set_bytes: self.working_set_bytes },
                random_frac * 0.7,
            ),
            (MemBehavior::Hot { footprint_bytes: 4096 }, random_frac * 0.3),
            (
                MemBehavior::PointerChase { working_set_bytes: self.working_set_bytes },
                self.pointer_chase_frac,
            ),
        ]
    }
}

impl rsep_isa::Fingerprint for InstructionMix {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self {
            load,
            store,
            branch,
            int_alu,
            int_mul,
            int_div,
            fp_alu,
            fp_mul,
            fp_div,
            mov,
            zero_idiom,
        } = self;
        h.write_str("InstructionMix");
        load.fingerprint(h);
        store.fingerprint(h);
        branch.fingerprint(h);
        int_alu.fingerprint(h);
        int_mul.fingerprint(h);
        int_div.fingerprint(h);
        fp_alu.fingerprint(h);
        fp_mul.fingerprint(h);
        fp_div.fingerprint(h);
        mov.fingerprint(h);
        zero_idiom.fingerprint(h);
    }
}

impl rsep_isa::Fingerprint for BenchmarkProfile {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self {
            name,
            mix,
            hard_branch_frac,
            working_set_bytes,
            streaming_frac,
            pointer_chase_frac,
            zero_frac_load,
            zero_frac_other,
            redundant_frac_load,
            redundant_frac_other,
            distance_stability,
            short_distance_frac,
            vp_frac,
            vp_overlap_frac,
            dep_chain_frac,
            loop_body_size,
            num_loops,
            loop_trip,
        } = self;
        h.write_str("BenchmarkProfile");
        name.fingerprint(h);
        mix.fingerprint(h);
        hard_branch_frac.fingerprint(h);
        working_set_bytes.fingerprint(h);
        streaming_frac.fingerprint(h);
        pointer_chase_frac.fingerprint(h);
        zero_frac_load.fingerprint(h);
        zero_frac_other.fingerprint(h);
        redundant_frac_load.fingerprint(h);
        redundant_frac_other.fingerprint(h);
        distance_stability.fingerprint(h);
        short_distance_frac.fingerprint(h);
        vp_frac.fingerprint(h);
        vp_overlap_frac.fingerprint(h);
        dep_chain_frac.fingerprint(h);
        loop_body_size.fingerprint(h);
        num_loops.fingerprint(h);
        loop_trip.fingerprint(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_29_distinct_benchmarks() {
        let suite = BenchmarkProfile::spec2006();
        assert_eq!(suite.len(), 29);
        let mut names: Vec<_> = suite.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 29, "duplicate benchmark names");
    }

    #[test]
    fn lookup_by_name() {
        assert!(BenchmarkProfile::by_name("mcf").is_some());
        assert!(BenchmarkProfile::by_name("dealII").is_some());
        assert!(BenchmarkProfile::by_name("does-not-exist").is_none());
    }

    #[test]
    fn mix_fractions_are_positive_and_bounded() {
        for p in BenchmarkProfile::spec2006() {
            let total = p.mix.total();
            assert!(total > 0.9 && total < 1.1, "{}: mix total {total}", p.name);
            assert!(p.mix.load >= 0.0 && p.mix.load <= 1.0);
        }
    }

    #[test]
    fn probabilities_are_valid() {
        for p in BenchmarkProfile::spec2006() {
            for (label, v) in [
                ("hard_branch_frac", p.hard_branch_frac),
                ("streaming_frac", p.streaming_frac),
                ("pointer_chase_frac", p.pointer_chase_frac),
                ("zero_frac_load", p.zero_frac_load),
                ("zero_frac_other", p.zero_frac_other),
                ("redundant_frac_load", p.redundant_frac_load),
                ("redundant_frac_other", p.redundant_frac_other),
                ("distance_stability", p.distance_stability),
                ("short_distance_frac", p.short_distance_frac),
                ("vp_frac", p.vp_frac),
                ("vp_overlap_frac", p.vp_overlap_frac),
                ("dep_chain_frac", p.dep_chain_frac),
            ] {
                assert!((0.0..=1.0).contains(&v), "{}: {label} = {v}", p.name);
            }
            assert!(p.loop_body_size >= 16, "{}: loop body too small", p.name);
            assert!(p.num_loops >= 1);
        }
    }

    #[test]
    fn calibration_shape_matches_paper() {
        // Zero-heavy FP benchmarks (Figure 1).
        let zeusmp = BenchmarkProfile::by_name("zeusmp").unwrap();
        let cactus = BenchmarkProfile::by_name("cactusADM").unwrap();
        let gcc = BenchmarkProfile::by_name("gcc").unwrap();
        assert!(zeusmp.zero_frac_other > 2.0 * gcc.zero_frac_other);
        assert!(cactus.zero_frac_other > 2.0 * gcc.zero_frac_other);

        // RSEP winners have both high redundancy and high distance
        // stability; zeusmp/cactusADM have redundancy without stability.
        for name in ["mcf", "dealII", "hmmer", "libquantum", "omnetpp", "xalancbmk"] {
            let p = BenchmarkProfile::by_name(name).unwrap();
            assert!(p.distance_stability >= 0.85, "{name}");
            assert!(p.overall_redundancy() > 0.08, "{name}");
        }
        assert!(zeusmp.distance_stability < 0.5);
        assert!(cactus.distance_stability < 0.5);

        // perlbench overlap: almost all RSEP-captured results also VP-able.
        let perl = BenchmarkProfile::by_name("perlbench").unwrap();
        assert!(perl.vp_overlap_frac > 0.9);

        // mcf is load-dominated for redundancy, dealII is not.
        let mcf = BenchmarkProfile::by_name("mcf").unwrap();
        let dealii = BenchmarkProfile::by_name("dealII").unwrap();
        assert!(mcf.redundant_frac_load > mcf.redundant_frac_other);
        assert!(dealii.redundant_frac_other > dealii.redundant_frac_load);
    }

    #[test]
    fn behavior_mixes_have_positive_weights() {
        for p in BenchmarkProfile::spec2006() {
            let branches = p.branch_behaviors();
            assert!(branches.iter().all(|(_, w)| *w >= -1e-9), "{}", p.name);
            let mems = p.mem_behaviors();
            let total: f64 = mems.iter().map(|(_, w)| *w).sum();
            assert!((total - 1.0).abs() < 0.05, "{}: mem weights {total}", p.name);
        }
    }

    #[test]
    fn fp_detection() {
        assert!(BenchmarkProfile::by_name("lbm").unwrap().is_fp());
        assert!(!BenchmarkProfile::by_name("mcf").unwrap().is_fp());
    }
}
