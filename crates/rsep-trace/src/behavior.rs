//! Per-static-instruction behaviour models.
//!
//! Each static instruction of a synthetic program carries three behaviour
//! descriptors that govern the dynamic stream it produces:
//!
//! * [`ValueBehavior`] — what result values the instruction produces over
//!   time. This is the knob that controls the redundancy exploited by RSEP
//!   (equality with an older instruction at a stable distance) versus the
//!   predictability exploited by conventional value prediction (constant /
//!   strided / last-value streams).
//! * [`BranchBehavior`] — taken/not-taken patterns of branches, controlling
//!   how well the TAGE branch predictor performs.
//! * [`MemBehavior`] — the address stream of loads and stores, controlling
//!   cache hit rates and prefetcher effectiveness.

use rand::rngs::SmallRng;
use rand::Rng;

/// Result-value behaviour of one static register-producing instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueBehavior {
    /// Always produces the same value.
    ///
    /// Captured by conventional value prediction and — because the same
    /// value is always live somewhere in the window — often by RSEP too.
    /// This is the "overlap" behaviour dominant in the perlbench-like
    /// profile.
    Constant(u64),
    /// Produces `base + k * stride` on the `k`-th dynamic instance.
    ///
    /// Captured by the stride components of D-VTAGE, but (for a non-zero
    /// stride) never equal to an older in-flight result, so RSEP cannot
    /// capture it.
    Strided {
        /// First value produced.
        base: u64,
        /// Per-instance increment.
        stride: i64,
    },
    /// Repeats its own previous value with probability `p_repeat`,
    /// otherwise produces a fresh pseudo-random value.
    LastValue {
        /// Probability of repeating the previous value.
        p_repeat: f64,
    },
    /// Produces zero with probability `p_zero`, otherwise a pseudo-random
    /// value. Models the zero-heavy result streams of Figure 1
    /// (zeusmp, cactusADM, ...).
    Zero {
        /// Probability of producing zero.
        p_zero: f64,
    },
    /// Copies the most recent result of the static instruction located
    /// `back` static producers earlier in the program, with probability
    /// `p_match`; otherwise produces a fresh pseudo-random value.
    ///
    /// Inside steady-state loop execution the dynamic instruction distance
    /// between the copy and its source is constant, which is exactly the
    /// regularity the distance predictor (Section IV-C) learns. The value
    /// itself is whatever the source produced — typically unpredictable by
    /// value prediction — so this behaviour is what makes RSEP win where VP
    /// does not (mcf, dealII, hmmer, libquantum, omnetpp in the paper).
    CopyStatic {
        /// How many static producers earlier the source instruction is.
        back: usize,
        /// Probability that the copy actually matches.
        p_match: f64,
    },
    /// Fresh pseudo-random value every instance (unpredictable by both
    /// mechanisms).
    Random,
}

/// Control-flow behaviour of one static branch.
#[derive(Debug, Clone, PartialEq)]
pub enum BranchBehavior {
    /// Loop back-edge: taken `trip - 1` consecutive times, then not taken
    /// once. When `jitter` is non-zero the trip count varies uniformly in
    /// `trip ± jitter`, making the exit hard to predict.
    LoopBack {
        /// Nominal trip count.
        trip: u32,
        /// Uniform jitter applied to the trip count.
        jitter: u32,
    },
    /// Taken with fixed probability `p_taken`, independently per instance.
    /// `p_taken` near 0 or 1 is easy to predict; near 0.5 it is
    /// unpredictable and produces mispredictions.
    Biased {
        /// Probability of being taken.
        p_taken: f64,
    },
    /// Deterministic repeating pattern of the given period (e.g. T,T,N,T).
    /// Learnable by a history-based predictor such as TAGE.
    Pattern {
        /// Period of the repeating pattern.
        period: u32,
    },
    /// Always taken (unconditional).
    AlwaysTaken,
}

/// Memory address behaviour of one static load or store.
#[derive(Debug, Clone, PartialEq)]
pub enum MemBehavior {
    /// Sequential streaming access with the given stride in bytes over a
    /// region of `region_bytes`, wrapping around. Prefetcher-friendly.
    Streaming {
        /// Stride between consecutive accesses in bytes.
        stride: u64,
        /// Size of the streamed region in bytes.
        region_bytes: u64,
    },
    /// Uniformly random accesses within a working set of the given size.
    /// Miss rate is governed by how the working set compares to the cache
    /// hierarchy.
    RandomInSet {
        /// Working-set size in bytes.
        working_set_bytes: u64,
    },
    /// Pointer-chasing: every access lands in a (pseudo-random) location of
    /// a large working set and the *next* address depends on the loaded
    /// value, serialising the loads. Models mcf/omnetpp-style traversals.
    PointerChase {
        /// Working-set size in bytes.
        working_set_bytes: u64,
    },
    /// Repeated access to a small hot set (stack / globals); practically
    /// always hits in the L1.
    Hot {
        /// Number of distinct hot locations.
        footprint_bytes: u64,
    },
}

/// Runtime state accompanying a [`ValueBehavior`] during generation.
#[derive(Debug, Clone, Default)]
pub struct ValueState {
    /// Number of dynamic instances generated so far.
    pub instances: u64,
    /// Last value produced by this static instruction.
    pub last_value: u64,
}

/// Runtime state accompanying a [`BranchBehavior`] during generation.
#[derive(Debug, Clone, Default)]
pub struct BranchState {
    /// Iterations executed in the current loop activation.
    pub iter: u32,
    /// Trip count drawn for the current activation.
    pub current_trip: u32,
    /// Instances generated (for pattern behaviours).
    pub instances: u64,
}

/// Runtime state accompanying a [`MemBehavior`] during generation.
#[derive(Debug, Clone, Default)]
pub struct MemState {
    /// Next offset for streaming behaviours.
    pub offset: u64,
    /// Last address produced (pointer chasing).
    pub last_addr: u64,
}

impl ValueBehavior {
    /// Produces the next value for this behaviour.
    ///
    /// `copy_source` is the most recent value produced by the static
    /// instruction referenced by [`ValueBehavior::CopyStatic`], when there
    /// is one.
    pub fn next_value(
        &self,
        state: &mut ValueState,
        copy_source: Option<u64>,
        rng: &mut SmallRng,
    ) -> u64 {
        let value = match self {
            ValueBehavior::Constant(v) => *v,
            ValueBehavior::Strided { base, stride } => {
                (*base).wrapping_add_signed(stride.wrapping_mul(state.instances as i64))
            }
            ValueBehavior::LastValue { p_repeat } => {
                if state.instances > 0 && rng.gen_bool(*p_repeat) {
                    state.last_value
                } else {
                    rng.gen::<u64>() | 1
                }
            }
            ValueBehavior::Zero { p_zero } => {
                if rng.gen_bool(*p_zero) {
                    0
                } else {
                    rng.gen::<u64>() | 1
                }
            }
            ValueBehavior::CopyStatic { p_match, .. } => match copy_source {
                Some(src) if rng.gen_bool(*p_match) => src,
                _ => rng.gen::<u64>() | 1,
            },
            ValueBehavior::Random => rng.gen::<u64>(),
        };
        state.instances += 1;
        state.last_value = value;
        value
    }
}

impl BranchBehavior {
    /// Produces the next taken/not-taken outcome for this behaviour.
    pub fn next_outcome(&self, state: &mut BranchState, rng: &mut SmallRng) -> bool {
        state.instances += 1;
        match self {
            BranchBehavior::LoopBack { trip, jitter } => {
                if state.current_trip == 0 {
                    let jitter_draw = if *jitter > 0 {
                        rng.gen_range(0..=(*jitter * 2)) as i64 - *jitter as i64
                    } else {
                        0
                    };
                    state.current_trip = (*trip as i64 + jitter_draw).max(1) as u32;
                    state.iter = 0;
                }
                state.iter += 1;
                if state.iter >= state.current_trip {
                    state.current_trip = 0;
                    false
                } else {
                    true
                }
            }
            BranchBehavior::Biased { p_taken } => rng.gen_bool(*p_taken),
            BranchBehavior::Pattern { period } => {
                let period = (*period).max(2);
                // Taken everywhere except on the last position of the period.
                (state.instances - 1) % u64::from(period) != u64::from(period) - 1
            }
            BranchBehavior::AlwaysTaken => true,
        }
    }
}

impl MemBehavior {
    /// Produces the next effective address for this behaviour.
    ///
    /// `base` is the (per-static-instruction) base address of the region
    /// being accessed, `dep_value` is the value of the source register the
    /// address depends on (used by pointer chasing so that the address
    /// stream is serialised through the loaded values).
    pub fn next_addr(
        &self,
        state: &mut MemState,
        base: u64,
        dep_value: u64,
        rng: &mut SmallRng,
    ) -> u64 {
        match self {
            MemBehavior::Streaming { stride, region_bytes } => {
                let addr = base + state.offset;
                state.offset = (state.offset + stride) % (*region_bytes).max(*stride);
                addr
            }
            MemBehavior::RandomInSet { working_set_bytes } => {
                let span = (*working_set_bytes).max(64);
                base + (rng.gen::<u64>() % (span / 8)) * 8
            }
            MemBehavior::PointerChase { working_set_bytes } => {
                let span = (*working_set_bytes).max(64);
                // Mix the dependent value in so that the address genuinely
                // depends on the previous load's result.
                let mix = dep_value
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(state.last_addr.rotate_left(17));
                let addr = base + (mix % (span / 8)) * 8;
                state.last_addr = addr;
                addr
            }
            MemBehavior::Hot { footprint_bytes } => {
                let span = (*footprint_bytes).max(64);
                base + (rng.gen::<u64>() % (span / 8)) * 8
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn constant_behaviour_is_constant() {
        let b = ValueBehavior::Constant(42);
        let mut st = ValueState::default();
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(b.next_value(&mut st, None, &mut r), 42);
        }
    }

    #[test]
    fn strided_behaviour_increments() {
        let b = ValueBehavior::Strided { base: 100, stride: 8 };
        let mut st = ValueState::default();
        let mut r = rng();
        let vals: Vec<u64> = (0..5).map(|_| b.next_value(&mut st, None, &mut r)).collect();
        assert_eq!(vals, vec![100, 108, 116, 124, 132]);
    }

    #[test]
    fn zero_behaviour_respects_probability() {
        let b = ValueBehavior::Zero { p_zero: 0.5 };
        let mut st = ValueState::default();
        let mut r = rng();
        let zeros = (0..10_000).filter(|_| b.next_value(&mut st, None, &mut r) == 0).count();
        assert!((4_000..6_000).contains(&zeros), "zeros = {zeros}");
    }

    #[test]
    fn copy_static_copies_the_source() {
        let b = ValueBehavior::CopyStatic { back: 3, p_match: 1.0 };
        let mut st = ValueState::default();
        let mut r = rng();
        assert_eq!(b.next_value(&mut st, Some(0xabcd), &mut r), 0xabcd);
    }

    #[test]
    fn copy_static_without_source_is_random_nonzero() {
        let b = ValueBehavior::CopyStatic { back: 3, p_match: 1.0 };
        let mut st = ValueState::default();
        let mut r = rng();
        assert_ne!(b.next_value(&mut st, None, &mut r), 0);
    }

    #[test]
    fn last_value_repeats() {
        let b = ValueBehavior::LastValue { p_repeat: 1.0 };
        let mut st = ValueState::default();
        let mut r = rng();
        let first = b.next_value(&mut st, None, &mut r);
        for _ in 0..5 {
            assert_eq!(b.next_value(&mut st, None, &mut r), first);
        }
    }

    #[test]
    fn loopback_branch_exits_after_trip() {
        let b = BranchBehavior::LoopBack { trip: 4, jitter: 0 };
        let mut st = BranchState::default();
        let mut r = rng();
        let outcomes: Vec<bool> = (0..8).map(|_| b.next_outcome(&mut st, &mut r)).collect();
        assert_eq!(outcomes, vec![true, true, true, false, true, true, true, false]);
    }

    #[test]
    fn pattern_branch_is_periodic() {
        let b = BranchBehavior::Pattern { period: 3 };
        let mut st = BranchState::default();
        let mut r = rng();
        let outcomes: Vec<bool> = (0..6).map(|_| b.next_outcome(&mut st, &mut r)).collect();
        assert_eq!(outcomes, vec![true, true, false, true, true, false]);
    }

    #[test]
    fn always_taken() {
        let b = BranchBehavior::AlwaysTaken;
        let mut st = BranchState::default();
        let mut r = rng();
        assert!((0..10).all(|_| b.next_outcome(&mut st, &mut r)));
    }

    #[test]
    fn biased_branch_statistics() {
        let b = BranchBehavior::Biased { p_taken: 0.9 };
        let mut st = BranchState::default();
        let mut r = rng();
        let taken = (0..10_000).filter(|_| b.next_outcome(&mut st, &mut r)).count();
        assert!((8_500..9_500).contains(&taken), "taken = {taken}");
    }

    #[test]
    fn streaming_addresses_advance_by_stride() {
        let b = MemBehavior::Streaming { stride: 64, region_bytes: 4096 };
        let mut st = MemState::default();
        let mut r = rng();
        let a0 = b.next_addr(&mut st, 0x1000, 0, &mut r);
        let a1 = b.next_addr(&mut st, 0x1000, 0, &mut r);
        assert_eq!(a1 - a0, 64);
    }

    #[test]
    fn streaming_addresses_wrap() {
        let b = MemBehavior::Streaming { stride: 64, region_bytes: 128 };
        let mut st = MemState::default();
        let mut r = rng();
        let addrs: Vec<u64> = (0..4).map(|_| b.next_addr(&mut st, 0, 0, &mut r)).collect();
        assert_eq!(addrs, vec![0, 64, 0, 64]);
    }

    #[test]
    fn random_in_set_stays_in_working_set() {
        let b = MemBehavior::RandomInSet { working_set_bytes: 1 << 20 };
        let mut st = MemState::default();
        let mut r = rng();
        for _ in 0..1000 {
            let a = b.next_addr(&mut st, 0x10_0000, 0, &mut r);
            assert!((0x10_0000..0x10_0000 + (1 << 20)).contains(&a));
        }
    }

    #[test]
    fn pointer_chase_depends_on_value() {
        let b = MemBehavior::PointerChase { working_set_bytes: 1 << 24 };
        let mut st1 = MemState::default();
        let mut st2 = MemState::default();
        let mut r1 = rng();
        let mut r2 = rng();
        let a = b.next_addr(&mut st1, 0, 1, &mut r1);
        let b2 = b.next_addr(&mut st2, 0, 2, &mut r2);
        assert_ne!(a, b2);
    }
}
