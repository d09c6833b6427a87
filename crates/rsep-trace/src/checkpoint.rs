//! Checkpoint sampling.
//!
//! The paper's methodology (Section V) simulates ten uniformly-spaced
//! checkpoints per benchmark; each checkpoint warms the processor structures
//! for 50M instructions and then collects statistics over 100M instructions,
//! and the per-benchmark IPC is the harmonic mean over the ten checkpoints.
//!
//! [`CheckpointSpec`] captures those three numbers, scaled down so a full
//! campaign stays laptop-sized. Each checkpoint runs its own sub-seeded
//! [`TraceGenerator`](crate::TraceGenerator) stream (`rsep-core`'s
//! `checkpoint_seed`), modelling the uniform spacing as distinct program
//! regions.

/// Checkpoint sampling specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Number of checkpoints per benchmark.
    pub count: usize,
    /// Instructions used to warm predictors/caches before measuring.
    pub warmup: u64,
    /// Instructions measured per checkpoint.
    pub measure: u64,
    /// Instructions between checkpoints. Always 0: each checkpoint is its
    /// own sub-seeded stream, so nothing is skipped. Kept because cell keys
    /// and the pinned fingerprints hash it.
    pub spacing: u64,
}

impl CheckpointSpec {
    /// The paper's methodology: 10 checkpoints × (50M warm-up + 100M
    /// measured). Far too slow to run here directly; use
    /// [`CheckpointSpec::scaled`] for actual campaigns.
    pub fn paper() -> CheckpointSpec {
        CheckpointSpec { count: 10, warmup: 50_000_000, measure: 100_000_000, spacing: 0 }
    }

    /// A scaled-down methodology preserving the structure (multiple
    /// checkpoints, warm-up before measurement) at a given measurement size.
    pub fn scaled(count: usize, warmup: u64, measure: u64) -> CheckpointSpec {
        CheckpointSpec { count: count.max(1), warmup, measure, spacing: 0 }
    }

    /// Total number of instructions a full checkpointed run generates.
    pub fn total_instructions(&self) -> u64 {
        self.count as u64 * (self.warmup + self.measure + self.spacing)
    }
}

impl rsep_isa::Fingerprint for CheckpointSpec {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self { count, warmup, measure, spacing } = self;
        h.write_str("CheckpointSpec");
        count.fingerprint(h);
        warmup.fingerprint(h);
        measure.fingerprint(h);
        spacing.fingerprint(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_matches_section_v() {
        let spec = CheckpointSpec::paper();
        assert_eq!(spec.count, 10);
        assert_eq!(spec.warmup, 50_000_000);
        assert_eq!(spec.measure, 100_000_000);
        assert_eq!(spec.total_instructions(), 10 * 150_000_000);
    }

    #[test]
    fn checkpoints_have_requested_sizes() {
        let spec = CheckpointSpec::scaled(3, 500, 1_500);
        assert_eq!((spec.count, spec.warmup, spec.measure, spec.spacing), (3, 500, 1_500, 0));
        assert_eq!(spec.total_instructions(), 3 * 2_000);
    }

    #[test]
    fn scaled_spec_clamps_count() {
        let spec = CheckpointSpec::scaled(0, 10, 20);
        assert_eq!(spec.count, 1);
    }
}
