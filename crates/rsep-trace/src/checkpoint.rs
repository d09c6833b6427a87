//! Checkpointed trace execution.
//!
//! The paper's methodology (Section V) simulates ten uniformly-spaced
//! checkpoints per benchmark; each checkpoint warms the processor structures
//! for 50M instructions and then collects statistics over 100M instructions,
//! and the per-benchmark IPC is the harmonic mean over the ten checkpoints.
//!
//! [`CheckpointSpec`] captures those three numbers (scaled down by the
//! experiment harness so a full campaign stays laptop-sized), and
//! [`CheckpointedTrace`] slices a [`TraceGenerator`] accordingly.

use crate::generator::TraceGenerator;
use crate::profile::BenchmarkProfile;
use rsep_isa::DynInst;

/// Checkpoint sampling specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Number of checkpoints per benchmark.
    pub count: usize,
    /// Instructions used to warm predictors/caches before measuring.
    pub warmup: u64,
    /// Instructions measured per checkpoint.
    pub measure: u64,
    /// Instructions skipped between checkpoints (models the uniform spacing
    /// of the paper's checkpoints over the full run).
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

    /// Default scale used by the experiment harness when no override is
    /// given: 3 checkpoints × (5K warm-up + 30K measured).
    pub fn default_scale() -> CheckpointSpec {
        CheckpointSpec::scaled(3, 5_000, 30_000)
    }

    /// Total number of instructions a full checkpointed run generates.
    pub fn total_instructions(&self) -> u64 {
        self.count as u64 * (self.warmup + self.measure + self.spacing)
    }
}

impl Default for CheckpointSpec {
    fn default() -> Self {
        CheckpointSpec::default_scale()
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

/// One measured checkpoint: the warm-up stream and the measured stream.
#[derive(Debug)]
// lint: exempt(dead-pub-api, element type of CheckpointedTrace's pub checkpoints; reached through it)
pub struct Checkpoint {
    /// Checkpoint index (0-based).
    pub index: usize,
    /// Instructions to run for warm-up (statistics should be discarded).
    pub warmup: Vec<DynInst>,
    /// Instructions to measure.
    pub measured: Vec<DynInst>,
}

/// Iterator over the checkpoints of one benchmark run.
#[derive(Debug)]
pub struct CheckpointedTrace {
    generator: TraceGenerator,
    spec: CheckpointSpec,
    next_index: usize,
}

impl CheckpointedTrace {
    /// Creates a checkpointed trace for a profile.
    pub fn new(profile: &BenchmarkProfile, seed: u64, spec: CheckpointSpec) -> CheckpointedTrace {
        CheckpointedTrace { generator: TraceGenerator::new(profile, seed), spec, next_index: 0 }
    }

    /// The checkpoint specification in use.
    pub fn spec(&self) -> CheckpointSpec {
        self.spec
    }
}

impl Iterator for CheckpointedTrace {
    type Item = Checkpoint;

    fn next(&mut self) -> Option<Checkpoint> {
        if self.next_index >= self.spec.count {
            return None;
        }
        let index = self.next_index;
        self.next_index += 1;
        if self.spec.spacing > 0 {
            self.generator.skip_instructions(self.spec.spacing);
        }
        let warmup: Vec<DynInst> =
            self.generator.by_ref().take(self.spec.warmup as usize).collect();
        let measured: Vec<DynInst> =
            self.generator.by_ref().take(self.spec.measure as usize).collect();
        Some(Checkpoint { index, warmup, measured })
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
    fn scaled_spec_clamps_count() {
        let spec = CheckpointSpec::scaled(0, 10, 20);
        assert_eq!(spec.count, 1);
    }

    #[test]
    fn checkpoints_have_requested_sizes() {
        let profile = BenchmarkProfile::by_name("gcc").unwrap();
        let spec = CheckpointSpec::scaled(3, 500, 1_500);
        let checkpoints: Vec<_> = CheckpointedTrace::new(&profile, 9, spec).collect();
        assert_eq!(checkpoints.len(), 3);
        for (i, cp) in checkpoints.iter().enumerate() {
            assert_eq!(cp.index, i);
            assert_eq!(cp.warmup.len(), 500);
            assert_eq!(cp.measured.len(), 1_500);
        }
    }

    #[test]
    fn checkpoints_are_contiguous_in_sequence_numbers() {
        let profile = BenchmarkProfile::by_name("gcc").unwrap();
        let spec = CheckpointSpec::scaled(2, 100, 200);
        let checkpoints: Vec<_> = CheckpointedTrace::new(&profile, 9, spec).collect();
        let first_measured = checkpoints[0].measured.first().unwrap().seq;
        let last_warm = checkpoints[0].warmup.last().unwrap().seq;
        assert_eq!(first_measured, last_warm + 1);
        let second_start = checkpoints[1].warmup.first().unwrap().seq;
        let first_end = checkpoints[0].measured.last().unwrap().seq;
        assert_eq!(second_start, first_end + 1);
    }

    #[test]
    fn default_spec_is_small_enough_for_tests() {
        let spec = CheckpointSpec::default();
        assert!(spec.total_instructions() < 1_000_000);
    }
}
