//! Benchmark runner: profiles × mechanism configurations × checkpoints.
//!
//! This is the experiment methodology of Section V packaged as functions:
//! for one benchmark profile and one mechanism configuration, simulate the
//! requested checkpoints (warm-up then measurement), and report the
//! harmonic-mean IPC together with the merged coverage and accuracy
//! statistics. Speedups (Figures 4, 6, 7) are then ratios of these IPCs
//! against the baseline configuration.
//!
//! Checkpoints are **independent**: checkpoint `i` simulates a fresh trace
//! seeded with [`checkpoint_seed`]`(seed, i)`, modelling the paper's
//! uniformly spaced checkpoints as distinct program regions. This is what
//! lets the `rsep-campaign` engine schedule individual
//! `(profile, mechanism, checkpoint)` cells across worker threads —
//! [`run_checkpoint`] — and then reassemble bit-identical
//! [`BenchmarkResult`]s at any thread count via
//! [`BenchmarkResult::from_checkpoints`].

use crate::config::MechanismConfig;
use crate::engine::RsepEngine;
use rsep_isa::DynInst;
use rsep_trace::{BenchmarkProfile, CheckpointSpec, TraceGenerator};
use rsep_uarch::{Core, CoreConfig, SimStats};

/// Result of running one benchmark under one mechanism configuration.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Mechanism label.
    pub mechanism: String,
    /// Harmonic mean of the per-checkpoint IPCs (Section V).
    pub ipc: f64,
    /// Per-checkpoint IPCs.
    pub checkpoint_ipcs: Vec<f64>,
    /// Statistics merged over all checkpoints.
    pub stats: SimStats,
    /// Rendered errors of checkpoints whose simulation failed (wedged
    /// cells), in checkpoint order. Their IPC contributions are zero.
    pub failures: Vec<String>,
}

impl BenchmarkResult {
    /// Assembles a benchmark result from independently executed checkpoint
    /// cells. Checkpoints are sorted by index first, so the result is
    /// identical no matter in which order (or on which thread) the cells
    /// were executed.
    pub fn from_checkpoints(
        benchmark: impl Into<String>,
        mechanism: impl Into<String>,
        mut checkpoints: Vec<CheckpointResult>,
    ) -> BenchmarkResult {
        checkpoints.sort_by_key(|c| c.index);
        let mut merged = SimStats::default();
        let mut ipcs = Vec::with_capacity(checkpoints.len());
        let mut ok_ipcs = Vec::with_capacity(checkpoints.len());
        let mut failures = Vec::new();
        for c in &checkpoints {
            ipcs.push(c.ipc);
            merged.merge(&c.stats);
            match &c.error {
                Some(error) => failures.push(format!("checkpoint {}: {error}", c.index)),
                None => ok_ipcs.push(c.ipc),
            }
        }
        BenchmarkResult {
            benchmark: benchmark.into(),
            mechanism: mechanism.into(),
            // Failed checkpoints are excluded from the mean entirely: a
            // 0.0 entry would otherwise *raise* the harmonic mean (its
            // reciprocal is skipped but it still counts in the divisor),
            // overstating exactly the configurations that wedge.
            ipc: harmonic_mean(&ok_ipcs),
            checkpoint_ipcs: ipcs,
            stats: merged,
            failures,
        }
    }
}

/// Result of simulating a single checkpoint cell.
#[derive(Debug, Clone)]
pub struct CheckpointResult {
    /// Checkpoint index within its benchmark run (0-based).
    pub index: usize,
    /// IPC over the measured window.
    pub ipc: f64,
    /// Statistics of the measured window.
    pub stats: SimStats,
    /// Set when the cell's simulation failed: the rendered
    /// [`SimError`](rsep_uarch::SimError) (e.g. a wedged pipeline) or the
    /// error of the trace source that ended the cell's stream early. A
    /// failed cell carries empty statistics and zero IPC; campaign runners
    /// record it in the result store and keep going instead of aborting
    /// the whole process.
    pub error: Option<String>,
}

impl CheckpointResult {
    /// A successfully simulated cell.
    pub fn ok(index: usize, stats: SimStats) -> CheckpointResult {
        CheckpointResult { index, ipc: stats.ipc(), stats, error: None }
    }

    /// A cell whose simulation failed with `error`: a
    /// [`SimError`](rsep_uarch::SimError) or a trace source's error.
    pub fn failed(index: usize, error: &impl std::fmt::Display) -> CheckpointResult {
        CheckpointResult {
            index,
            ipc: 0.0,
            stats: SimStats::default(),
            error: Some(error.to_string()),
        }
    }

    /// Returns `true` when the cell simulated successfully.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Derives the trace seed of checkpoint `index` from the campaign seed.
///
/// The golden-ratio multiply decorrelates neighbouring campaign seeds before
/// the checkpoint offset is added, so checkpoint `i` of seed `s` never
/// collides with checkpoint `i + 1` of seed `s` or checkpoint `i` of
/// `s + 1` in practice.
pub fn checkpoint_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index as u64)
}

/// Simulates one `(profile, mechanism, checkpoint)` cell: a fresh core
/// (cold structures) over a fresh sub-seeded trace, warmed for
/// `spec.warmup` instructions before `spec.measure` instructions are
/// measured.
///
/// The cell is a pure function of its arguments, which is what makes
/// campaign execution embarrassingly parallel.
pub fn run_checkpoint(
    profile: &BenchmarkProfile,
    mechanism: &MechanismConfig,
    core_config: &CoreConfig,
    spec: CheckpointSpec,
    seed: u64,
    index: usize,
) -> CheckpointResult {
    let mut trace = TraceGenerator::new(profile, checkpoint_seed(seed, index));
    run_checkpoint_on(&mut trace, mechanism, core_config, spec, index)
}

/// Simulates one checkpoint cell over an already-constructed instruction
/// stream — the warm-up/reset/measure protocol of [`run_checkpoint`]
/// without the generator construction, so the same cell can be driven
/// from a live [`TraceGenerator`] or a recorded trace file
/// (`rsep trace replay`). Feeding the identical stream produces
/// bit-identical results by construction.
pub fn run_checkpoint_on(
    trace: &mut impl Iterator<Item = DynInst>,
    mechanism: &MechanismConfig,
    core_config: &CoreConfig,
    spec: CheckpointSpec,
    index: usize,
) -> CheckpointResult {
    // By-value engine: the cell runs on `Core<RsepEngine>`, so every
    // per-branch / per-instruction engine hook is statically dispatched
    // and inlined into the pipeline loop.
    let engine = RsepEngine::new(mechanism.clone());
    let mut core = Core::new(core_config.clone(), engine);
    if let Err(e) = core.run(trace, spec.warmup) {
        return CheckpointResult::failed(index, &e);
    }
    core.reset_stats();
    // Register conservation is checked once per cell (debug builds also
    // check it inside the core).
    if let Err(e) = core.run(trace, spec.measure).and_then(|_| core.validate_invariants()) {
        return CheckpointResult::failed(index, &e);
    }
    let stats = core.take_stats();
    CheckpointResult::ok(index, stats)
}

/// Harmonic mean of a slice of positive numbers.
fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().map(|v| if *v > 0.0 { 1.0 / v } else { 0.0 }).sum();
    if sum == 0.0 {
        0.0
    } else {
        values.len() as f64 / sum
    }
}

/// Runs one benchmark profile under one mechanism configuration.
///
/// Each checkpoint is an independent [`run_checkpoint`] cell (fresh core,
/// fresh sub-seeded trace), mirroring the paper's methodology at a
/// configurable scale; results are identical to executing the same cells in
/// parallel and reassembling them with
/// [`BenchmarkResult::from_checkpoints`].
pub fn run_benchmark(
    profile: &BenchmarkProfile,
    mechanism: &MechanismConfig,
    core_config: &CoreConfig,
    spec: CheckpointSpec,
    seed: u64,
) -> BenchmarkResult {
    let checkpoints = (0..spec.count)
        .map(|index| run_checkpoint(profile, mechanism, core_config, spec, seed, index))
        .collect();
    BenchmarkResult::from_checkpoints(profile.name, mechanism.label.clone(), checkpoints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsep_uarch::SimError;

    fn quick_spec() -> CheckpointSpec {
        CheckpointSpec::scaled(2, 1_000, 4_000)
    }

    #[test]
    fn checkpoint_seeds_are_distinct_and_deterministic() {
        assert_eq!(checkpoint_seed(42, 3), checkpoint_seed(42, 3));
        let seeds: Vec<u64> = (0..16).map(|i| checkpoint_seed(42, i)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(checkpoint_seed(1, 0), checkpoint_seed(2, 0));
    }

    #[test]
    fn cellwise_assembly_matches_the_serial_run() {
        let profile = BenchmarkProfile::by_name("mcf").unwrap();
        let mechanism = MechanismConfig::rsep_ideal();
        let config = CoreConfig::small_test();
        let spec = quick_spec();
        let serial = run_benchmark(&profile, &mechanism, &config, spec, 11);
        // Execute the same cells out of order and reassemble.
        let cells: Vec<CheckpointResult> = (0..spec.count)
            .rev()
            .map(|i| run_checkpoint(&profile, &mechanism, &config, spec, 11, i))
            .collect();
        let assembled =
            BenchmarkResult::from_checkpoints(profile.name, mechanism.label.clone(), cells);
        assert_eq!(serial.checkpoint_ipcs, assembled.checkpoint_ipcs);
        assert_eq!(serial.ipc.to_bits(), assembled.ipc.to_bits());
        assert_eq!(serial.stats, assembled.stats);
    }

    #[test]
    fn failed_checkpoints_do_not_inflate_the_harmonic_mean() {
        let ok = CheckpointResult::ok(
            0,
            SimStats { cycles: 1_000, committed: 2_000, ..SimStats::default() },
        );
        let failed = CheckpointResult::failed(
            1,
            &SimError::Deadlock {
                cycle: 100_000,
                last_commit_cycle: 0,
                rob_len: 0,
                iq_len: 0,
                engine: "test".into(),
            },
        );
        let result = BenchmarkResult::from_checkpoints("b", "m", vec![ok, failed]);
        // The surviving checkpoint's IPC, not 2× it (a 0.0 entry counted in
        // the divisor would report 2 / 0.5 = 4.0).
        assert!((result.ipc - 2.0).abs() < 1e-12, "ipc = {}", result.ipc);
        assert_eq!(result.checkpoint_ipcs, vec![2.0, 0.0]);
        assert_eq!(result.failures.len(), 1);
        assert!(result.failures[0].contains("pipeline deadlock"));
    }

    #[test]
    fn harmonic_mean_basics() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_run_produces_sane_ipc() {
        let profile = BenchmarkProfile::by_name("gcc").unwrap();
        let result = run_benchmark(
            &profile,
            &MechanismConfig::baseline(),
            &CoreConfig::small_test(),
            quick_spec(),
            3,
        );
        assert_eq!(result.checkpoint_ipcs.len(), 2);
        // The core may commit a few extra instructions past the target in
        // its final commit group.
        assert!(result.stats.committed >= 8_000 && result.stats.committed < 8_020);
        assert!(result.ipc > 0.1 && result.ipc < 8.0, "ipc = {}", result.ipc);
        assert_eq!(result.mechanism, "baseline");
        assert_eq!(result.benchmark, "gcc");
    }

    #[test]
    fn rsep_runs_and_reports_coverage_on_a_redundant_profile() {
        let profile = BenchmarkProfile::by_name("libquantum").unwrap();
        let spec = CheckpointSpec::scaled(1, 8_000, 15_000);
        let result = run_benchmark(
            &profile,
            &MechanismConfig::rsep_ideal(),
            &CoreConfig::small_test(),
            spec,
            3,
        );
        assert!(result.stats.coverage.total_dist_pred() > 0, "no distance predictions at all");
        assert!(
            result.stats.prediction_accuracy() > 0.95,
            "accuracy = {}",
            result.stats.prediction_accuracy()
        );
    }
}
