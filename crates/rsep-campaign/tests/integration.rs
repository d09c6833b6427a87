//! End-to-end integration tests across the workspace crates: trace
//! generation -> cycle-level simulation -> RSEP/VP mechanisms -> statistics.

use rsep_core::{run_benchmark, MechanismConfig, RedundancyAnalyzer, RedundancyConfig, RsepConfig};
use rsep_stats::harmonic_mean;
use rsep_trace::{BenchmarkProfile, CheckpointSpec, TraceGenerator};
use rsep_uarch::{Core, CoreConfig};

fn quick_spec() -> CheckpointSpec {
    CheckpointSpec::scaled(1, 2_000, 6_000)
}

#[test]
fn baseline_simulation_commits_the_requested_instructions() {
    let profile = BenchmarkProfile::by_name("gcc").unwrap();
    let result = run_benchmark(
        &profile,
        &MechanismConfig::baseline(),
        &CoreConfig::small_test(),
        quick_spec(),
        1,
    );
    assert!(result.stats.committed >= 6_000);
    assert!(result.ipc > 0.2 && result.ipc < 8.0, "ipc = {}", result.ipc);
}

#[test]
fn all_mechanisms_run_on_every_profile_class() {
    // One integer, one FP, one pointer-chasing profile, under every
    // Figure 4 mechanism: nothing panics and IPCs stay sane.
    for name in ["sjeng", "lbm", "omnetpp"] {
        let profile = BenchmarkProfile::by_name(name).unwrap();
        for mechanism in MechanismConfig::figure4_suite() {
            let result =
                run_benchmark(&profile, &mechanism, &CoreConfig::small_test(), quick_spec(), 3);
            assert!(
                result.ipc > 0.05 && result.ipc < 8.0,
                "{name}/{}: ipc {}",
                result.mechanism,
                result.ipc
            );
        }
    }
}

#[test]
fn rsep_covers_instructions_on_redundant_profiles() {
    let profile = BenchmarkProfile::by_name("libquantum").unwrap();
    let spec = CheckpointSpec::scaled(1, 30_000, 20_000);
    let result =
        run_benchmark(&profile, &MechanismConfig::rsep_ideal(), &CoreConfig::small_test(), spec, 5);
    assert!(
        result.stats.coverage.total_dist_pred() > 100,
        "expected distance-predicted instructions, got {}",
        result.stats.coverage.total_dist_pred()
    );
}

#[test]
fn value_prediction_covers_instructions_on_predictable_profiles() {
    // libquantum's small loop body gives each static instruction enough
    // dynamic instances to saturate the probabilistic confidence counters
    // within a short run.
    let profile = BenchmarkProfile::by_name("libquantum").unwrap();
    let spec = CheckpointSpec::scaled(1, 30_000, 20_000);
    let result =
        run_benchmark(&profile, &MechanismConfig::value_pred(), &CoreConfig::small_test(), spec, 5);
    assert!(
        result.stats.coverage.total_value_pred() > 50,
        "expected value-predicted instructions, got {}",
        result.stats.coverage.total_value_pred()
    );
}

#[test]
fn move_elimination_covers_moves_without_squashes() {
    let profile = BenchmarkProfile::by_name("xalancbmk").unwrap();
    let result = run_benchmark(
        &profile,
        &MechanismConfig::move_elim(),
        &CoreConfig::small_test(),
        quick_spec(),
        5,
    );
    assert!(result.stats.coverage.move_elim > 0);
    assert_eq!(result.stats.prediction_squashes, 0, "move elimination is non-speculative");
}

#[test]
fn figure1_analysis_runs_on_the_whole_suite() {
    for profile in BenchmarkProfile::spec2006() {
        let trace = TraceGenerator::new(&profile, 2).take(10_000);
        let report = RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace);
        assert_eq!(report.committed, 10_000, "{}", profile.name);
        assert!(report.total_fraction() <= 1.0);
    }
}

#[test]
fn storage_budget_matches_the_paper() {
    assert!((RsepConfig::realistic().storage_kb() - 10.8).abs() < 1.0);
    assert!((RsepConfig::ideal().predictor.storage_kb() - 42.6).abs() < 1.0);
}

#[test]
fn harmonic_mean_is_used_for_checkpoint_aggregation() {
    let profile = BenchmarkProfile::by_name("namd").unwrap();
    let spec = CheckpointSpec::scaled(3, 1_000, 3_000);
    let result =
        run_benchmark(&profile, &MechanismConfig::baseline(), &CoreConfig::small_test(), spec, 9);
    assert_eq!(result.checkpoint_ipcs.len(), 3);
    let expected = harmonic_mean(&result.checkpoint_ipcs);
    assert!((result.ipc - expected).abs() < 1e-9);
}

#[test]
fn core_can_be_driven_directly_with_a_custom_engine() {
    use rsep_core::RsepEngine;
    let profile = BenchmarkProfile::by_name("hmmer").unwrap();
    let mut trace = TraceGenerator::new(&profile, 11);
    let engine = RsepEngine::new(MechanismConfig::rsep_realistic());
    let mut core = Core::new(CoreConfig::small_test(), engine);
    core.run(&mut trace, 10_000).expect("simulation must not wedge");
    let stats = core.take_stats();
    assert!(stats.committed >= 10_000);
    assert!(stats.cycles > 0);
    assert!(!stats.cache.is_empty());
}
