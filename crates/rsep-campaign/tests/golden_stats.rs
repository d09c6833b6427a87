//! Golden-stats guard for the simulator-internals rewrites: every figure
//! campaign of the paper runs at smoke scale, plus a Figure 7 grid at the
//! scale where RSEP makes distance predictions.
//!
//! The comparing happens inside the core. In a debug build, every issue
//! cycle checks the event-driven select against a rescan of the whole ROB
//! (the select of the retired polling scheduler), and every span of
//! quiescent cycles the core skips is stepped as well, and the stepped
//! counters must equal the bulk charge. A divergence panics the cell, so
//! each arm here is one run that must finish with no failed cell; "bit
//! identical across schedulers" means the two selects and the skip and
//! the step agreed on every cycle of it. (The batched-vs-sequential-probe
//! front-end arms retired with `FrontendKind` once the block-probe
//! equivalence proofs landed; `tests/block_probe_oracle.rs` still pins
//! the batched schedule against the per-branch protocol.)
//!
//! This is the end-to-end complement to the unit- and property-level
//! tests: it drives the real campaign engine over the real figure presets.
//! The Figure 4 and Figure 7 smoke grids are not repeated here:
//! `golden_expected.rs` runs exactly those campaigns (same presets,
//! `.smoke()`, four workers, no failed cell allowed) and pins their
//! results, so together the two suites cover every mechanism grid of the
//! evaluation once. Figure 1 is trace-level redundancy analysis (no core),
//! so its guard is determinism of the analysis itself.

use rsep_campaign::{presets, Campaign, CampaignResult, CampaignSpec};
use rsep_trace::CheckpointSpec;

/// Runs `spec` on four workers under the core's debug-build checks and
/// asserts that every cell finished.
fn run_checked(name: &str, spec: CampaignSpec) -> CampaignResult {
    let result = Campaign::with_jobs(4).run(&spec);
    assert!(!result.rows.is_empty(), "{name}: empty grid");
    assert_eq!(result.failures(), [], "{name}: unexpected failed cells");
    result
}

#[test]
fn figure5_smoke_is_bit_identical_across_schedulers() {
    run_checked("fig5", presets::fig5().smoke());
}

#[test]
fn figure6_smoke_is_bit_identical_across_schedulers() {
    run_checked("fig6", presets::fig6().smoke());
}

/// Where the mechanisms fire: this arm checks the select and the skip with
/// distance predictions, validations and their squashes in play. 15K
/// warm-up is the smallest (of 2K, 5K, 10K, 15K) at which both RSEP
/// mechanisms make distance predictions here.
#[test]
fn figure7_grid_where_rsep_predicts_is_bit_identical_across_schedulers() {
    let spec = presets::fig7()
        .with_benchmark_filter("libquantum,mcf")
        .with_checkpoints(CheckpointSpec::scaled(1, 15_000, 10_000))
        .with_seed(42);
    let result = run_checked("fig7 (15K + 10K)", spec);
    for mechanism in ["rsep-ideal", "rsep-realistic"] {
        let dist_pred: u64 = result
            .rows
            .iter()
            .flat_map(|row| &row.results)
            .filter(|result| result.mechanism == mechanism)
            .map(|result| result.stats.coverage.dist_pred)
            .sum();
        assert!(dist_pred > 0, "{mechanism} makes no distance prediction in this grid");
    }
}

#[test]
fn figure1_smoke_redundancy_analysis_is_deterministic() {
    let spec = presets::fig1().smoke();
    let (a, _) = Campaign::with_jobs(1).run_redundancy(&spec);
    let (b, _) = Campaign::with_jobs(4).run_redundancy(&spec);
    assert_eq!(a.to_json(), b.to_json());
}
