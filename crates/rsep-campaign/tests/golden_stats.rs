//! Golden-stats guard for the simulator-internals rewrites: every figure
//! campaign of the paper, at smoke scale, must produce **bit-identical**
//! results under the event-driven scheduler and the retained polling
//! oracle ([`SchedulerKind`]). The event-driven side also skips
//! quiescent cycles while polling steps every cycle, so the same arms pin
//! the skip; one more arm runs a Figure 7 grid at the scale where RSEP
//! makes distance predictions. (The batched-vs-sequential-probe
//! front-end arms retired with `FrontendKind` once the block-probe
//! equivalence proofs landed; `tests/block_probe_oracle.rs` still pins
//! the batched schedule against the per-branch protocol.)
//!
//! This is the end-to-end complement to the unit- and property-level
//! equivalence tests: it drives the real campaign engine over the real
//! figure presets (Figures 4, 5, 6, 7 — every mechanism grid of the
//! evaluation) and compares the merged per-benchmark `SimStats`,
//! per-checkpoint IPC bit patterns and derived speedup experiments.
//! Figure 1 is trace-level redundancy analysis (no core), so its guard is
//! determinism of the analysis itself.

use rsep_campaign::{presets, Campaign, CampaignResult, CampaignSpec};
use rsep_trace::CheckpointSpec;
use rsep_uarch::SchedulerKind;

fn with_scheduler(mut spec: CampaignSpec, scheduler: SchedulerKind) -> CampaignSpec {
    spec.core_config.scheduler = scheduler;
    spec
}

/// Runs both specs, asserts their results are identical and returns the
/// second one's.
fn assert_campaigns_identical(
    name: &str,
    what: &str,
    a: CampaignSpec,
    b: CampaignSpec,
) -> CampaignResult {
    let engine = Campaign::with_jobs(4);
    let left = engine.run(&a);
    let right = engine.run(&b);
    assert_eq!(left.rows.len(), right.rows.len());
    for (l_row, r_row) in left.rows.iter().zip(&right.rows) {
        assert_eq!(l_row.benchmark, r_row.benchmark);
        let pairs = l_row
            .baseline
            .iter()
            .zip(&r_row.baseline)
            .chain(l_row.results.iter().zip(&r_row.results));
        for (l, r) in pairs {
            assert_eq!(
                l.stats, r.stats,
                "{name}/{}/{}: SimStats diverge between {what}",
                l_row.benchmark, l.mechanism
            );
            let l_bits: Vec<u64> = l.checkpoint_ipcs.iter().map(|v| v.to_bits()).collect();
            let r_bits: Vec<u64> = r.checkpoint_ipcs.iter().map(|v| v.to_bits()).collect();
            assert_eq!(l_bits, r_bits, "{name}/{}/{}: IPCs diverge", l_row.benchmark, l.mechanism);
            assert!(l.failures.is_empty(), "{name}: unexpected failed cells: {:?}", l.failures);
        }
    }
    // The derived reports (what the figures actually plot) agree too.
    let left_json = left.speedups().to_json();
    let right_json = right.speedups().to_json();
    assert_eq!(left_json, right_json, "{name}: speedup reports diverge between {what}");
    right
}

/// Asserts that `spec` runs identically under both schedulers; returns the
/// polling (every cycle stepped) result.
fn assert_campaign_identical(name: &str, spec: CampaignSpec) -> CampaignResult {
    assert_campaigns_identical(
        name,
        "scheduler modes",
        with_scheduler(spec.clone(), SchedulerKind::EventDriven),
        with_scheduler(spec, SchedulerKind::Polling),
    )
}

#[test]
fn figure4_smoke_is_bit_identical_across_schedulers() {
    assert_campaign_identical("fig4", presets::fig4().smoke());
}

#[test]
fn figure5_smoke_is_bit_identical_across_schedulers() {
    assert_campaign_identical("fig5", presets::fig5().smoke());
}

#[test]
fn figure6_smoke_is_bit_identical_across_schedulers() {
    assert_campaign_identical("fig6", presets::fig6().smoke());
}

#[test]
fn figure7_smoke_is_bit_identical_across_schedulers() {
    assert_campaign_identical("fig7", presets::fig7().smoke());
}

/// Where the mechanisms fire: the event-driven scheduler skips the cycles
/// in which no stage can act, and polling steps every one, so this arm pins
/// the skip against stepping with distance predictions, validations and
/// their squashes in play. 15K warm-up is the smallest (of 2K, 5K, 10K,
/// 15K) at which both RSEP mechanisms make distance predictions here.
#[test]
fn figure7_grid_where_rsep_predicts_is_bit_identical_across_schedulers() {
    let spec = presets::fig7()
        .with_benchmark_filter("libquantum,mcf")
        .with_checkpoints(CheckpointSpec::scaled(1, 15_000, 10_000))
        .with_seed(42);
    let stepped = assert_campaign_identical("fig7 (15K + 10K)", spec);
    for mechanism in ["rsep-ideal", "rsep-realistic"] {
        let dist_pred: u64 = stepped
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
