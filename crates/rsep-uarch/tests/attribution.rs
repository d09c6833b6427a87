//! End-to-end and property tests for the `obs` per-stage cycle
//! attribution.
//!
//! The unit tests in `attribution.rs` pin the classification rules on
//! synthetic inputs; these tests drive the *real* core over real generated
//! traces and check the structural invariant the whole feature rests on:
//! every cycle is attributed to exactly one class per stage, so each
//! stage's counters sum to `SimStats::cycles` — on any workload, under
//! either scheduler, and across `reset_stats` — and that the cycles the
//! event-driven scheduler skips are attributed exactly as stepped ones. The
//! property tests check that [`StageAttribution::merge`] is associative
//! and commutative on arbitrary counter values, which is what lets
//! checkpoint attributions be merged in any grouping.

#![cfg(feature = "obs")]

use proptest::collection;
use proptest::prelude::*;
use rsep_trace::{BenchmarkProfile, TraceGenerator};
use rsep_uarch::{Core, CoreConfig, SchedulerKind, StageAttribution};

/// Runs `commits` instructions of `profile` on a fresh baseline core and
/// returns the validated attribution.
fn run_attributed(profile: &str, commits: u64, scheduler: SchedulerKind) -> StageAttribution {
    let profile = BenchmarkProfile::by_name(profile).expect("known profile");
    let mut config = CoreConfig::table1();
    config.scheduler = scheduler;
    let mut core = Core::baseline(config);
    let mut trace = TraceGenerator::new(&profile, 42).take(commits as usize + 2_000);
    core.run(&mut trace, commits).expect("trace cannot wedge");
    let attribution = core.take_attribution().expect("obs build");
    attribution
        .validate(core.stats().cycles)
        .expect("every stage's cycles sum to SimStats::cycles");
    attribution
}

#[test]
fn stage_counters_sum_to_cycles_on_real_traces() {
    for profile in ["gcc", "mcf"] {
        for scheduler in [SchedulerKind::EventDriven, SchedulerKind::Polling] {
            let a = run_attributed(profile, 5_000, scheduler);
            // Work counters are sanity-bounded, not exact: every cycle
            // loop commits at least the requested instructions.
            assert!(a.work.insts_issued >= 5_000, "{profile}: {a:?}");
            assert!(a.commit_slots.iter().sum::<u64>() == a.cycles);
        }
    }
}

#[test]
fn skipped_cycles_are_attributed_exactly_as_stepped_ones() {
    // The event-driven scheduler jumps over cycles in which no stage can
    // act and attributes them in bulk; polling steps every cycle. Their
    // attributions must agree counter for counter.
    for profile in ["gcc", "mcf", "libquantum"] {
        let skipping = run_attributed(profile, 20_000, SchedulerKind::EventDriven);
        let stepping = run_attributed(profile, 20_000, SchedulerKind::Polling);
        assert_eq!(skipping, stepping, "{profile}: attribution diverges");
    }
}

#[test]
fn attribution_survives_reset_stats_mid_run() {
    // The measure-phase protocol: warm up, reset, measure. The attribution
    // must restart with the stats so the two stay in lockstep.
    let profile = BenchmarkProfile::by_name("gcc").expect("known profile");
    let mut core = Core::baseline(CoreConfig::table1());
    let mut trace = TraceGenerator::new(&profile, 7).take(20_000);
    core.run(&mut trace, 2_000).expect("warm-up cannot wedge");
    core.reset_stats();
    core.run(&mut trace, 4_000).expect("measure cannot wedge");
    let attribution = core.take_attribution().expect("obs build");
    attribution.validate(core.stats().cycles).expect("post-reset attribution sums to cycles");
    assert!(attribution.cycles > 0);
}

#[test]
fn take_attribution_leaves_a_fresh_accumulator() {
    let profile = BenchmarkProfile::by_name("gcc").expect("known profile");
    let mut core = Core::baseline(CoreConfig::table1());
    let mut trace = TraceGenerator::new(&profile, 42).take(10_000);
    core.run(&mut trace, 2_000).expect("trace cannot wedge");
    let first = core.take_attribution().expect("obs build");
    assert!(first.cycles > 0);
    let second = core.take_attribution().expect("obs build");
    assert_eq!(second, StageAttribution::default());
}

/// Builds an attribution from raw random counters: 1 cycle total, 15 stage
/// counters, 5 work counters, and whatever is left (0–5 values) as the
/// commit-slot histogram. (The vendored proptest has no `prop_map`, so the
/// properties draw the raw vector and build the value in their bodies.)
fn build(values: &[u64]) -> StageAttribution {
    let mut a = StageAttribution { cycles: values[0], ..StageAttribution::default() };
    a.fetch.active = values[1];
    a.fetch.redirect = values[2];
    a.fetch.queue_full = values[3];
    a.fetch.drained = values[4];
    a.fetch.idle = values[5];
    a.rename.active = values[6];
    a.rename.rob_full = values[7];
    a.rename.queue_full = values[8];
    a.rename.prf_stall = values[9];
    a.rename.starved = values[10];
    a.issue.active = values[11];
    a.issue.port_limited = values[12];
    a.issue.wait_mem = values[13];
    a.issue.no_ready = values[14];
    a.issue.empty = values[15];
    a.work.insts_issued = values[16];
    a.work.loads_issued = values[17];
    a.work.load_misses = values[18];
    a.work.stores_issued = values[19];
    a.work.validations_issued = values[20];
    a.commit_slots = values[21..].to_vec();
    a
}

/// Raw counters for one [`build`] call: 21 fixed + 0–5 histogram buckets.
fn arb_counters() -> collection::VecStrategy<std::ops::Range<u64>> {
    collection::vec(0u64..1_000, 21..27)
}

fn merged(a: &StageAttribution, b: &StageAttribution) -> StageAttribution {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    /// Merging is associative: `(a ∪ b) ∪ c == a ∪ (b ∪ c)`. This is what
    /// lets a campaign merge per-checkpoint attributions in any grouping
    /// (per benchmark first, or one flat pass) and get the same totals.
    #[test]
    fn merge_is_associative(
        a in arb_counters(),
        b in arb_counters(),
        c in arb_counters(),
    ) {
        let (a, b, c) = (build(&a), build(&b), build(&c));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    /// Merging is commutative, so completion order of parallel cells
    /// cannot change the merged table.
    #[test]
    fn merge_is_commutative(a in arb_counters(), b in arb_counters()) {
        let (a, b) = (build(&a), build(&b));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// The default value is the merge identity.
    #[test]
    fn default_is_the_merge_identity(a in arb_counters()) {
        let a = build(&a);
        prop_assert_eq!(merged(&a, &StageAttribution::default()), a.clone());
        prop_assert_eq!(merged(&StageAttribution::default(), &a), a);
    }
}
