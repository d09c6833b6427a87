//! Bench: the core's cycle loop (event-driven wakeup/select with the
//! quiescent-cycle skip) on a gcc trace.
//!
//! The bench prints simulated cycles and instructions per wall-clock
//! second, which the CI quick-bench job surfaces so perf
//! regressions are visible in PR logs, and writes the same numbers as
//! machine-readable JSON to `BENCH_cycle_loop.json` at the workspace root
//! (override the path with `RSEP_BENCH_JSON`), so the bench trajectory can
//! be tracked across PRs instead of living only in logs.

#![forbid(unsafe_code)]

use rsep_bench::record::{timed, BenchRecord};
use rsep_stats::json::Json;
use rsep_trace::{BenchmarkProfile, TraceGenerator};
use rsep_uarch::{Core, CoreConfig};

const COMMITS: u64 = 30_000;

fn trace_insts() -> Vec<rsep_isa::DynInst> {
    let profile = BenchmarkProfile::by_name("gcc").unwrap();
    TraceGenerator::new(&profile, 42).take(COMMITS as usize + 4_000).collect()
}

fn run_once(insts: &[rsep_isa::DynInst]) -> (u64, u64) {
    let mut core = Core::baseline(CoreConfig::table1());
    let mut trace = insts.iter().cloned();
    let committed = core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    (core.stats().cycles, committed)
}

/// Default output path of the machine-readable throughput record: the
/// workspace root, next to `ROADMAP.md` (the bench runs with the package
/// directory as its working directory, so a relative path would land in
/// `crates/rsep-bench`).
const BENCH_JSON_DEFAULT: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cycle_loop.json");

/// Prints absolute throughput (simulated cycles & instructions per second)
/// — the number the ROADMAP bench trajectory tracks —
/// and records it as schema-v2 JSON (`BENCH_cycle_loop.json`): host
/// metadata, max-RSS, and (in `obs` builds) the per-stage cycle
/// attribution of an instrumented run.
fn main() {
    let insts = trace_insts();
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    // One untimed warm-up, then a few timed runs; report the best.
    run_once(&insts);
    let mut best = f64::MAX;
    let mut cycles = 0;
    for _ in 0..3 {
        let (secs, (c, committed)) = timed(|| run_once(&insts));
        // The final commit group may overshoot the target slightly.
        assert!(committed >= COMMITS);
        cycles = c;
        best = best.min(secs);
    }
    let mcycles = cycles as f64 / best / 1e6;
    let minsts = COMMITS as f64 / best / 1e6;
    println!(
        "cycle_loop/throughput/event_driven   {mcycles:>8.2} Mcycles/s  {minsts:>7.2} Minsts/s"
    );
    // The label keeps the name the committed baselines use, which the gate
    // matches results by.
    let results = vec![Json::Object(vec![
        ("scheduler".to_string(), Json::Str("event_driven".to_string())),
        ("ms_per_run".to_string(), Json::Num((best * 1e6).round() / 1e3)),
        ("mcycles_per_sec".to_string(), Json::Num(round2(mcycles))),
        ("minsts_per_sec".to_string(), Json::Num(round2(minsts))),
    ])];
    let record = BenchRecord {
        bench: "cycle_loop",
        params: vec![
            ("profile", Json::Str("gcc".to_string())),
            ("config", Json::Str("table1".to_string())),
            ("commits", Json::Num(COMMITS as f64)),
        ],
        results,
        attribution: measured_attribution(&insts),
    };
    record.write("RSEP_BENCH_JSON", BENCH_JSON_DEFAULT);
}

/// Per-stage attribution of one instrumented run over the bench trace
/// (`obs` builds only; `null` otherwise).
#[cfg(feature = "obs")]
fn measured_attribution(insts: &[rsep_isa::DynInst]) -> Json {
    let mut core = Core::baseline(CoreConfig::table1());
    let mut trace = insts.iter().cloned();
    core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    let attribution = core.take_attribution().expect("obs build");
    attribution.validate(core.stats().cycles).expect("attribution sums to cycles");
    rsep_bench::record::attribution_json(&attribution)
}

/// Without the `obs` feature the counters do not exist; record `null`.
#[cfg(not(feature = "obs"))]
fn measured_attribution(_insts: &[rsep_isa::DynInst]) -> Json {
    Json::Null
}
