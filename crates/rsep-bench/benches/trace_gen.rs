//! Bench: trace generation vs simulation — how much of a campaign cell's
//! wall-clock is spent *making* instructions rather than simulating them?
//!
//! Six modes over the same gcc workload, checkpoint 0 of seed 42 (the
//! stream `record_profile` writes), so every simulating mode must report
//! the same simulated cycles:
//!
//! * `generate` — [`TraceGenerator`] iteration alone (the cost the
//!   simulator pays on top of simulation in a streamed run);
//! * `analyze` — [`RedundancyAnalyzer`] over the live generator, the whole
//!   Figure 1 path (generation plus the counted value window);
//! * `simulate_pregenerated` — the baseline core over a pre-collected
//!   `Vec<DynInst>` (pure simulation);
//! * `simulate_streaming` — the baseline core pulling straight from a live
//!   generator (how campaign cells actually run);
//! * `record` — [`record_profile`] writing the workload as an in-memory
//!   trace file (generation + delta/varint encoding);
//! * `replay` — the baseline core pulling from a parsed trace file segment
//!   (decode + simulation, how `rsep trace replay` runs).
//!
//! The bench derives the generation share of streamed wall-clock as
//! `generate / streaming` — the standalone generation cost over the
//! streamed run it is embedded in. (The alternative,
//! `streaming − pregenerated`, subtracts two ~17 ms measurements whose
//! true gap is ~1.3 ms, so run-to-run noise swamps it.) The record goes,
//! with the per-mode numbers, as schema-v2 JSON to `BENCH_trace_gen.json`
//! (override with `RSEP_BENCH_TRACE_JSON`). DESIGN.md § "Trace-generation
//! cost" records the measured share against the ROADMAP's ~30% guess.

#![forbid(unsafe_code)]

use rsep_bench::record::{timed, BenchRecord};
use rsep_core::{checkpoint_seed, RedundancyAnalyzer, RedundancyConfig};
use rsep_stats::json::Json;
use rsep_trace::{BenchmarkProfile, CheckpointSpec, TraceGenerator};
use rsep_tracefile::{record_profile, AnonScheme, TraceFile, RECORD_SLACK};
use rsep_uarch::{Core, CoreConfig};

const COMMITS: u64 = 30_000;
/// Same head-room over the commit target as `cycle_loop` uses.
const INSTS: usize = COMMITS as usize + 4_000;
const SEED: u64 = 42;

/// Seed of the generated stream: checkpoint 0 of [`SEED`], which is what
/// `record_profile` records, so live and replayed modes see the same trace.
fn stream_seed() -> u64 {
    checkpoint_seed(SEED, 0)
}

fn profile() -> BenchmarkProfile {
    BenchmarkProfile::by_name("gcc").unwrap()
}

/// One-checkpoint spec whose recorded segment holds exactly [`INSTS`]
/// instructions, so record/replay numbers are comparable to the other
/// modes.
fn record_spec() -> CheckpointSpec {
    CheckpointSpec::scaled(1, 0, INSTS as u64 - RECORD_SLACK)
}

/// Generation alone: drain the generator, folding PCs so the work cannot
/// be optimised away.
fn generate(profile: &BenchmarkProfile) -> u64 {
    let mut acc = 0u64;
    for inst in TraceGenerator::new(profile, stream_seed()).take(INSTS) {
        acc = acc.wrapping_add(inst.pc);
    }
    acc
}

/// The Figure 1 path: redundancy analysis of the live generated stream.
/// Returns the number of redundant (zero or already-live) results.
fn analyze(profile: &BenchmarkProfile) -> u64 {
    let trace = TraceGenerator::new(profile, stream_seed()).take(INSTS);
    let report = RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace);
    report.zero_loads + report.zero_others + report.prf_loads + report.prf_others
}

/// Pure simulation: the core consumes an already-materialised trace.
fn simulate_pregenerated(insts: &[rsep_isa::DynInst]) -> u64 {
    let mut core = Core::baseline(CoreConfig::table1());
    let mut trace = insts.iter().cloned();
    core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    core.stats().cycles
}

/// Streamed simulation: the core pulls from a live generator, the way
/// campaign cells run.
fn simulate_streaming(profile: &BenchmarkProfile) -> u64 {
    let mut core = Core::baseline(CoreConfig::table1());
    let mut trace = TraceGenerator::new(profile, stream_seed()).take(INSTS);
    core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    core.stats().cycles
}

/// Trace recording: generate the workload and encode it as an in-memory
/// trace file, the way `rsep trace record` does per profile.
fn record(profile: &BenchmarkProfile) -> u64 {
    let bytes = record_profile(Vec::new(), profile, &record_spec(), SEED, AnonScheme::KeyedBlock)
        .expect("bench recording cannot fail");
    bytes.len() as u64
}

/// Trace replay: the core pulls decoded instructions straight from a
/// parsed trace-file segment.
fn replay(file: &TraceFile) -> u64 {
    let mut core = Core::baseline(CoreConfig::table1());
    let mut trace = file.segment(0).expect("bench trace has segment 0");
    core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    core.stats().cycles
}

/// The workload, materialised, and the same workload as a parsed trace
/// file. Asserts that the pregenerated, streamed and replayed runs
/// simulate identical cycles — comparing their costs is meaningless
/// otherwise.
fn workload(profile: &BenchmarkProfile) -> (Vec<rsep_isa::DynInst>, TraceFile, u64) {
    let insts: Vec<rsep_isa::DynInst> =
        TraceGenerator::new(profile, stream_seed()).take(INSTS).collect();
    let bytes = record_profile(Vec::new(), profile, &record_spec(), SEED, AnonScheme::KeyedBlock)
        .expect("bench recording cannot fail");
    let file_bytes = bytes.len() as u64;
    let file = TraceFile::parse(bytes, "bench".to_string()).expect("bench trace parses");
    let cycles = simulate_pregenerated(&insts);
    assert_eq!(cycles, simulate_streaming(profile), "streamed run simulates another workload");
    assert_eq!(cycles, replay(&file), "replayed run simulates another workload");
    (insts, file, file_bytes)
}

/// Default output path: the workspace root, next to the other records.
const BENCH_JSON_DEFAULT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace_gen.json");

/// Best-of-3 wall-clock per mode, plus the derived generation share of
/// streamed wall-clock, as schema-v2 JSON.
fn main() {
    let profile = profile();
    let (insts, file, file_bytes) = workload(&profile);
    let round2 = |x: f64| (x * 100.0).round() / 100.0;

    let best_of = |label: &str, run: &mut dyn FnMut() -> u64| -> (f64, u64) {
        run(); // untimed warm-up
        let mut best = f64::MAX;
        let mut payload = 0u64;
        for _ in 0..3 {
            let (secs, out) = timed(&mut *run);
            payload = out;
            best = best.min(secs);
        }
        println!(
            "trace_gen/throughput/{label:<22} {:>8.3} ms/run  {:>7.2} Minsts/s",
            best * 1e3,
            INSTS as f64 / best / 1e6
        );
        (best, payload)
    };

    let (gen_secs, _) = best_of("generate", &mut || generate(&profile));
    let (analyze_secs, _) = best_of("analyze", &mut || analyze(&profile));
    let (pregen_secs, cycles) =
        best_of("simulate_pregenerated", &mut || simulate_pregenerated(&insts));
    let (stream_secs, _) = best_of("simulate_streaming", &mut || simulate_streaming(&profile));
    let (record_secs, _) = best_of("record", &mut || record(&profile));
    let (replay_secs, _) = best_of("replay", &mut || replay(&file));

    let share_pct = (gen_secs / stream_secs * 100.0).min(100.0);
    println!("trace_gen/throughput/generation_share       {share_pct:>8.1} % of streamed run");

    let mode_result = |mode: &str, secs: f64, extra: Vec<(&str, Json)>| {
        let mut pairs = vec![
            ("mode".to_string(), Json::Str(mode.to_string())),
            ("ms_per_run".to_string(), Json::Num((secs * 1e6).round() / 1e3)),
            ("minsts_per_sec".to_string(), Json::Num(round2(INSTS as f64 / secs / 1e6))),
        ];
        for (key, value) in extra {
            pairs.push((key.to_string(), value));
        }
        Json::Object(pairs)
    };
    let mcycles = |secs: f64| Json::Num(round2(cycles as f64 / secs / 1e6));
    let record = BenchRecord {
        bench: "trace_gen",
        params: vec![
            ("profile", Json::Str("gcc".to_string())),
            ("config", Json::Str("table1".to_string())),
            ("seed", Json::Num(SEED as f64)),
            ("checkpoint", Json::Num(0.0)),
            ("commits", Json::Num(COMMITS as f64)),
            ("insts", Json::Num(INSTS as f64)),
            ("generation_share_pct", Json::Num((share_pct * 10.0).round() / 10.0)),
        ],
        results: vec![
            mode_result("generate", gen_secs, Vec::new()),
            mode_result("analyze", analyze_secs, Vec::new()),
            mode_result(
                "simulate_pregenerated",
                pregen_secs,
                vec![("mcycles_per_sec", mcycles(pregen_secs))],
            ),
            mode_result(
                "simulate_streaming",
                stream_secs,
                vec![("mcycles_per_sec", mcycles(stream_secs))],
            ),
            mode_result(
                "record",
                record_secs,
                vec![
                    ("file_bytes", Json::Num(file_bytes as f64)),
                    ("mb_per_sec", Json::Num(round2(file_bytes as f64 / record_secs / 1e6))),
                ],
            ),
            mode_result("replay", replay_secs, vec![("mcycles_per_sec", mcycles(replay_secs))]),
        ],
        attribution: Json::Null,
    };
    record.write("RSEP_BENCH_TRACE_JSON", BENCH_JSON_DEFAULT);
}
