//! Campaign benchmark of the RSEP simulator: host throughput of the
//! paper's figure campaigns, end to end and per layer. See README.md.
//!
//! ```text
//! perfbench --workload <fig1-suite|fig7-replay> [--seed N]
//!           [--seconds S] [--trace 0|1] [--work-dir DIR] [--attribution]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exit code 0 means every
//! check passed, 1 that a check failed (the JSON line says which run), 2
//! that the benchmark could not run at all.

mod attribution;
mod grid;
mod measure;
mod metrics;
mod replays;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use grid::{digest, CellOutput, Grid, Pass, Scale, Workload};
use measure::{cpu_seconds, max_rss_mb, median, percentile, samples_beyond, Metrics, TimerCost};
use metrics::{per_layer, per_layer_declared, LayerInputs, END_TO_END, OBS};
use rsep_campaign::{Campaign, JsonlStore, ReportFormat};

/// Set-ups per run: at least `SETUP_MIN`, and more while they take less
/// than `SETUP_BUDGET_S` in all (up to `SETUP_MAX`). `setup_s` is their
/// median; a set-up of a few microseconds needs many repeats to be steady.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 1001;
const SETUP_BUDGET_S: f64 = 0.05;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    attribution: bool,
    work_dir: Option<PathBuf>,
    scale: Option<Scale>,
}

const USAGE: &str = "usage: perfbench --workload <fig1-suite|fig7-replay> [--seed N] \
                     [--seconds S] [--trace 0|1] [--work-dir DIR] [--attribution]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Fig1Suite,
        seed: 42,
        seconds: 10.0,
        trace: false,
        attribution: false,
        work_dir: None,
        scale: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--attribution" => parsed.attribution = true,
            "--work-dir" => parsed.work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    // Simulator panics are caught per cell and reported as failed cells;
    // one line on standard error each is enough.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = args.work_dir.clone().unwrap_or_else(|| {
        let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
        PathBuf::from(root).join("perfbench-work").join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        ))
    });
    let outcome = run(&args, &work_dir);
    // The work directory holds only this run's store and corpus.
    let _ = std::fs::remove_dir_all(&work_dir);
    match outcome {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for problem in &report.problems {
                println!("problem: {problem}");
            }
            let correct = report.problems.is_empty();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                report.attempted,
                report.problems.len(),
                report.metrics.to_json()
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What a run prints: summary lines, failed checks, and the metrics.
#[derive(Debug, Default)]
struct Report {
    lines: Vec<String>,
    problems: Vec<String>,
    attempted: usize,
    metrics: Metrics,
}

fn run(args: &Args, work_dir: &std::path::Path) -> Result<Report, String> {
    let workload = args.workload;
    let scale = args.scale.unwrap_or_else(|| workload.default_scale());
    // Set up several times; the median is `setup_s` and the last grid is
    // the one measured.
    std::fs::create_dir_all(work_dir).map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let mut setups = Vec::new();
    let mut grid = None;
    while setups.len() < SETUP_MIN
        || (setups.len() < SETUP_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous set-up first, so that at most one corpus is
        // held in memory at a time.
        drop(grid.take());
        let start = Instant::now();
        grid = Some(Grid::setup(workload, args.seed, scale, work_dir)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let grid = grid.expect("at least one set-up");
    let setup_s = median(&setups);

    let mut report = if args.attribution {
        attribution_run(&grid)?
    } else if args.trace {
        traced_run(&grid)?
    } else {
        timed_run(&grid, args.seconds, setup_s)?
    };
    report.lines.insert(
        0,
        format!(
            "perfbench {}: seed {}, {} worker(s), {} cells per pass, {} + {} instructions per cell",
            workload.name(),
            args.seed,
            workload.jobs(),
            grid.cells(),
            grid.spec.checkpoints.warmup,
            grid.spec.checkpoints.measure
        ),
    );
    Ok(report)
}

/// Lines naming the grid's failed cells (a `SimError` each) and counts.
fn failure_lines(grid: &Grid, outputs: &[CellOutput], lines: &mut Vec<String>) {
    let failed: Vec<usize> = (0..outputs.len()).filter(|&i| outputs[i].error().is_some()).collect();
    lines.push(format!("cells_failed per pass {} of {}", failed.len(), outputs.len()));
    for index in failed {
        let error = outputs[index].error().unwrap_or_default();
        lines.push(format!("failed cell {}: {error}", grid.cell_name(index)));
    }
}

/// The end-to-end run: closed-loop passes over the whole grid, as many as
/// fit in `seconds` at the first pass's pace (at least one), then the
/// untimed reference check. Throughput and CPU time are medians over the
/// passes, which keeps a burst of host noise in one pass from moving them.
fn timed_run(grid: &Grid, seconds: f64, setup_s: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let start = Instant::now();
    let mut first: Option<Pass> = None;
    let mut target = 1usize;
    let (mut pass_s, mut pass_rate, mut pass_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut cell_ms: Vec<f64> = Vec::new();
    let mut failed_cells = 0usize;
    while pass_s.len() < target {
        let cpu_start = cpu_seconds()?;
        let pass = grid.run_pass()?;
        pass_cpu.push(cpu_seconds()? - cpu_start);
        let wall = pass.wall.as_secs_f64();
        let instructions: u64 = pass.outputs.iter().map(|o| grid.instructions(o)).sum();
        pass_s.push(wall);
        pass_rate.push(instructions as f64 / wall / 1e6);
        cell_ms.extend(pass.cell_time.iter().map(|t| t.as_secs_f64() * 1e3));
        failed_cells += pass.outputs.iter().filter(|o| o.error().is_some()).count();
        report.problems.extend(pass.problems.iter().cloned());
        match &first {
            None => {
                target = ((seconds / wall).round() as usize).max(1);
                first = Some(pass);
            }
            Some(reference) => {
                if digest(&pass.outputs) != digest(&reference.outputs) {
                    report.problems.extend(grid::compare_cells(
                        grid,
                        &reference.outputs,
                        &pass.outputs,
                        &format!("pass {}", pass_s.len()),
                    ));
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let first = first.expect("at least one pass");
    report.problems.extend(grid.reference_check(&first.outputs)?);

    let n = cell_ms.len();
    report.attempted = n;
    report.lines.push(format!("sim_digest {:016x}", digest(&first.outputs)));
    let pass_list: Vec<String> = pass_s.iter().map(|s| format!("{s:.3}")).collect();
    report.lines.push(format!(
        "passes {} in {wall:.3} s: {} s",
        pass_s.len(),
        pass_list.join(", ")
    ));
    report.lines.push(format!("cells_attempted {n}"));
    report.lines.push(format!("cells_failed {failed_cells}"));
    failure_lines(grid, &first.outputs, &mut report.lines);

    let m = &mut report.metrics;
    m.push("minsts_per_s", median(&pass_rate), "Minst/s");
    m.push("cell_ms_p50", percentile(&cell_ms, 50.0), "ms");
    m.push("cell_ms_p90", percentile(&cell_ms, 90.0), "ms");
    m.push("setup_s", setup_s, "s");
    m.push("max_rss_mb", max_rss_mb()?, "MiB");
    m.push("cpu_s", median(&pass_cpu), "s");
    let declared: Vec<(String, &'static str)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    report.problems.extend(report.metrics.check_against(&declared));
    report.lines.push(format!(
        "percentiles over {n} cells: p50 has {} samples beyond it, p90 has {}",
        samples_beyond(n, 50.0),
        samples_beyond(n, 90.0)
    ));
    for (name, unit) in END_TO_END {
        let value = report.metrics.get(name).unwrap_or(f64::NAN);
        report.lines.push(format!("{name} {value} {unit}"));
    }
    Ok(report)
}

/// The traced run: an untraced pass, the same cells traced, and the
/// standalone layer replays. Prints every per-layer metric except the
/// `obs.*` ones, which the attribution build adds.
fn traced_run(grid: &Grid) -> Result<Report, String> {
    let mut report = Report::default();
    let timer = TimerCost::calibrate();
    let reference = grid.run_pass()?;
    report.problems.extend(reference.problems.iter().cloned());
    report.problems.extend(grid.reference_check(&reference.outputs)?);
    report.problems.extend(grid.replay_campaign_check(&reference.outputs)?);

    let traced = traced::traced_pass(grid);
    report.problems.extend(grid::compare_cells(
        grid,
        &reference.outputs,
        &traced.outputs,
        "the traced pass",
    ));

    let resume = if grid.workload == grid::Workload::Fig7Replay {
        Some(resume_pass(grid, &reference, &mut report.problems)?)
    } else {
        None
    };
    let experiment = grid.experiment(&reference.outputs);
    let render_start = Instant::now();
    for format in
        [ReportFormat::Table, ReportFormat::Json, ReportFormat::Csv, ReportFormat::Markdown]
    {
        std::hint::black_box(format.render(&experiment));
    }
    let render = render_start.elapsed();
    let replays = replays::replay(grid);

    report.metrics = per_layer(&LayerInputs {
        grid,
        reference: &reference,
        layers: &traced.layers,
        timer,
        replays,
        resume,
        render,
    });
    let declared: Vec<(String, &'static str)> =
        per_layer_declared().into_iter().filter(|(n, _)| !OBS.contains(&n.as_str())).collect();
    report.problems.extend(report.metrics.check_against(&declared));
    report.attempted = traced.outputs.len();
    report.lines.push(format!("sim_digest {:016x}", digest(&reference.outputs)));
    report.lines.push(format!(
        "timer: {:.1} ns per timed span, {:.1} ns of it inside the span",
        timer.pair_ns, timer.inside_ns
    ));
    failure_lines(grid, &reference.outputs, &mut report.lines);
    Ok(report)
}

/// Figure 7: a second pass over the same JSONL store, which must serve
/// every cell without simulating. Returns the store's lookup time and the
/// whole pass's time.
fn resume_pass(
    grid: &Grid,
    reference: &Pass,
    problems: &mut Vec<String>,
) -> Result<(Duration, Duration), String> {
    let start = Instant::now();
    let store = JsonlStore::open(grid.store_path()).map_err(|e| e.to_string())?;
    let mut timed = grid::TimedStore::new(store);
    let run = Campaign::with_jobs(grid.workload.jobs())
        .run_stored(&grid.spec, &mut timed, None)
        .map_err(|e| e.to_string())?;
    let took = start.elapsed();
    if run.hits != grid.cells() || run.executed != 0 {
        problems.push(format!(
            "resumed store served {} of {} cells and simulated {}",
            run.hits,
            grid.cells(),
            run.executed
        ));
    }
    let resumed = run.result.as_ref().map(grid::row_texts);
    if resumed != Some(grid.assembled_texts(&reference.outputs)) {
        problems.push("the campaign resumed from the store differs from the simulated one".into());
    }
    Ok((timed.times.lookup, took))
}

/// The attribution run (a build with the `obs` feature): stage fractions
/// and the digest of the cells it simulated, which must equal the timed
/// build's.
fn attribution_run(grid: &Grid) -> Result<Report, String> {
    let mut report = Report::default();
    let pass = attribution::attribution_pass(grid)?;
    report.problems = pass.problems;
    report.attempted = pass.outputs.len().max(1);
    if grid.workload.simulates() {
        report.lines.push(format!("sim_digest {:016x}", digest(&pass.outputs)));
    }
    report.metrics = pass.metrics;
    let declared: Vec<(String, &'static str)> =
        OBS.iter().map(|n| (n.to_string(), "ratio")).collect();
    report.problems.extend(report.metrics.check_against(&declared));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini(workload: Workload, trace: bool) -> Report {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-work")
            .join(format!("{}-{trace}", workload.name()));
        let args = Args {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            attribution: false,
            work_dir: None,
            scale: Some(Scale { warmup: 2_000, measure: 3_000 }),
        };
        let report = run(&args, &dir).expect("miniature run");
        let _ = std::fs::remove_dir_all(&dir);
        report
    }

    fn assert_clean(report: &Report) {
        assert!(report.problems.is_empty(), "{:?}", report.problems);
        assert!(report.attempted >= 1);
    }

    #[test]
    fn miniature_fig1_suite() {
        let timed = mini(Workload::Fig1Suite, false);
        assert_clean(&timed);
        assert_eq!(timed.attempted, 29);
        let traced = mini(Workload::Fig1Suite, true);
        assert_clean(&traced);
        assert!(traced.metrics.get("trace.next_ms").unwrap() > 0.0);
        assert_eq!(traced.metrics.get("engine.at_commit.calls"), Some(0.0));
    }

    #[test]
    fn miniature_fig7_replay() {
        let timed = mini(Workload::Fig7Replay, false);
        assert_clean(&timed);
        assert_eq!(timed.attempted, 36);
        let traced = mini(Workload::Fig7Replay, true);
        assert_clean(&traced);
        assert!(traced.metrics.get("tracefile.next_ms").unwrap() > 0.0);
        assert!(traced.metrics.get("tracefile.bytes_per_inst").unwrap() > 0.0);
        assert!(traced.metrics.get("engine.at_commit.calls").unwrap() > 0.0);
        assert!(traced.metrics.get("store.resume_ms").unwrap() > 0.0);
        assert!(traced.metrics.get("cache.ns_per_access").unwrap() > 0.0);
        assert_eq!(traced.metrics.get("trace.next_ms"), Some(0.0));
    }

    #[test]
    fn arguments_parse() {
        let args = |list: &[&str]| parse_args(list.iter().map(|s| s.to_string()));
        let parsed =
            args(&["--workload", "fig7-replay", "--seed", "3", "--seconds", "2", "--trace", "1"])
                .unwrap();
        assert_eq!(parsed.workload, Workload::Fig7Replay);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (3, 2.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "fig1-suite", "--trace", "2"]).is_err());
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = rsep_stats::json::Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let end_to_end: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        let per_layer: Vec<(String, String)> =
            per_layer_declared().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        assert_eq!(listed("per_layer"), per_layer);
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            assert!(measure::valid_name(name), "invalid metric name {name}");
            assert!(measure::valid_unit(unit), "invalid unit {unit} of {name}");
        }
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name").to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}
