//! # rsep-campaign
//!
//! Parallel experiment-campaign engine for the RSEP reproduction.
//!
//! The paper's evaluation (Section V/VI) is a grid: ~19 SPEC-like profiles
//! × 7 mechanism configurations × N checkpoints. This crate turns that grid
//! into a first-class subsystem:
//!
//! * [`CampaignSpec`] — a declarative description of one campaign
//!   (profiles × mechanisms × core config × checkpoint scale × seed),
//!   honouring the `RSEP_*` scale environment variables;
//! * [`Executor`] — a channel-fed thread pool that fans the independent
//!   `(profile, mechanism, checkpoint)` cells across workers and collects
//!   outputs by cell index, so results are **bit-identical at any thread
//!   count**;
//! * [`Campaign`] — expands a spec into cells, runs them, and reassembles
//!   the per-benchmark results into a [`CampaignResult`] grid;
//! * [`store`] — the pluggable results layer: every cell has a
//!   content-addressed [`CellKey`], and a [`ResultStore`] receives cells as
//!   they complete ([`MemoryStore`] for today's in-memory behaviour,
//!   [`JsonlStore`] for crash-resumable streaming runs and cross-machine
//!   sharding, [`CachedStore`] for disk memoisation across campaigns);
//! * [`report`] — JSON / CSV / markdown / fixed-width table emitters built
//!   on `rsep-stats`;
//! * [`presets`] — the paper's figure campaigns (Figures 1, 4, 6, 7 and
//!   the sensitivity sweeps) that the `rsep` CLI runs.
//!
//! # Quick start
//!
//! ```
//! use rsep_campaign::{presets, Campaign};
//!
//! let spec = presets::fig4().smoke();
//! let result = Campaign::with_jobs(2).run(&spec);
//! let speedups = result.speedups();
//! assert_eq!(speedups.benchmarks().len(), 6);
//! println!("{}", speedups.to_table());
//! ```
//!
//! # Resumable / sharded runs
//!
//! ```no_run
//! use rsep_campaign::{presets, Campaign, JsonlStore, Shard};
//!
//! let spec = presets::fig4().smoke();
//! // Machine 0 of 2 runs half the cells, streaming them to a shard file;
//! // `rsep merge` (or `merge_stored`) joins the shards afterwards.
//! let mut store = JsonlStore::open("fig4-shard0.jsonl").unwrap();
//! let run = Campaign::with_jobs(2)
//!     .run_stored(&spec, &mut store, Some(Shard { index: 0, count: 2 }))
//!     .unwrap();
//! assert!(run.result.is_none()); // partial grid: report comes from merge
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod env;
pub mod executor;
pub mod presets;
pub mod replay;
pub mod report;
pub mod spec;
pub mod store;

pub use env::jobs_from_env;
pub use executor::{ExecStats, Executor};
pub use replay::{open_corpus, record_campaign, replay_campaign, RecordedTrace};
pub use report::ReportFormat;
pub use spec::CampaignSpec;
pub use store::{
    read_jsonl, CachedStore, CampaignHeader, CellKey, JsonlStore, MemoryStore, ResultStore,
    StoreError,
};

use rsep_core::{
    checkpoint_seed, run_checkpoint, BenchmarkResult, CheckpointResult, MechanismConfig,
    RedundancyAnalyzer, RedundancyConfig, RedundancyReport,
};
use rsep_stats::{speedup_percent, Experiment};
use rsep_trace::TraceGenerator;
use std::path::Path;
use std::time::Duration;

/// One benchmark row of a campaign: the baseline (when run) and one result
/// per mechanism, in spec order.
#[derive(Debug, Clone)]
// lint: exempt(dead-pub-api, returned by Campaign::run for library consumers; fields read downstream)
pub struct ProfileResults {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline result, when the spec asked for one.
    pub baseline: Option<BenchmarkResult>,
    /// One result per mechanism, in `spec.mechanisms` order.
    pub results: Vec<BenchmarkResult>,
}

/// The merged output of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign identifier (from the spec).
    pub id: String,
    /// One row per profile, in spec order.
    pub rows: Vec<ProfileResults>,
    /// Executor instrumentation (wall time, busy time, jobs).
    pub exec: ExecStats,
}

impl CampaignResult {
    /// Speedup-over-baseline experiment (`speedup %` per benchmark ×
    /// mechanism). Rows without a baseline are skipped.
    pub fn speedups(&self) -> Experiment {
        let mut exp = Experiment::new(self.id.clone(), "speedup % over baseline");
        for row in &self.rows {
            let Some(baseline) = &row.baseline else { continue };
            for result in &row.results {
                exp.push(
                    row.benchmark.clone(),
                    result.mechanism.clone(),
                    speedup_percent(result.ipc, baseline.ipc),
                );
            }
        }
        exp
    }

    /// Raw IPC experiment (baseline included as its own series).
    pub fn ipcs(&self) -> Experiment {
        let mut exp = Experiment::new(format!("{}-ipc", self.id), "IPC");
        for row in &self.rows {
            if let Some(baseline) = &row.baseline {
                exp.push(row.benchmark.clone(), baseline.mechanism.clone(), baseline.ipc);
            }
            for result in &row.results {
                exp.push(row.benchmark.clone(), result.mechanism.clone(), result.ipc);
            }
        }
        exp
    }

    /// Failed cells across the grid: `(benchmark, mechanism, error)` for
    /// every checkpoint whose simulation failed (wedged pipeline). Failed
    /// cells contribute zero IPC; reports remain well-formed, but callers
    /// should surface these to the user.
    pub fn failures(&self) -> Vec<(String, String, String)> {
        let mut out = Vec::new();
        for row in &self.rows {
            for result in row.baseline.iter().chain(&row.results) {
                for failure in &result.failures {
                    out.push((row.benchmark.clone(), result.mechanism.clone(), failure.clone()));
                }
            }
        }
        out
    }

    /// One-line timing summary for progress output.
    pub fn timing_summary(&self) -> String {
        format!(
            "{}: {} cells on {} workers in {:.2?} (busy {:.2?}, parallel speedup {:.2}x)",
            self.id,
            self.exec.cells,
            self.exec.jobs,
            self.exec.wall,
            self.exec.busy,
            self.exec.speedup()
        )
    }
}

/// A deterministic slice of a campaign grid for cross-machine runs:
/// shard `index` of `count` owns every cell whose grid index is congruent
/// to `index` modulo `count` (round-robin, so every shard gets a balanced
/// mix of profiles and mechanisms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's position, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parses the CLI form `i/n` (e.g. `0/4`).
    pub fn parse(text: &str) -> Result<Shard, String> {
        let err = || format!("bad shard '{text}': expected i/n with 0 <= i < n, e.g. 0/4");
        let (index, count) = text.split_once('/').ok_or_else(err)?;
        let shard = Shard {
            index: index.trim().parse().map_err(|_| err())?,
            count: count.trim().parse().map_err(|_| err())?,
        };
        if shard.count == 0 || shard.index >= shard.count {
            return Err(err());
        }
        Ok(shard)
    }

    /// Whether this shard owns the given cell index.
    pub fn owns(&self, cell: usize) -> bool {
        cell % self.count == self.index
    }
}

/// Outcome of a store-backed campaign run ([`Campaign::run_stored`]).
#[derive(Debug, Clone)]
// lint: exempt(dead-pub-api, returned by Campaign::run_stored for library consumers)
pub struct StoredRun {
    /// The reassembled grid — `Some` exactly when every cell of the grid
    /// was resolved (no shard restriction, or a single-shard run). Sharded
    /// runs return `None`; the report comes from [`merge_stored`].
    pub result: Option<CampaignResult>,
    /// Executor instrumentation over the cells actually simulated.
    pub exec: ExecStats,
    /// Cells served by the store without simulating.
    pub hits: usize,
    /// Cells simulated (store misses within this run's shard).
    pub executed: usize,
    /// Total cells of the full campaign grid.
    pub total: usize,
}

impl StoredRun {
    /// One-line store summary for progress output, e.g.
    /// `figure4: store served 18/18 cells, simulated 0 (100.0% cached)`.
    pub fn store_summary(&self, id: &str) -> String {
        let asked = self.hits + self.executed;
        let pct = if asked == 0 { 100.0 } else { self.hits as f64 / asked as f64 * 100.0 };
        format!(
            "{id}: store served {}/{asked} cells, simulated {} ({pct:.1}% cached)",
            self.hits, self.executed
        )
    }
}

/// Expands the mechanism axis of a spec: baseline first (when requested),
/// then the spec's mechanisms in order. The single source of truth for the
/// grid's mechanism order — cell indexing, header labels and reassembly all
/// derive from it.
pub(crate) fn expand_mechanisms(spec: &CampaignSpec) -> Vec<MechanismConfig> {
    let mut mechanisms: Vec<MechanismConfig> = Vec::new();
    if spec.baseline {
        mechanisms.push(MechanismConfig::baseline());
    }
    mechanisms.extend(spec.mechanisms.iter().cloned());
    mechanisms
}

/// Reassembles per-benchmark results from index-ordered checkpoint cells.
///
/// `labels` is the expanded mechanism axis (baseline first when `baseline`
/// is set); `outputs` must hold `benchmarks × labels × n_checkpoints` cells
/// in grid-index order. Shared by the live run path and by
/// [`CampaignResult::from_stored`], so a merged shard report is assembled by
/// exactly the code that assembles a live run.
fn assemble_rows(
    benchmarks: &[String],
    labels: &[String],
    baseline: bool,
    n_checkpoints: usize,
    outputs: Vec<CheckpointResult>,
) -> Vec<ProfileResults> {
    let mut outputs = outputs.into_iter();
    let mut rows = Vec::with_capacity(benchmarks.len());
    for benchmark in benchmarks {
        let mut base = None;
        let mut results = Vec::new();
        for (m, label) in labels.iter().enumerate() {
            let checkpoints: Vec<CheckpointResult> = outputs.by_ref().take(n_checkpoints).collect();
            let result =
                BenchmarkResult::from_checkpoints(benchmark.clone(), label.clone(), checkpoints);
            if baseline && m == 0 {
                base = Some(result);
            } else {
                results.push(result);
            }
        }
        rows.push(ProfileResults { benchmark: benchmark.clone(), baseline: base, results });
    }
    rows
}

impl CampaignResult {
    /// Rebuilds a full campaign result from stored cells (resume / merge).
    ///
    /// Every cell of the header's grid must be present exactly once-or-more
    /// (duplicates across shard files are fine — cells are pure, so copies
    /// are identical); missing cells are an error naming how many are
    /// absent.
    pub fn from_stored(
        header: &CampaignHeader,
        cells: Vec<(usize, CheckpointResult)>,
    ) -> Result<CampaignResult, StoreError> {
        let grid = header.profiles.len() * header.mechanisms.len() * header.checkpoints;
        if grid != header.cells {
            return Err(StoreError {
                path: None,
                message: format!(
                    "corrupt header for campaign '{}': {} profiles x {} mechanisms x {} \
                     checkpoints is {grid} cells, but the header claims {}",
                    header.id,
                    header.profiles.len(),
                    header.mechanisms.len(),
                    header.checkpoints,
                    header.cells
                ),
            });
        }
        let mut slots: Vec<Option<CheckpointResult>> = vec![None; header.cells];
        for (index, result) in cells {
            if index >= header.cells {
                return Err(StoreError {
                    path: None,
                    message: format!(
                        "cell index {index} is outside the {}-cell grid of campaign '{}'",
                        header.cells, header.id
                    ),
                });
            }
            slots[index] = Some(result);
        }
        let missing = slots.iter().filter(|s| s.is_none()).count();
        if missing > 0 {
            return Err(StoreError {
                path: None,
                message: format!(
                    "campaign '{}' is incomplete: {missing} of {} cells missing \
                     (are all shard files listed?)",
                    header.id, header.cells
                ),
            });
        }
        let outputs: Vec<CheckpointResult> = slots.into_iter().flatten().collect();
        let rows = assemble_rows(
            &header.profiles,
            &header.mechanisms,
            header.baseline,
            header.checkpoints,
            outputs,
        );
        let exec =
            ExecStats { cells: header.cells, jobs: 0, wall: Duration::ZERO, busy: Duration::ZERO };
        Ok(CampaignResult { id: header.id.clone(), rows, exec })
    }
}

/// Joins shard store files into one complete campaign result.
///
/// All files must carry the same campaign header (same spec fingerprint);
/// the merged grid is assembled index-ordered, so the resulting reports are
/// byte-identical to an unsharded run of the same spec.
pub fn merge_stored(paths: &[impl AsRef<Path>]) -> Result<CampaignResult, StoreError> {
    if paths.is_empty() {
        return Err(StoreError { path: None, message: "no shard files to merge".into() });
    }
    let mut merged_header: Option<CampaignHeader> = None;
    let mut cells: Vec<(usize, CheckpointResult)> = Vec::new();
    for path in paths {
        let path = path.as_ref();
        let (header, shard_cells) = read_jsonl(path)?;
        match &merged_header {
            None => merged_header = Some(header),
            Some(existing) => {
                if *existing != header {
                    return Err(StoreError::new(
                        path,
                        format!(
                            "shard belongs to campaign '{}' (spec {:016x}), but earlier shards \
                             are from '{}' (spec {:016x})",
                            header.id,
                            header.spec_fingerprint,
                            existing.id,
                            existing.spec_fingerprint
                        ),
                    ));
                }
            }
        }
        cells.extend(shard_cells.into_iter().map(|(index, _key, result)| (index, result)));
    }
    CampaignResult::from_stored(&merged_header.expect("at least one shard"), cells)
}

/// The campaign engine: expands a [`CampaignSpec`] into cells and runs them
/// on an [`Executor`].
#[derive(Debug, Clone)]
pub struct Campaign {
    executor: Executor,
}

impl Campaign {
    /// Engine over an explicit executor.
    pub fn new(executor: Executor) -> Campaign {
        Campaign { executor }
    }

    /// Engine with `jobs` worker threads.
    pub fn with_jobs(jobs: usize) -> Campaign {
        Campaign::new(Executor::new(jobs))
    }

    /// Engine honouring `RSEP_JOBS` (default: machine parallelism).
    pub fn from_env() -> Campaign {
        Campaign::with_jobs(jobs_from_env())
    }

    /// Runs a simulation campaign: every `(profile, mechanism, checkpoint)`
    /// cell of the spec, reassembled into per-benchmark results.
    ///
    /// Deterministic: for a given spec, the returned grid is bit-identical
    /// at any worker count (cells are pure and reassembly is
    /// index-ordered). This is [`Campaign::run_stored`] over a
    /// [`MemoryStore`]: nothing persists, everything simulates.
    pub fn run(&self, spec: &CampaignSpec) -> CampaignResult {
        self.run_stored(spec, &mut MemoryStore, None)
            .expect("an in-memory campaign cannot fail")
            .result
            .expect("an unsharded campaign resolves every cell")
    }

    /// Runs a campaign through a [`ResultStore`]: cells the store already
    /// holds (earlier partial run, memoisation cache) are served without
    /// simulating, the rest are simulated and **streamed into the store as
    /// they complete** — so a killed run loses at most its in-flight cells
    /// and is resumed by re-running the same command.
    ///
    /// With a [`Shard`], only the cells that shard owns are considered; the
    /// returned [`StoredRun::result`] is then `None` and the full report is
    /// produced later by [`merge_stored`] over all shard files.
    pub fn run_stored(
        &self,
        spec: &CampaignSpec,
        store: &mut dyn ResultStore,
        shard: Option<Shard>,
    ) -> Result<StoredRun, StoreError> {
        let mechanisms = expand_mechanisms(spec);
        let n_mechanisms = mechanisms.len();
        let n_checkpoints = spec.checkpoints.count;
        let cells = spec.profiles.len() * n_mechanisms * n_checkpoints;

        // Content-addressed identity of every cell of the grid.
        let keys: Vec<CellKey> = (0..cells)
            .map(|index| {
                let checkpoint = index % n_checkpoints;
                let mechanism = (index / n_checkpoints) % n_mechanisms;
                let profile = index / (n_checkpoints * n_mechanisms);
                CellKey::for_cell(
                    &spec.profiles[profile],
                    &mechanisms[mechanism],
                    &spec.core_config,
                    spec.checkpoints,
                    checkpoint_seed(spec.seed, checkpoint),
                )
            })
            .collect();

        store.begin(&CampaignHeader::for_spec(spec))?;

        // Resolve what the store already has; simulate only the rest.
        let mut slots: Vec<Option<CheckpointResult>> = vec![None; cells];
        let mut hits = 0usize;
        let mut todo: Vec<usize> = Vec::new();
        for index in 0..cells {
            if shard.is_some_and(|s| !s.owns(index)) {
                continue;
            }
            match store.lookup(keys[index]) {
                Some(result) => {
                    slots[index] = Some(result);
                    hits += 1;
                }
                None => todo.push(index),
            }
        }

        let executed = todo.len();
        let mut record_error: Option<StoreError> = None;
        let (run_slots, exec) = self.executor.run_streamed(
            cells,
            &todo,
            |index| {
                let checkpoint = index % n_checkpoints;
                let mechanism = (index / n_checkpoints) % n_mechanisms;
                let profile = index / (n_checkpoints * n_mechanisms);
                run_checkpoint(
                    &spec.profiles[profile],
                    &mechanisms[mechanism],
                    &spec.core_config,
                    spec.checkpoints,
                    spec.seed,
                    checkpoint,
                )
            },
            &mut |index, result: &CheckpointResult| {
                // Stream each completed cell to the store. A failing store
                // cancels the run (returning false stops scheduling): hours
                // of simulation must not be spent on results that can no
                // longer be persisted.
                match store.record(index, keys[index], result) {
                    Ok(()) => true,
                    Err(e) => {
                        record_error = Some(e);
                        false
                    }
                }
            },
        );
        if let Some(error) = record_error {
            return Err(error);
        }
        store.finish()?;

        for (slot, run) in slots.iter_mut().zip(run_slots) {
            if run.is_some() {
                *slot = run;
            }
        }
        let result = if slots.iter().all(Option::is_some) {
            let outputs: Vec<CheckpointResult> = slots.into_iter().flatten().collect();
            let benchmarks: Vec<String> =
                spec.profiles.iter().map(|p| p.name.to_string()).collect();
            let labels: Vec<String> = mechanisms.iter().map(|m| m.label.clone()).collect();
            let rows = assemble_rows(&benchmarks, &labels, spec.baseline, n_checkpoints, outputs);
            Some(CampaignResult { id: spec.id.clone(), rows, exec: exec.clone() })
        } else {
            None
        };
        Ok(StoredRun { result, exec, hits, executed, total: cells })
    }

    /// Runs the Figure 1 redundancy campaign: per `(profile, checkpoint)`
    /// cell, analyse the committed-value redundancy of the sub-seeded trace
    /// and merge the counts per profile. Mechanisms in the spec are
    /// ignored; only the trace matters.
    pub fn run_redundancy(&self, spec: &CampaignSpec) -> (Experiment, ExecStats) {
        let n_checkpoints = spec.checkpoints.count;
        let insts = (spec.checkpoints.warmup + spec.checkpoints.measure) as usize;
        let cells = spec.profiles.len() * n_checkpoints;
        let (reports, exec) = self.executor.run(cells, |index| {
            let checkpoint = index % n_checkpoints;
            let profile = index / n_checkpoints;
            let trace = TraceGenerator::new(
                &spec.profiles[profile],
                checkpoint_seed(spec.seed, checkpoint),
            )
            .take(insts);
            RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace)
        });

        let mut exp = Experiment::new(spec.id.clone(), "% of committed instructions");
        for (p, profile) in spec.profiles.iter().enumerate() {
            let mut merged = RedundancyReport::default();
            for report in &reports[p * n_checkpoints..(p + 1) * n_checkpoints] {
                merged.merge(report);
            }
            exp.push(profile.name, "zero (load)", merged.zero_load_fraction() * 100.0);
            exp.push(profile.name, "zero (other)", merged.zero_other_fraction() * 100.0);
            exp.push(profile.name, "in PRF (load)", merged.prf_load_fraction() * 100.0);
            exp.push(profile.name, "in PRF (other)", merged.prf_other_fraction() * 100.0);
        }
        (exp, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsep_trace::CheckpointSpec;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::new("test-campaign")
            .with_benchmark_filter("mcf,libquantum")
            .with_checkpoints(CheckpointSpec::scaled(2, 500, 2_000))
            .with_seed(7)
            .with_mechanisms(vec![MechanismConfig::rsep_ideal(), MechanismConfig::value_pred()])
    }

    #[test]
    fn grid_has_one_row_per_profile_and_result_per_mechanism() {
        let result = Campaign::with_jobs(2).run(&tiny_spec());
        assert_eq!(result.rows.len(), 2);
        for row in &result.rows {
            assert!(row.baseline.is_some());
            assert_eq!(row.results.len(), 2);
            assert_eq!(row.results[0].mechanism, "rsep-ideal");
            assert_eq!(row.results[0].checkpoint_ipcs.len(), 2);
        }
        assert_eq!(result.exec.cells, 2 * 3 * 2);
    }

    #[test]
    fn speedups_experiment_covers_the_grid() {
        let result = Campaign::with_jobs(2).run(&tiny_spec());
        let exp = result.speedups();
        assert_eq!(exp.benchmarks().len(), 2);
        assert_eq!(exp.series().len(), 2);
        for p in &exp.points {
            assert!(p.value > -50.0 && p.value < 100.0, "{}: {}", p.series, p.value);
        }
    }

    #[test]
    fn baseline_can_be_skipped() {
        let spec = tiny_spec().with_baseline(false);
        let result = Campaign::with_jobs(2).run(&spec);
        for row in &result.rows {
            assert!(row.baseline.is_none());
            assert_eq!(row.results.len(), 2);
        }
        assert!(result.speedups().points.is_empty());
        assert_eq!(result.ipcs().points.len(), 4);
    }

    #[test]
    fn redundancy_campaign_produces_four_series() {
        let spec = CampaignSpec::new("fig1-test")
            .with_benchmark_filter("zeusmp,gcc")
            .with_checkpoints(CheckpointSpec::scaled(2, 500, 2_000))
            .with_baseline(false);
        let (exp, exec) = Campaign::with_jobs(2).run_redundancy(&spec);
        assert_eq!(exec.cells, 4);
        assert_eq!(exp.benchmarks().len(), 2);
        assert_eq!(exp.series().len(), 4);
        for p in &exp.points {
            assert!((0.0..=100.0).contains(&p.value));
        }
    }
}
