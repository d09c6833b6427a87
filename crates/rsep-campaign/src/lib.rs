//! # rsep-campaign
//!
//! Parallel experiment-campaign engine for the RSEP reproduction.
//!
//! The paper's evaluation (Section V/VI) is a grid: ~19 SPEC-like profiles
//! × 7 mechanism configurations × N checkpoints. This crate turns that grid
//! into a first-class subsystem:
//!
//! * [`CampaignSpec`] — a declarative description of one campaign
//!   (profiles × mechanisms × core config × checkpoint scale × seed);
//! * [`Executor`] — a channel-fed thread pool that fans the independent
//!   `(profile, mechanism, checkpoint)` cells across workers and collects
//!   outputs by cell index, so results are **bit-identical at any thread
//!   count**;
//! * [`Campaign`] — expands a spec into cells, runs them, and reassembles
//!   the per-benchmark results into a [`CampaignResult`] grid;
//! * [`store`] — the pluggable results layer: every cell has a
//!   content-addressed [`CellKey`], and a [`ResultStore`] receives cells as
//!   they complete ([`MemoryStore`] for today's in-memory behaviour,
//!   [`JsonlStore`] for crash-resumable streaming runs);
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
//! # Resumable runs
//!
//! ```no_run
//! use rsep_campaign::{presets, Campaign, JsonlStore};
//!
//! let spec = presets::fig4().smoke();
//! // Cells stream into the file as they complete. If the run is killed,
//! // reopening the same file serves the stored cells and simulates only
//! // the rest.
//! let mut store = JsonlStore::open("fig4.jsonl").unwrap();
//! let resumed = store.resumed_cells();
//! let run = Campaign::with_jobs(2).run_stored(&spec, &mut store, None).unwrap();
//! assert_eq!(run.hits, resumed);
//! assert_eq!(run.hits + run.executed, spec.cell_count());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod executor;
pub mod presets;
pub mod replay;
pub mod report;
pub mod spec;
pub mod store;

pub use executor::{ExecStats, Executor};
pub use replay::{open_corpus, record_campaign, replay_campaign, RecordedTrace};
pub use report::ReportFormat;
pub use spec::CampaignSpec;
pub use store::{CampaignHeader, CellKey, JsonlStore, MemoryStore, ResultStore, StoreError};

use rsep_core::{
    checkpoint_seed, run_checkpoint, BenchmarkResult, CheckpointResult, MechanismConfig,
    RedundancyAnalyzer, RedundancyConfig, RedundancyReport,
};
use rsep_stats::{speedup_percent, Experiment};
use rsep_trace::TraceGenerator;
use std::convert::Infallible;

/// One benchmark row of a campaign: the baseline (when run) and one result
/// per mechanism, in spec order.
#[derive(Debug, Clone)]
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

/// Outcome of a store-backed campaign run ([`Campaign::run_stored`]).
#[derive(Debug, Clone)]
pub struct StoredRun {
    /// The reassembled grid; always `Some`. The `Option` stays for
    /// perfbench's call site and goes with ROADMAP item 15.
    pub result: Option<CampaignResult>,
    /// Executor instrumentation over the cells actually simulated.
    pub exec: ExecStats,
    /// Cells served by the store without simulating.
    pub hits: usize,
    /// Cells simulated (store misses).
    pub executed: usize,
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
            .expect("a completed run resolves every cell")
    }

    /// Runs a campaign through a [`ResultStore`]: cells the store already
    /// holds (an earlier, killed run) are served without simulating, the
    /// rest are simulated and **streamed into the store as they
    /// complete** — so a killed run loses at most its in-flight cells and
    /// is resumed by re-running the same command.
    ///
    /// The last parameter can only be `None`; it is kept for perfbench's
    /// call site and goes with ROADMAP item 15.
    pub fn run_stored(
        &self,
        spec: &CampaignSpec,
        store: &mut dyn ResultStore,
        _: Option<Infallible>,
    ) -> Result<StoredRun, StoreError> {
        self.run_cells(spec, store, |profile, mechanism, checkpoint| {
            run_checkpoint(
                &spec.profiles[profile],
                mechanism,
                &spec.core_config,
                spec.checkpoints,
                spec.seed,
                checkpoint,
            )
        })
    }

    /// The grid runner behind [`Campaign::run_stored`] and
    /// [`replay_campaign`]: expands the grid, serves or simulates each cell
    /// through `store`, and assembles the rows. `simulate` runs one cell
    /// given its profile index, mechanism and checkpoint index; the two
    /// callers differ only in where that cell's instructions come from.
    pub(crate) fn run_cells(
        &self,
        spec: &CampaignSpec,
        store: &mut dyn ResultStore,
        simulate: impl Fn(usize, &MechanismConfig, usize) -> CheckpointResult + Sync,
    ) -> Result<StoredRun, StoreError> {
        let mechanisms = expand_mechanisms(spec);
        let n_mechanisms = mechanisms.len();
        let n_checkpoints = spec.checkpoints.count;
        let cells = spec.profiles.len() * n_mechanisms * n_checkpoints;
        // Grid index → (profile, mechanism, checkpoint), checkpoint fastest.
        let coords = |index: usize| {
            (
                index / (n_checkpoints * n_mechanisms),
                (index / n_checkpoints) % n_mechanisms,
                index % n_checkpoints,
            )
        };

        // Content-addressed identity of every cell of the grid.
        let keys: Vec<CellKey> = (0..cells)
            .map(|index| {
                let (profile, mechanism, checkpoint) = coords(index);
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
                let (profile, mechanism, checkpoint) = coords(index);
                simulate(profile, &mechanisms[mechanism], checkpoint)
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

        // Reassemble index-ordered: per benchmark, one result per mechanism
        // (baseline first when present) over its checkpoints.
        let mut outputs = slots
            .into_iter()
            .zip(run_slots)
            .map(|(stored, run)| stored.or(run).expect("every cell is stored or simulated"));
        let mut rows = Vec::with_capacity(spec.profiles.len());
        for profile in &spec.profiles {
            let mut baseline = None;
            let mut results = Vec::new();
            for (m, mechanism) in mechanisms.iter().enumerate() {
                let checkpoints: Vec<CheckpointResult> =
                    outputs.by_ref().take(n_checkpoints).collect();
                let result = BenchmarkResult::from_checkpoints(
                    profile.name.to_string(),
                    mechanism.label.clone(),
                    checkpoints,
                );
                if spec.baseline && m == 0 {
                    baseline = Some(result);
                } else {
                    results.push(result);
                }
            }
            rows.push(ProfileResults { benchmark: profile.name.to_string(), baseline, results });
        }
        let result = Some(CampaignResult { id: spec.id.clone(), rows, exec: exec.clone() });
        Ok(StoredRun { result, exec, hits, executed })
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
