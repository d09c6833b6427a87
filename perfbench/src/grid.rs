//! The three workloads: their campaign grids, set-up, one timed pass over
//! a grid, and the checks that the simulated outputs are correct.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use std::panic::AssertUnwindSafe;

use rsep_campaign::{
    open_corpus, record_campaign, replay_campaign, Campaign, CampaignHeader, CampaignResult,
    CampaignSpec, CellKey, ExecStats, Executor, JsonlStore, ResultStore, StoreError,
};
use rsep_core::{
    checkpoint_seed, run_checkpoint, run_checkpoint_on, BenchmarkResult, CheckpointResult,
    MechanismConfig, RedundancyAnalyzer, RedundancyConfig, RedundancyReport,
};
use rsep_isa::{DynInst, Fnv};
use rsep_stats::Experiment;
use rsep_trace::{CheckpointSpec, StaticProgram, TraceGenerator};
use rsep_tracefile::{AnonScheme, SegmentSource, TraceFile};
use rsep_uarch::SimStats;

/// One benchmark workload. Why each exists is documented in README.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 1 redundancy analysis over all 29 profiles, 1 worker.
    Fig1Suite,
    /// Figure 7 grid, 6 profiles x 3 mechanisms x 2 checkpoints, replayed
    /// from a recorded corpus on 2 workers and streamed to a `JsonlStore`.
    Fig7Replay,
}

/// Checkpoint scale of a workload's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub warmup: u64,
    pub measure: u64,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Fig1Suite, Workload::Fig7Replay];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Suite => "fig1-suite",
            Workload::Fig7Replay => "fig7-replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the closed loop.
    pub fn jobs(self) -> usize {
        match self {
            Workload::Fig7Replay => 2,
            Workload::Fig1Suite => 1,
        }
    }

    /// Whether the cells run the cycle-level core (Figure 1 only analyses
    /// the trace).
    pub fn simulates(self) -> bool {
        self != Workload::Fig1Suite
    }

    /// Warm-up and measured instructions per cell.
    pub fn default_scale(self) -> Scale {
        match self {
            Workload::Fig1Suite => Scale { warmup: 500_000, measure: 500_000 },
            Workload::Fig7Replay => Scale { warmup: 200_000, measure: 100_000 },
        }
    }

    /// The campaign spec of this workload. Environment overrides
    /// (`RSEP_*`) are replaced by explicit values, so the grid depends on
    /// the seed and scale alone.
    pub fn spec(self, seed: u64, scale: Scale) -> CampaignSpec {
        let (id, profiles, checkpoints) = match self {
            Workload::Fig1Suite => ("figure1", "all", 1),
            Workload::Fig7Replay => ("figure7", "mcf,dealII,libquantum,perlbench,gcc,zeusmp", 2),
        };
        let spec = CampaignSpec::new(id)
            .with_benchmark_filter(profiles)
            .with_checkpoints(CheckpointSpec::scaled(checkpoints, scale.warmup, scale.measure))
            .with_seed(seed);
        match self {
            Workload::Fig1Suite => spec.with_baseline(false),
            Workload::Fig7Replay => spec.with_mechanisms(vec![
                MechanismConfig::rsep_ideal(),
                MechanismConfig::rsep_realistic(),
            ]),
        }
    }
}

/// What one cell produced.
// A grid holds at most a few dozen outputs; boxing the larger variant
// would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CellOutput {
    /// A simulated checkpoint (or its `SimError`).
    Sim(CheckpointResult),
    /// A Figure 1 redundancy count.
    Redundancy(RedundancyReport),
}

impl CellOutput {
    /// The rendered `SimError` of a failed simulation cell.
    pub fn error(&self) -> Option<&str> {
        match self {
            CellOutput::Sim(result) => result.error.as_deref(),
            CellOutput::Redundancy(_) => None,
        }
    }

    /// Canonical text of the output: equal texts mean bit-identical
    /// statistics (floats print in their shortest round-trip form).
    pub fn text(&self) -> String {
        format!("{self:?}")
    }
}

/// FNV-1a over every cell's output text, in grid order.
pub fn digest(outputs: &[CellOutput]) -> u64 {
    let mut h = Fnv::new();
    for output in outputs {
        h.write_str(&output.text());
    }
    h.finish()
}

/// One pass over a workload's grid.
#[derive(Debug)]
pub struct Pass {
    /// Cell outputs in grid order.
    pub outputs: Vec<CellOutput>,
    /// Host time of each cell, in grid order.
    pub cell_time: Vec<Duration>,
    /// Wall-clock time of the pass.
    pub wall: Duration,
    /// Executor instrumentation.
    pub exec: ExecStats,
    /// Store time (Figure 7 only; Figure 1 has no store).
    pub store: StoreTimes,
    /// Checks that failed while the pass ran.
    pub problems: Vec<String>,
}

/// Time spent inside a [`ResultStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTimes {
    pub record: Duration,
    pub lookup: Duration,
}

/// A [`ResultStore`] wrapper that times the wrapped store's calls.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    pub times: StoreTimes,
}

impl<S: ResultStore> TimedStore<S> {
    pub fn new(inner: S) -> TimedStore<S> {
        TimedStore { inner, times: StoreTimes::default() }
    }
}

impl<S: ResultStore> ResultStore for TimedStore<S> {
    fn begin(&mut self, header: &CampaignHeader) -> Result<(), StoreError> {
        self.inner.begin(header)
    }

    fn lookup(&mut self, key: CellKey) -> Option<CheckpointResult> {
        let start = Instant::now();
        let found = self.inner.lookup(key);
        self.times.lookup += start.elapsed();
        found
    }

    fn record(
        &mut self,
        index: usize,
        key: CellKey,
        result: &CheckpointResult,
    ) -> Result<(), StoreError> {
        let start = Instant::now();
        let recorded = self.inner.record(index, key, result);
        self.times.record += start.elapsed();
        recorded
    }

    fn finish(&mut self) -> Result<(), StoreError> {
        self.inner.finish()
    }
}

/// Runs one simulation cell, turning a panic inside the simulator into a
/// failed cell whose error is the panic message. A simulator bug that
/// panics (rather than returning a `SimError`) on some seed then shows as
/// one failed cell instead of stopping the whole run.
pub fn guarded(index: usize, cell: impl FnOnce() -> CheckpointResult) -> CheckpointResult {
    std::panic::catch_unwind(AssertUnwindSafe(cell)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        CheckpointResult {
            index,
            ipc: 0.0,
            stats: SimStats::default(),
            error: Some(format!("simulator panic: {message}")),
        }
    })
}

/// A workload after set-up: its spec, expanded mechanism axis and, for
/// the replay workload, the recorded corpus.
#[derive(Debug)]
pub struct Grid {
    pub workload: Workload,
    pub spec: CampaignSpec,
    /// The mechanism axis in grid order (baseline first); empty for
    /// Figure 1, which has no mechanism axis.
    pub mechanisms: Vec<MechanismConfig>,
    /// The store's campaign header and every cell's content address
    /// (Figure 7 only, whose cells stream into a store).
    store_plan: Option<(CampaignHeader, Vec<CellKey>)>,
    /// Every cell's synthesised program, in grid order (Figure 1 only).
    programs: Vec<StaticProgram>,
    /// One trace file per profile (Figure 7 only).
    pub corpus: Vec<TraceFile>,
    /// Bytes written by the corpus recording, and its host time.
    pub corpus_bytes: u64,
    pub record_time: Duration,
    work_dir: PathBuf,
}

impl Grid {
    /// Builds the workload: spec and mechanism axis; for Figure 1 each
    /// cell's static program (`StaticProgram::synthesize`, the part of
    /// `TraceGenerator::new` that depends on the profile); for Figure 7 the
    /// store's header and cell keys, and the corpus, recorded into
    /// `work_dir` (which must exist) by `record_campaign` and reopened by
    /// `open_corpus`.
    pub fn setup(
        workload: Workload,
        seed: u64,
        scale: Scale,
        work_dir: &Path,
    ) -> Result<Grid, String> {
        let spec = workload.spec(seed, scale);
        let mut mechanisms = Vec::new();
        if spec.baseline {
            mechanisms.push(MechanismConfig::baseline());
        }
        mechanisms.extend(spec.mechanisms.iter().cloned());
        let mut grid = Grid {
            workload,
            spec,
            mechanisms,
            store_plan: None,
            programs: Vec::new(),
            corpus: Vec::new(),
            corpus_bytes: 0,
            record_time: Duration::ZERO,
            work_dir: work_dir.to_path_buf(),
        };
        if workload == Workload::Fig1Suite {
            grid.programs = (0..grid.cells())
                .map(|index| {
                    let (p, _, c) = grid.coords(index);
                    let seed = checkpoint_seed(grid.spec.seed, c);
                    StaticProgram::synthesize(&grid.spec.profiles[p], seed)
                })
                .collect();
        }
        if workload == Workload::Fig7Replay {
            let keys = (0..grid.cells())
                .map(|index| {
                    let (p, m, c) = grid.coords(index);
                    CellKey::for_cell(
                        &grid.spec.profiles[p],
                        &grid.mechanisms[m],
                        &grid.spec.core_config,
                        grid.spec.checkpoints,
                        checkpoint_seed(grid.spec.seed, c),
                    )
                })
                .collect();
            grid.store_plan = Some((CampaignHeader::for_spec(&grid.spec), keys));
            let dir = work_dir.join("corpus");
            let start = Instant::now();
            let written = record_campaign(&dir, &grid.spec, AnonScheme::KeyedBlock)?;
            grid.record_time = start.elapsed();
            grid.corpus_bytes = written.iter().map(|t| t.bytes).sum();
            grid.corpus = open_corpus(&dir, &grid.spec)?;
        }
        Ok(grid)
    }

    pub fn cells(&self) -> usize {
        self.spec.profiles.len() * self.axis() * self.spec.checkpoints.count
    }

    /// Length of the mechanism axis; Figure 1 counts as one mechanism.
    fn axis(&self) -> usize {
        self.mechanisms.len().max(1)
    }

    /// `(profile, mechanism, checkpoint)` of a cell, in the index order of
    /// `Campaign::run_stored`.
    pub fn coords(&self, index: usize) -> (usize, usize, usize) {
        let n_checkpoints = self.spec.checkpoints.count;
        (
            index / (n_checkpoints * self.axis()),
            (index / n_checkpoints) % self.axis(),
            index % n_checkpoints,
        )
    }

    /// Mechanism label of a cell ("" for Figure 1).
    pub fn label(&self, index: usize) -> &str {
        self.mechanisms.get(self.coords(index).1).map_or("", |m| m.label.as_str())
    }

    /// `profile/mechanism/checkpoint` of a cell, for messages.
    pub fn cell_name(&self, index: usize) -> String {
        let (p, _, c) = self.coords(index);
        format!("{}/{}/{c}", self.spec.profiles[p].name, self.label(index))
    }

    /// Instructions a live generator yields per cell.
    pub fn insts_per_cell(&self) -> u64 {
        self.spec.checkpoints.warmup + self.spec.checkpoints.measure
    }

    /// The instruction stream of a cell: a live generator over its
    /// set-up program for Figure 1 (the stream of `TraceGenerator::new`),
    /// its corpus segment for Figure 7.
    pub fn stream(&self, index: usize) -> Stream<'_> {
        let (p, _, c) = self.coords(index);
        match self.workload {
            Workload::Fig1Suite => {
                let seed = checkpoint_seed(self.spec.seed, c);
                Stream::Live(TraceGenerator::from_program(self.programs[index].clone(), seed))
            }
            Workload::Fig7Replay => Stream::File(
                self.corpus[p].segment(c).expect("segment count checked by open_corpus"),
            ),
        }
    }

    /// One pass over the whole grid, as a user of the campaign API runs
    /// it; every cell's host time is kept.
    pub fn run_pass(&self) -> Result<Pass, String> {
        let start = Instant::now();
        let mut pass = match self.workload {
            Workload::Fig1Suite => self.run_executor_pass(|index| {
                let trace = self.stream(index).take(self.insts_per_cell() as usize);
                let report = RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace);
                CellOutput::Redundancy(report)
            }),
            Workload::Fig7Replay => self.stored_pass()?,
        };
        pass.wall = start.elapsed();
        for (index, output) in pass.outputs.iter().enumerate() {
            if let Some(problem) = self.check_output(output) {
                pass.problems.push(format!("{}: {problem}", self.cell_name(index)));
            }
        }
        Ok(pass)
    }

    /// Figure 7: the cells of `replay_campaign`, streamed into a fresh
    /// `JsonlStore` as they complete, the way `Campaign::run_stored`
    /// streams cells (header, key lookups, `run_streamed`, one record per
    /// cell; the keys are computed at set-up). Each cell is timed and
    /// guarded against simulator panics.
    fn stored_pass(&self) -> Result<Pass, String> {
        let path = self.store_path();
        if path.exists() {
            fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
        }
        let (header, keys) = self.store_plan.as_ref().expect("Figure 7 set-up plans the store");
        let mut store = TimedStore::new(JsonlStore::open(&path).map_err(|e| e.to_string())?);
        store.begin(header).map_err(|e| e.to_string())?;
        let mut problems = Vec::new();
        let todo: Vec<usize> =
            (0..self.cells()).filter(|&index| store.lookup(keys[index]).is_none()).collect();
        if todo.len() != self.cells() {
            problems.push(format!("a fresh store served {} cells", self.cells() - todo.len()));
        }
        let mut record_error = None;
        let (slots, exec) = Executor::new(self.workload.jobs()).run_streamed(
            self.cells(),
            &todo,
            |index| {
                let start = Instant::now();
                let (p, m, c) = self.coords(index);
                let mut segment =
                    self.corpus[p].segment(c).expect("segment count checked by open_corpus");
                let result = guarded(c, || {
                    run_checkpoint_on(
                        &mut segment,
                        &self.mechanisms[m],
                        &self.spec.core_config,
                        self.spec.checkpoints,
                        c,
                    )
                });
                let problem = segment.error().map(|e| format!("decode error: {e}"));
                (result, problem, start.elapsed())
            },
            &mut |index, (result, _, _)| match store.record(index, keys[index], result) {
                Ok(()) => true,
                Err(e) => {
                    record_error = Some(e.to_string());
                    false
                }
            },
        );
        if let Some(e) = record_error {
            return Err(e);
        }
        store.finish().map_err(|e| e.to_string())?;
        let mut pass = Pass {
            outputs: Vec::with_capacity(slots.len()),
            cell_time: Vec::with_capacity(slots.len()),
            wall: Duration::ZERO,
            exec,
            store: store.times,
            problems,
        };
        for (index, slot) in slots.into_iter().enumerate() {
            let (result, problem, took) = slot.ok_or_else(|| format!("cell {index} never ran"))?;
            if let Some(problem) = problem {
                pass.problems.push(format!("{}: {problem}", self.cell_name(index)));
            }
            pass.outputs.push(CellOutput::Sim(result));
            pass.cell_time.push(took);
        }
        Ok(pass)
    }

    /// Runs every cell on the workload's executor, timing each inside its
    /// worker.
    fn run_executor_pass<F>(&self, cell: F) -> Pass
    where
        F: Fn(usize) -> CellOutput + Sync,
    {
        let (results, exec) = Executor::new(self.workload.jobs()).run(self.cells(), |index| {
            let start = Instant::now();
            let output = cell(index);
            (output, start.elapsed())
        });
        let mut pass = Pass {
            outputs: Vec::with_capacity(results.len()),
            cell_time: Vec::with_capacity(results.len()),
            wall: Duration::ZERO,
            exec,
            store: StoreTimes::default(),
            problems: Vec::new(),
        };
        for (output, took) in results {
            pass.outputs.push(output);
            pass.cell_time.push(took);
        }
        pass
    }

    /// Path of the Figure 7 JSONL store.
    pub fn store_path(&self) -> PathBuf {
        self.work_dir.join("fig7-replay.jsonl")
    }

    /// Why an output is wrong, if it is: a successful simulation must
    /// commit at least its measured target, an analysis must see every
    /// instruction of its trace.
    pub fn check_output(&self, output: &CellOutput) -> Option<String> {
        match output {
            CellOutput::Sim(result) if result.error.is_none() => {
                let target = self.spec.checkpoints.measure;
                (result.stats.committed < target).then(|| {
                    format!(
                        "committed {} of {target} measured instructions",
                        result.stats.committed
                    )
                })
            }
            CellOutput::Sim(_) => None,
            CellOutput::Redundancy(report) => {
                let target = self.insts_per_cell();
                (report.committed != target)
                    .then(|| format!("analysed {} of {target} instructions", report.committed))
            }
        }
    }

    /// Instructions a cell committed (warm-up + measured) or analysed; a
    /// failed cell counts none.
    pub fn instructions(&self, output: &CellOutput) -> u64 {
        match output {
            CellOutput::Sim(result) if result.error.is_none() => {
                self.spec.checkpoints.warmup + result.stats.committed
            }
            CellOutput::Sim(_) => 0,
            CellOutput::Redundancy(report) => report.committed,
        }
    }

    /// Per-profile, per-mechanism results assembled from cell outputs the
    /// way the campaign engine assembles them, in row order.
    pub fn assemble(&self, outputs: &[CellOutput]) -> Vec<BenchmarkResult> {
        let n_checkpoints = self.spec.checkpoints.count;
        outputs
            .chunks(n_checkpoints)
            .enumerate()
            .map(|(row, chunk)| {
                let index = row * n_checkpoints;
                let checkpoints = chunk
                    .iter()
                    .filter_map(|o| match o {
                        CellOutput::Sim(result) => Some(result.clone()),
                        CellOutput::Redundancy(_) => None,
                    })
                    .collect();
                let profile = self.spec.profiles[self.coords(index).0].name;
                BenchmarkResult::from_checkpoints(profile, self.label(index), checkpoints)
            })
            .collect()
    }

    /// [`row_texts`] of the campaign the outputs assemble to.
    pub fn assembled_texts(&self, outputs: &[CellOutput]) -> Vec<String> {
        self.assemble(outputs).iter().map(|r| format!("{r:?}")).collect()
    }

    /// The report experiment of a pass: speedups for the simulation grids,
    /// the Figure 1 series for the redundancy grid.
    pub fn experiment(&self, outputs: &[CellOutput]) -> Experiment {
        if self.workload.simulates() {
            let rows = self.assemble(outputs);
            let result = CampaignResult {
                id: self.spec.id.clone(),
                rows: rows_to_profiles(&rows, self.axis()),
                exec: ExecStats {
                    cells: outputs.len(),
                    jobs: 0,
                    wall: Duration::ZERO,
                    busy: Duration::ZERO,
                },
            };
            return result.speedups();
        }
        // The merge and series of `Campaign::run_redundancy`.
        let mut exp = Experiment::new(self.spec.id.clone(), "% of committed instructions");
        let n_checkpoints = self.spec.checkpoints.count;
        for (p, profile) in self.spec.profiles.iter().enumerate() {
            let mut merged = RedundancyReport::default();
            for output in &outputs[p * n_checkpoints..(p + 1) * n_checkpoints] {
                if let CellOutput::Redundancy(report) = output {
                    merged.merge(report);
                }
            }
            exp.push(profile.name, "zero (load)", merged.zero_load_fraction() * 100.0);
            exp.push(profile.name, "zero (other)", merged.zero_other_fraction() * 100.0);
            exp.push(profile.name, "in PRF (load)", merged.prf_load_fraction() * 100.0);
            exp.push(profile.name, "in PRF (other)", merged.prf_other_fraction() * 100.0);
        }
        exp
    }

    /// Checks a pass against the campaign API's own entry point for this
    /// grid, untimed:
    /// - Figure 1: `Campaign::run_redundancy` gives the same report;
    /// - Figure 7: the grid run from live generators (`run_checkpoint`,
    ///   as `Campaign::run_stored` runs it) gives the same cells as the
    ///   replay.
    pub fn reference_check(&self, outputs: &[CellOutput]) -> Result<Vec<String>, String> {
        let mut problems = Vec::new();
        match self.workload {
            Workload::Fig1Suite => {
                let (reference, _) =
                    Campaign::with_jobs(self.workload.jobs()).run_redundancy(&self.spec);
                if reference.to_json() != self.experiment(outputs).to_json() {
                    problems
                        .push("the Figure 1 report differs from Campaign::run_redundancy".into());
                }
            }
            Workload::Fig7Replay => {
                let (live, _) = Executor::new(self.workload.jobs()).run(self.cells(), |index| {
                    let (p, m, c) = self.coords(index);
                    CellOutput::Sim(guarded(c, || {
                        run_checkpoint(
                            &self.spec.profiles[p],
                            &self.mechanisms[m],
                            &self.spec.core_config,
                            self.spec.checkpoints,
                            self.spec.seed,
                            c,
                        )
                    }))
                });
                problems.extend(compare_cells(self, outputs, &live, "the live grid"));
            }
        }
        Ok(problems)
    }

    /// Figure 7 only: the grid replayed by `replay_campaign` assembles to
    /// the same rows as the cell outputs.
    pub fn replay_campaign_check(&self, outputs: &[CellOutput]) -> Result<Vec<String>, String> {
        if self.workload != Workload::Fig7Replay {
            return Ok(Vec::new());
        }
        // A simulator panic in any cell aborts `replay_campaign`; the pass
        // shows such a cell as failed, so there is nothing to compare.
        let replay =
            || replay_campaign(&Executor::new(self.workload.jobs()), &self.spec, &self.corpus);
        let result = match std::panic::catch_unwind(AssertUnwindSafe(replay)) {
            Ok(result) => result?,
            Err(_)
                if outputs
                    .iter()
                    .any(|o| o.error().is_some_and(|e| e.starts_with("simulator panic"))) =>
            {
                return Ok(Vec::new())
            }
            Err(_) => return Ok(vec!["replay_campaign panicked".to_string()]),
        };
        Ok(if row_texts(&result) == self.assembled_texts(outputs) {
            Vec::new()
        } else {
            vec!["the grid differs from replay_campaign".to_string()]
        })
    }
}

/// Canonical text of every per-profile, per-mechanism result of a
/// campaign, in row order (see [`Grid::assembled_texts`]).
pub fn row_texts(result: &CampaignResult) -> Vec<String> {
    result
        .rows
        .iter()
        .flat_map(|row| row.baseline.iter().chain(&row.results))
        .map(|r| format!("{r:?}"))
        .collect()
}

/// Regroups row-ordered results into per-profile rows (baseline first).
fn rows_to_profiles(rows: &[BenchmarkResult], axis: usize) -> Vec<rsep_campaign::ProfileResults> {
    rows.chunks(axis)
        .map(|chunk| rsep_campaign::ProfileResults {
            benchmark: chunk[0].benchmark.clone(),
            baseline: Some(chunk[0].clone()),
            results: chunk[1..].to_vec(),
        })
        .collect()
}

/// Cell-by-cell comparison of two grids' outputs.
pub fn compare_cells(
    grid: &Grid,
    ours: &[CellOutput],
    theirs: &[CellOutput],
    what: &str,
) -> Vec<String> {
    if ours.len() != theirs.len() {
        return vec![format!("{what} has {} cells, expected {}", theirs.len(), ours.len())];
    }
    ours.iter()
        .zip(theirs)
        .enumerate()
        .filter(|(_, (a, b))| a.text() != b.text())
        .map(|(index, _)| format!("{}: differs from {what}", grid.cell_name(index)))
        .collect()
}

/// A cell's instruction stream: a live generator or a corpus segment.
#[derive(Debug)]
pub enum Stream<'a> {
    Live(TraceGenerator),
    File(SegmentSource<'a>),
}

impl Iterator for Stream<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        match self {
            Stream::Live(generator) => generator.next(),
            Stream::File(segment) => segment.next(),
        }
    }
}
