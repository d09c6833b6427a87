//! The traced pass: the same cells as an untimed pass, with each layer
//! wrapped from outside so that its host time can be read.
//!
//! - [`TimedEngine`] forwards every `SpecEngine` hook to the wrapped
//!   `RsepEngine` and counts its calls and time;
//! - [`TimedSource`] times the trace source (`TraceGenerator` or the
//!   trace-file `SegmentSource`) a chunk at a time;
//! - `Core::run` is timed whole; the core's own time is what remains after
//!   the engine and the trace source;
//! - `RedundancyAnalyzer::analyze` is timed whole; its own time is what
//!   remains after the trace source.
//!
//! Wrapped cells must give results bit-identical to the untraced pass,
//! which the caller checks.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rsep_core::{CheckpointResult, RedundancyAnalyzer, RedundancyConfig, RsepEngine};
use rsep_isa::{DynInst, PhysReg};
use rsep_predictors::PredictorStats;
use rsep_uarch::{Core, Disposition, RenameAction, RenameContext, SpecEngine};

use crate::grid::{guarded, CellOutput, Grid};

/// The engine hooks, in metric order.
pub const HOOKS: [&str; 5] =
    ["on_branch", "at_rename", "at_commit", "release_register", "on_squash"];

/// Calls and inclusive time of each engine hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookTimes {
    pub calls: [u64; 5],
    pub time: [Duration; 5],
}

impl HookTimes {
    fn merge(&mut self, other: &HookTimes) {
        for h in 0..HOOKS.len() {
            self.calls[h] += other.calls[h];
            self.time[h] += other.time[h];
        }
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn total_time(&self) -> Duration {
        self.time.iter().sum()
    }
}

/// A forwarding [`SpecEngine`] that times every hook of the engine it
/// wraps.
#[derive(Debug)]
pub struct TimedEngine {
    pub inner: RsepEngine,
    pub hooks: HookTimes,
}

impl TimedEngine {
    pub fn new(inner: RsepEngine) -> TimedEngine {
        TimedEngine { inner, hooks: HookTimes::default() }
    }

    #[inline(always)]
    fn timed<T>(&mut self, hook: usize, call: impl FnOnce(&mut RsepEngine) -> T) -> T {
        let start = Instant::now();
        let out = call(&mut self.inner);
        self.hooks.time[hook] += start.elapsed();
        self.hooks.calls[hook] += 1;
        out
    }
}

impl SpecEngine for TimedEngine {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_branch(&mut self, pc: u64, taken: bool) {
        self.timed(0, |e| e.on_branch(pc, taken))
    }

    fn at_rename(&mut self, inst: &DynInst, ctx: &RenameContext<'_>) -> RenameAction {
        self.timed(1, |e| e.at_rename(inst, ctx))
    }

    fn at_commit(&mut self, inst: &DynInst, disposition: Disposition, clock: u64) {
        self.timed(2, |e| e.at_commit(inst, disposition, clock))
    }

    fn release_register(&mut self, preg: PhysReg) -> bool {
        self.timed(3, |e| e.release_register(preg))
    }

    fn on_squash(&mut self, from_seq: u64) -> Vec<PhysReg> {
        self.timed(4, |e| e.on_squash(from_seq))
    }

    fn predictor_stats(&self) -> Vec<(&'static str, PredictorStats)> {
        self.inner.predictor_stats()
    }
}

/// Instructions a [`TimedSource`] pulls from its source per timed span.
const CHUNK: usize = 256;

/// An iterator that times the source it wraps. It pulls `CHUNK`
/// instructions per timed span, so the timer costs little per
/// instruction; the stream it yields is the source's, unchanged.
#[derive(Debug)]
pub struct TimedSource<I> {
    inner: I,
    buffer: VecDeque<DynInst>,
    pub time: Duration,
    pub spans: u64,
    pub pulled: u64,
}

impl<I: Iterator<Item = DynInst>> TimedSource<I> {
    pub fn new(inner: I) -> TimedSource<I> {
        TimedSource {
            inner,
            buffer: VecDeque::with_capacity(CHUNK),
            time: Duration::ZERO,
            spans: 0,
            pulled: 0,
        }
    }
}

impl<I: Iterator<Item = DynInst>> Iterator for TimedSource<I> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.buffer.is_empty() {
            let start = Instant::now();
            self.buffer.extend(self.inner.by_ref().take(CHUNK));
            self.time += start.elapsed();
            self.spans += 1;
            self.pulled += self.buffer.len() as u64;
        }
        self.buffer.pop_front()
    }
}

/// Layer times and counts of the cells of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Sum of the traced cells' host times.
    pub cells: Duration,
    /// Engine hooks, over all cells.
    pub hooks: HookTimes,
    /// Engine hooks per mechanism label, in first-seen order.
    pub hooks_by_label: Vec<(String, HookTimes)>,
    /// `TraceGenerator::new`.
    pub trace_new: Duration,
    /// Live generator `next()`: time, timed spans, instructions.
    pub trace_next: Duration,
    pub trace_spans: u64,
    pub trace_insts: u64,
    /// Trace-file segment decoding: time, timed spans, instructions.
    pub file_next: Duration,
    pub file_spans: u64,
    pub file_insts: u64,
    /// `Core::new` with its `RsepEngine`: every cell starts from cold,
    /// freshly allocated structures.
    pub core_new: Duration,
    /// `Core::run`, inclusive of the engine and the source.
    pub core_run: Duration,
    /// Cycles the cores simulated (warm-up + measured).
    pub core_cycles: u64,
    /// `RedundancyAnalyzer::analyze`, inclusive of the source.
    pub analyze: Duration,
    /// Engine counters.
    pub fifo_searches: u64,
    pub isrb_shares_accepted: u64,
    pub isrb_shares_rejected_full: u64,
    pub isrb_max_occupancy: u64,
}

impl LayerTimes {
    fn merge(&mut self, other: &LayerTimes) {
        self.cells += other.cells;
        self.hooks.merge(&other.hooks);
        for (label, hooks) in &other.hooks_by_label {
            match self.hooks_by_label.iter_mut().find(|(l, _)| l == label) {
                Some((_, mine)) => mine.merge(hooks),
                None => self.hooks_by_label.push((label.clone(), *hooks)),
            }
        }
        self.trace_new += other.trace_new;
        self.trace_next += other.trace_next;
        self.trace_spans += other.trace_spans;
        self.trace_insts += other.trace_insts;
        self.file_next += other.file_next;
        self.file_spans += other.file_spans;
        self.file_insts += other.file_insts;
        self.core_new += other.core_new;
        self.core_run += other.core_run;
        self.core_cycles += other.core_cycles;
        self.analyze += other.analyze;
        self.fifo_searches += other.fifo_searches;
        self.isrb_shares_accepted += other.isrb_shares_accepted;
        self.isrb_shares_rejected_full += other.isrb_shares_rejected_full;
        self.isrb_max_occupancy = self.isrb_max_occupancy.max(other.isrb_max_occupancy);
    }
}

/// Outputs and layer times of a traced pass.
#[derive(Debug)]
pub struct TracedPass {
    pub outputs: Vec<CellOutput>,
    pub layers: LayerTimes,
}

/// Runs every cell of the grid with its layers wrapped, on the workload's
/// worker count.
pub fn traced_pass(grid: &Grid) -> TracedPass {
    let executor = rsep_campaign::Executor::new(grid.workload.jobs());
    let (cells, _) = executor.run(grid.cells(), |index| traced_cell(grid, index));
    let mut layers = LayerTimes::default();
    let mut outputs = Vec::with_capacity(cells.len());
    for (output, cell_layers) in cells {
        outputs.push(output);
        layers.merge(&cell_layers);
    }
    TracedPass { outputs, layers }
}

/// One wrapped cell: the protocol of `run_checkpoint_on` (fresh core,
/// warm-up, statistics reset, measurement) or of `Campaign::run_redundancy`.
fn traced_cell(grid: &Grid, index: usize) -> (CellOutput, LayerTimes) {
    let cell_start = Instant::now();
    let mut layers = LayerTimes::default();
    let (_, m, c) = grid.coords(index);
    let new_start = Instant::now();
    let stream = grid.stream(index);
    let is_file = !grid.corpus.is_empty();
    if !is_file {
        layers.trace_new = new_start.elapsed();
    }
    let mut source = TimedSource::new(stream);

    let output = if grid.workload.simulates() {
        let result = guarded(c, || traced_simulation(grid, m, c, &mut source, &mut layers));
        CellOutput::Sim(result)
    } else {
        let analyze_start = Instant::now();
        let trace = source.by_ref().take(grid.insts_per_cell() as usize);
        let report = RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace);
        layers.analyze = analyze_start.elapsed();
        CellOutput::Redundancy(report)
    };

    if is_file {
        layers.file_next = source.time;
        layers.file_spans = source.spans;
        layers.file_insts = source.pulled;
    } else {
        layers.trace_next = source.time;
        layers.trace_spans = source.spans;
        layers.trace_insts = source.pulled;
    }
    layers.cells = cell_start.elapsed();
    (output, layers)
}

/// The protocol of `run_checkpoint_on` on a core driven by a
/// [`TimedEngine`], filling the core and engine layers.
fn traced_simulation(
    grid: &Grid,
    m: usize,
    c: usize,
    source: &mut impl Iterator<Item = DynInst>,
    layers: &mut LayerTimes,
) -> CheckpointResult {
    let mechanism = &grid.mechanisms[m];
    let spec = grid.spec.checkpoints;
    let new_start = Instant::now();
    let engine = TimedEngine::new(RsepEngine::new(mechanism.clone()));
    let mut core = Core::new(grid.spec.core_config.clone(), engine);
    layers.core_new = new_start.elapsed();
    let run_start = Instant::now();
    let result = match core.run(source, spec.warmup) {
        Err(e) => CheckpointResult::failed(c, &e),
        Ok(_) => {
            core.reset_stats();
            match core.run(source, spec.measure) {
                Err(e) => CheckpointResult::failed(c, &e),
                Ok(_) => CheckpointResult::ok(c, core.take_stats()),
            }
        }
    };
    // `reset_stats` and `take_stats` are a negligible part of this span;
    // the core's self time absorbs them.
    layers.core_run = run_start.elapsed();
    layers.core_cycles = core.clock();
    let engine = core.engine();
    layers.hooks = engine.hooks;
    layers.hooks_by_label = vec![(mechanism.label.clone(), engine.hooks)];
    if let Some(fifo) = engine.inner.fifo_stats() {
        layers.fifo_searches = fifo.searches;
    }
    if let Some(isrb) = engine.inner.isrb_stats() {
        layers.isrb_shares_accepted = isrb.shares_accepted;
        layers.isrb_shares_rejected_full = isrb.shares_rejected_full;
        layers.isrb_max_occupancy = isrb.max_occupancy as u64;
    }
    result
}
