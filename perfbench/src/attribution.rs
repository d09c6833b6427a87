//! The attribution pass: the grid's simulation cells rerun on a build of
//! the simulator with the `obs` feature, whose `Core::take_attribution`
//! splits every measured cycle of each pipeline stage into classes. It
//! gives the `obs.*` fractions, the ones a skip-ahead over quiescent
//! cycles would move.

use rsep_core::{CheckpointResult, RsepEngine};
use rsep_uarch::{Core, StageAttribution};

use crate::grid::{guarded, CellOutput, Grid};
use crate::measure::{ratio, Metrics};

/// Stage-attribution metrics and the cell outputs they came from.
#[derive(Debug)]
pub struct Attribution {
    pub metrics: Metrics,
    pub outputs: Vec<CellOutput>,
    pub problems: Vec<String>,
}

/// Reruns every simulation cell with attribution on. Figure 1 runs no
/// core, so its fractions are 0 and no cell runs.
pub fn attribution_pass(grid: &Grid) -> Result<Attribution, String> {
    let mut merged = StageAttribution::default();
    let mut outputs = Vec::new();
    let mut problems = Vec::new();
    if grid.workload.simulates() {
        let executor = rsep_campaign::Executor::new(grid.workload.jobs());
        let (cells, _) = executor.run(grid.cells(), |index| {
            let mut attribution = None;
            let result = guarded(grid.coords(index).2, || {
                let (result, taken) = attributed_cell(grid, index);
                attribution = taken;
                result
            });
            (result, attribution)
        });
        for (index, (result, attribution)) in cells.into_iter().enumerate() {
            // A failed cell stops mid-run; its attribution covers no
            // finished measurement window.
            if result.error.is_none() {
                let attribution = attribution.ok_or(
                    "Core::take_attribution returned None: the simulator was built without `obs`",
                )?;
                match attribution.validate(result.stats.cycles) {
                    Ok(()) => merged.merge(&attribution),
                    Err(e) => problems.push(format!("{}: attribution: {e}", grid.cell_name(index))),
                }
            }
            outputs.push(CellOutput::Sim(result));
        }
    }
    let cycles = merged.cycles as f64;
    let mut metrics = Metrics::default();
    metrics.push("obs.fetch_redirect_frac", ratio(merged.fetch.redirect as f64, cycles), "ratio");
    metrics.push("obs.issue_wait_mem_frac", ratio(merged.issue.wait_mem as f64, cycles), "ratio");
    metrics.push(
        "obs.rename_prf_stall_frac",
        ratio(merged.rename.prf_stall as f64, cycles),
        "ratio",
    );
    let idle = merged.commit_slots.first().copied().unwrap_or(0);
    metrics.push("obs.commit_idle_frac", ratio(idle as f64, cycles), "ratio");
    Ok(Attribution { metrics, outputs, problems })
}

/// The protocol of `run_checkpoint_on`, keeping the attribution of the
/// measured window.
fn attributed_cell(grid: &Grid, index: usize) -> (CheckpointResult, Option<StageAttribution>) {
    let (_, m, c) = grid.coords(index);
    let spec = grid.spec.checkpoints;
    let mut stream = grid.stream(index);
    let engine = RsepEngine::new(grid.mechanisms[m].clone());
    let mut core = Core::new(grid.spec.core_config.clone(), engine);
    if let Err(e) = core.run(&mut stream, spec.warmup) {
        return (CheckpointResult::failed(c, &e), core.take_attribution());
    }
    core.reset_stats();
    if let Err(e) = core.run(&mut stream, spec.measure) {
        return (CheckpointResult::failed(c, &e), core.take_attribution());
    }
    let stats = core.take_stats();
    (CheckpointResult::ok(c, stats), core.take_attribution())
}
