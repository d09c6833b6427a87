//! The metrics the benchmark declares, and how each is computed from the
//! runs. BENCHMARK.json lists the same names (a test checks that).

use std::time::Duration;

use rsep_uarch::{CacheStats, SimStats};

use crate::grid::{CellOutput, Grid, Pass};
use crate::measure::{harmonic_mean, ratio, Metrics, TimerCost};
use crate::replays::ReplayTimes;
use crate::traced::{LayerTimes, HOOKS};

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("minsts_per_s", "Minst/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("setup_s", "s"),
    ("max_rss_mb", "MiB"),
    ("cpu_s", "s"),
];

/// Every mechanism label a workload runs, for the per-label hook split.
pub const LABELS: [&str; 3] = ["baseline", "rsep-ideal", "rsep-realistic"];

/// Cache levels in `SimStats::cache` order.
const CACHE_LEVELS: [&str; 4] = ["L1I", "L1D", "L2", "L3"];

/// Stage-attribution metrics, computed by the attribution build.
pub const OBS: [&str; 4] = [
    "obs.fetch_redirect_frac",
    "obs.issue_wait_mem_frac",
    "obs.rename_prf_stall_frac",
    "obs.commit_idle_frac",
];

/// Per-layer metrics, grouped by the module they describe: name and unit.
pub fn per_layer_declared() -> Vec<(String, &'static str)> {
    let mut d: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| d.push((name.to_string(), unit));
    // rsep-trace
    add("trace.next_ms", "ms");
    add("trace.ns_per_inst", "ns/inst");
    add("trace.share", "ratio");
    add("trace.new_ms", "ms");
    // rsep-tracefile
    add("tracefile.next_ms", "ms");
    add("tracefile.ns_per_inst", "ns/inst");
    add("tracefile.share", "ratio");
    add("tracefile.record_ms", "ms");
    add("tracefile.bytes_per_inst", "B/inst");
    // rsep-core: engine hooks and counters
    for hook in HOOKS {
        add(&format!("engine.{hook}.calls"), "count");
        add(&format!("engine.{hook}.ms"), "ms");
    }
    add("engine.share", "ratio");
    for hook in HOOKS {
        for label in LABELS {
            add(&format!("engine.{hook}.ms.{label}"), "ms");
        }
    }
    add("engine.fifo.searches", "count");
    add("engine.isrb.shares_accepted", "count");
    add("engine.isrb.shares_rejected_full", "count");
    add("engine.isrb.max_occupancy", "count");
    // rsep-core: redundancy analyser
    add("redundancy.analyze_ms", "ms");
    // rsep-uarch: host time
    add("core.self_ms", "ms");
    add("core.new_ms", "ms");
    add("core.ns_per_cycle", "ns/cycle");
    // rsep-uarch: simulated counts
    add("sim.cycles", "cycles");
    add("sim.ipc_hmean", "inst/cycle");
    add("sim.branch_mpki", "MPKI");
    add("sim.prf_stall_frac", "ratio");
    add("sim.queue_stall_frac", "ratio");
    add("sim.watchdog_flushes", "count");
    add("sim.dist_pred", "count");
    add("sim.value_pred", "count");
    add("sim.zero_pred", "count");
    add("sim.prediction_squashes", "count");
    // rsep-uarch: cache
    for level in CACHE_LEVELS {
        add(&format!("cache.{level}.miss_ratio"), "ratio");
    }
    add("cache.ns_per_access", "ns/access");
    // rsep-uarch: stage attribution (obs build)
    for name in OBS {
        add(name, "ratio");
    }
    // rsep-predictors
    add("frontend.ns_per_branch", "ns/branch");
    add("sim.tage.miss_ratio", "ratio");
    // rsep-campaign
    add("cells_attempted", "count");
    add("cells_failed", "count");
    add("exec.busy_s", "s");
    add("exec.parallel_eff", "ratio");
    add("store.record_ms", "ms");
    add("store.lookup_ms", "ms");
    add("store.resume_ms", "ms");
    add("report.render_ms", "ms");
    // tracing itself
    add("trace_overhead_frac", "ratio");
    add("unaccounted_frac", "ratio");
    d
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    pub grid: &'a Grid,
    /// The untraced pass over the same cells.
    pub reference: &'a Pass,
    pub layers: &'a LayerTimes,
    pub timer: TimerCost,
    pub replays: ReplayTimes,
    /// Figure 7 only: lookups and time of a second pass served from the
    /// store.
    pub resume: Option<(Duration, Duration)>,
    pub render: Duration,
}

/// The per-layer metrics, except the `obs.*` ones of the attribution
/// build.
pub fn per_layer(input: &LayerInputs<'_>) -> Metrics {
    let LayerInputs { grid, reference, layers: l, timer, replays, resume, render } = input;
    let mut m = Metrics::default();
    let untraced: Duration = reference.cell_time.iter().sum();
    let traced = l.cells;

    // Remove the timers' own cost from the spans: each timed span costs
    // what tracing added to the cells (traced minus untraced time) spread
    // over the spans, at most the calibrated cost of a timer pair (which
    // overstates the cost in place, where the timer overlaps the
    // simulator's own work, and also bounds what host noise between the
    // two passes can remove). The calibrated share `inside / pair` of that
    // cost lands inside the span, the rest in the span around it.
    let source_spans = l.trace_spans + l.file_spans;
    let hook_calls = l.hooks.total_calls();
    let spans = hook_calls + source_spans;
    let per_span_ns = (traced.saturating_sub(untraced).as_nanos() as f64 / spans.max(1) as f64)
        .min(timer.pair_ns);
    let inside_ns = per_span_ns * ratio(timer.inside_ns, timer.pair_ns);
    let inside = |n: u64| Duration::from_secs_f64(n as f64 * inside_ns * 1e-9);
    let outside = |n: u64| Duration::from_secs_f64(n as f64 * (per_span_ns - inside_ns) * 1e-9);
    let own = |raw: Duration, n: u64| raw.saturating_sub(inside(n));
    // The traced cells' time without the timers: shares and the
    // unaccounted part are taken of it, so that host noise between the
    // untraced and traced passes does not enter them.
    let base_ms = ms(traced.saturating_sub(inside(spans) + outside(spans)));

    let trace_next = own(l.trace_next, l.trace_spans);
    let file_next = own(l.file_next, l.file_spans);
    let source_raw = l.trace_next + l.file_next;
    let engine: Duration = (0..HOOKS.len()).map(|h| own(l.hooks.time[h], l.hooks.calls[h])).sum();
    let core_self = l
        .core_run
        .saturating_sub(l.hooks.total_time() + source_raw + outside(hook_calls + source_spans));
    let analyze = l.analyze.saturating_sub(source_raw + outside(source_spans));

    m.push("trace.next_ms", ms(trace_next), "ms");
    m.push(
        "trace.ns_per_inst",
        ratio(trace_next.as_nanos() as f64, l.trace_insts as f64),
        "ns/inst",
    );
    m.push("trace.share", ratio(ms(trace_next), base_ms), "ratio");
    m.push("trace.new_ms", ms(l.trace_new), "ms");

    let corpus_insts: u64 = grid.corpus.iter().map(|f| f.instructions()).sum();
    m.push("tracefile.next_ms", ms(file_next), "ms");
    m.push(
        "tracefile.ns_per_inst",
        ratio(file_next.as_nanos() as f64, l.file_insts as f64),
        "ns/inst",
    );
    m.push("tracefile.share", ratio(ms(file_next), base_ms), "ratio");
    m.push("tracefile.record_ms", ms(grid.record_time), "ms");
    m.push(
        "tracefile.bytes_per_inst",
        ratio(grid.corpus_bytes as f64, corpus_insts as f64),
        "B/inst",
    );

    for (h, hook) in HOOKS.iter().enumerate() {
        m.push(format!("engine.{hook}.calls"), l.hooks.calls[h] as f64, "count");
        m.push(format!("engine.{hook}.ms"), ms(own(l.hooks.time[h], l.hooks.calls[h])), "ms");
    }
    m.push("engine.share", ratio(ms(engine), base_ms), "ratio");
    for (h, hook) in HOOKS.iter().enumerate() {
        for label in LABELS {
            let time = l
                .hooks_by_label
                .iter()
                .find(|(l, _)| l == label)
                .map_or(Duration::ZERO, |(_, t)| own(t.time[h], t.calls[h]));
            m.push(format!("engine.{hook}.ms.{label}"), ms(time), "ms");
        }
    }
    m.push("engine.fifo.searches", l.fifo_searches as f64, "count");
    m.push("engine.isrb.shares_accepted", l.isrb_shares_accepted as f64, "count");
    m.push("engine.isrb.shares_rejected_full", l.isrb_shares_rejected_full as f64, "count");
    m.push("engine.isrb.max_occupancy", l.isrb_max_occupancy as f64, "count");

    m.push("redundancy.analyze_ms", ms(analyze), "ms");
    m.push("core.self_ms", ms(core_self), "ms");
    m.push("core.new_ms", ms(l.core_new), "ms");
    m.push(
        "core.ns_per_cycle",
        ratio(core_self.as_nanos() as f64, l.core_cycles as f64),
        "ns/cycle",
    );

    let ok: Vec<&rsep_core::CheckpointResult> = reference
        .outputs
        .iter()
        .filter_map(|o| match o {
            CellOutput::Sim(r) if r.error.is_none() => Some(r),
            _ => None,
        })
        .collect();
    let mut total = SimStats::default();
    for result in &ok {
        total.merge(&result.stats);
    }
    let cycles = total.cycles as f64;
    m.push("sim.cycles", cycles, "cycles");
    m.push(
        "sim.ipc_hmean",
        harmonic_mean(&ok.iter().map(|r| r.ipc).collect::<Vec<_>>()),
        "inst/cycle",
    );
    m.push("sim.branch_mpki", total.branch_mpki(), "MPKI");
    m.push("sim.prf_stall_frac", ratio(total.prf_stall_cycles as f64, cycles), "ratio");
    m.push("sim.queue_stall_frac", ratio(total.queue_stall_cycles as f64, cycles), "ratio");
    m.push("sim.watchdog_flushes", total.watchdog_flushes as f64, "count");
    m.push("sim.dist_pred", total.coverage.total_dist_pred() as f64, "count");
    m.push("sim.value_pred", total.coverage.total_value_pred() as f64, "count");
    let zero = total.coverage.zero_pred + total.coverage.load_zero_pred;
    m.push("sim.zero_pred", zero as f64, "count");
    m.push("sim.prediction_squashes", total.prediction_squashes as f64, "count");

    for level in CACHE_LEVELS {
        let stats: CacheStats = total
            .cache
            .iter()
            .find(|(name, _)| *name == level)
            .map(|(_, s)| *s)
            .unwrap_or_default();
        m.push(format!("cache.{level}.miss_ratio"), stats.miss_ratio(), "ratio");
    }
    m.push("cache.ns_per_access", replays.cache_ns_per_access, "ns/access");

    m.push("frontend.ns_per_branch", replays.frontend_ns_per_branch, "ns/branch");
    let tage = total.predictors.iter().find(|(name, _)| *name == "tage").map(|(_, s)| *s);
    let tage_miss =
        tage.map_or(0.0, |s| ratio(s.incorrect as f64, (s.correct + s.incorrect) as f64));
    m.push("sim.tage.miss_ratio", tage_miss, "ratio");

    let failed = reference.outputs.iter().filter(|o| o.error().is_some()).count();
    m.push("cells_attempted", reference.outputs.len() as f64, "count");
    m.push("cells_failed", failed as f64, "count");
    let exec = &reference.exec;
    m.push("exec.busy_s", exec.busy.as_secs_f64(), "s");
    m.push(
        "exec.parallel_eff",
        ratio(exec.busy.as_secs_f64(), exec.wall.as_secs_f64() * grid.workload.jobs() as f64),
        "ratio",
    );
    m.push("store.record_ms", ms(reference.store.record), "ms");
    let (resume_lookup, resume_total) = resume.unwrap_or_default();
    m.push("store.lookup_ms", ms(resume_lookup), "ms");
    m.push("store.resume_ms", ms(resume_total), "ms");
    m.push("report.render_ms", ms(*render), "ms");

    let untraced_ms = ms(untraced);
    m.push("trace_overhead_frac", ratio(ms(traced) - untraced_ms, untraced_ms), "ratio");
    let accounted = [l.trace_new, trace_next, file_next, engine, core_self, l.core_new, analyze]
        .iter()
        .map(|d| ms(*d))
        .sum::<f64>();
    m.push("unaccounted_frac", ratio(base_ms - accounted, base_ms), "ratio");
    m
}
