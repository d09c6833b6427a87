//! The cycle-level out-of-order core.
//!
//! [`Core`] models the Table I superscalar pipeline stage by stage:
//! fetch (branch prediction, I-cache, taken-branch limits), decode latency,
//! rename (register allocation, speculation-engine actions), dispatch into
//! ROB/IQ/LQ/SQ, out-of-order issue constrained by functional-unit ports,
//! execution latencies including the data-cache hierarchy and
//! store-to-load forwarding, and in-order commit with mechanism validation.
//!
//! Documented simplifications (see `DESIGN.md`): the model is trace driven,
//! so wrong-path instructions are not executed — a mispredicted branch
//! stalls fetch until it resolves and then pays the redirect penalty; and
//! memory disambiguation is oracle-based (addresses travel with the trace).
//! Mechanism-relevant behaviour (rename, sharing, validation issue slots,
//! commit-time squash on mispredictions) is modelled in full.

#[cfg(feature = "obs")]
use crate::attribution::{RenameBlock, StageAttribution};
use crate::cache::{AccessKind, CacheHierarchy};
use crate::config::CoreConfig;
use crate::engine::{Disposition, RenameAction, RenameContext, SpecEngine, ValidationKind};
use crate::regfile::{PhysRegFile, RegisterFiles, NOT_READY};
use crate::rename::RenameMap;
use crate::rob::{InflightInst, InstSlot, Rob, SrcRegs};
use crate::sched::{StoreQueue, StoreRecord, WakeupQueue};
use crate::stats::SimStats;
use rsep_isa::{DynInst, MemInfo, OpClass, PhysReg, RegClass};
use rsep_predictors::{PredictRequest, PredictorStack, PredictorStats};
use std::collections::VecDeque;

/// Statement-level gate for the `obs` observability instrumentation: the
/// body compiles (and costs) nothing unless the feature is enabled.
macro_rules! obs {
    ($($body:tt)*) => {
        #[cfg(feature = "obs")]
        {
            $($body)*
        }
    };
}

/// Cycles without a commit before the simulation is declared wedged.
const WATCHDOG_DEADLOCK_CYCLES: u64 = 100_000;

/// Structured, fatal simulation failure.
///
/// Returned by [`Core::run`] instead of panicking, so a wedged simulation
/// fails its campaign cell (and is recorded as such in the result store)
/// rather than aborting the whole process mid-campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The pipeline made no forward progress for
    /// `WATCHDOG_DEADLOCK_CYCLES`.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Cycle of the last successful commit.
        last_commit_cycle: u64,
        /// ROB occupancy at the time.
        rob_len: usize,
        /// Scheduler occupancy at the time.
        iq_len: usize,
        /// Name of the speculation engine driving the core.
        engine: String,
    },
    /// Physical registers were not conserved: a register's reference count
    /// disagrees with its mappings and in-flight destinations, the free
    /// list disagrees with the counts, or dispatch found the free list
    /// empty (rename stalls every producer until a register is free, so
    /// an empty list at allocation means registers leaked).
    RegisterConservation {
        /// Cycle at which the violation was found.
        cycle: u64,
        /// Register class of the violating file.
        class: RegClass,
        /// What was violated.
        detail: String,
        /// Name of the speculation engine driving the core.
        engine: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { cycle, last_commit_cycle, rob_len, iq_len, engine } => write!(
                f,
                "pipeline deadlock: no commit since cycle {last_commit_cycle} \
                 (now {cycle}; rob={rob_len}, iq={iq_len}, engine={engine})"
            ),
            SimError::RegisterConservation { cycle, class, detail, engine } => write!(
                f,
                "physical registers not conserved: {detail} \
                 ({class:?} file, cycle {cycle}, engine={engine})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// An instruction sitting in the fetch/decode queue.
#[derive(Debug, Clone)]
struct FetchedInst {
    inst: DynInst,
    /// Cycle at which it becomes visible to rename.
    ready_at: u64,
    /// Whether the front end mispredicted this branch.
    mispredicted: bool,
}

/// Why the fetch-queue front cannot rename this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RenameStall {
    /// The fetch queue is empty or its front is not yet through decode.
    Starved,
    /// The ROB is full.
    RobFull,
    /// The IQ, LQ or SQ is full.
    QueueFull,
    /// No free physical register.
    PrfStall,
}

impl RenameStall {
    /// Charges `cycles` cycles of this stall to the stall counters.
    fn charge(self, stats: &mut SimStats, cycles: u64) {
        match self {
            RenameStall::Starved => {}
            RenameStall::RobFull | RenameStall::QueueFull => stats.queue_stall_cycles += cycles,
            RenameStall::PrfStall => stats.prf_stall_cycles += cycles,
        }
    }

    /// The attribution class of a cycle in which nothing renamed.
    #[cfg(feature = "obs")]
    fn attribution_class(self) -> RenameBlock {
        match self {
            RenameStall::Starved => RenameBlock::Starved,
            RenameStall::RobFull => RenameBlock::RobFull,
            RenameStall::QueueFull => RenameBlock::QueueFull,
            RenameStall::PrfStall => RenameBlock::PrfStall,
        }
    }
}

/// Rollback mark of one branch of the current fetch block: the fetch-side
/// bookkeeping watermark right after the branch's instruction was
/// enqueued. If the block's batched prediction stops at this branch, the
/// tail beyond the watermark is unwound — nothing past it has touched any
/// state outside the fetch stage's own buffers.
#[derive(Debug, Clone, Copy)]
struct FetchMark {
    /// Sequence number of the branch instruction.
    seq: u64,
    /// `fetch_queue.len()` after the branch was enqueued.
    queue_len: u32,
    /// `fetch_pending.len()` after the branch was enqueued.
    fetch_pending_len: u32,
    /// `last_fetch_block` after the branch was enqueued.
    last_fetch_block: u64,
}

/// A pending validation µ-op (second issue of an RSEP-predicted
/// instruction, Section IV-F).
#[derive(Debug, Clone, Copy)]
struct PendingValidation {
    ready_at: u64,
    kind: ValidationKind,
    op: OpClass,
}

/// The counters a quiescent skip charges in bulk, compared with stepping
/// the same cycles by the debug-build skip check.
#[cfg(debug_assertions)]
#[derive(Debug, PartialEq)]
struct Counters {
    stats: SimStats,
    #[cfg(feature = "obs")]
    attribution: StageAttribution,
}

/// Where a selected load forwards from: the completion cycle of its
/// youngest older same-double-word store, which has issued. `None` for a
/// load that reads the d-cache and for every other instruction. Chosen at
/// select: a load whose youngest older store has not issued is parked, so
/// no store issued in the same cycle can change the choice.
type Forward = Option<u64>;

/// Per-cycle issue-port budget (Table I functional units).
#[derive(Debug, Clone)]
struct PortBudget {
    slots: usize,
    alu: usize,
    mul: usize,
    div: usize,
    fp: usize,
    fpmul: usize,
    fpdiv: usize,
    ldst: usize,
    st_only: usize,
}

impl PortBudget {
    fn new(config: &CoreConfig) -> PortBudget {
        PortBudget {
            slots: config.issue_width,
            alu: config.int_alu_ports,
            mul: config.int_mul_units,
            div: config.int_div_units,
            fp: config.fp_ports,
            fpmul: config.fp_mul_units,
            fpdiv: config.fp_div_units,
            ldst: config.load_ports,
            st_only: config.store_ports.saturating_sub(config.load_ports),
        }
    }

    fn exhausted(&self) -> bool {
        self.slots == 0
    }

    fn try_issue(&mut self, op: OpClass, div_free: bool, fpdiv_free: bool) -> bool {
        if self.slots == 0 {
            return false;
        }
        let ok = match op {
            OpClass::IntAlu
            | OpClass::Move
            | OpClass::ZeroIdiom
            | OpClass::Branch
            | OpClass::Nop => {
                if self.alu > 0 {
                    self.alu -= 1;
                    true
                } else {
                    false
                }
            }
            OpClass::IntMul => {
                if self.alu > 0 && self.mul > 0 {
                    self.alu -= 1;
                    self.mul -= 1;
                    true
                } else {
                    false
                }
            }
            OpClass::IntDiv => {
                if self.alu > 0 && self.div > 0 && div_free {
                    self.alu -= 1;
                    self.div -= 1;
                    true
                } else {
                    false
                }
            }
            OpClass::FpAlu => {
                if self.fp > 0 {
                    self.fp -= 1;
                    true
                } else {
                    false
                }
            }
            OpClass::FpMul => {
                if self.fp > 0 && self.fpmul > 0 {
                    self.fp -= 1;
                    self.fpmul -= 1;
                    true
                } else {
                    false
                }
            }
            OpClass::FpDiv => {
                if self.fp > 0 && self.fpdiv > 0 && fpdiv_free {
                    self.fp -= 1;
                    self.fpdiv -= 1;
                    true
                } else {
                    false
                }
            }
            OpClass::Load => {
                if self.ldst > 0 {
                    self.ldst -= 1;
                    true
                } else {
                    false
                }
            }
            OpClass::Store => {
                if self.st_only > 0 {
                    self.st_only -= 1;
                    true
                } else if self.ldst > 0 {
                    self.ldst -= 1;
                    true
                } else {
                    false
                }
            }
        };
        if ok {
            self.slots -= 1;
        }
        ok
    }

    /// Issues a validation µ-op (a simple comparison). `SameFu` charges the
    /// port class of the validated instruction; `AnyFu` prefers non-load
    /// ports and falls back to load/store ports only when nothing else is
    /// available (the bypass-network scheme of Section IV-F1b).
    fn try_validation(&mut self, kind: ValidationKind, op: OpClass) -> bool {
        if self.slots == 0 {
            return false;
        }
        let ok = match kind {
            ValidationKind::Free => true,
            ValidationKind::SameFu => match op {
                OpClass::Load => {
                    if self.ldst > 0 {
                        self.ldst -= 1;
                        true
                    } else {
                        false
                    }
                }
                OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => {
                    if self.fp > 0 {
                        self.fp -= 1;
                        true
                    } else {
                        false
                    }
                }
                _ => {
                    if self.alu > 0 {
                        self.alu -= 1;
                        true
                    } else {
                        false
                    }
                }
            },
            ValidationKind::AnyFu => {
                if self.alu > 0 {
                    self.alu -= 1;
                    true
                } else if self.fp > 0 {
                    self.fp -= 1;
                    true
                } else if self.st_only > 0 {
                    self.st_only -= 1;
                    true
                } else if self.ldst > 0 {
                    self.ldst -= 1;
                    true
                } else {
                    false
                }
            }
        };
        if ok && kind != ValidationKind::Free {
            self.slots -= 1;
        }
        ok
    }
}

/// The cycle-level core.
///
/// Generic over the speculation engine so every per-branch
/// ([`SpecEngine::on_branch`]) and per-instruction (`at_rename` /
/// `at_commit` / `release_register`) engine call is statically dispatched
/// and inlines into the pipeline loop.
#[derive(Debug)]
pub struct Core<E: SpecEngine> {
    config: CoreConfig,
    clock: u64,
    hierarchy: CacheHierarchy,
    regs: RegisterFiles,
    spec_map: RenameMap,
    arch_map: RenameMap,
    rob: Rob,
    iq_count: usize,
    lq_count: usize,
    sq_count: usize,
    fetch_queue: VecDeque<FetchedInst>,
    replay: VecDeque<DynInst>,
    store_queue: StoreQueue,
    sched: WakeupQueue,
    /// Reused per-cycle buffer of the instructions selected for issue, each
    /// with the load's store-to-load forwarding source (see [`Forward`]).
    issued_scratch: Vec<(InstSlot, Forward)>,
    /// Reused buffer for draining per-register waiter lists on writeback.
    wake_scratch: Vec<InstSlot>,
    /// This cycle's fetched instructions that start a new i-cache block:
    /// `(index into fetch_queue, pc)`. Their i-cache accesses wait until
    /// the fetch block's branches are resolved (see [`Core::fetch_block`]).
    fetch_pending: Vec<(usize, u64)>,
    /// Monotonic dispatch counter; tags scheduler entries so stale ones
    /// (left behind by a squash) are recognised and dropped lazily.
    dispatch_gen: u64,
    pending_validations: Vec<PendingValidation>,
    /// The front-end predictor stack (TAGE + BTB + RAS + global history),
    /// consulted once per fetch block through
    /// [`PredictorStack::predict_block`].
    stack: PredictorStack,
    /// Per-predictor counter snapshot taken at [`Core::reset_stats`], so
    /// finalised statistics cover the measurement window only.
    predictor_baseline: Vec<(&'static str, PredictorStats)>,
    /// Reused buffer of the fetch block's branch-prediction requests.
    predict_requests: Vec<PredictRequest>,
    /// Per-request rollback marks: the fetch bookkeeping watermark right
    /// after the branch's instruction was enqueued (see
    /// [`Core::fetch_block`]).
    predict_marks: Vec<FetchMark>,
    fetch_resume_at: u64,
    pending_redirect: Option<u64>,
    div_busy_until: u64,
    fpdiv_busy_until: u64,
    /// `log2(line_bytes)`, cached so the per-instruction fetch-block
    /// computation is a shift instead of a division.
    fetch_block_shift: u32,
    last_fetch_block: u64,
    engine: E,
    stats: SimStats,
    /// Per-stage cycle attribution (the `obs` observability feature).
    /// Deliberately outside [`SimStats`]: attribution describes the
    /// simulator's own stage utilization and is excluded from golden-stats
    /// comparisons and fingerprints (see `DESIGN.md`).
    #[cfg(feature = "obs")]
    attribution: StageAttribution,
    /// Latest completion cycle among issued loads that missed in the L1D —
    /// the issue stage's "waiting on memory" signal for attribution.
    #[cfg(feature = "obs")]
    miss_outstanding_until: u64,
    trace_done: bool,
    /// Last cycle an instruction committed (or [`Core::run`] began) — paces
    /// the deadlock bound.
    last_commit_cycle: u64,
}

impl Core<crate::engine::NullEngine> {
    /// Creates a baseline core (no speculation engine), fully
    /// monomorphised for [`NullEngine`](crate::engine::NullEngine) — its
    /// empty hooks compile away entirely.
    pub fn baseline(config: CoreConfig) -> Core<crate::engine::NullEngine> {
        Core::new(config, crate::engine::NullEngine)
    }
}

impl<E: SpecEngine> Core<E> {
    /// Creates a core with the given configuration and speculation engine.
    ///
    /// Passing the engine by value monomorphises the whole pipeline for
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CoreConfig::validate`]).
    pub fn new(config: CoreConfig, engine: E) -> Core<E> {
        if let Err(problem) = config.validate() {
            panic!("invalid core configuration: {problem}");
        }
        let mut regs = RegisterFiles::new(config.int_prf_size, config.fp_prf_size);
        let spec_map = RenameMap::initial();
        // The initial architectural state owns the registers backing it.
        for (_, preg) in spec_map.iter() {
            regs.file_mut(preg.class()).reserve(preg);
        }
        let hierarchy = CacheHierarchy::new(&config);
        let rob = Rob::new(config.rob_size);
        Core {
            arch_map: spec_map.clone(),
            spec_map,
            regs,
            hierarchy,
            rob,
            iq_count: 0,
            lq_count: 0,
            sq_count: 0,
            fetch_queue: VecDeque::new(),
            replay: VecDeque::new(),
            store_queue: StoreQueue::new(),
            sched: WakeupQueue::new(config.wake_horizon()),
            issued_scratch: Vec::new(),
            wake_scratch: Vec::new(),
            fetch_pending: Vec::new(),
            dispatch_gen: 0,
            pending_validations: Vec::new(),
            stack: PredictorStack::table1(),
            predictor_baseline: Vec::new(),
            predict_requests: Vec::new(),
            predict_marks: Vec::new(),
            fetch_resume_at: 0,
            pending_redirect: None,
            div_busy_until: 0,
            fpdiv_busy_until: 0,
            fetch_block_shift: config.line_bytes.trailing_zeros(),
            last_fetch_block: u64::MAX,
            engine,
            stats: SimStats::default(),
            #[cfg(feature = "obs")]
            attribution: StageAttribution::default(),
            #[cfg(feature = "obs")]
            miss_outstanding_until: 0,
            trace_done: false,
            clock: 0,
            config,
            last_commit_cycle: 0,
        }
    }

    /// Current cycle.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Statistics accumulated since the last [`Core::reset_stats`].
    pub fn stats(&self) -> &SimStats {
        self.stats_snapshot()
    }

    fn stats_snapshot(&self) -> &SimStats {
        &self.stats
    }

    /// Resets measurement counters while keeping all microarchitectural
    /// state (used to separate warm-up from measurement, Section V). The
    /// predictor counters keep accumulating inside their structures; a
    /// snapshot taken here lets [`Core::take_stats`] report only the
    /// post-reset window, like every other `SimStats` counter.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        self.predictor_baseline = self.current_predictor_stats();
        obs! {
            self.attribution = StageAttribution::default();
        }
    }

    /// Per-stage cycle attribution accumulated since the last
    /// [`Core::reset_stats`]. `Some` only when the crate is built with the
    /// `obs` feature; `None` otherwise (the counters do not exist).
    pub fn attribution(&self) -> Option<&crate::attribution::StageAttribution> {
        #[cfg(feature = "obs")]
        {
            Some(&self.attribution)
        }
        #[cfg(not(feature = "obs"))]
        {
            None
        }
    }

    /// Takes (and resets) the attribution; see [`Core::attribution`].
    pub fn take_attribution(&mut self) -> Option<crate::attribution::StageAttribution> {
        #[cfg(feature = "obs")]
        {
            Some(std::mem::take(&mut self.attribution))
        }
        #[cfg(not(feature = "obs"))]
        {
            None
        }
    }

    /// The cumulative per-predictor counters (front-end stack first, then
    /// the speculation engine's predictors).
    fn current_predictor_stats(&self) -> Vec<(&'static str, PredictorStats)> {
        let mut stats = self.stack.stats();
        stats.extend(self.engine.predictor_stats());
        stats
    }

    /// Finalises and returns the statistics, attaching cache counters and
    /// the unified per-predictor counters (measured from the last
    /// [`Core::reset_stats`], like every other counter; the cache
    /// counters remain cumulative, as before this API existed).
    pub fn take_stats(&mut self) -> SimStats {
        let mut stats = std::mem::take(&mut self.stats);
        stats.cache = self.hierarchy.stats().to_vec();
        stats.predictors = self
            .current_predictor_stats()
            .into_iter()
            .map(|(family, cumulative)| {
                let baseline = self
                    .predictor_baseline
                    .iter()
                    .find(|(name, _)| *name == family)
                    .map(|(_, stats)| *stats)
                    .unwrap_or_default();
                (family, cumulative.since(&baseline))
            })
            .collect();
        stats
    }

    /// The speculation engine driving this core.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Checks register conservation, per class: each register's reference
    /// count equals its architectural mappings plus its in-flight ROB
    /// destinations, and the free list holds exactly the registers whose
    /// count is zero (`free + #(count > 0) = total`, no duplicates). Debug
    /// builds check it after every pipeline flush and at every return from
    /// [`Core::run`]; campaign cells check it once at the end.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RegisterConservation`] describing the first
    /// violation found.
    pub fn validate_invariants(&self) -> Result<(), SimError> {
        for class in [RegClass::Int, RegClass::Fp] {
            let file = self.regs.file(class);
            let mut expected = vec![0; file.size()];
            let mappings = self.arch_map.iter().map(|(_, preg)| preg);
            let inflight = self.rob.iter().filter_map(|entry| entry.dest_preg);
            for preg in mappings.chain(inflight).filter(|preg| preg.class() == class) {
                expected[usize::from(preg.index())] += 1;
            }
            file.check_owners(&expected).map_err(|detail| SimError::RegisterConservation {
                cycle: self.clock,
                class,
                detail,
                engine: self.engine.name(),
            })?;
        }
        Ok(())
    }

    /// Runs until `commits` further instructions commit (or the trace ends
    /// and the pipeline drains). Returns the number of instructions
    /// actually committed.
    ///
    /// Cycles in which no stage can act are not stepped: the clock jumps
    /// to the next event and the per-cycle counters are added in bulk (see
    /// `Core::skip_quiescent_cycles`). Debug builds step every skipped
    /// span as well and check that stepping it gives the same counters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the pipeline makes no forward
    /// progress for a very long time, and
    /// [`SimError::RegisterConservation`] if dispatch finds no free
    /// register to allocate (or, in debug builds, if the check of
    /// [`Core::validate_invariants`] fails on return) — a broken
    /// simulation fails cleanly instead of panicking, so campaign runners
    /// can record the failed cell and continue.
    pub fn run(
        &mut self,
        trace: &mut impl Iterator<Item = DynInst>,
        commits: u64,
    ) -> Result<u64, SimError> {
        let result = self.run_until(trace, self.stats.committed + commits);
        #[cfg(debug_assertions)]
        self.validate_invariants()?;
        result
    }

    /// The loop of [`Core::run`]: steps (or skips) cycles until `target`
    /// instructions have committed or the trace drains.
    fn run_until(
        &mut self,
        trace: &mut impl Iterator<Item = DynInst>,
        target: u64,
    ) -> Result<u64, SimError> {
        self.trace_done = false;
        self.last_commit_cycle = self.clock;
        while self.stats.committed < target {
            self.skip_quiescent_cycles(trace);
            self.step(trace)?;
            if self.trace_done
                && self.rob.is_empty()
                && self.fetch_queue.is_empty()
                && self.replay.is_empty()
            {
                break;
            }
            if self.clock - self.last_commit_cycle >= WATCHDOG_DEADLOCK_CYCLES {
                return Err(SimError::Deadlock {
                    cycle: self.clock,
                    last_commit_cycle: self.last_commit_cycle,
                    rob_len: self.rob.len(),
                    iq_len: self.iq_count,
                    engine: self.engine.name(),
                });
            }
        }
        Ok(self.stats.committed)
    }

    /// Advances the core by one cycle.
    fn step(&mut self, trace: &mut impl Iterator<Item = DynInst>) -> Result<(), SimError> {
        self.resolve_redirect();
        self.commit();
        self.issue();
        self.rename_dispatch()?;
        self.fetch(trace);
        self.stats.rob_occupancy_sum += self.rob.len() as u64;
        self.stats.cycles += 1;
        obs! {
            self.attribution.cycles += 1;
        }
        self.clock += 1;
        Ok(())
    }

    // -------------------------------------------------------- quiescence

    /// When no stage can act in the current cycle, returns the earliest
    /// cycle at which one might, together with rename's stall (constant
    /// until then). Returns `None` when some stage can act now.
    ///
    /// Every stage's next action waits on one of these events: a calendar
    /// wakeup or a validation µ-op coming due (issue), the ROB head or the
    /// pending-redirect branch completing (commit, redirect resolution),
    /// the fetch-queue front clearing decode (rename), or
    /// `fetch_resume_at` (fetch). Rename's structural stalls
    /// and a full fetch queue only clear when an instruction issues,
    /// commits or is squashed, which the same events gate. The bound may
    /// be early (a stale calendar entry, an event that turns out to change
    /// nothing) but never late; `u64::MAX` means no event is pending.
    fn quiescent_until(&self) -> Option<(u64, RenameStall)> {
        let clock = self.clock;
        if self.sched.ready_len() > 0 {
            return None;
        }
        let mut until = u64::MAX;
        if let Some(wake_at) = self.sched.next_wake() {
            if wake_at <= clock {
                return None;
            }
            until = wake_at;
        }
        for v in &self.pending_validations {
            if v.ready_at <= clock {
                return None;
            }
            until = until.min(v.ready_at);
        }
        if clock < self.fetch_resume_at {
            until = until.min(self.fetch_resume_at);
        } else if self.pending_redirect.is_none()
            && self.fetch_queue.len() < self.config.fetch_queue_size
        {
            return None;
        }
        let stall = self.rename_stall()?;
        if let Some(front) = self.fetch_queue.front() {
            if front.ready_at > clock {
                until = until.min(front.ready_at);
            }
        }
        let redirect = self.pending_redirect.and_then(|seq| self.rob.find_by_seq(seq));
        for entry in self.rob.head().into_iter().chain(redirect) {
            if entry.is_completed(clock) {
                return None;
            }
            if entry.issued {
                until = until.min(entry.complete_at);
            }
        }
        Some((until, stall))
    }

    /// Jumps the clock over the cycles in which no stage can act (see
    /// [`Core::quiescent_until`]), adding in bulk what stepping them would
    /// have added: `cycles`, `rob_occupancy_sum`, rename's stall counter
    /// and, in the `obs` build, one class per stage for every skipped
    /// cycle. The jump stops one cycle short of the deadlock bound in
    /// [`Core::run`], so deadlock errors happen at exactly the stepped
    /// cycle. Debug builds then step the same span to check the jump (see
    /// [`Core::check_skip_by_stepping`]).
    #[cfg_attr(
        not(debug_assertions),
        allow(unused_variables, reason = "`trace` only feeds the debug-build skip check")
    )]
    fn skip_quiescent_cycles(&mut self, trace: &mut impl Iterator<Item = DynInst>) {
        let Some((event, stall)) = self.quiescent_until() else {
            return;
        };
        let until = event.min(self.last_commit_cycle + WATCHDOG_DEADLOCK_CYCLES - 1);
        if until <= self.clock {
            return;
        }
        #[cfg(debug_assertions)]
        let unskipped = self.counters();
        let span = until - self.clock;
        self.stats.cycles += span;
        self.stats.rob_occupancy_sum += self.rob.len() as u64 * span;
        stall.charge(&mut self.stats, span);
        obs! {
            let fetch_redirect =
                self.clock < self.fetch_resume_at || self.pending_redirect.is_some();
            let wait_mem = self.miss_outstanding_until.clamp(self.clock, until) - self.clock;
            self.attribution.record_quiescent(
                span,
                fetch_redirect,
                stall.attribution_class(),
                self.iq_count,
                wait_mem,
            );
        }
        self.clock = until;
        #[cfg(debug_assertions)]
        self.check_skip_by_stepping(trace, span, unskipped);
    }

    /// Debug-build check of the skip that just moved the clock `span`
    /// cycles ahead: puts back the counters from before the jump, steps the
    /// same cycles one by one and asserts that no stepped cycle commits,
    /// issues, dispatches or fetches, that the clock lands where the jump
    /// did, and that the stepped counters equal the bulk charge.
    #[cfg(debug_assertions)]
    fn check_skip_by_stepping(
        &mut self,
        trace: &mut impl Iterator<Item = DynInst>,
        span: u64,
        unskipped: Counters,
    ) {
        let until = self.clock;
        let bulk = self.replace_counters(unskipped);
        self.clock = until - span;
        let idle = self.activity();
        for _ in 0..span {
            self.step(trace).expect("a quiescent cycle dispatches nothing");
            assert_eq!(
                self.activity(),
                idle,
                "skip check: cycle {} of a skipped span did work (engine={})",
                self.clock - 1,
                self.engine.name()
            );
        }
        assert_eq!(self.clock, until, "skip check: stepping did not land where the jump did");
        assert_eq!(
            self.counters(),
            bulk,
            "skip check: stepping cycles {}..{until} differs from their bulk charge (engine={})",
            until - span,
            self.engine.name()
        );
    }

    /// The counters a quiescent skip charges in bulk (debug-build check).
    #[cfg(debug_assertions)]
    fn counters(&self) -> Counters {
        Counters {
            stats: self.stats.clone(),
            #[cfg(feature = "obs")]
            attribution: self.attribution.clone(),
        }
    }

    /// Swaps in `counters`, returning the ones they replace.
    #[cfg(debug_assertions)]
    fn replace_counters(&mut self, counters: Counters) -> Counters {
        Counters {
            stats: std::mem::replace(&mut self.stats, counters.stats),
            #[cfg(feature = "obs")]
            attribution: std::mem::replace(&mut self.attribution, counters.attribution),
        }
    }

    /// What changes when any stage acts: dispatch bumps the generation,
    /// issue drains the IQ or the validation list, commit shrinks the ROB
    /// and fetch grows the fetch queue or drains the replay queue.
    #[cfg(debug_assertions)]
    fn activity(&self) -> (u64, usize, usize, usize, usize, usize) {
        (
            self.dispatch_gen,
            self.iq_count,
            self.pending_validations.len(),
            self.rob.len(),
            self.fetch_queue.len(),
            self.replay.len(),
        )
    }

    // ------------------------------------------------------------ commit

    fn commit(&mut self) {
        let mut committed_this_cycle = 0;
        while committed_this_cycle < self.config.commit_width {
            let ready = match self.rob.head() {
                Some(head) => head.is_completed(self.clock),
                None => false,
            };
            if !ready {
                break;
            }
            let entry = self.rob.pop_head().expect("head checked above");
            committed_this_cycle += 1;
            self.last_commit_cycle = self.clock;
            #[cfg(debug_assertions)]
            self.check_committed_value(&entry);
            // A mispredicted branch may commit in the same cycle it
            // resolves; make sure the front end is released.
            if self.pending_redirect == Some(entry.seq()) {
                self.fetch_resume_at =
                    self.fetch_resume_at.max(entry.complete_at + self.config.redirect_penalty);
                self.pending_redirect = None;
            }
            self.retire_resources(&entry);
            self.retire_registers(&entry);
            self.record_commit_stats(&entry);
            self.engine.at_commit(&entry.inst, entry.disposition, self.clock);
            if entry.disposition.is_misprediction() {
                self.stats.prediction_squashes += 1;
                self.flush_younger(entry.seq() + 1);
                break;
            }
        }
        obs! {
            self.attribution.record_commit(committed_this_cycle);
        }
    }

    fn retire_resources(&mut self, entry: &InflightInst) {
        if entry.uses_lq {
            self.lq_count -= 1;
        }
        if entry.uses_sq {
            self.sq_count -= 1;
            self.store_queue.remove(entry.seq());
        }
        if entry.in_iq {
            // An eliminated instruction never occupied the IQ, and an issued
            // one already released its entry; anything still marked in_iq at
            // commit would be a bookkeeping bug.
            debug_assert!(false, "instruction committed while still in the IQ");
        }
    }

    /// Debug-build value check: a committing instruction that was not
    /// mispredicted finds its result in its destination register. Moves
    /// and zero idioms are excluded: the trace generator can give them a
    /// result that their source register does not hold.
    #[cfg(debug_assertions)]
    fn check_committed_value(&self, entry: &InflightInst) {
        let Some(preg) = entry.dest_preg else {
            return;
        };
        if entry.disposition.is_misprediction()
            || matches!(entry.inst.op, OpClass::Move | OpClass::ZeroIdiom)
        {
            return;
        }
        assert_eq!(
            self.regs.value(preg),
            entry.inst.result,
            "seq {} commits at cycle {} with {preg} holding a wrong value (engine={})",
            entry.seq(),
            self.clock,
            self.engine.name()
        );
    }

    /// Commit makes the entry's destination mapping architectural: the
    /// entry's in-flight ownership of `dest_preg` becomes the mapping's,
    /// and the overwritten mapping drops its owner — also when it named
    /// the same register (a sharer writing its provider's architectural
    /// register).
    fn retire_registers(&mut self, entry: &InflightInst) {
        let (Some(dest), Some(dest_preg)) = (entry.inst.dest, entry.dest_preg) else {
            return;
        };
        let prev_arch = self.arch_map.rename(dest, dest_preg);
        Self::drop_owner(&mut self.regs, &mut self.engine, prev_arch);
    }

    /// Drops one owner of `preg`, telling the engine when the register is
    /// back to at most one owner (no longer shared).
    fn drop_owner(regs: &mut RegisterFiles, engine: &mut E, preg: PhysReg) {
        if regs.release(preg) <= 1 {
            engine.release_register(preg);
        }
    }

    fn record_commit_stats(&mut self, entry: &InflightInst) {
        let inst = &entry.inst;
        self.stats.committed += 1;
        if inst.op.is_load() {
            self.stats.committed_loads += 1;
        }
        if inst.op.is_store() {
            self.stats.committed_stores += 1;
        }
        if inst.op.is_branch() {
            self.stats.committed_branches += 1;
            if entry.branch_mispredicted {
                self.stats.branch_mispredictions += 1;
            }
        }
        if inst.eligible_for_prediction() {
            self.stats.eligible_instructions += 1;
        }
        self.stats.coverage.record(entry.disposition, inst.op.is_load());
        match entry.disposition {
            Disposition::ZeroPred { correct }
            | Disposition::DistPred { correct }
            | Disposition::ValuePred { correct } => {
                if correct {
                    self.stats.correct_predictions += 1;
                } else {
                    self.stats.incorrect_predictions += 1;
                }
            }
            _ => {}
        }
    }

    fn flush_younger(&mut self, from_seq: u64) {
        let mut to_replay: Vec<DynInst> =
            Vec::with_capacity(self.rob.len() + self.fetch_queue.len() + self.replay.len());
        {
            // Split borrows: the squash callback updates the queue counters
            // and register file while the ROB drains its tail in place
            // (no intermediate Vec of squashed entries).
            let Core { rob, regs, engine, iq_count, lq_count, sq_count, .. } = self;
            rob.squash_from_each(from_seq, |entry| {
                if entry.in_iq {
                    *iq_count -= 1;
                }
                if entry.uses_lq {
                    *lq_count -= 1;
                }
                if entry.uses_sq {
                    *sq_count -= 1;
                }
                if let Some(preg) = entry.dest_preg {
                    Self::drop_owner(regs, engine, preg);
                }
                to_replay.push(entry.inst);
            });
        }
        // Scheduler entries for the squashed instructions (ready set,
        // calendar, register/store waiter lists) are invalidated lazily:
        // replayed instructions re-dispatch under a fresh generation, so
        // stale `(seq, gen)` entries fail validation and are dropped when
        // next touched. Squash cost therefore stays proportional to the
        // number of squashed entries.
        self.store_queue.squash_from(from_seq);
        for fetched in self.fetch_queue.drain(..) {
            to_replay.push(fetched.inst);
        }
        // Older squashed instructions come before anything already waiting
        // for replay.
        for inst in std::mem::take(&mut self.replay) {
            to_replay.push(inst);
        }
        self.replay = to_replay.into();
        self.spec_map.restore_from(&self.arch_map);
        self.pending_validations.clear();
        self.pending_redirect = None;
        self.engine.on_squash(from_seq);
        self.fetch_resume_at = self.fetch_resume_at.max(self.clock + self.config.redirect_penalty);
        self.last_fetch_block = u64::MAX;
        #[cfg(debug_assertions)]
        if let Err(violation) = self.validate_invariants() {
            panic!("after a flush from seq {from_seq}: {violation}");
        }
    }

    // ---------------------------------------------------------- redirect

    fn resolve_redirect(&mut self) {
        let Some(seq) = self.pending_redirect else {
            return;
        };
        if let Some(entry) = self.rob.find_by_seq(seq) {
            if entry.is_completed(self.clock) {
                self.fetch_resume_at =
                    self.fetch_resume_at.max(entry.complete_at + self.config.redirect_penalty);
                self.pending_redirect = None;
            }
        }
    }

    // ------------------------------------------------------------- issue

    /// Issues validation µ-ops first: they are prioritised so they issue
    /// back-to-back with the instruction they validate (Section IV-F1).
    fn issue_validations(&mut self, ports: &mut PortBudget) {
        if self.pending_validations.is_empty() {
            return;
        }
        let clock = self.clock;
        let mut conflicts = 0u64;
        let mut issued_validations = 0u64;
        self.pending_validations.retain(|v| {
            if v.ready_at > clock {
                return true;
            }
            if ports.try_validation(v.kind, v.op) {
                issued_validations += 1;
                false
            } else {
                conflicts += 1;
                true
            }
        });
        self.stats.validation_issues += issued_validations;
        self.stats.validation_port_conflicts += conflicts;
        obs! {
            self.attribution.work.validations_issued += issued_validations;
        }
    }

    /// Event-driven select: iterate only the ready set (populated by wakeup
    /// events), oldest first. Debug builds check every cycle's choice
    /// against a rescan of the whole ROB (see [`Core::rescan_select`]).
    fn issue(&mut self) {
        let clock = self.clock;
        self.sched.advance(clock);
        let mut ports = PortBudget::new(&self.config);
        let div_free = self.div_busy_until <= self.clock;
        let fpdiv_free = self.fpdiv_busy_until <= self.clock;
        #[cfg(feature = "obs")]
        let mut port_blocked = 0u64;
        #[cfg(feature = "obs")]
        let (validations_before, conflicts_before) =
            (self.stats.validation_issues, self.stats.validation_port_conflicts);
        self.issue_validations(&mut ports);
        #[cfg(debug_assertions)]
        let rescan = self.rescan_select(ports.clone(), div_free, fpdiv_free);

        // Walk the ready set in place, oldest first (nothing inserts into
        // it during select — wakeups land in the calendar and store
        // wakeups happen in apply — so index iteration sees exactly what a
        // snapshot would, without copying the set every cycle). The issue
        // decisions reuse a scratch buffer; no per-cycle allocation once
        // warm.
        let mut issued = std::mem::take(&mut self.issued_scratch);
        debug_assert!(issued.is_empty());
        let mut idx = 0;
        while idx < self.sched.ready_len() {
            if ports.exhausted() {
                break;
            }
            let slot = self.sched.ready_get(idx);
            // Handle resolution validates the generation tag: entries left
            // behind by a squash (or already handled) resolve to None and
            // are dropped here.
            let (op, mem) = match self.rob.get(slot) {
                Some(e) if e.in_iq && !e.issued && !e.eliminated => (e.inst.op, e.inst.mem),
                _ => {
                    self.sched.remove_ready_at(idx);
                    continue;
                }
            };
            // Memory disambiguation: the load reads from the youngest older
            // same-double-word store; until that store has issued, park the
            // load on it instead of re-polling every cycle.
            let forward = match self.older_store(op, mem, slot.seq) {
                Some(blocker) if !blocker.issued => {
                    self.sched.remove_ready_at(idx);
                    self.store_queue.add_waiter(blocker.seq, slot);
                    continue;
                }
                store => store.map(|s| s.complete_at),
            };
            if !ports.try_issue(op, div_free, fpdiv_free) {
                // Port conflict: stays in the ready set for next cycle.
                obs! {
                    port_blocked += 1;
                }
                idx += 1;
                continue;
            }
            self.sched.remove_ready_at(idx);
            issued.push((slot, forward));
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            issued,
            rescan,
            "select check: the ready set and a ROB rescan choose different instructions at \
             cycle {clock} (engine={})",
            self.engine.name()
        );
        for &(slot, forward) in &issued {
            self.issue_inst(slot, forward);
        }
        obs! {
            self.classify_issue_cycle(
                issued.len() as u64,
                validations_before,
                port_blocked,
                conflicts_before,
            );
        }
        issued.clear();
        self.issued_scratch = issued;
    }

    /// Classifies this cycle for issue-stage attribution from what the
    /// select loop observed (`obs` feature only).
    #[cfg(feature = "obs")]
    fn classify_issue_cycle(
        &mut self,
        issued_insts: u64,
        validations_before: u64,
        port_blocked: u64,
        conflicts_before: u64,
    ) {
        let issued = issued_insts + (self.stats.validation_issues - validations_before);
        let blocked = port_blocked + (self.stats.validation_port_conflicts - conflicts_before);
        let miss_outstanding = self.clock < self.miss_outstanding_until;
        self.attribution.classify_issue(issued, blocked, self.iq_count, miss_outstanding);
    }

    /// Debug-build check of [`Core::issue`]: what a rescan of the whole
    /// ROB, oldest first, issues from the same port budget. An instruction
    /// is a candidate when it waits in the IQ, all its sources are ready
    /// this cycle and, for a load, the youngest older store to the same
    /// double-word has issued.
    #[cfg(debug_assertions)]
    fn rescan_select(
        &self,
        mut ports: PortBudget,
        div_free: bool,
        fpdiv_free: bool,
    ) -> Vec<(InstSlot, Forward)> {
        let clock = self.clock;
        let mut issued = Vec::new();
        for entry in self.rob.iter() {
            if ports.exhausted() {
                break;
            }
            if !entry.in_iq || entry.issued || entry.eliminated {
                continue;
            }
            if !entry.src_pregs.iter().all(|&p| self.regs.is_ready(p, clock)) {
                continue;
            }
            let store = self.older_store(entry.inst.op, entry.inst.mem, entry.seq());
            let blocked = store.is_some_and(|s| !s.issued);
            if !blocked && ports.try_issue(entry.inst.op, div_free, fpdiv_free) {
                issued.push((entry.slot(), store.map(|s| s.complete_at)));
            }
        }
        issued
    }

    /// The youngest older store to the same double-word as `mem`, when
    /// `op` is a load: the store the load must wait for and then forward
    /// from.
    fn older_store(&self, op: OpClass, mem: Option<MemInfo>, seq: u64) -> Option<StoreRecord> {
        let m = mem.filter(|_| op.is_load())?;
        self.store_queue.youngest_older(m.addr >> 3, seq)
    }

    /// Issues one selected instruction: resolves its completion cycle
    /// (a load's through store-to-load forwarding from `forward`, chosen
    /// at select, or the d-cache, in issue order), marks it issued and
    /// wakes its dependents.
    fn issue_inst(&mut self, slot: InstSlot, forward: Forward) {
        let clock = self.clock;
        let entry = self.rob.get(slot).expect("issued instruction must be in the ROB");
        let op = entry.inst.op;
        let mem = entry.inst.mem;
        let pc = entry.inst.pc;
        let seq = entry.seq();
        obs! {
            self.attribution.work.insts_issued += 1;
            if op.is_load() {
                self.attribution.work.loads_issued += 1;
            }
            if op.is_store() {
                self.attribution.work.stores_issued += 1;
            }
        }
        let complete_at = match op {
            OpClass::Load => {
                let m = mem.expect("loads carry an address");
                match forward {
                    Some(store_ready) => {
                        self.stats.stlf_forwards += 1;
                        store_ready.max(clock) + self.config.stlf_latency
                    }
                    None => {
                        let latency =
                            self.hierarchy.access_data(pc, m.addr, AccessKind::Load, clock);
                        obs! {
                            if latency > self.config.l1d_latency {
                                self.attribution.work.load_misses += 1;
                                self.miss_outstanding_until =
                                    self.miss_outstanding_until.max(clock + latency);
                            }
                        }
                        clock + latency
                    }
                }
            }
            OpClass::Store => {
                if let Some(m) = mem {
                    // Stores probe the cache for the write allocate but do
                    // not delay commit on it: the latency is discarded.
                    self.hierarchy.access_data(pc, m.addr, AccessKind::Store, clock);
                }
                clock + 1
            }
            _ => clock + u64::from(op.base_latency()),
        };

        if op == OpClass::IntDiv {
            self.div_busy_until = complete_at;
        }
        if op == OpClass::FpDiv {
            self.fpdiv_busy_until = complete_at;
        }

        let needs_validation;
        let dest_to_mark;
        {
            let entry = self.rob.get_mut(slot).expect("issued instruction must be in the ROB");
            entry.issued = true;
            entry.in_iq = false;
            entry.complete_at = complete_at;
            needs_validation = entry.needs_validation_issue;
            dest_to_mark = entry.wakeup_dest();
        }
        self.iq_count -= 1;
        #[cfg(debug_assertions)]
        if let Some(entry) = self.rob.get(slot).filter(|e| e.allocated_new_preg) {
            let (preg, value) = (entry.dest_preg.expect("allocations have one"), entry.inst.result);
            self.regs.set_value(preg, value);
        }
        if let Some(preg) = dest_to_mark {
            self.set_ready_and_wake(preg, complete_at);
        }
        if op == OpClass::Store && mem.is_some() {
            // The store's data is now en route: loads parked on it resume.
            for w in self.store_queue.mark_issued(seq, complete_at) {
                self.sched.insert_ready(w);
            }
        }
        if let Some(kind) = needs_validation {
            if kind != ValidationKind::Free {
                self.pending_validations.push(PendingValidation { ready_at: clock + 1, kind, op });
            }
        }
    }

    /// Marks `preg` available from `cycle` and wakes the instructions whose
    /// last outstanding source it was (event-driven wakeup on writeback).
    fn set_ready_and_wake(&mut self, preg: PhysReg, cycle: u64) {
        self.regs.set_ready_at(preg, cycle);
        let mut waiters = std::mem::take(&mut self.wake_scratch);
        self.regs.take_waiters_into(preg, &mut waiters);
        for &w in &waiters {
            let Some(entry) = self.rob.get_mut(w) else {
                continue; // squashed or re-dispatched; stale waiter
            };
            if !entry.in_iq || entry.issued {
                continue;
            }
            debug_assert!(entry.pending_srcs > 0, "waiter with no pending sources");
            entry.pending_srcs -= 1;
            entry.wake_at = entry.wake_at.max(cycle);
            if entry.pending_srcs == 0 {
                self.sched.schedule(entry.wake_at, w);
            }
        }
        waiters.clear();
        self.wake_scratch = waiters;
    }

    // ---------------------------------------------------------- rename

    fn rename_dispatch(&mut self) -> Result<(), SimError> {
        // Attribution: when nothing renames this cycle, remember why the
        // loop stopped (the default — an empty or not-yet-decoded fetch
        // queue — is frontend starvation).
        #[cfg(feature = "obs")]
        let mut block = RenameStall::Starved;
        let mut renamed = 0;
        while renamed < self.config.rename_width {
            if let Some(stall) = self.rename_stall() {
                stall.charge(&mut self.stats, 1);
                obs! {
                    block = stall;
                }
                break;
            }
            let fetched = self.fetch_queue.pop_front().expect("rename_stall checked the front");
            let inst = fetched.inst;
            let action = if inst.produces_register() {
                let ctx = RenameContext { clock: self.clock, rob: &self.rob };
                self.engine.at_rename(&inst, &ctx)
            } else {
                RenameAction::Normal
            };
            self.dispatch_one(inst, action, fetched.mispredicted)?;
            renamed += 1;
        }
        obs! {
            self.attribution.classify_rename(renamed as u64, block.attribution_class());
        }
        Ok(())
    }

    /// Why the fetch-queue front cannot rename this cycle, or `None` when
    /// it can.
    fn rename_stall(&self) -> Option<RenameStall> {
        let front = match self.fetch_queue.front() {
            Some(front) if front.ready_at <= self.clock => front,
            _ => return Some(RenameStall::Starved),
        };
        if self.rob.is_full() {
            return Some(RenameStall::RobFull);
        }
        let inst = &front.inst;
        let executes_by_default = !matches!(inst.op, OpClass::Nop);
        if (executes_by_default && self.iq_count >= self.config.iq_size)
            || (inst.op.is_load() && self.lq_count >= self.config.lq_size)
            || (inst.op.is_store() && self.sq_count >= self.config.sq_size)
        {
            return Some(RenameStall::QueueFull);
        }
        if inst.produces_register() {
            // Every producer might need a fresh register (whether it does
            // depends on the engine's decision), so require one up front to
            // keep engine calls side-effect-safe.
            let class = inst.dest.expect("producer has a destination").class();
            if self.regs.file(class).free_count() == 0 {
                return Some(RenameStall::PrfStall);
            }
        }
        None
    }

    /// Allocates a fresh physical register of `class` for dispatch. Rename
    /// stalled until one was free, so an empty free list here means the
    /// registers were not conserved.
    fn allocate(&mut self, class: RegClass) -> Result<PhysReg, SimError> {
        self.regs.allocate(class).ok_or_else(|| SimError::RegisterConservation {
            cycle: self.clock,
            class,
            detail: "no free register at dispatch".to_string(),
            engine: self.engine.name(),
        })
    }

    fn dispatch_one(
        &mut self,
        inst: DynInst,
        action: RenameAction,
        mispredicted: bool,
    ) -> Result<(), SimError> {
        let clock = self.clock;
        // Renamed sources (the hardwired zero register is always ready).
        let mut src_pregs: SrcRegs =
            inst.sources().filter(|s| !s.is_zero_reg()).map(|s| self.spec_map.lookup(s)).collect();

        let mut dest_preg = None;
        let mut allocated_new_preg = false;
        let mut eliminated = false;
        let mut needs_validation = None;
        let mut disposition = Disposition::from(action);

        if let Some(dest) = inst.dest {
            if dest.is_zero_reg() {
                // Writes to the architectural zero register are discarded.
                eliminated = true;
            } else {
                let preg = match action {
                    RenameAction::Normal => {
                        allocated_new_preg = true;
                        self.allocate(dest.class())?
                    }
                    RenameAction::PredictValue { .. } => {
                        allocated_new_preg = true;
                        let preg = self.allocate(dest.class())?;
                        // Dependents may consume the predicted value right
                        // away: the register is ready immediately.
                        self.regs.set_ready_at(preg, clock);
                        preg
                    }
                    RenameAction::EliminateZeroIdiom => {
                        eliminated = true;
                        PhysRegFile::zero_reg()
                    }
                    // Still executes to validate the speculation.
                    RenameAction::PredictZero { .. } => PhysRegFile::zero_reg(),
                    RenameAction::EliminateMove => {
                        // Rename the destination onto the move's source.
                        let src = inst
                            .sources()
                            .next()
                            .expect("move elimination requires a source register");
                        eliminated = true;
                        self.spec_map.lookup(src)
                    }
                    RenameAction::Share { provider_seq, validation, .. } => {
                        match self.rob.find_by_seq(provider_seq).and_then(|p| p.dest_preg) {
                            Some(provider_preg) => {
                                // The predicted instruction is made dependent
                                // on the provider (Section IV-F1).
                                src_pregs.push(provider_preg);
                                needs_validation = Some(validation);
                                provider_preg
                            }
                            None => {
                                // Provider left the window between the
                                // engine's decision and dispatch; fall back
                                // to normal renaming.
                                allocated_new_preg = true;
                                disposition = Disposition::None;
                                self.allocate(dest.class())?
                            }
                        }
                    }
                };
                // The new mapping makes this entry an owner of `preg` while
                // it is in flight.
                self.spec_map.rename(dest, preg);
                self.regs.acquire(preg);
                dest_preg = Some(preg);
            }
        }

        if inst.op == OpClass::Nop {
            eliminated = true;
        }

        let uses_lq = inst.op.is_load();
        let uses_sq = inst.op.is_store();
        if uses_lq {
            self.lq_count += 1;
        }
        if uses_sq {
            self.sq_count += 1;
            if let Some(m) = inst.mem {
                self.store_queue.push(inst.seq, m.addr >> 3);
            }
        }
        let in_iq = !eliminated;
        if in_iq {
            self.iq_count += 1;
        }

        // Event-driven wakeup bookkeeping: count the sources whose
        // availability cycle is still unknown and register a waiter on each
        // (woken when the producer is assigned a completion cycle). When
        // every source is already resolved, the instruction goes straight
        // onto the wakeup calendar.
        let gen = self.dispatch_gen;
        self.dispatch_gen += 1;
        let slot = InstSlot { seq: inst.seq, gen };
        let mut pending_srcs = 0u32;
        let mut wake_at = clock + 1;
        if in_iq {
            for &p in &src_pregs {
                let ready = self.regs.ready_at(p);
                if ready == NOT_READY {
                    self.regs.add_waiter(p, slot);
                    pending_srcs += 1;
                } else {
                    wake_at = wake_at.max(ready);
                }
            }
            if pending_srcs == 0 {
                self.sched.schedule(wake_at, slot);
            }
        }

        self.rob.push(InflightInst {
            inst,
            dest_preg,
            allocated_new_preg,
            src_pregs,
            disposition,
            eliminated,
            in_iq,
            issued: false,
            complete_at: clock,
            renamed_at: clock,
            branch_mispredicted: mispredicted,
            needs_validation_issue: needs_validation,
            uses_lq,
            uses_sq,
            sched_gen: gen,
            pending_srcs,
            wake_at,
        });
        Ok(())
    }

    // ------------------------------------------------------------- fetch

    fn fetch(&mut self, trace: &mut impl Iterator<Item = DynInst>) {
        if self.clock < self.fetch_resume_at || self.pending_redirect.is_some() {
            obs! {
                self.attribution.fetch.redirect += 1;
            }
            return;
        }
        debug_assert!(self.fetch_pending.is_empty());
        #[cfg(feature = "obs")]
        let queue_len_before = self.fetch_queue.len();
        #[cfg(feature = "obs")]
        let queue_was_full = self.fetch_queue.len() >= self.config.fetch_queue_size;
        self.fetch_block(trace);
        self.resolve_fetch_batch();
        obs! {
            // Even the batched frontend's misprediction unwind keeps the
            // mispredicted branch itself enqueued, so "the queue grew" is
            // exactly "at least one instruction was delivered".
            let delivered = self.fetch_queue.len() > queue_len_before;
            let drained = self.trace_done && self.replay.is_empty();
            let fetch = &mut self.attribution.fetch;
            if delivered {
                fetch.active += 1;
            } else if queue_was_full {
                fetch.queue_full += 1;
            } else if drained {
                fetch.drained += 1;
            } else {
                fetch.idle += 1;
            }
        }
    }

    /// Block fetch: enqueue the cycle's fetch block instruction by
    /// instruction (recording a rollback mark per branch), then resolve
    /// every branch of the block with **one** batched gather/probe/resolve
    /// [`PredictorStack::predict_block`] call — in fetch order, stopping at
    /// the first misprediction. The batched schedule was proven
    /// bit-identical to a per-branch table walk by the golden-stats and
    /// oracle tests before the sequential reference path was retired.
    /// Instructions enqueued past a mispredicted branch are unwound: their
    /// i-cache accesses wait in `fetch_pending` until the end of the fetch
    /// stage, so nothing they did has left the fetch stage's own buffers,
    /// and popping them back into the replay queue and truncating
    /// `fetch_pending` restores exactly the state a per-branch loop would
    /// have produced (see `DESIGN.md`).
    fn fetch_block(&mut self, trace: &mut impl Iterator<Item = DynInst>) {
        let mut requests = std::mem::take(&mut self.predict_requests);
        let mut marks = std::mem::take(&mut self.predict_marks);
        debug_assert!(requests.is_empty() && marks.is_empty());
        let mut fetched = 0;
        let mut taken_branches = 0;
        while fetched < self.config.fetch_width
            && self.fetch_queue.len() < self.config.fetch_queue_size
        {
            let inst = match self.replay.pop_front() {
                Some(inst) => inst,
                None => match trace.next() {
                    Some(inst) => inst,
                    None => {
                        self.trace_done = true;
                        break;
                    }
                },
            };
            let branch = inst.branch;
            let is_taken = branch.map(|b| b.taken).unwrap_or(false);
            let seq = inst.seq;
            if let Some(branch) = branch {
                requests.push(PredictRequest::new(inst.pc, branch));
            }
            self.push_fetched(inst, false);
            if branch.is_some() {
                marks.push(FetchMark {
                    seq,
                    queue_len: self.fetch_queue.len() as u32,
                    fetch_pending_len: self.fetch_pending.len() as u32,
                    last_fetch_block: self.last_fetch_block,
                });
            }
            fetched += 1;
            // The taken-branch budget is oracle information that travels
            // with the trace; mispredictions are discovered below.
            if is_taken {
                taken_branches += 1;
                if taken_branches > self.config.fetch_taken_branches {
                    break;
                }
            }
        }

        // One call resolves the block's branches in fetch order.
        let resolved = self.stack.predict_block(&mut requests);

        // The engine observes exactly the resolved branches, in fetch
        // order (its history state is disjoint from the stack's, so
        // notifying after the batch is equivalent to interleaving).
        for request in &requests[..resolved] {
            self.engine.on_branch(request.pc, request.branch.taken);
        }

        if resolved > 0 && requests[resolved - 1].mispredicted {
            // The block ends at the mispredicted branch: flag it, block
            // fetch until it resolves, and unwind everything younger.
            let mark = marks[resolved - 1];
            self.fetch_queue[mark.queue_len as usize - 1].mispredicted = true;
            self.pending_redirect = Some(mark.seq);
            while self.fetch_queue.len() > mark.queue_len as usize {
                let tail = self.fetch_queue.pop_back().expect("length checked above");
                self.replay.push_front(tail.inst);
            }
            self.fetch_pending.truncate(mark.fetch_pending_len as usize);
            self.last_fetch_block = mark.last_fetch_block;
        }

        requests.clear();
        self.predict_requests = requests;
        marks.clear();
        self.predict_marks = marks;
    }

    /// Enqueues one fetched instruction, charging the instruction cache
    /// once per new cache block (the access waits in `fetch_pending`; a
    /// miss's extra latency is patched into `ready_at` when it resolves).
    fn push_fetched(&mut self, inst: DynInst, mispredicted: bool) {
        let block = inst.pc >> self.fetch_block_shift;
        if block != self.last_fetch_block {
            self.fetch_pending.push((self.fetch_queue.len(), inst.pc));
            self.last_fetch_block = block;
        }
        let ready_at = self.clock + self.config.frontend_depth;
        self.fetch_queue.push_back(FetchedInst { inst, ready_at, mispredicted });
    }

    /// Makes the fetch block's i-cache accesses, in fetch order, and
    /// patches miss latencies into the affected instructions' `ready_at`.
    fn resolve_fetch_batch(&mut self) {
        for &(queue_idx, pc) in &self.fetch_pending {
            let latency = self.hierarchy.access_inst(pc, self.clock);
            let extra = latency.saturating_sub(self.config.l1i_latency);
            self.fetch_queue[queue_idx].ready_at += extra;
        }
        self.fetch_pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsep_isa::{ArchReg, BranchKind, DynInstBuilder};

    fn alu(seq: u64, pc: u64, dest: u8, src: Option<u8>, result: u64) -> DynInst {
        let mut b =
            DynInstBuilder::new(seq, pc, OpClass::IntAlu).dest(ArchReg::int(dest)).result(result);
        if let Some(s) = src {
            b = b.src(ArchReg::int(s));
        }
        b.build()
    }

    fn run_trace(insts: Vec<DynInst>) -> SimStats {
        let mut core = Core::baseline(CoreConfig::small_test());
        let count = insts.len() as u64;
        let mut trace = insts.into_iter();
        core.run(&mut trace, count).expect("no deadlock");
        core.take_stats()
    }

    #[test]
    fn independent_alu_instructions_reach_high_ipc() {
        // 8-wide core, fully independent single-cycle instructions: IPC
        // should be well above 2.
        let insts: Vec<DynInst> = (0..4000u64)
            .map(|i| alu(i, 0x40_0000 + (i % 16) * 4, (i % 8) as u8, None, i))
            .collect();
        let stats = run_trace(insts);
        assert_eq!(stats.committed, 4000);
        assert!(stats.ipc() > 2.0, "ipc = {}", stats.ipc());
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        // Every instruction depends on the previous one: IPC cannot exceed 1.
        let insts: Vec<DynInst> =
            (0..2000u64).map(|i| alu(i, 0x40_0000 + (i % 16) * 4, 1, Some(1), i)).collect();
        let stats = run_trace(insts);
        assert_eq!(stats.committed, 2000);
        assert!(stats.ipc() <= 1.05, "ipc = {}", stats.ipc());
        assert!(stats.ipc() > 0.5, "ipc = {}", stats.ipc());
    }

    #[test]
    fn long_latency_divides_throttle_ipc() {
        let insts: Vec<DynInst> = (0..1000u64)
            .map(|i| {
                DynInstBuilder::new(i, 0x40_0000 + (i % 8) * 4, OpClass::IntDiv)
                    .dest(ArchReg::int((i % 4) as u8))
                    .result(i)
                    .build()
            })
            .collect();
        let stats = run_trace(insts);
        // The single unpipelined divider (25 cycles) bounds IPC to 1/25.
        assert!(stats.ipc() < 0.06, "ipc = {}", stats.ipc());
    }

    #[test]
    fn loads_hitting_l1_are_faster_than_dram_misses() {
        let hot: Vec<DynInst> = (0..2000u64)
            .map(|i| {
                DynInstBuilder::new(i, 0x40_0000 + (i % 8) * 4, OpClass::Load)
                    .dest(ArchReg::int((i % 8) as u8))
                    .result(i)
                    .mem(0x1000_0000 + (i % 8) * 8, 8)
                    .build()
            })
            .collect();
        let cold: Vec<DynInst> = (0..2000u64)
            .map(|i| {
                DynInstBuilder::new(i, 0x40_0000 + (i % 8) * 4, OpClass::Load)
                    .dest(ArchReg::int((i % 8) as u8))
                    .result(i)
                    // Pseudo-randomly scattered addresses over 64 MB defeat
                    // the caches and the stride prefetcher.
                    .mem(0x1000_0000 + (i.wrapping_mul(2_654_435_761) % (1 << 26)) / 8 * 8, 8)
                    .build()
            })
            .collect();
        let hot_stats = run_trace(hot);
        let cold_stats = run_trace(cold);
        assert!(
            hot_stats.ipc() > cold_stats.ipc() * 1.5,
            "hot {} vs cold {}",
            hot_stats.ipc(),
            cold_stats.ipc()
        );
    }

    #[test]
    fn store_to_load_forwarding_keeps_dependent_pairs_fast() {
        // store to A; load from A; repeat with different A each iteration.
        let mut insts = Vec::new();
        let mut seq = 0u64;
        for i in 0..1000u64 {
            let addr = 0x2000_0000 + i * 64;
            insts.push(
                DynInstBuilder::new(seq, 0x40_0000, OpClass::Store)
                    .src(ArchReg::int(1))
                    .result(i)
                    .mem(addr, 8)
                    .build(),
            );
            seq += 1;
            insts.push(
                DynInstBuilder::new(seq, 0x40_0004, OpClass::Load)
                    .dest(ArchReg::int(2))
                    .result(i)
                    .mem(addr, 8)
                    .build(),
            );
            seq += 1;
        }
        let stats = run_trace(insts);
        assert_eq!(stats.committed, 2000);
        // Forwarded loads avoid the memory hierarchy entirely; even with
        // cold misses this stays reasonably fast.
        assert!(stats.ipc() > 0.5, "ipc = {}", stats.ipc());
    }

    #[test]
    fn predictable_branches_do_not_stall_fetch() {
        let mut insts = Vec::new();
        for i in 0..3000u64 {
            if i % 4 == 3 {
                insts.push(
                    DynInstBuilder::new(i, 0x40_0000 + (i % 4) * 4, OpClass::Branch)
                        .branch(BranchKind::Conditional, false, 0x40_0000)
                        .build(),
                );
            } else {
                insts.push(alu(i, 0x40_0000 + (i % 4) * 4, (i % 8) as u8, None, i));
            }
        }
        let stats = run_trace(insts);
        assert!(stats.branch_mpki() < 5.0, "mpki = {}", stats.branch_mpki());
        assert!(stats.ipc() > 1.5, "ipc = {}", stats.ipc());
    }

    #[test]
    fn random_branches_cost_performance() {
        let mut easy = Vec::new();
        let mut hard = Vec::new();
        let mut flip = 0x12345u64;
        for i in 0..4000u64 {
            let pc = 0x40_0000 + (i % 8) * 4;
            if i % 4 == 3 {
                easy.push(
                    DynInstBuilder::new(i, pc, OpClass::Branch)
                        .branch(BranchKind::Conditional, true, pc + 4)
                        .build(),
                );
                flip = flip.wrapping_mul(6364136223846793005).wrapping_add(1);
                let taken = (flip >> 33) & 1 == 1;
                hard.push(
                    DynInstBuilder::new(i, pc, OpClass::Branch)
                        .branch(BranchKind::Conditional, taken, pc + 4)
                        .build(),
                );
            } else {
                easy.push(alu(i, pc, (i % 8) as u8, None, i));
                hard.push(alu(i, pc, (i % 8) as u8, None, i));
            }
        }
        let easy_stats = run_trace(easy);
        let hard_stats = run_trace(hard);
        assert!(
            easy_stats.ipc() > hard_stats.ipc() * 1.2,
            "easy {} vs hard {}",
            easy_stats.ipc(),
            hard_stats.ipc()
        );
        assert!(hard_stats.branch_mispredictions > 100);
    }

    #[test]
    fn commits_match_trace_length_exactly() {
        let insts: Vec<DynInst> = (0..777u64).map(|i| alu(i, 0x40_0000, 1, None, i)).collect();
        let stats = run_trace(insts);
        assert_eq!(stats.committed, 777);
    }

    #[test]
    fn reset_stats_separates_warmup_from_measurement() {
        let mut core = Core::baseline(CoreConfig::small_test());
        let mut trace =
            (0..2000u64).map(|i| alu(i, 0x40_0000 + (i % 8) * 4, (i % 8) as u8, None, i));
        core.run(&mut trace.by_ref().take(1000).collect::<Vec<_>>().into_iter(), 1000).unwrap();
        assert_eq!(core.stats().committed, 1000);
        core.reset_stats();
        assert_eq!(core.stats().committed, 0);
        core.run(&mut trace, 1000).unwrap();
        assert_eq!(core.stats().committed, 1000);
        assert!(core.stats().cycles < core.clock());
    }

    #[test]
    fn forwarding_reads_the_youngest_older_store() {
        // store A (data from a slow divide chain) and store B (data ready)
        // write the same double-word; a younger load must forward from B —
        // the *youngest older* store — without waiting for A to issue.
        let mut core = Core::baseline(CoreConfig::small_test());
        let addr = 0x2000_0000u64;
        let insts = vec![
            DynInstBuilder::new(0, 0x40_0000, OpClass::IntDiv)
                .dest(ArchReg::int(7))
                .result(1)
                .build(),
            DynInstBuilder::new(1, 0x40_0004, OpClass::IntDiv)
                .dest(ArchReg::int(7))
                .src(ArchReg::int(7))
                .result(2)
                .build(),
            // Store A: waits ~50 cycles for the divide chain.
            DynInstBuilder::new(2, 0x40_0008, OpClass::Store)
                .src(ArchReg::int(7))
                .result(2)
                .mem(addr, 8)
                .build(),
            // Store B: same address, data ready immediately.
            DynInstBuilder::new(3, 0x40_000c, OpClass::Store)
                .src(ArchReg::int(1))
                .result(9)
                .mem(addr, 8)
                .build(),
            DynInstBuilder::new(4, 0x40_0010, OpClass::Load)
                .dest(ArchReg::int(2))
                .result(9)
                .mem(addr, 8)
                .build(),
        ];
        let mut trace = insts.into_iter();
        let mut load_issued = false;
        for _ in 0..300 {
            core.step(&mut trace).unwrap();
            if core.rob.find_by_seq(4).is_some_and(|e| e.issued) {
                load_issued = true;
                break;
            }
        }
        assert!(load_issued, "load never issued");
        // The decisive ordering check: at the cycle the load issued,
        // the *older* same-address store A is still waiting on its
        // divide chain. Under the old any-older-store rule the load
        // could not have issued yet.
        let store_a = core.rob.find_by_seq(2).expect("store A still in flight");
        assert!(!store_a.issued, "store A must still be waiting on the divide chain");
        assert_eq!(core.stats.stlf_forwards, 1, "expected one forwarding");
    }

    #[test]
    fn wedged_pipeline_returns_a_structured_error_instead_of_panicking() {
        let mut core = Core::baseline(CoreConfig::small_test());
        // Force the wedge directly: fetch is blocked forever with an empty
        // ROB, so no instruction can ever commit and the deadlock watchdog
        // must fire (as a SimError, not a panic).
        core.fetch_resume_at = u64::MAX;
        let insts: Vec<DynInst> = (0..10u64).map(|i| alu(i, 0x40_0000, 1, None, i)).collect();
        let mut trace = insts.into_iter();
        let err = core.run(&mut trace, 10).expect_err("a wedged pipeline must fail");
        let SimError::Deadlock { cycle, last_commit_cycle, rob_len, iq_len, engine } = &err else {
            panic!("expected a deadlock, got: {err}");
        };
        // The quiescent-cycle skip stops short of every watchdog check, so
        // the error fires at exactly the cycle stepping reaches.
        assert_eq!(*cycle, WATCHDOG_DEADLOCK_CYCLES);
        assert_eq!(*last_commit_cycle, 0);
        assert_eq!(*rob_len, 0);
        assert_eq!(*iq_len, 0);
        assert_eq!(engine, "baseline");
        assert!(err.to_string().contains("pipeline deadlock"), "display: {err}");
    }

    #[test]
    fn every_pending_event_bounds_the_quiescent_skip() {
        // An idle core whose fetch is blocked until cycle 1000 may skip up
        // to there; each kind of pending event pulls the bound in, and at
        // the event itself a stage can act.
        let mut core = Core::baseline(CoreConfig::small_test());
        core.fetch_resume_at = 1_000;
        assert_eq!(core.quiescent_until(), Some((1_000, RenameStall::Starved)));
        // Within the calendar's horizon (97 cycles for `small_test`).
        core.sched.schedule(90, InstSlot { seq: 0, gen: 0 });
        assert_eq!(core.quiescent_until(), Some((90, RenameStall::Starved)));
        core.pending_validations.push(PendingValidation {
            ready_at: 70,
            kind: ValidationKind::AnyFu,
            op: OpClass::IntAlu,
        });
        assert_eq!(core.quiescent_until(), Some((70, RenameStall::Starved)));
        let inst = alu(0, 0x40_0000, 1, None, 0);
        core.fetch_queue.push_back(FetchedInst { inst, ready_at: 50, mispredicted: false });
        assert_eq!(core.quiescent_until(), Some((50, RenameStall::Starved)));
        core.clock = 50;
        assert_eq!(core.quiescent_until(), None);
    }

    /// Scripted speculation engine: returns the rename action scripted for
    /// a sequence number; every other instruction renames normally. With
    /// `isrb` set it answers `release_register` like the paper's ISRB (a
    /// register shared `n` times may be freed on its `n + 1`-th release),
    /// otherwise it always agrees. Register conservation must hold under
    /// either answer, because the core ignores it.
    #[derive(Debug)]
    struct ScriptedEngine {
        script: Vec<(u64, RenameAction)>,
        isrb: bool,
        shared: Vec<PhysReg>,
    }

    impl ScriptedEngine {
        fn new(script: Vec<(u64, RenameAction)>, isrb: bool) -> ScriptedEngine {
            ScriptedEngine { script, isrb, shared: Vec::new() }
        }
    }

    impl SpecEngine for ScriptedEngine {
        fn name(&self) -> String {
            "scripted".to_string()
        }

        fn at_rename(&mut self, inst: &DynInst, ctx: &RenameContext<'_>) -> RenameAction {
            let Some(&(_, action)) = self.script.iter().find(|(seq, _)| *seq == inst.seq) else {
                return RenameAction::Normal;
            };
            if let RenameAction::Share { provider_seq, .. } = action {
                self.shared.extend(ctx.rob.find_by_seq(provider_seq).and_then(|p| p.dest_preg));
            }
            action
        }

        fn release_register(&mut self, preg: PhysReg) -> bool {
            match self.shared.iter().position(|&p| p == preg) {
                Some(idx) if self.isrb => {
                    self.shared.swap_remove(idx);
                    false
                }
                _ => true,
            }
        }
    }

    /// A correct share of `provider_seq`'s destination register.
    fn share(provider_seq: u64) -> RenameAction {
        RenameAction::Share { provider_seq, correct: true, validation: ValidationKind::Free }
    }

    fn div(seq: u64, dest: u8, result: u64) -> DynInst {
        DynInstBuilder::new(seq, 0x40_0000 + seq * 4, OpClass::IntDiv)
            .dest(ArchReg::int(dest))
            .result(result)
            .build()
    }

    fn mov(seq: u64, dest: u8, src: u8, result: u64) -> DynInst {
        DynInstBuilder::new(seq, 0x40_0000 + seq * 4, OpClass::Move)
            .dest(ArchReg::int(dest))
            .src(ArchReg::int(src))
            .result(result)
            .build()
    }

    /// Asserts, per class, that no free register is still mapped (by
    /// either map) or held by a ROB entry, and that the free registers
    /// plus the live ones (mapped, held, or the zero register) make up
    /// the whole file.
    fn assert_registers_conserved<E: SpecEngine>(core: &Core<E>) {
        for class in [RegClass::Int, RegClass::Fp] {
            let file = core.regs.file(class);
            let mut live = vec![class == RegClass::Int; 1];
            live.resize(file.size(), false);
            let mapped = core.arch_map.iter().chain(core.spec_map.iter()).map(|(_, p)| p);
            let held = core.rob.iter().filter_map(|e| e.dest_preg);
            for preg in mapped.chain(held).filter(|p| p.class() == class) {
                assert!(
                    file.owners(preg) > 0,
                    "cycle {}: {preg} is free but still mapped or held by a ROB entry",
                    core.clock
                );
                live[usize::from(preg.index())] = true;
            }
            let live = live.iter().filter(|&&l| l).count();
            assert_eq!(file.free_count() + live, file.size(), "cycle {}: leak", core.clock);
        }
        core.validate_invariants().expect("registers are conserved");
    }

    /// Runs `insts` on the small test core under a scripted engine, a
    /// commit group at a time, checking register conservation after each
    /// group and once the trace has drained.
    fn run_scripted(insts: Vec<DynInst>, engine: ScriptedEngine) -> Core<ScriptedEngine> {
        let mut core = Core::new(CoreConfig::small_test(), engine);
        let total = insts.len() as u64;
        let mut trace = insts.into_iter();
        while core.run(&mut trace, 1).expect("no SimError") < total {
            assert_registers_conserved(&core);
        }
        assert!(core.rob.is_empty());
        assert_registers_conserved(&core);
        core
    }

    #[test]
    fn a_sharer_writing_its_providers_register_frees_it_when_overwritten() {
        // seq 1 shares seq 0's register and writes the same architectural
        // register, so its commit overwrites a mapping to its own
        // destination; seq 2's overwrite must then free the register.
        let insts = vec![
            alu(0, 0x40_0000, 1, None, 5),
            alu(1, 0x40_0004, 1, Some(1), 5),
            alu(2, 0x40_0008, 1, None, 7),
        ];
        let core = run_scripted(insts, ScriptedEngine::new(vec![(1, share(0))], true));
        assert_eq!(core.stats().coverage.dist_pred, 1, "the share happened");
    }

    #[test]
    fn a_sharer_whose_mapping_is_overwritten_keeps_its_register_until_it_commits() {
        // seq 1 overwrites the provider's mapping and commits while the
        // slow sharer (seq 2, a divide) is in flight, its own speculative
        // mapping already overwritten by seq 3. No mapping points at the
        // shared register then, but the sharer still holds it, so the
        // allocations of seqs 4.. must not reuse it.
        let mut insts = vec![
            alu(0, 0x40_0000, 1, None, 5),
            alu(1, 0x40_0004, 1, None, 6),
            div(2, 2, 5),
            alu(3, 0x40_000c, 2, None, 8),
        ];
        insts.extend(
            (4..40).map(|seq| alu(seq, 0x40_0000 + seq * 4, 3 + (seq % 4) as u8, None, seq)),
        );
        let core = run_scripted(insts, ScriptedEngine::new(vec![(2, share(0))], false));
        assert_eq!(core.stats().coverage.dist_pred, 1, "the share happened");
    }

    #[test]
    fn a_move_eliminated_onto_a_shared_register_is_an_owner() {
        // seq 1 is eliminated onto seq 0's register, which the slow seq 4
        // then shares. The move's mapping and the provider's are both
        // overwritten and committed (seqs 2 and 3) while the sharer, whose
        // own mapping seq 5 overwrote, is still in flight.
        let mut insts = vec![
            alu(0, 0x40_0000, 1, None, 5),
            mov(1, 3, 1, 5),
            alu(2, 0x40_0008, 3, None, 6),
            alu(3, 0x40_000c, 1, None, 7),
            div(4, 2, 5),
            alu(5, 0x40_0014, 2, None, 8),
        ];
        insts.extend(
            (6..40).map(|seq| alu(seq, 0x40_0000 + seq * 4, 4 + (seq % 4) as u8, None, seq)),
        );
        let script = vec![(1, RenameAction::EliminateMove), (4, share(0))];
        let core = run_scripted(insts, ScriptedEngine::new(script, true));
        assert_eq!(core.stats().coverage.dist_pred, 1, "the share happened");
        assert_eq!(core.stats().coverage.move_elim, 1, "the move was eliminated");
    }

    #[test]
    fn producers_stall_rename_instead_of_exhausting_a_small_register_file() {
        // 33 integer registers back the architectural state, so a 34-entry
        // file leaves one to rename into. Moves the baseline engine does
        // not eliminate need it like any other producer: rename must stall
        // until a commit frees one, not dispatch into an empty free list.
        let mut config = CoreConfig::small_test();
        config.int_prf_size = 34;
        let mut core = Core::baseline(config);
        let insts: Vec<DynInst> =
            (0..2_000u64).map(|i| mov(i, (i % 8) as u8, ((i + 1) % 8) as u8, 0)).collect();
        let mut trace = insts.into_iter();
        assert_eq!(core.run(&mut trace, 2_000), Ok(2_000));
        assert!(core.stats().prf_stall_cycles > 0);
        assert_registers_conserved(&core);
    }

    #[test]
    fn event_driven_select_matches_the_polling_oracle_on_generated_traces() {
        use rsep_trace::{BenchmarkProfile, TraceGenerator};
        // Debug builds check every issue cycle against the ROB rescan the
        // polling scheduler used and step every skipped span, so one run
        // per trace compares the two.
        for name in ["gcc", "mcf", "libquantum"] {
            let profile = BenchmarkProfile::by_name(name).unwrap();
            for seed in [1u64, 7] {
                let mut core = Core::baseline(CoreConfig::small_test());
                let mut trace = TraceGenerator::new(&profile, seed);
                let committed = core.run(&mut trace, 20_000).unwrap();
                assert!(committed >= 20_000, "{name} seed {seed}: {committed} committed");
            }
        }
    }

    #[test]
    fn prf_pressure_is_observable() {
        // More in-flight producers than physical registers: rename must
        // stall on the free list at least occasionally.
        let mut config = CoreConfig::small_test();
        config.int_prf_size = 40; // 32 architectural + 8 headroom
        config.rob_size = 64;
        let mut core = Core::baseline(config);
        let insts: Vec<DynInst> = (0..4000u64)
            .map(|i| {
                DynInstBuilder::new(i, 0x40_0000 + (i % 16) * 4, OpClass::Load)
                    .dest(ArchReg::int((i % 8) as u8))
                    .result(i)
                    .mem(0x3000_0000 + (i % 512) * 8192, 8)
                    .build()
            })
            .collect();
        let mut trace = insts.into_iter();
        core.run(&mut trace, 4000).unwrap();
        let stats = core.take_stats();
        assert!(stats.prf_stall_cycles > 0, "expected register-pressure stalls");
    }
}
