//! Per-stage cycle attribution (the `obs` observability feature).
//!
//! [`StageAttribution`] answers "where do the simulated cycles go?" — the
//! question the single opaque throughput numbers in `BENCH_*.json` cannot.
//! Every simulated cycle is classified **exactly once per stage** (fetch,
//! rename, issue) into a work-or-stall class, and the commit stage records
//! a commit-slot utilization histogram; each per-stage breakdown therefore
//! provably sums to the total simulated cycles
//! ([`StageAttribution::validate`]).
//!
//! The struct itself is always compiled (so its merge/validate logic is
//! testable in every build), but the *instrumentation* in
//! [`Core`](crate::Core) only exists under the `obs` cargo feature — with
//! the feature off, the counters cost nothing and
//! [`Core::attribution`](crate::Core::attribution) returns `None`.
//!
//! Attribution counters deliberately live **outside**
//! [`SimStats`](crate::SimStats): the simulated behaviour (and therefore
//! `SimStats`) is bit-identical with the feature on or off, which the
//! golden-stats tests pin, and the counters are likewise excluded from
//! campaign fingerprints — they describe the *simulator*, not the simulated
//! machine (see `DESIGN.md`).

// lint: exempt-file(obs-gate, defines the attribution types; always compiled for testability)

/// Per-cycle classification of the fetch stage. Exactly one field is
/// incremented per simulated cycle, so the fields sum to total cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchCycles {
    /// At least one instruction entered the fetch queue.
    pub active: u64,
    /// Fetch blocked on an unresolved branch misprediction or the redirect
    /// penalty after one.
    pub redirect: u64,
    /// The fetch/decode queue was full.
    pub queue_full: u64,
    /// The trace ended and the replay queue is empty (pipeline draining).
    pub drained: u64,
    /// None of the above (defensive catch-all; expected to stay zero).
    pub idle: u64,
}

impl FetchCycles {
    fn total(&self) -> u64 {
        self.active + self.redirect + self.queue_full + self.drained + self.idle
    }

    fn merge(&mut self, other: &FetchCycles) {
        let Self { active, redirect, queue_full, drained, idle } = other;
        self.active += active;
        self.redirect += redirect;
        self.queue_full += queue_full;
        self.drained += drained;
        self.idle += idle;
    }
}

/// Per-cycle classification of the rename/dispatch stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenameCycles {
    /// At least one instruction renamed and dispatched.
    pub active: u64,
    /// Stalled with the ROB full.
    pub rob_full: u64,
    /// Stalled with the IQ, LQ or SQ full.
    pub queue_full: u64,
    /// Stalled waiting for a free physical register.
    pub prf_stall: u64,
    /// Nothing to rename: the front end delivered no ready instruction.
    pub starved: u64,
}

impl RenameCycles {
    fn total(&self) -> u64 {
        self.active + self.rob_full + self.queue_full + self.prf_stall + self.starved
    }

    fn merge(&mut self, other: &RenameCycles) {
        let Self { active, rob_full, queue_full, prf_stall, starved } = other;
        self.active += active;
        self.rob_full += rob_full;
        self.queue_full += queue_full;
        self.prf_stall += prf_stall;
        self.starved += starved;
    }
}

/// Per-cycle classification of the issue stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IssueCycles {
    /// At least one instruction or validation µ-op issued.
    pub active: u64,
    /// Ready instructions existed but every one was denied an issue port.
    pub port_limited: u64,
    /// Nothing ready while at least one load miss was outstanding —
    /// the cycle is (approximately) attributed to waiting on memory.
    pub wait_mem: u64,
    /// Instructions are in the IQ but none is ready (dependence chains).
    pub no_ready: u64,
    /// The IQ is empty.
    pub empty: u64,
}

impl IssueCycles {
    fn total(&self) -> u64 {
        self.active + self.port_limited + self.wait_mem + self.no_ready + self.empty
    }

    fn merge(&mut self, other: &IssueCycles) {
        let Self { active, port_limited, wait_mem, no_ready, empty } = other;
        self.active += active;
        self.port_limited += port_limited;
        self.wait_mem += wait_mem;
        self.no_ready += no_ready;
        self.empty += empty;
    }
}

/// Execute-stage *work* counters (event counts, not per-cycle classes —
/// these do not sum to cycles and are not part of
/// [`StageAttribution::validate`]'s per-stage invariant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Instructions issued to functional units.
    pub insts_issued: u64,
    /// Loads issued (including store-forwarded ones).
    pub loads_issued: u64,
    /// Issued loads whose cache latency exceeded the L1D hit latency.
    pub load_misses: u64,
    /// Stores issued.
    pub stores_issued: u64,
    /// Validation µ-ops issued.
    pub validations_issued: u64,
}

impl WorkCounts {
    fn merge(&mut self, other: &WorkCounts) {
        let Self { insts_issued, loads_issued, load_misses, stores_issued, validations_issued } =
            other;
        self.insts_issued += insts_issued;
        self.loads_issued += loads_issued;
        self.load_misses += load_misses;
        self.stores_issued += stores_issued;
        self.validations_issued += validations_issued;
    }
}

/// Why rename stopped before filling its width this cycle (reported by the
/// core's instrumentation; only consulted when nothing renamed at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameBlock {
    /// ROB full.
    RobFull,
    /// IQ/LQ/SQ full.
    QueueFull,
    /// No free physical register.
    PrfStall,
    /// Fetch queue empty or its head not yet through decode.
    Starved,
}

/// Per-stage cycle attribution of one simulation (or a merge of several).
///
/// Merges like [`SimStats`](crate::SimStats): field-wise, order-independent
/// and associative, so per-checkpoint attributions can be combined in any
/// grouping and produce identical totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageAttribution {
    /// Total cycles attributed (equals `SimStats::cycles` of the same
    /// window).
    pub cycles: u64,
    /// Fetch-stage breakdown (sums to `cycles`).
    pub fetch: FetchCycles,
    /// Rename-stage breakdown (sums to `cycles`).
    pub rename: RenameCycles,
    /// Issue-stage breakdown (sums to `cycles`).
    pub issue: IssueCycles,
    /// Commit-slot utilization histogram: `commit_slots[n]` counts the
    /// cycles in which exactly `n` instructions committed. The histogram
    /// entries sum to `cycles`.
    pub commit_slots: Vec<u64>,
    /// Execute-stage work counters (event counts, not cycle classes).
    pub work: WorkCounts,
}

impl StageAttribution {
    /// Records one commit cycle: `slots` instructions committed.
    pub fn record_commit(&mut self, slots: usize) {
        if self.commit_slots.len() <= slots {
            self.commit_slots.resize(slots + 1, 0);
        }
        self.commit_slots[slots] += 1;
    }

    /// Classifies one rename cycle.
    pub fn classify_rename(&mut self, renamed: u64, block: RenameBlock) {
        if renamed > 0 {
            self.rename.active += 1;
        } else {
            *self.rename_stall_class(block) += 1;
        }
    }

    /// The rename counter of the cycles in which `block` stopped rename.
    fn rename_stall_class(&mut self, block: RenameBlock) -> &mut u64 {
        match block {
            RenameBlock::RobFull => &mut self.rename.rob_full,
            RenameBlock::QueueFull => &mut self.rename.queue_full,
            RenameBlock::PrfStall => &mut self.rename.prf_stall,
            RenameBlock::Starved => &mut self.rename.starved,
        }
    }

    /// Records `cycles` consecutive quiescent cycles in bulk: cycles in
    /// which nothing fetched, renamed, issued or committed, attributed
    /// exactly as stepping them one by one would. Fetch was blocked by a
    /// redirect (`fetch_redirect`) or else by a full queue, rename by
    /// `block`; issue found nothing ready with `iq_occupancy` entries
    /// waiting, a load miss outstanding during the first `wait_mem_cycles`
    /// of the span.
    pub fn record_quiescent(
        &mut self,
        cycles: u64,
        fetch_redirect: bool,
        block: RenameBlock,
        iq_occupancy: usize,
        wait_mem_cycles: u64,
    ) {
        self.cycles += cycles;
        if fetch_redirect {
            self.fetch.redirect += cycles;
        } else {
            self.fetch.queue_full += cycles;
        }
        *self.rename_stall_class(block) += cycles;
        if iq_occupancy == 0 {
            self.issue.empty += cycles;
        } else {
            self.issue.wait_mem += wait_mem_cycles;
            self.issue.no_ready += cycles - wait_mem_cycles;
        }
        if self.commit_slots.is_empty() {
            self.commit_slots.push(0);
        }
        self.commit_slots[0] += cycles;
    }

    /// Classifies one issue cycle from what the select loop observed:
    /// `issued` instructions + validations issued, `port_blocked` ready
    /// candidates denied a port, current IQ occupancy, and whether a load
    /// miss is still outstanding.
    pub fn classify_issue(
        &mut self,
        issued: u64,
        port_blocked: u64,
        iq_occupancy: usize,
        miss_outstanding: bool,
    ) {
        if issued > 0 {
            self.issue.active += 1;
        } else if port_blocked > 0 {
            self.issue.port_limited += 1;
        } else if iq_occupancy == 0 {
            self.issue.empty += 1;
        } else if miss_outstanding {
            self.issue.wait_mem += 1;
        } else {
            self.issue.no_ready += 1;
        }
    }

    /// Accumulates another window's attribution into this one. Field-wise
    /// addition — order-independent and associative, like
    /// [`SimStats::merge`](crate::SimStats::merge).
    pub fn merge(&mut self, other: &StageAttribution) {
        let Self { cycles, fetch, rename, issue, work, commit_slots } = other;
        self.cycles += cycles;
        self.fetch.merge(fetch);
        self.rename.merge(rename);
        self.issue.merge(issue);
        self.work.merge(work);
        if self.commit_slots.len() < commit_slots.len() {
            self.commit_slots.resize(commit_slots.len(), 0);
        }
        for (mine, theirs) in self.commit_slots.iter_mut().zip(commit_slots) {
            *mine += *theirs;
        }
    }

    /// Checks the core invariant: every per-stage breakdown (and the
    /// commit-slot histogram) sums to exactly `expected_cycles`, which must
    /// equal the attributed cycle count. Returns a description of the first
    /// violation found.
    pub fn validate(&self, expected_cycles: u64) -> Result<(), String> {
        if self.cycles != expected_cycles {
            return Err(format!(
                "attributed {} cycles but the simulation ran {expected_cycles}",
                self.cycles
            ));
        }
        let commit_total: u64 = self.commit_slots.iter().sum();
        for (stage, total) in [
            ("fetch", self.fetch.total()),
            ("rename", self.rename.total()),
            ("issue", self.issue.total()),
            ("commit", commit_total),
        ] {
            if total != expected_cycles {
                return Err(format!(
                    "{stage} classes sum to {total}, expected {expected_cycles} cycles"
                ));
            }
        }
        Ok(())
    }

    /// The per-cycle stage breakdowns as `(stage, class, cycles)` rows, in
    /// a stable order — the machine-readable form the bench records and the
    /// CLI table are both built from.
    pub fn stage_rows(&self) -> Vec<(&'static str, &'static str, u64)> {
        vec![
            ("fetch", "active", self.fetch.active),
            ("fetch", "redirect", self.fetch.redirect),
            ("fetch", "queue_full", self.fetch.queue_full),
            ("fetch", "drained", self.fetch.drained),
            ("fetch", "idle", self.fetch.idle),
            ("rename", "active", self.rename.active),
            ("rename", "rob_full", self.rename.rob_full),
            ("rename", "queue_full", self.rename.queue_full),
            ("rename", "prf_stall", self.rename.prf_stall),
            ("rename", "starved", self.rename.starved),
            ("issue", "active", self.issue.active),
            ("issue", "port_limited", self.issue.port_limited),
            ("issue", "wait_mem", self.issue.wait_mem),
            ("issue", "no_ready", self.issue.no_ready),
            ("issue", "empty", self.issue.empty),
        ]
    }

    /// The execute-stage work counters as `(name, count)` rows.
    pub fn work_rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("insts_issued", self.work.insts_issued),
            ("loads_issued", self.work.loads_issued),
            ("load_misses", self.work.load_misses),
            ("stores_issued", self.work.stores_issued),
            ("validations_issued", self.work.validations_issued),
        ]
    }

    /// Renders the attribution as a human-readable table (the `rsep run
    /// --attribution` report).
    pub fn render_table(&self) -> String {
        let pct = |n: u64| {
            if self.cycles == 0 {
                0.0
            } else {
                n as f64 * 100.0 / self.cycles as f64
            }
        };
        let mut out = format!("per-stage cycle attribution over {} cycles\n", self.cycles);
        let mut last_stage = "";
        for (stage, class, cycles) in self.stage_rows() {
            if stage != last_stage {
                out.push_str(&format!("{stage}\n"));
                last_stage = stage;
            }
            out.push_str(&format!("  {class:<14}{cycles:>14}  {:>5.1}%\n", pct(cycles)));
        }
        out.push_str("commit slots (instructions committed per cycle)\n");
        for (slots, count) in self.commit_slots.iter().enumerate() {
            out.push_str(&format!("  {slots:<14}{count:>14}  {:>5.1}%\n", pct(*count)));
        }
        out.push_str("work counters\n");
        for (name, count) in self.work_rows() {
            out.push_str(&format!("  {name:<20}{count:>14}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> StageAttribution {
        // A synthetic but internally consistent attribution: every stage
        // group sums to `cycles`.
        let cycles = 10 + seed % 7;
        let a = seed % (cycles + 1);
        let mut s = StageAttribution {
            cycles,
            fetch: FetchCycles { active: a, redirect: cycles - a, ..FetchCycles::default() },
            rename: RenameCycles { active: cycles, ..RenameCycles::default() },
            issue: IssueCycles { no_ready: cycles - a, active: a, ..IssueCycles::default() },
            commit_slots: Vec::new(),
            work: WorkCounts { insts_issued: seed, ..WorkCounts::default() },
        };
        s.commit_slots = vec![cycles - a, a];
        s
    }

    #[test]
    fn validate_accepts_consistent_and_rejects_inconsistent() {
        let s = sample(3);
        assert_eq!(s.validate(s.cycles), Ok(()));
        assert!(s.validate(s.cycles + 1).is_err());
        let mut broken = s.clone();
        broken.fetch.idle += 1;
        assert!(broken.validate(broken.cycles).unwrap_err().contains("fetch"));
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        for seeds in [[1u64, 2, 3], [5, 5, 9], [0, 7, 11]] {
            let (a, b, c) = (sample(seeds[0]), sample(seeds[1]), sample(seeds[2]));
            // (a + b) + c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a + (b + c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "merge must be associative");
            // b + a == a + b
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative");
            assert_eq!(left.validate(a.cycles + b.cycles + c.cycles), Ok(()));
        }
    }

    #[test]
    fn quiescent_spans_match_per_cycle_classification() {
        for (fetch_redirect, block, iq_occupancy) in
            [(true, RenameBlock::PrfStall, 3), (false, RenameBlock::Starved, 0)]
        {
            let mut bulk = StageAttribution::default();
            bulk.record_quiescent(5, fetch_redirect, block, iq_occupancy, 2);
            let mut stepped = StageAttribution::default();
            for cycle in 0..5 {
                stepped.cycles += 1;
                if fetch_redirect {
                    stepped.fetch.redirect += 1;
                } else {
                    stepped.fetch.queue_full += 1;
                }
                stepped.classify_rename(0, block);
                stepped.classify_issue(0, 0, iq_occupancy, cycle < 2);
                stepped.record_commit(0);
            }
            assert_eq!(bulk, stepped);
            assert_eq!(bulk.validate(5), Ok(()));
        }
    }

    #[test]
    fn merged_histograms_grow_to_the_longer_one() {
        let mut a = StageAttribution::default();
        a.record_commit(0);
        a.record_commit(2);
        let mut b = StageAttribution::default();
        b.record_commit(5);
        a.merge(&b);
        assert_eq!(a.commit_slots, vec![1, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn issue_classification_priorities() {
        let mut s = StageAttribution::default();
        s.classify_issue(3, 1, 10, true);
        assert_eq!(s.issue.active, 1);
        s.classify_issue(0, 2, 10, true);
        assert_eq!(s.issue.port_limited, 1);
        s.classify_issue(0, 0, 0, true);
        assert_eq!(s.issue.empty, 1);
        s.classify_issue(0, 0, 4, true);
        assert_eq!(s.issue.wait_mem, 1);
        s.classify_issue(0, 0, 4, false);
        assert_eq!(s.issue.no_ready, 1);
    }

    #[test]
    fn rename_classification_prefers_work_over_stalls() {
        let mut s = StageAttribution::default();
        s.classify_rename(4, RenameBlock::RobFull);
        assert_eq!(s.rename.active, 1);
        assert_eq!(s.rename.rob_full, 0);
        s.classify_rename(0, RenameBlock::RobFull);
        s.classify_rename(0, RenameBlock::QueueFull);
        s.classify_rename(0, RenameBlock::PrfStall);
        s.classify_rename(0, RenameBlock::Starved);
        assert_eq!(
            (s.rename.rob_full, s.rename.queue_full, s.rename.prf_stall, s.rename.starved),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn table_renders_every_stage_and_class() {
        let s = sample(4);
        let table = s.render_table();
        for needle in ["fetch", "rename", "issue", "commit slots", "insts_issued", "wait_mem"] {
            assert!(table.contains(needle), "missing '{needle}' in:\n{table}");
        }
    }
}
