//! Commit-time redundancy analysis (Figure 1 of the paper).
//!
//! Figure 1 measures, over committed instructions, how many produce a
//! result that is zero and how many produce a result that is already
//! present in the physical register file (i.e. equals the result of a
//! recent older instruction), separating loads from other
//! register-producing instructions. This analysis only needs the committed
//! value stream, so it runs directly on a trace without the cycle-level
//! core.
//!
//! "Already present" is a membership test over the last `window` producer
//! results. The analyzer keeps those results in an age-ordered ring and,
//! beside it, a counted multiset of the same values (`ValueCounts`), so
//! the test is one hash probe instead of a scan of the whole window.

use rsep_isa::{DynInst, OpClass};
use std::collections::VecDeque;

/// Result of the Figure-1 analysis for one benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RedundancyReport {
    /// Committed instructions analysed.
    pub committed: u64,
    /// Loads whose result is zero (and are not zero idioms).
    pub zero_loads: u64,
    /// Other producers whose result is zero.
    pub zero_others: u64,
    /// Loads whose (non-zero) result is already live in the window.
    pub prf_loads: u64,
    /// Other producers whose (non-zero) result is already live in the
    /// window.
    pub prf_others: u64,
}

impl RedundancyReport {
    /// Fraction of committed instructions that are zero-producing loads.
    pub fn zero_load_fraction(&self) -> f64 {
        self.ratio(self.zero_loads)
    }

    /// Fraction of committed instructions that are zero-producing
    /// non-loads.
    pub fn zero_other_fraction(&self) -> f64 {
        self.ratio(self.zero_others)
    }

    /// Fraction of committed instructions that are loads whose result is
    /// already in the PRF.
    pub fn prf_load_fraction(&self) -> f64 {
        self.ratio(self.prf_loads)
    }

    /// Fraction of committed instructions that are non-loads whose result
    /// is already in the PRF.
    pub fn prf_other_fraction(&self) -> f64 {
        self.ratio(self.prf_others)
    }

    /// Total fraction covered by any of the four Figure-1 categories.
    pub fn total_fraction(&self) -> f64 {
        self.ratio(self.zero_loads + self.zero_others + self.prf_loads + self.prf_others)
    }

    /// Accumulates another checkpoint's counts into this one (used by the
    /// campaign engine to merge per-checkpoint redundancy cells; the merged
    /// fractions are then instruction-weighted averages).
    pub fn merge(&mut self, other: &RedundancyReport) {
        let Self { committed, zero_loads, zero_others, prf_loads, prf_others } = other;
        self.committed += committed;
        self.zero_loads += zero_loads;
        self.zero_others += zero_others;
        self.prf_loads += prf_loads;
        self.prf_others += prf_others;
    }

    fn ratio(&self, n: u64) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            n as f64 / self.committed as f64
        }
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundancyConfig {
    /// Number of recent register-producing instructions considered "live in
    /// the PRF". The paper resolves this at commit over the in-flight
    /// window; 192 matches the Table I ROB. A window of 0 behaves exactly
    /// like a window of 1: the previous producer's result is remembered.
    pub window: usize,
}

impl Default for RedundancyConfig {
    fn default() -> Self {
        RedundancyConfig { window: 192 }
    }
}

/// Streaming Figure-1 analyzer.
#[derive(Debug)]
pub struct RedundancyAnalyzer {
    /// Effective window: `config.window`, but at least 1.
    window: usize,
    /// The last `window` producer results, oldest first.
    recent: VecDeque<u64>,
    /// The values of `recent`, counted.
    live: ValueCounts,
    report: RedundancyReport,
}

impl RedundancyAnalyzer {
    /// Creates an analyzer.
    pub fn new(config: RedundancyConfig) -> RedundancyAnalyzer {
        let window = config.window.max(1);
        RedundancyAnalyzer {
            window,
            recent: VecDeque::with_capacity(window),
            live: ValueCounts::new(window),
            report: RedundancyReport::default(),
        }
    }

    /// Feeds one committed instruction.
    pub fn observe(&mut self, inst: &DynInst) {
        self.report.committed += 1;
        if !inst.produces_register() || inst.op == OpClass::ZeroIdiom {
            return;
        }
        let is_load = inst.op.is_load();
        if inst.result == 0 {
            if is_load {
                self.report.zero_loads += 1;
            } else {
                self.report.zero_others += 1;
            }
        } else if self.live.contains(inst.result) {
            if is_load {
                self.report.prf_loads += 1;
            } else {
                self.report.prf_others += 1;
            }
        }
        if self.recent.len() == self.window {
            let evicted = self.recent.pop_front().expect("a full window is not empty");
            self.live.remove(evicted);
        }
        self.recent.push_back(inst.result);
        self.live.insert(inst.result);
    }

    /// The report accumulated so far.
    pub fn report(&self) -> RedundancyReport {
        self.report
    }

    /// Convenience: analyses a whole trace.
    pub fn analyze<I: IntoIterator<Item = DynInst>>(
        config: RedundancyConfig,
        trace: I,
    ) -> RedundancyReport {
        let mut analyzer = RedundancyAnalyzer::new(config);
        for inst in trace {
            analyzer.observe(&inst);
        }
        analyzer.report()
    }
}

/// A multiset of `u64` values: an open-addressed, linearly probed table
/// of `(value, count)` slots, where a count of 0 marks an empty slot.
///
/// The table holds at most `window` distinct values and is sized to the
/// next power of two of `4 * window`, so it is never more than a quarter
/// full and probe runs stay short. Removal uses backward-shift deletion,
/// so there are no tombstones and lookups never degrade.
#[derive(Debug)]
struct ValueCounts {
    values: Box<[u64]>,
    counts: Box<[u32]>,
    /// `64 - log2(slots)`: the home slot is the top bits of a Fibonacci
    /// hash.
    shift: u32,
}

impl ValueCounts {
    fn new(window: usize) -> ValueCounts {
        let slots = (4 * window).next_power_of_two();
        ValueCounts {
            values: vec![0; slots].into_boxed_slice(),
            counts: vec![0; slots].into_boxed_slice(),
            shift: 64 - slots.trailing_zeros(),
        }
    }

    fn home(&self, value: u64) -> usize {
        (value.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    fn mask(&self) -> usize {
        self.counts.len() - 1
    }

    /// Slot holding `value`, or the empty slot ending its probe run.
    fn find(&self, value: u64) -> usize {
        let mut slot = self.home(value);
        while self.counts[slot] != 0 && self.values[slot] != value {
            slot = (slot + 1) & self.mask();
        }
        slot
    }

    fn contains(&self, value: u64) -> bool {
        self.counts[self.find(value)] != 0
    }

    fn insert(&mut self, value: u64) {
        let slot = self.find(value);
        self.values[slot] = value;
        self.counts[slot] += 1;
    }

    /// Drops one occurrence of `value`, which must be present.
    fn remove(&mut self, value: u64) {
        let mut hole = self.find(value);
        debug_assert!(self.counts[hole] != 0, "removing a value that is not counted");
        self.counts[hole] -= 1;
        if self.counts[hole] != 0 {
            return;
        }
        // Backward-shift deletion: pull later entries of the probe run into
        // the hole unless their home slot lies cyclically after the hole.
        let mask = self.mask();
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            if self.counts[slot] == 0 {
                return;
            }
            let home = self.home(self.values[slot]);
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.values[hole] = self.values[slot];
                self.counts[hole] = self.counts[slot];
                self.counts[slot] = 0;
                hole = slot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsep_isa::ArchReg;
    use rsep_trace::{BenchmarkProfile, TraceGenerator};

    fn alu(seq: u64, result: u64) -> DynInst {
        DynInst::simple(seq, 0x400000 + seq * 4, OpClass::IntAlu, ArchReg::int(1), result)
    }

    #[test]
    fn zero_and_redundant_results_are_classified() {
        let trace = vec![
            alu(0, 5),
            alu(1, 0),                                                       // zero other
            alu(2, 5),                                                       // redundant other
            DynInst::simple(3, 0x40000c, OpClass::Load, ArchReg::int(2), 0), // zero load
            DynInst::simple(4, 0x400010, OpClass::Load, ArchReg::int(2), 5), // redundant load
            alu(5, 99),                                                      // neither
        ];
        let report = RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace);
        assert_eq!(report.committed, 6);
        assert_eq!(report.zero_others, 1);
        assert_eq!(report.prf_others, 1);
        assert_eq!(report.zero_loads, 1);
        assert_eq!(report.prf_loads, 1);
        assert!((report.total_fraction() - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn window_bounds_the_lookback() {
        let mut trace = vec![alu(0, 123)];
        for i in 1..300u64 {
            trace.push(alu(i, 1_000_000 + i));
        }
        trace.push(alu(300, 123)); // producer fell out of a 192-entry window
        let report = RedundancyAnalyzer::analyze(RedundancyConfig { window: 192 }, trace.clone());
        assert_eq!(report.prf_others, 0);
        let wide = RedundancyAnalyzer::analyze(RedundancyConfig { window: 400 }, trace);
        assert_eq!(wide.prf_others, 1);
    }

    #[test]
    fn zero_window_remembers_the_previous_producer() {
        // Window 0 is kept as a one-entry window: the latest result only.
        let trace = vec![alu(0, 7), alu(1, 7), alu(2, 8), alu(3, 7)];
        let zero = RedundancyAnalyzer::analyze(RedundancyConfig { window: 0 }, trace.clone());
        let one = RedundancyAnalyzer::analyze(RedundancyConfig { window: 1 }, trace);
        assert_eq!(zero.prf_others, 1);
        assert_eq!(zero, one);
    }

    #[test]
    fn zero_idioms_and_non_producers_are_excluded() {
        let trace = vec![
            DynInst::simple(0, 0x400000, OpClass::ZeroIdiom, ArchReg::int(1), 0),
            rsep_isa::DynInstBuilder::new(1, 0x400004, OpClass::Store)
                .mem(0x1000, 8)
                .result(0)
                .build(),
        ];
        let report = RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace);
        assert_eq!(report.committed, 2);
        assert_eq!(report.zero_others, 0);
        assert_eq!(report.zero_loads, 0);
    }

    #[test]
    fn synthetic_profiles_reproduce_the_figure1_shape() {
        let analyze = |name: &str| {
            let profile = BenchmarkProfile::by_name(name).unwrap();
            let trace = TraceGenerator::new(&profile, 17).take(40_000);
            RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace)
        };
        let zeusmp = analyze("zeusmp");
        let gcc = analyze("gcc");
        let mcf = analyze("mcf");
        // zeusmp is one of the zero-heavy benchmarks in Figure 1.
        assert!(
            zeusmp.zero_load_fraction() + zeusmp.zero_other_fraction()
                > 2.0 * (gcc.zero_load_fraction() + gcc.zero_other_fraction()),
            "zeusmp {:.3} vs gcc {:.3}",
            zeusmp.zero_other_fraction(),
            gcc.zero_other_fraction()
        );
        // mcf's redundancy is load dominated.
        assert!(mcf.prf_load_fraction() > mcf.prf_other_fraction());
        // Most benchmarks have non-trivial "already in PRF" potential.
        assert!(mcf.total_fraction() > 0.10);
    }
}
