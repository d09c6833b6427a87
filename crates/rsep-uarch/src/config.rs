//! Core configuration (Table I of the paper).
//!
//! The default configuration reproduces Table I: an aggressive 8-wide
//! superscalar with a 192-entry ROB, 60-entry unified IQ, 72/48-entry
//! load/store queues, 235 INT + 235 FP physical registers, the functional
//! unit inventory listed in the table and a three-level cache hierarchy in
//! front of a DDR4-like memory latency.

use rsep_isa::OpClass;

/// Front-end, back-end and memory parameters of the simulated core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    // ---------------------------------------------------------- front end
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Taken branches a single fetch group may span (Table I: fetch
    /// continues over one taken branch).
    pub fetch_taken_branches: usize,
    /// Instructions renamed per cycle.
    pub rename_width: usize,
    /// Pipeline depth in cycles from fetch to rename (decode latency).
    pub frontend_depth: u64,
    /// Additional cycles before fetch restarts after a branch
    /// misprediction is resolved (on top of re-filling the front end).
    pub redirect_penalty: u64,
    /// Capacity of the fetch/decode queue feeding rename.
    pub fetch_queue_size: usize,
    // ---------------------------------------------------------- back end
    /// Reorder buffer entries.
    pub rob_size: usize,
    /// Unified instruction queue (scheduler) entries.
    pub iq_size: usize,
    /// Load queue entries.
    pub lq_size: usize,
    /// Store queue entries.
    pub sq_size: usize,
    /// Integer physical registers.
    pub int_prf_size: usize,
    /// Floating-point physical registers.
    pub fp_prf_size: usize,
    /// Maximum instructions issued per cycle.
    pub issue_width: usize,
    /// Maximum instructions committed per cycle.
    pub commit_width: usize,
    /// Simple integer ALU ports (one of which multiplies, one divides).
    pub int_alu_ports: usize,
    /// Integer multiplier units.
    pub int_mul_units: usize,
    /// Integer divider units (not pipelined).
    pub int_div_units: usize,
    /// FP ports (one of which multiplies, one divides).
    pub fp_ports: usize,
    /// FP multiplier units.
    pub fp_mul_units: usize,
    /// FP divider units (not pipelined).
    pub fp_div_units: usize,
    /// Ports able to issue loads (shared load/store ports).
    pub load_ports: usize,
    /// Ports able to issue stores (shared ports plus the dedicated store
    /// port).
    pub store_ports: usize,
    /// Store-to-load forwarding latency in cycles.
    pub stlf_latency: u64,
    // ---------------------------------------------------------- memory
    /// L1 instruction cache size in bytes.
    pub l1i_bytes: usize,
    /// L1 instruction cache associativity.
    pub l1i_assoc: usize,
    /// L1 instruction cache hit latency.
    pub l1i_latency: u64,
    /// L1 data cache size in bytes.
    pub l1d_bytes: usize,
    /// L1 data cache associativity.
    pub l1d_assoc: usize,
    /// L1 data cache load-to-use latency.
    pub l1d_latency: u64,
    /// L2 cache size in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 hit latency.
    pub l2_latency: u64,
    /// L3 cache size in bytes.
    pub l3_bytes: usize,
    /// L3 associativity.
    pub l3_assoc: usize,
    /// L3 hit latency.
    pub l3_latency: u64,
    /// Cache line size in bytes (all levels).
    pub line_bytes: usize,
    /// Average DRAM access latency in cycles (Table I: ~75 ns average,
    /// ≈ 225 cycles at 3 GHz).
    pub dram_latency: u64,
    /// Enable the L1D stride prefetcher (degree 1).
    pub l1d_prefetch: bool,
    /// Enable the L2/L3 stream prefetchers (degree 1).
    pub l2_prefetch: bool,
}

impl CoreConfig {
    /// The Table I configuration.
    pub fn table1() -> CoreConfig {
        CoreConfig {
            fetch_width: 8,
            fetch_taken_branches: 1,
            rename_width: 8,
            frontend_depth: 7,
            redirect_penalty: 10,
            fetch_queue_size: 64,
            rob_size: 192,
            iq_size: 60,
            lq_size: 72,
            sq_size: 48,
            int_prf_size: 235,
            fp_prf_size: 235,
            issue_width: 8,
            commit_width: 8,
            int_alu_ports: 4,
            int_mul_units: 1,
            int_div_units: 1,
            fp_ports: 3,
            fp_mul_units: 1,
            fp_div_units: 1,
            load_ports: 2,
            store_ports: 3,
            stlf_latency: 4,
            l1i_bytes: 32 * 1024,
            l1i_assoc: 8,
            l1i_latency: 1,
            l1d_bytes: 32 * 1024,
            l1d_assoc: 8,
            l1d_latency: 4,
            l2_bytes: 256 * 1024,
            l2_assoc: 16,
            l2_latency: 12,
            l3_bytes: 6 * 1024 * 1024,
            l3_assoc: 24,
            l3_latency: 21,
            line_bytes: 64,
            dram_latency: 225,
            l1d_prefetch: true,
            l2_prefetch: true,
        }
    }

    /// A reduced configuration for fast unit tests: same structure sizes
    /// ratios, smaller caches and shorter DRAM latency so tests converge
    /// quickly.
    pub fn small_test() -> CoreConfig {
        CoreConfig {
            rob_size: 64,
            iq_size: 24,
            lq_size: 24,
            sq_size: 16,
            int_prf_size: 96,
            fp_prf_size: 96,
            l3_bytes: 768 * 1024,
            dram_latency: 60,
            ..CoreConfig::table1()
        }
    }

    /// The longest distance, in cycles, from the cycle an instruction
    /// issues to the cycle its result is readable: a load's walk through
    /// every cache level to DRAM, the slowest operation, or store-to-load
    /// forwarding, whichever is largest (262 for Table I). The issue
    /// stage's wakeup calendar covers this many cycles ahead.
    pub fn wake_horizon(&self) -> u64 {
        let load_walk = self.l1d_latency + self.l2_latency + self.l3_latency + self.dram_latency;
        let slowest_op =
            OpClass::ALL.iter().map(|op| u64::from(op.base_latency())).fold(0, u64::max);
        load_walk.max(slowest_op).max(self.stlf_latency)
    }

    /// Validates internal consistency of the configuration.
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.rename_width == 0 || self.fetch_width == 0 || self.issue_width == 0 {
            return Err("pipeline widths must be non-zero".into());
        }
        if self.int_prf_size < 32 + 1 || self.fp_prf_size < 32 {
            return Err("physical register files must cover the architectural state".into());
        }
        if self.rob_size == 0 || self.iq_size == 0 {
            return Err("ROB and IQ must be non-empty".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("cache line size must be a power of two".into());
        }
        for (name, bytes, assoc) in [
            ("L1I", self.l1i_bytes, self.l1i_assoc),
            ("L1D", self.l1d_bytes, self.l1d_assoc),
            ("L2", self.l2_bytes, self.l2_assoc),
            ("L3", self.l3_bytes, self.l3_assoc),
        ] {
            if bytes == 0 || assoc == 0 || bytes % (assoc * self.line_bytes) != 0 {
                return Err(format!("{name} size must be a multiple of associativity x line size"));
            }
        }
        Ok(())
    }

    /// Renders the configuration as the rows of Table I (used by the
    /// `table1` benchmark binary).
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        vec![
            (
                "Front end".into(),
                format!(
                    "{}-wide fetch over {} taken branch, {}-wide rename, {}-cycle front end",
                    self.fetch_width, self.fetch_taken_branches, self.rename_width, self.frontend_depth
                ),
            ),
            (
                "Execution".into(),
                format!(
                    "{}-entry ROB, {}-entry IQ, {}/{}-entry LQ/SQ, {}/{} INT/FP registers, {}-issue, {}-wide retire",
                    self.rob_size,
                    self.iq_size,
                    self.lq_size,
                    self.sq_size,
                    self.int_prf_size,
                    self.fp_prf_size,
                    self.issue_width,
                    self.commit_width
                ),
            ),
            (
                "Functional units".into(),
                format!(
                    "{} ALU (incl. {} Mul, {} Div), {} FP (incl. {} FPMul, {} FPDiv), {} Ld/Str, {} Str",
                    self.int_alu_ports,
                    self.int_mul_units,
                    self.int_div_units,
                    self.fp_ports,
                    self.fp_mul_units,
                    self.fp_div_units,
                    self.load_ports,
                    self.store_ports - self.load_ports
                ),
            ),
            (
                "Caches".into(),
                format!(
                    "L1I {}KB/{}-way ({}c), L1D {}KB/{}-way ({}c), L2 {}KB/{}-way ({}c), L3 {}MB/{}-way ({}c), {}B lines",
                    self.l1i_bytes / 1024,
                    self.l1i_assoc,
                    self.l1i_latency,
                    self.l1d_bytes / 1024,
                    self.l1d_assoc,
                    self.l1d_latency,
                    self.l2_bytes / 1024,
                    self.l2_assoc,
                    self.l2_latency,
                    self.l3_bytes / 1024 / 1024,
                    self.l3_assoc,
                    self.l3_latency,
                    self.line_bytes
                ),
            ),
            ("Memory".into(), format!("~{} cycles average access latency", self.dram_latency)),
        ]
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::table1()
    }
}

impl rsep_isa::Fingerprint for CoreConfig {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self {
            fetch_width,
            fetch_taken_branches,
            rename_width,
            frontend_depth,
            redirect_penalty,
            fetch_queue_size,
            rob_size,
            iq_size,
            lq_size,
            sq_size,
            int_prf_size,
            fp_prf_size,
            issue_width,
            commit_width,
            int_alu_ports,
            int_mul_units,
            int_div_units,
            fp_ports,
            fp_mul_units,
            fp_div_units,
            load_ports,
            store_ports,
            stlf_latency,
            l1i_bytes,
            l1i_assoc,
            l1i_latency,
            l1d_bytes,
            l1d_assoc,
            l1d_latency,
            l2_bytes,
            l2_assoc,
            l2_latency,
            l3_bytes,
            l3_assoc,
            l3_latency,
            line_bytes,
            dram_latency,
            l1d_prefetch,
            l2_prefetch,
        } = self;
        h.write_str("CoreConfig");
        fetch_width.fingerprint(h);
        fetch_taken_branches.fingerprint(h);
        rename_width.fingerprint(h);
        frontend_depth.fingerprint(h);
        redirect_penalty.fingerprint(h);
        fetch_queue_size.fingerprint(h);
        rob_size.fingerprint(h);
        iq_size.fingerprint(h);
        lq_size.fingerprint(h);
        sq_size.fingerprint(h);
        int_prf_size.fingerprint(h);
        fp_prf_size.fingerprint(h);
        issue_width.fingerprint(h);
        commit_width.fingerprint(h);
        int_alu_ports.fingerprint(h);
        int_mul_units.fingerprint(h);
        int_div_units.fingerprint(h);
        fp_ports.fingerprint(h);
        fp_mul_units.fingerprint(h);
        fp_div_units.fingerprint(h);
        load_ports.fingerprint(h);
        store_ports.fingerprint(h);
        stlf_latency.fingerprint(h);
        l1i_bytes.fingerprint(h);
        l1i_assoc.fingerprint(h);
        l1i_latency.fingerprint(h);
        l1d_bytes.fingerprint(h);
        l1d_assoc.fingerprint(h);
        l1d_latency.fingerprint(h);
        l2_bytes.fingerprint(h);
        l2_assoc.fingerprint(h);
        l2_latency.fingerprint(h);
        l3_bytes.fingerprint(h);
        l3_assoc.fingerprint(h);
        l3_latency.fingerprint(h);
        line_bytes.fingerprint(h);
        dram_latency.fingerprint(h);
        l1d_prefetch.fingerprint(h);
        l2_prefetch.fingerprint(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let c = CoreConfig::table1();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.rob_size, 192);
        assert_eq!(c.iq_size, 60);
        assert_eq!(c.lq_size, 72);
        assert_eq!(c.sq_size, 48);
        assert_eq!(c.int_prf_size, 235);
        assert_eq!(c.fp_prf_size, 235);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.l1d_bytes, 32 * 1024);
        assert_eq!(c.l2_bytes, 256 * 1024);
        assert_eq!(c.l3_bytes, 6 * 1024 * 1024);
        assert_eq!(c.stlf_latency, 4);
        assert_eq!(c.wake_horizon(), 262);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn small_test_config_is_valid() {
        assert!(CoreConfig::small_test().validate().is_ok());
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut c = CoreConfig::table1();
        c.int_prf_size = 8;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::table1();
        c.l1d_bytes = 1000; // not a multiple of assoc * line
        assert!(c.validate().is_err());
        let mut c = CoreConfig::table1();
        c.issue_width = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn table1_rows_render_all_sections() {
        let rows = CoreConfig::table1().table1_rows();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|(k, _)| k == "Caches"));
        assert!(rows.iter().any(|(_, v)| v.contains("192-entry ROB")));
        assert!(rows.iter().any(|(_, v)| v.contains("8-wide fetch")));
    }

    #[test]
    fn misprediction_penalty_is_at_least_17_cycles() {
        // Table I: 17-cycle minimum misprediction penalty. In the model the
        // penalty is redirect + front-end refill; check the sum.
        let c = CoreConfig::table1();
        assert!(c.redirect_penalty + c.frontend_depth >= 17);
    }
}
