//! Declarative campaign specification.
//!
//! A [`CampaignSpec`] names everything one experiment campaign needs:
//! benchmark profiles × mechanism configurations × a core configuration ×
//! checkpoint scale × seed. The runner expands it into independent
//! `(profile, mechanism, checkpoint)` cells for the executor.
//!
//! Scale knobs honour the `RSEP_*` environment variables (see
//! [`CampaignSpec::apply_env`]):
//!
//! | variable | meaning |
//! |---|---|
//! | `RSEP_CHECKPOINTS` | checkpoints per benchmark |
//! | `RSEP_WARMUP` | warm-up instructions per checkpoint |
//! | `RSEP_MEASURE` | measured instructions per checkpoint |
//! | `RSEP_BENCHMARKS` | comma-separated benchmark subset (or `all`) |
//! | `RSEP_SEED` | trace generation seed |
//! | `RSEP_JOBS` | worker threads (0 = machine parallelism) |

use crate::env::env_u64;
use rsep_core::MechanismConfig;
use rsep_isa::Fingerprint;
use rsep_trace::{BenchmarkProfile, CheckpointSpec};
use rsep_uarch::CoreConfig;

/// Everything needed to run one experiment campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign identifier, used as the experiment id in reports.
    pub id: String,
    /// Benchmark profiles to simulate.
    pub profiles: Vec<BenchmarkProfile>,
    /// Mechanism configurations under test (the baseline is handled
    /// separately; see [`CampaignSpec::with_baseline`]).
    pub mechanisms: Vec<MechanismConfig>,
    /// Whether to also run the baseline configuration (required for
    /// speedup reports; skip it for coverage-only campaigns).
    pub baseline: bool,
    /// Core configuration (Table I by default).
    pub core_config: CoreConfig,
    /// Checkpoint scale.
    pub checkpoints: CheckpointSpec,
    /// Campaign seed; checkpoint cells derive sub-seeds from it.
    pub seed: u64,
}

impl Fingerprint for CampaignSpec {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let Self { id, profiles, mechanisms, baseline, core_config, checkpoints, seed } = self;
        h.write_str("CampaignSpec");
        id.fingerprint(h);
        profiles.fingerprint(h);
        mechanisms.fingerprint(h);
        // Labels are excluded from MechanismConfig fingerprints (cells do
        // not depend on them) but *are* part of a campaign's identity: two
        // campaigns whose reports label series differently are different.
        for m in mechanisms {
            m.label.fingerprint(h);
        }
        baseline.fingerprint(h);
        core_config.fingerprint(h);
        checkpoints.fingerprint(h);
        seed.fingerprint(h);
    }
}

impl CampaignSpec {
    /// A campaign with the default evaluation setting: the full SPEC-like
    /// suite, Table I core, the default checkpoint scale, seed 42, no
    /// mechanisms yet.
    pub fn new(id: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            id: id.into(),
            profiles: BenchmarkProfile::spec2006(),
            mechanisms: Vec::new(),
            baseline: true,
            core_config: CoreConfig::table1(),
            checkpoints: CheckpointSpec::scaled(
                env_u64("RSEP_CHECKPOINTS", 1) as usize,
                env_u64("RSEP_WARMUP", 100_000),
                env_u64("RSEP_MEASURE", 60_000),
            ),
            seed: env_u64("RSEP_SEED", 42),
        }
    }

    /// Replaces the mechanism list.
    pub fn with_mechanisms(mut self, mechanisms: Vec<MechanismConfig>) -> CampaignSpec {
        self.mechanisms = mechanisms;
        self
    }

    /// Selects whether the baseline configuration is run too.
    pub fn with_baseline(mut self, baseline: bool) -> CampaignSpec {
        self.baseline = baseline;
        self
    }

    /// Replaces the profile list.
    pub fn with_profiles(mut self, profiles: Vec<BenchmarkProfile>) -> CampaignSpec {
        self.profiles = profiles;
        self
    }

    /// Restricts profiles to a comma-separated name list (`"all"` keeps
    /// everything). Unknown names are ignored.
    pub fn with_benchmark_filter(mut self, list: &str) -> CampaignSpec {
        let list = list.trim();
        if !list.is_empty() && list != "all" {
            let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
            self.profiles.retain(|p| wanted.contains(&p.name));
        }
        self
    }

    /// Replaces the checkpoint scale.
    pub fn with_checkpoints(mut self, checkpoints: CheckpointSpec) -> CampaignSpec {
        self.checkpoints = checkpoints;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> CampaignSpec {
        self.seed = seed;
        self
    }

    /// Shrinks the campaign to CI-smoke size: one checkpoint of 2K warm-up
    /// plus 8K measured instructions, and — when no subset was selected
    /// yet — six representative profiles. An explicit selection
    /// (`RSEP_BENCHMARKS` or `--benchmarks`) is kept as-is, so smoke
    /// changes scale, not choice.
    pub fn smoke(mut self) -> CampaignSpec {
        if self.profiles.len() == BenchmarkProfile::spec2006().len() {
            let names = ["mcf", "dealII", "libquantum", "perlbench", "gcc", "zeusmp"];
            self.profiles = names.iter().filter_map(|n| BenchmarkProfile::by_name(n)).collect();
        }
        self.checkpoints = CheckpointSpec::scaled(1, 2_000, 8_000);
        self
    }

    /// Applies the `RSEP_BENCHMARKS` environment filter (the scale
    /// variables are already read by [`CampaignSpec::new`]).
    pub fn apply_env(self) -> CampaignSpec {
        match std::env::var("RSEP_BENCHMARKS") {
            Ok(list) => self.with_benchmark_filter(&list),
            Err(_) => self,
        }
    }

    /// Number of simulation cells this spec expands to.
    pub fn cell_count(&self) -> usize {
        let mechanisms = self.mechanisms.len() + usize::from(self.baseline);
        self.profiles.len() * mechanisms * self.checkpoints.count
    }

    /// Total instructions the campaign will simulate (warm-up + measured).
    pub fn total_instructions(&self) -> u64 {
        let mechanisms = (self.mechanisms.len() + usize::from(self.baseline)) as u64;
        self.profiles.len() as u64 * mechanisms * self.checkpoints.total_instructions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_campaign_covers_the_suite() {
        let spec = CampaignSpec::new("x");
        assert_eq!(spec.profiles.len(), 29);
        assert!(spec.baseline);
        assert_eq!(spec.id, "x");
    }

    #[test]
    fn smoke_campaign_is_small() {
        let spec = CampaignSpec::new("x").smoke();
        assert_eq!(spec.profiles.len(), 6);
        assert!(spec.checkpoints.total_instructions() <= 10_000);
    }

    #[test]
    fn smoke_keeps_an_explicit_benchmark_selection() {
        // hmmer is not in the smoke six; a prior filter must survive.
        let spec = CampaignSpec::new("x").with_benchmark_filter("hmmer").smoke();
        assert_eq!(spec.profiles.len(), 1);
        assert_eq!(spec.profiles[0].name, "hmmer");
        assert!(spec.checkpoints.total_instructions() <= 10_000);
    }

    #[test]
    fn benchmark_filter_restricts_profiles() {
        let spec = CampaignSpec::new("x").with_benchmark_filter("mcf, gcc, nosuch");
        assert_eq!(spec.profiles.len(), 2);
        let all = CampaignSpec::new("x").with_benchmark_filter("all");
        assert_eq!(all.profiles.len(), 29);
    }

    #[test]
    fn cell_count_multiplies_the_grid() {
        let spec = CampaignSpec::new("x")
            .smoke()
            .with_mechanisms(vec![MechanismConfig::rsep_ideal(), MechanismConfig::value_pred()]);
        // 6 profiles × (2 mechanisms + baseline) × 1 checkpoint.
        assert_eq!(spec.cell_count(), 18);
        assert_eq!(spec.total_instructions(), 18 * 10_000);
    }
}
