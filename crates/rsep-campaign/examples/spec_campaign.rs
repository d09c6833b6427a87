//! Run the full SPEC CPU2006-like suite under the baseline, RSEP and value
//! prediction through the parallel campaign engine, and print a speedup
//! table (a small-scale Figure 4).
//!
//! Run with: `cargo run --release -p rsep-campaign --example spec_campaign`
//! Worker count comes from `RSEP_JOBS` (default: all cores).

use rsep_campaign::{Campaign, CampaignSpec};
use rsep_core::MechanismConfig;
use rsep_trace::CheckpointSpec;

fn main() {
    let spec = CampaignSpec::new("spec-campaign")
        .with_checkpoints(CheckpointSpec::scaled(1, 60_000, 30_000))
        .with_mechanisms(vec![MechanismConfig::rsep_realistic(), MechanismConfig::value_pred()])
        .apply_env();
    let result = Campaign::from_env().run(&spec);
    println!("{}", result.speedups().to_table());
    eprintln!("{}", result.timing_summary());
}
