//! Quick start: simulate one benchmark under the baseline and under RSEP,
//! and print IPC, speedup, coverage and accuracy.
//!
//! Run with: `cargo run --release -p rsep-campaign --example quickstart [benchmark]`

use rsep_core::{run_benchmark, MechanismConfig};
use rsep_trace::{BenchmarkProfile, CheckpointSpec};
use rsep_uarch::CoreConfig;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "libquantum".to_string());
    let profile = BenchmarkProfile::by_name(&name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}; see BenchmarkProfile::spec2006()"));
    let spec = CheckpointSpec::scaled(1, 80_000, 40_000);
    let config = CoreConfig::table1();

    println!("benchmark: {name}");
    let baseline = run_benchmark(&profile, &MechanismConfig::baseline(), &config, spec, 42);
    println!("baseline IPC     : {:.3}", baseline.ipc);

    let rsep = run_benchmark(&profile, &MechanismConfig::rsep_realistic(), &config, spec, 42);
    println!("RSEP IPC         : {:.3}", rsep.ipc);
    println!("speedup          : {:+.2}%", (rsep.speedup_over(&baseline) - 1.0) * 100.0);
    println!(
        "distance-predicted instructions: {:.1}% of committed",
        rsep.stats.coverage.total_dist_pred() as f64 / rsep.stats.committed as f64 * 100.0
    );
    println!("prediction accuracy            : {:.2}%", rsep.stats.prediction_accuracy() * 100.0);
    println!("pipeline squashes (mispredicts): {}", rsep.stats.prediction_squashes);
}
