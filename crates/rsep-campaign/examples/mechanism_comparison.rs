//! Compare every mechanism of Figure 4 on a memory-bound, pointer-chasing
//! workload (the mcf-like profile) and show where the cycles go.
//!
//! Run with: `cargo run --release -p rsep-campaign --example mechanism_comparison`

use rsep_core::{run_benchmark, MechanismConfig};
use rsep_trace::{BenchmarkProfile, CheckpointSpec};
use rsep_uarch::CoreConfig;

fn main() {
    let profile = BenchmarkProfile::by_name("mcf").expect("mcf profile exists");
    let spec = CheckpointSpec::scaled(1, 80_000, 40_000);
    let config = CoreConfig::table1();
    let baseline = run_benchmark(&profile, &MechanismConfig::baseline(), &config, spec, 7);
    println!(
        "{:<16}{:>8}{:>12}{:>12}{:>12}{:>10}",
        "mechanism", "IPC", "speedup%", "covered%", "squashes", "mpki"
    );
    println!(
        "{:<16}{:>8.3}{:>12.2}{:>12.2}{:>12}{:>10.2}",
        "baseline",
        baseline.ipc,
        0.0,
        baseline.stats.coverage_fraction() * 100.0,
        baseline.stats.prediction_squashes,
        baseline.stats.branch_mpki()
    );
    for mechanism in MechanismConfig::figure4_suite() {
        let r = run_benchmark(&profile, &mechanism, &config, spec, 7);
        println!(
            "{:<16}{:>8.3}{:>12.2}{:>12.2}{:>12}{:>10.2}",
            r.mechanism,
            r.ipc,
            (r.speedup_over(&baseline) - 1.0) * 100.0,
            r.stats.coverage_fraction() * 100.0,
            r.stats.prediction_squashes,
            r.stats.branch_mpki()
        );
    }
}
