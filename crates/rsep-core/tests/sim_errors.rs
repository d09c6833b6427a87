//! A cell whose sharers often write their provider's architectural
//! register finishes without a [`rsep_uarch::SimError`].
//!
//! Under ideal RSEP such a sharer's commit overwrites a mapping to its own
//! destination register. Unless that counts as dropping an owner, every
//! such register leaks, and this cell runs its register file dry.

use rsep_core::{run_checkpoint, MechanismConfig};
use rsep_trace::{BenchmarkProfile, CheckpointSpec};
use rsep_uarch::CoreConfig;

#[test]
fn libquantum_rsep_ideal_cell_finishes_without_a_sim_error() {
    // The Figure 7 cell libquantum / rsep-ideal, campaign seed 4,
    // checkpoint 1, at the 200K + 100K scale.
    let profile = BenchmarkProfile::by_name("libquantum").expect("known profile");
    let result = run_checkpoint(
        &profile,
        &MechanismConfig::rsep_ideal(),
        &CoreConfig::table1(),
        CheckpointSpec::scaled(2, 200_000, 100_000),
        4,
        1,
    );
    assert_eq!(result.error, None);
    assert!(result.stats.committed >= 100_000);
    assert!(result.ipc > 0.0);
}
