//! Cells that break the simulated machine fail with a structured
//! [`SimError`] instead of panicking.
//!
//! Under ideal RSEP the physical register file can leak dry (the
//! register-leak item in `ROADMAP.md`). Rename only reserves a free
//! register for instructions that are certain to need one, so a leaked-dry
//! register file used to surface as a panic inside dispatch, killing the
//! whole campaign process. It must instead fail its cell with an error
//! naming the cycle, the register class and the engine.

use rsep_core::{run_checkpoint, MechanismConfig};
use rsep_trace::{BenchmarkProfile, CheckpointSpec};
use rsep_uarch::CoreConfig;

#[test]
fn exhausted_register_file_fails_the_cell_with_a_sim_error() {
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
    assert_eq!(
        result.error.as_deref(),
        Some(
            "physical register file exhausted: no free Int register at dispatch \
             (cycle 226518, engine=rsep-ideal)"
        ),
    );
    assert_eq!(result.ipc, 0.0, "a failed cell reports no IPC");
}
