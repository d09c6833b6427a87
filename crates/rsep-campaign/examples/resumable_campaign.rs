//! Crash-resumable, memoised campaigns through the pluggable result-store
//! API: the same Figure-4-style grid is run three ways —
//!
//! 1. streamed into an append-only JSONL file (kill it at any point and
//!    re-run: only the missing cells simulate),
//! 2. resumed from that file (zero cells simulate the second time),
//! 3. memoised in a content-addressed cache directory, then re-run after a
//!    one-field config tweak (only the affected mechanism's cells rerun).
//!
//! Run with: `cargo run --release -p rsep-campaign --example resumable_campaign`

use rsep_campaign::{CachedStore, Campaign, CampaignSpec, JsonlStore};
use rsep_core::{MechanismConfig, RsepConfig};
use rsep_trace::CheckpointSpec;

fn main() {
    let spec = CampaignSpec::new("resumable-demo")
        .with_benchmark_filter("mcf,libquantum,dealII")
        .with_checkpoints(CheckpointSpec::scaled(2, 2_000, 8_000))
        .with_mechanisms(vec![MechanismConfig::rsep_ideal(), MechanismConfig::value_pred()])
        .apply_env();
    let engine = Campaign::from_env();
    let dir = std::env::temp_dir().join("rsep-resumable-example");
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    // 1. Stream the campaign into a JSONL file, one line per finished cell.
    let jsonl = dir.join("demo.jsonl");
    let _ = std::fs::remove_file(&jsonl);
    let mut store = JsonlStore::open(&jsonl).expect("open store");
    let first = engine.run_stored(&spec, &mut store, None).expect("campaign runs");
    eprintln!("first run : {}", first.store_summary(&spec.id));
    println!("{}", first.result.expect("complete grid").speedups().to_table());

    // 2. Re-open the file: every cell is already stored, nothing simulates.
    let mut store = JsonlStore::open(&jsonl).expect("reopen store");
    let resumed = engine.run_stored(&spec, &mut store, None).expect("resume runs");
    eprintln!("resumed   : {}", resumed.store_summary(&spec.id));
    assert_eq!(resumed.executed, 0, "a fully stored campaign re-simulates nothing");

    // 3. Disk memoisation: a one-field tweak only reruns the cells whose
    //    content-addressed keys changed.
    let cache = dir.join("cache");
    let mut store = CachedStore::open(&cache).expect("open cache");
    engine.run_stored(&spec, &mut store, None).expect("warm the cache");
    let mut tweaked = spec.clone();
    let mut rsep = RsepConfig::ideal();
    rsep.history.capacity = 256;
    tweaked.mechanisms[0] = MechanismConfig::rsep(rsep);
    let mut store = CachedStore::open(&cache).expect("reopen cache");
    let after = engine.run_stored(&tweaked, &mut store, None).expect("tweaked run");
    eprintln!("tweaked   : {}", after.store_summary(&tweaked.id));
    assert_eq!(
        after.executed,
        tweaked.profiles.len() * tweaked.checkpoints.count,
        "exactly one mechanism column re-simulates"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
