//! The pluggable result-store API: JSONL write → reopen → resume, disk
//! memoisation hit/miss behaviour after config tweaks, shard merging, and
//! the stability/sensitivity properties of content-addressed cell keys.

use proptest::prelude::*;
use rsep_campaign::{
    merge_stored, presets, CachedStore, Campaign, CampaignHeader, CampaignSpec, CellKey,
    JsonlStore, ResultStore, Shard, StoreError,
};
use rsep_core::{checkpoint_seed, CheckpointResult, MechanismConfig, RsepConfig};
use rsep_isa::{Fingerprint, FoldHash};
use rsep_trace::{BenchmarkProfile, CheckpointSpec};
use rsep_uarch::CoreConfig;
use std::fs;
use std::path::PathBuf;

/// A unique, self-cleaning scratch directory per test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rsep-store-test-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn tiny_spec() -> CampaignSpec {
    CampaignSpec::new("store-test")
        .with_benchmark_filter("mcf,libquantum")
        .with_checkpoints(CheckpointSpec::scaled(2, 500, 2_000))
        .with_seed(11)
        .with_mechanisms(vec![MechanismConfig::rsep_ideal(), MechanismConfig::value_pred()])
}

#[test]
fn jsonl_write_reopen_resume_round_trip() {
    let scratch = Scratch::new("jsonl-resume");
    let path = scratch.path("cells.jsonl");
    let spec = tiny_spec();
    let reference = Campaign::with_jobs(2).run(&spec);

    // A partial run (one shard of two) leaves a resumable file behind —
    // the same state a killed campaign leaves.
    let mut store = JsonlStore::open(&path).unwrap();
    let partial = Campaign::with_jobs(2)
        .run_stored(&spec, &mut store, Some(Shard { index: 0, count: 2 }))
        .unwrap();
    assert!(partial.result.is_none());
    assert_eq!(partial.hits, 0);
    assert_eq!(partial.executed, spec.cell_count().div_ceil(2));

    // Reopening the file resumes: only the missing cells simulate.
    let mut store = JsonlStore::open(&path).unwrap();
    assert_eq!(store.resumed_cells(), partial.executed);
    let resumed = Campaign::with_jobs(2).run_stored(&spec, &mut store, None).unwrap();
    assert_eq!(resumed.hits, partial.executed);
    assert_eq!(resumed.executed, spec.cell_count() - partial.executed);

    // The resumed grid is bit-identical to a from-scratch run.
    let result = resumed.result.expect("full grid");
    assert_eq!(result.speedups().to_json(), reference.speedups().to_json());
    assert_eq!(result.ipcs().to_csv(), reference.ipcs().to_csv());

    // And a second resume simulates nothing at all.
    let mut store = JsonlStore::open(&path).unwrap();
    let warm = Campaign::with_jobs(2).run_stored(&spec, &mut store, None).unwrap();
    assert_eq!(warm.executed, 0);
    assert_eq!(warm.hits, spec.cell_count());
}

#[test]
fn jsonl_tolerates_a_truncated_trailing_record() {
    let scratch = Scratch::new("jsonl-truncated");
    let path = scratch.path("cells.jsonl");
    let spec = tiny_spec();
    let mut store = JsonlStore::open(&path).unwrap();
    Campaign::with_jobs(2)
        .run_stored(&spec, &mut store, Some(Shard { index: 0, count: 2 }))
        .unwrap();
    drop(store);

    // Simulate a crash mid-record: append half a line.
    let mut text = fs::read_to_string(&path).unwrap();
    let stored_lines = text.lines().count() - 1; // minus header
    text.push_str("{\"kind\":\"cell\",\"index\":9999,\"ke");
    fs::write(&path, &text).unwrap();

    let mut store = JsonlStore::open(&path).unwrap();
    assert_eq!(store.resumed_cells(), stored_lines, "torn tail must be ignored");
    let resumed = Campaign::with_jobs(2).run_stored(&spec, &mut store, None).unwrap();
    assert!(resumed.result.is_some());
    // The torn tail was truncated before appending, so the file is whole
    // again and fully parseable.
    let (_, cells) = rsep_campaign::read_jsonl(&path).unwrap();
    assert_eq!(cells.len(), spec.cell_count());
}

#[test]
fn jsonl_file_with_a_torn_header_is_treated_as_fresh() {
    let scratch = Scratch::new("jsonl-torn-header");
    let path = scratch.path("cells.jsonl");
    // Simulate a run killed before even the header line completed: the file
    // exists but holds no complete record. Re-running the same command must
    // make progress, not fail forever.
    fs::write(&path, "{\"kind\":\"campaign\",\"ver").unwrap();
    let spec = tiny_spec();
    let mut store = JsonlStore::open(&path).unwrap();
    assert_eq!(store.resumed_cells(), 0);
    let run = Campaign::with_jobs(2).run_stored(&spec, &mut store, None).unwrap();
    assert!(run.result.is_some());
    // The torn bytes were truncated away: the file is whole and parseable.
    let (_, cells) = rsep_campaign::read_jsonl(&path).unwrap();
    assert_eq!(cells.len(), spec.cell_count());
}

/// A store whose `record` fails immediately, standing in for a full disk.
#[derive(Debug, Default)]
struct FailingStore {
    records_attempted: usize,
}

impl ResultStore for FailingStore {
    fn begin(&mut self, _header: &CampaignHeader) -> Result<(), StoreError> {
        Ok(())
    }

    fn lookup(&mut self, _key: CellKey) -> Option<CheckpointResult> {
        None
    }

    fn record(
        &mut self,
        _index: usize,
        _key: CellKey,
        _result: &CheckpointResult,
    ) -> Result<(), StoreError> {
        self.records_attempted += 1;
        Err(StoreError { path: None, message: "disk full".into() })
    }
}

#[test]
fn a_failing_store_cancels_the_run_instead_of_simulating_everything() {
    let spec = tiny_spec();
    let mut store = FailingStore::default();
    let err = Campaign::with_jobs(2).run_stored(&spec, &mut store, None).unwrap_err();
    assert_eq!(err.message, "disk full");
    // The first failure cancelled the run: no further cells were offered to
    // the store (the whole grid would be spec.cell_count() == 12 attempts).
    assert_eq!(store.records_attempted, 1);
}

#[test]
fn jsonl_refuses_a_file_from_a_different_campaign() {
    let scratch = Scratch::new("jsonl-mismatch");
    let path = scratch.path("cells.jsonl");
    let mut store = JsonlStore::open(&path).unwrap();
    Campaign::with_jobs(2)
        .run_stored(&tiny_spec(), &mut store, Some(Shard { index: 0, count: 2 }))
        .unwrap();
    drop(store);

    let other = tiny_spec().with_seed(12); // one-field tweak → different campaign
    let mut store = JsonlStore::open(&path).unwrap();
    let err = Campaign::with_jobs(2).run_stored(&other, &mut store, None).unwrap_err();
    assert!(err.message.contains("belongs to campaign"), "{}", err.message);
}

#[test]
fn merged_shards_equal_the_unsharded_run() {
    let scratch = Scratch::new("merge");
    let spec = tiny_spec();
    let reference = Campaign::with_jobs(8).run(&spec);

    let shards = 3;
    let mut paths = Vec::new();
    for index in 0..shards {
        let path = scratch.path(&format!("shard{index}.jsonl"));
        let mut store = JsonlStore::open(&path).unwrap();
        let run = Campaign::with_jobs(2)
            .run_stored(&spec, &mut store, Some(Shard { index, count: shards }))
            .unwrap();
        assert!(run.result.is_none());
        paths.push(path);
    }
    let merged = merge_stored(&paths).unwrap();
    assert_eq!(merged.id, reference.id);
    assert_eq!(merged.speedups().to_json(), reference.speedups().to_json());
    assert_eq!(merged.ipcs().to_csv(), reference.ipcs().to_csv());
}

#[test]
fn merge_reports_missing_shards() {
    let scratch = Scratch::new("merge-missing");
    let spec = tiny_spec();
    let path = scratch.path("shard0.jsonl");
    let mut store = JsonlStore::open(&path).unwrap();
    Campaign::with_jobs(2)
        .run_stored(&spec, &mut store, Some(Shard { index: 0, count: 2 }))
        .unwrap();
    drop(store);
    let err = merge_stored(&[path]).unwrap_err();
    assert!(err.message.contains("incomplete"), "{}", err.message);
}

#[test]
fn cached_store_hits_fully_on_rerun_and_partially_after_a_tweak() {
    let scratch = Scratch::new("cache");
    let dir = scratch.path("cache");
    let spec = tiny_spec();
    let total = spec.cell_count();

    let mut store = CachedStore::open(&dir).unwrap();
    let cold = Campaign::with_jobs(2).run_stored(&spec, &mut store, None).unwrap();
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.executed, total);

    // Re-run: 100% cache hits, same bits.
    let mut store = CachedStore::open(&dir).unwrap();
    let warm = Campaign::with_jobs(2).run_stored(&spec, &mut store, None).unwrap();
    assert_eq!(warm.hits, total);
    assert_eq!(warm.executed, 0);
    assert_eq!(
        warm.result.unwrap().speedups().to_json(),
        cold.result.unwrap().speedups().to_json()
    );

    // Tweak one field of one mechanism: only that mechanism's cells miss.
    let mut tweaked = spec.clone();
    let mut rsep = RsepConfig::ideal();
    rsep.history.capacity = 512; // was 2048
    tweaked.mechanisms[0] = MechanismConfig::rsep(rsep);
    let mut store = CachedStore::open(&dir).unwrap();
    let after = Campaign::with_jobs(2).run_stored(&tweaked, &mut store, None).unwrap();
    let affected = tweaked.profiles.len() * tweaked.checkpoints.count; // one mechanism column
    assert_eq!(after.executed, affected);
    assert_eq!(after.hits, total - affected);

    // The tweaked campaign's cells are now cached too.
    let mut store = CachedStore::open(&dir).unwrap();
    let warm2 = Campaign::with_jobs(2).run_stored(&tweaked, &mut store, None).unwrap();
    assert_eq!(warm2.hits, total);
}

#[test]
fn cached_store_treats_a_torn_entry_as_a_miss() {
    let scratch = Scratch::new("cache-torn");
    let dir = scratch.path("cache");
    let spec = tiny_spec();
    let mut store = CachedStore::open(&dir).unwrap();
    Campaign::with_jobs(2).run_stored(&spec, &mut store, None).unwrap();

    // Corrupt one entry; the re-run must silently re-simulate it.
    let entry = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    fs::write(&entry, "{torn").unwrap();
    let mut store = CachedStore::open(&dir).unwrap();
    let run = Campaign::with_jobs(2).run_stored(&spec, &mut store, None).unwrap();
    assert_eq!(run.executed, 1);
    assert_eq!(run.hits, spec.cell_count() - 1);
}

// ------------------------------------------------------------ key identity

fn key_for(
    profile: &BenchmarkProfile,
    mechanism: &MechanismConfig,
    core: &CoreConfig,
    spec: CheckpointSpec,
    seed: u64,
    checkpoint: usize,
) -> CellKey {
    CellKey::for_cell(profile, mechanism, core, spec, checkpoint_seed(seed, checkpoint))
}

#[test]
fn cell_key_changes_when_any_fingerprinted_field_changes() {
    let profile = BenchmarkProfile::by_name("mcf").unwrap();
    let core = CoreConfig::table1();
    let spec = CheckpointSpec::scaled(2, 500, 2_000);
    let mechanism = MechanismConfig::rsep_realistic();
    let base = key_for(&profile, &mechanism, &core, spec, 42, 0);

    // One tweak per layer of the configuration stack.
    let mut m = mechanism.clone();
    m.rsep.as_mut().unwrap().history.capacity += 1;
    assert_ne!(base, key_for(&profile, &m, &core, spec, 42, 0), "history capacity");

    let mut m = mechanism.clone();
    m.rsep.as_mut().unwrap().predictor.base_log2 += 1;
    assert_ne!(base, key_for(&profile, &m, &core, spec, 42, 0), "predictor size");

    let mut m = mechanism.clone();
    m.rsep.as_mut().unwrap().sampling = None;
    assert_ne!(base, key_for(&profile, &m, &core, spec, 42, 0), "sampling");

    let mut m = mechanism.clone();
    m.move_elim = false;
    assert_ne!(base, key_for(&profile, &m, &core, spec, 42, 0), "move elimination");

    let mut c = core.clone();
    c.rob_size += 1;
    assert_ne!(base, key_for(&profile, &mechanism, &c, spec, 42, 0), "core config");

    let mut p = profile.clone();
    p.redundant_frac_load += 0.01;
    assert_ne!(base, key_for(&p, &mechanism, &core, spec, 42, 0), "profile");

    let tweaked = CheckpointSpec::scaled(2, 500, 2_001);
    assert_ne!(base, key_for(&profile, &mechanism, &core, tweaked, 42, 0), "measure budget");

    assert_ne!(base, key_for(&profile, &mechanism, &core, spec, 43, 0), "seed");
    assert_ne!(base, key_for(&profile, &mechanism, &core, spec, 42, 1), "checkpoint");
}

/// Every fingerprint the presets feed into cell and campaign keys, by name.
fn preset_fingerprints() -> Vec<(String, u64)> {
    let mut out = vec![
        ("core/table1".to_string(), CoreConfig::table1().fingerprint_value()),
        ("core/small_test".to_string(), CoreConfig::small_test().fingerprint_value()),
        ("mechanism/baseline".to_string(), MechanismConfig::baseline().fingerprint_value()),
    ];
    let specs =
        [presets::fig1(), presets::fig4(), presets::fig5(), presets::fig6(), presets::fig7()]
            .into_iter()
            .chain(presets::sweeps());
    for spec in specs {
        for m in &spec.mechanisms {
            out.push((format!("mechanism/{}/{}", spec.id, m.label), m.fingerprint_value()));
        }
        out.push((format!("spec/{}", spec.id), spec.smoke().fingerprint_value()));
    }
    for p in BenchmarkProfile::spec2006() {
        out.push((format!("profile/{}", p.name), p.fingerprint_value()));
    }
    out.push((
        "fold_hash/paper_default".to_string(),
        FoldHash::paper_default().fingerprint_value(),
    ));
    out
}

/// Pinned fingerprint values: a reordered, dropped or added write changes
/// one of them and every cached cell key with it. Like the golden digests,
/// the campaign entries assume `RSEP_SEED` and `RSEP_BENCHMARKS` are unset.
const PINNED_FINGERPRINTS: &[(&str, u64)] = &[
    ("core/table1", 0x8830855f8a086429),
    ("core/small_test", 0x191e24d78170b0fc),
    ("mechanism/baseline", 0x1767e071a8a00e04),
    ("spec/figure1", 0x9ec1038586117e87),
    ("mechanism/figure4/zero-pred", 0x64e78ac8ec57b4bd),
    ("mechanism/figure4/move-elim", 0x1cc093584b964e85),
    ("mechanism/figure4/rsep-ideal", 0xbb92249fdf1731c0),
    ("mechanism/figure4/vpred", 0x598f347925330df6),
    ("mechanism/figure4/rsep+vpred", 0x32cf1bc44bf558ea),
    ("spec/figure4", 0xdd3d81ecdf292f48),
    ("mechanism/figure5/rsep-ideal", 0xbb92249fdf1731c0),
    ("mechanism/figure5/rsep+vpred", 0x32cf1bc44bf558ea),
    ("spec/figure5", 0xceefa6e86acca127),
    ("mechanism/figure6/ideal-validation", 0xbb92249fdf1731c0),
    ("mechanism/figure6/issue2x-lock-fu", 0x41dff37cf78151c1),
    ("mechanism/figure6/issue2x", 0xc82dc25a0feb71c2),
    ("mechanism/figure6/issue2x-sample-t15", 0x0c2c326c882446d8),
    ("mechanism/figure6/issue2x-sample-t63", 0x8f0532d62115996b),
    ("spec/figure6", 0x05e1fa1d2d3ec67b),
    ("mechanism/figure7/rsep-ideal", 0xbb92249fdf1731c0),
    ("mechanism/figure7/rsep-realistic", 0x7556e15bd8fcceb9),
    ("spec/figure7", 0x7089550463e5638c),
    ("mechanism/ablation-history/history-32", 0xf2f7386eee675988),
    ("mechanism/ablation-history/history-128", 0xfa319eb559034be8),
    ("mechanism/ablation-history/history-256", 0x2e21d52e2c5ba2f7),
    ("mechanism/ablation-history/history-2048", 0xbb92249fdf1731c0),
    ("spec/ablation-history", 0xfc6e3ca2475f9b93),
    ("mechanism/ablation-isrb/isrb-4", 0xc95977678c2051a6),
    ("mechanism/ablation-isrb/isrb-8", 0x02ea55e502c1a8e2),
    ("mechanism/ablation-isrb/isrb-16", 0x7c1c18e7e3d2850a),
    ("mechanism/ablation-isrb/isrb-24", 0x69af382ee31e6552),
    ("mechanism/ablation-isrb/isrb-48", 0x3fef83b4096e9baa),
    ("mechanism/ablation-isrb/isrb-unlimited", 0xbb92249fdf1731c0),
    ("spec/ablation-isrb", 0x305b54b280805179),
    ("mechanism/ablation-hash/hash-8b", 0x6af9a531da67fb1e),
    ("mechanism/ablation-hash/hash-10b", 0x08aed51d987d1d24),
    ("mechanism/ablation-hash/hash-14b", 0xbb92249fdf1731c0),
    ("mechanism/ablation-hash/hash-16b", 0xc5c09ac2afb85e76),
    ("spec/ablation-hash", 0x0751fa2ee46db296),
    ("profile/perlbench", 0x45a1e3209af725c3),
    ("profile/bzip2", 0x511dc23f300236ee),
    ("profile/gcc", 0xe70b59e17e2af13a),
    ("profile/mcf", 0x394ab16b80c0cb4a),
    ("profile/gobmk", 0x86443b5cf312cb02),
    ("profile/hmmer", 0x672f66edb6489824),
    ("profile/sjeng", 0x311d96760ed32ab7),
    ("profile/libquantum", 0x127a8fdde84229c0),
    ("profile/h264ref", 0x44ca15ee10f4b35c),
    ("profile/omnetpp", 0x9041fe0415cea4c9),
    ("profile/astar", 0xea2964322973deb9),
    ("profile/xalancbmk", 0x27ae24903ffe910a),
    ("profile/bwaves", 0x4734724070227cbf),
    ("profile/gamess", 0x9024d1101dd1c2ca),
    ("profile/milc", 0x39571a783b6437e6),
    ("profile/zeusmp", 0x01ba478ffed24d5d),
    ("profile/gromacs", 0xc6aa52bc2257158c),
    ("profile/cactusADM", 0x8b303623e1b10bc7),
    ("profile/leslie3d", 0xdef4c18fb40f3f80),
    ("profile/namd", 0x85ef38e9963fb082),
    ("profile/dealII", 0x28b818debc1f64db),
    ("profile/soplex", 0x887f70e8baa77dd3),
    ("profile/povray", 0xa94c138b70f6a825),
    ("profile/calculix", 0xf81515a025439d75),
    ("profile/GemsFDTD", 0x105ffc8058a95b1c),
    ("profile/tonto", 0xbe8e7c08e75b8bd8),
    ("profile/lbm", 0x2a49d09168b63bdc),
    ("profile/wrf", 0xfdf55a3ec14ce9ca),
    ("profile/sphinx3", 0x505f4ba3b76e45dc),
    ("fold_hash/paper_default", 0xabaf9c1acc57d9e8),
];

#[test]
fn preset_fingerprints_match_their_pinned_values() {
    let actual = preset_fingerprints();
    let pinned: Vec<(String, u64)> =
        PINNED_FINGERPRINTS.iter().map(|&(name, value)| (name.to_string(), value)).collect();
    if actual != pinned {
        let listing: String = actual
            .iter()
            .map(|(name, value)| format!("    (\"{name}\", {value:#018x}),\n"))
            .collect();
        panic!("preset fingerprints differ from the pinned table; current values:\n{listing}");
    }
}

proptest! {
    /// Keys are a pure function of the cell configuration: rebuilding the
    /// same configuration through any construction order gives the same
    /// key, independent of surrounding grid shape.
    #[test]
    fn cell_key_is_stable_across_reconstruction(
        seed in any::<u64>(),
        checkpoint in 0usize..16,
        warmup in 1u64..100_000,
        measure in 1u64..100_000,
    ) {
        let profile = BenchmarkProfile::by_name("gcc").unwrap();
        let core = CoreConfig::table1();
        // Construct the spec twice, once directly and once by mutating a
        // differently-shaped spec into the same field values.
        let spec_a = CheckpointSpec::scaled(3, warmup, measure);
        let mut spec_b = CheckpointSpec::scaled(11, 1, 1);
        spec_b.count = 3;
        spec_b.warmup = warmup;
        spec_b.measure = measure;
        // Mechanism built through two different paths.
        let mech_a = MechanismConfig::rsep(RsepConfig::ideal());
        let mut mech_b = MechanismConfig::baseline();
        mech_b.label = "renamed-later".into();
        mech_b.move_elim = true;
        mech_b.rsep = Some(RsepConfig::ideal());
        let a = key_for(&profile, &mech_a, &core, spec_a, seed, checkpoint);
        let b = key_for(&profile, &mech_b, &core, spec_b, seed, checkpoint);
        prop_assert_eq!(a, b);
    }

    /// Distinct sub-seeds never share a key (no accidental cache aliasing
    /// between checkpoints or campaign seeds).
    #[test]
    fn distinct_sub_seeds_give_distinct_keys(seed in any::<u64>(), delta in 1u64..1_000) {
        let profile = BenchmarkProfile::by_name("gcc").unwrap();
        let core = CoreConfig::table1();
        let spec = CheckpointSpec::scaled(1, 100, 400);
        let mechanism = MechanismConfig::baseline();
        let a = CellKey::for_cell(&profile, &mechanism, &core, spec, seed);
        let b = CellKey::for_cell(&profile, &mechanism, &core, spec, seed.wrapping_add(delta));
        prop_assert_ne!(a, b);
    }
}
