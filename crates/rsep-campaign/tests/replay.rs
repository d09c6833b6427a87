//! Campaign replay from a recorded corpus: the recorder's counts match
//! the files, a corpus file rewritten in place after it was opened fails
//! the cells that read the changed bytes, naming the segment, instead of
//! running them short, and a file whose segment is shorter than its
//! header's warm-up + measure is refused when the corpus is opened.
//! Recording and opening run one profile per worker, yet write the serial
//! recorder's bytes, return spec order, report the first failure in spec
//! order and refuse a spec that lists a profile twice.

use std::fs;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

use rsep_campaign::{open_corpus, record_campaign, replay_campaign, CampaignSpec, Executor};
use rsep_core::{checkpoint_seed, MechanismConfig};
use rsep_trace::{BenchmarkProfile, CheckpointSpec, TraceGenerator};
use rsep_tracefile::format::encode_header;
use rsep_tracefile::{header_for, record_profile, AnonScheme, TraceFile, TraceWriter};

/// A unique, self-cleaning scratch directory per test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rsep-replay-test-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn spec() -> CampaignSpec {
    CampaignSpec::new("replay-test")
        .with_benchmark_filter("mcf")
        .with_checkpoints(CheckpointSpec::scaled(2, 2_000, 8_000))
        .with_seed(42)
        .with_mechanisms(vec![MechanismConfig::rsep_ideal()])
}

#[test]
fn recorded_counts_match_the_files() {
    let scratch = Scratch::new("counts");
    let written = record_campaign(&scratch.0, &spec(), AnonScheme::KeyedBlock).expect("records");
    assert_eq!(written.len(), 1);
    let file = TraceFile::open(&written[0].path).expect("opens");
    assert_eq!(written[0].instructions, file.instructions());
    assert_eq!(written[0].bytes, fs::metadata(&written[0].path).expect("metadata").len());
}

#[test]
fn a_corpus_file_changed_after_open_fails_the_cells_of_its_segment() {
    let scratch = Scratch::new("changed");
    let spec = spec();
    let written = record_campaign(&scratch.0, &spec, AnonScheme::KeyedBlock).expect("records");
    let corpus = open_corpus(&scratch.0, &spec).expect("opens");
    let executor = Executor::new(2).with_progress(false);
    let clean = replay_campaign(&executor, &spec, &corpus).expect("replays");
    assert!(clean.failures().is_empty(), "{:?}", clean.failures());

    // Flip one byte three quarters into the payload: the middle of the
    // second segment, which the core reads (its tail is fetch slack that
    // a cell may never reach).
    let path = &written[0].path;
    let at = encode_header(corpus[0].header()).len() as u64 + corpus[0].payload_bytes() * 3 / 4;
    let handle = fs::OpenOptions::new().read(true).write(true).open(path).expect("reopen");
    let mut byte = [0u8];
    handle.read_exact_at(&mut byte, at).expect("read");
    handle.write_all_at(&[byte[0] ^ 0x20], at).expect("overwrite one byte");

    let replayed = replay_campaign(&executor, &spec, &corpus).expect("replays");
    let failures = replayed.failures();
    assert_eq!(failures.len(), 2, "one failed cell per mechanism: {failures:?}");
    let segment = format!("file:{}#1", path.display());
    for (benchmark, _, error) in &failures {
        assert_eq!(benchmark, "mcf");
        assert!(error.starts_with("checkpoint 1: "), "{error}");
        assert!(error.contains(&segment), "the error names the segment: {error}");
        assert!(error.contains("changed since the file was opened"), "{error}");
    }
}

#[test]
fn a_segment_shorter_than_its_header_is_refused_at_open() {
    let scratch = Scratch::new("short");
    let spec = spec().with_checkpoints(CheckpointSpec::scaled(1, 2_000, 8_000));
    let profile = BenchmarkProfile::by_name("mcf").expect("known profile");
    // A well-formed, checksum-valid file whose only segment holds 5,000
    // records under a 2K + 8K header.
    let path = scratch.0.join("mcf.rseptrc");
    let header = header_for(&profile, &spec.checkpoints, spec.seed, AnonScheme::KeyedBlock);
    let file = fs::File::create(&path).expect("create");
    let mut writer = TraceWriter::new(file, header).expect("header");
    writer.begin_segment().expect("segment");
    let mut generator = TraceGenerator::new(&profile, checkpoint_seed(spec.seed, 0));
    assert_eq!(writer.record_from(&mut generator, 5_000).expect("records"), 5_000);
    writer.end_segment().expect("segment");
    writer.finish().expect("footer");
    TraceFile::open(&path).expect("the file itself is valid");

    let error = open_corpus(&scratch.0, &spec).expect_err("a short segment must be refused");
    assert!(error.starts_with(&path.display().to_string()), "names the file: {error}");
    assert!(error.contains("segment 0 holds 5000 records"), "names the segment: {error}");
}

/// Four profiles, so at least two workers record and open at once.
fn wide_spec() -> CampaignSpec {
    CampaignSpec::new("replay-test")
        .with_benchmark_filter("perlbench,mcf,gcc,libquantum")
        .with_checkpoints(CheckpointSpec::scaled(1, 2_000, 8_000))
        .with_seed(42)
}

#[test]
fn parallel_recording_writes_the_serial_bytes_in_spec_order() {
    let scratch = Scratch::new("parallel");
    let spec = wide_spec();
    assert_eq!(spec.profiles.len(), 4);
    let written = record_campaign(&scratch.0, &spec, AnonScheme::KeyedBlock).expect("records");
    let names: Vec<&str> = spec.profiles.iter().map(|p| p.name).collect();
    let recorded: Vec<&str> = written.iter().map(|t| t.profile.as_str()).collect();
    assert_eq!(recorded, names);
    for (profile, trace) in spec.profiles.iter().zip(&written) {
        let serial = record_profile(
            Vec::new(),
            profile,
            &spec.checkpoints,
            spec.seed,
            AnonScheme::KeyedBlock,
        )
        .expect("records in memory");
        assert_eq!(fs::read(&trace.path).expect("read"), serial, "{}", profile.name);
    }
    let corpus = open_corpus(&scratch.0, &spec).expect("opens");
    let opened: Vec<&str> = corpus.iter().map(|file| file.header().profile.as_str()).collect();
    assert_eq!(opened, names);
}

#[test]
fn the_first_failure_in_spec_order_is_reported_on_every_repeat() {
    let scratch = Scratch::new("first-failure");
    let spec = wide_spec();
    let path = |index: usize| scratch.0.join(format!("{}.rseptrc", spec.profiles[index].name));
    // A directory where profiles 1 and 3 want their files: both fail to
    // record, and profiles 0 and 2 are still recorded.
    fs::create_dir(path(1)).expect("blocker");
    fs::create_dir(path(3)).expect("blocker");
    for repeat in 0..20 {
        let error = record_campaign(&scratch.0, &spec, AnonScheme::KeyedBlock)
            .expect_err("two profiles cannot be recorded");
        let want = format!("create {}: ", path(1).display());
        assert!(error.starts_with(&want), "repeat {repeat}: {error}");
        assert!(path(0).is_file() && path(2).is_file(), "every profile is attempted");
    }

    // On open, profile 0 fails late (its seed is checked after the full
    // checksum pass) and profile 1 at once: a worker that finishes first
    // must not decide which error is returned.
    let other_seed = fs::File::create(path(0)).expect("create");
    record_profile(other_seed, &spec.profiles[0], &spec.checkpoints, 7, AnonScheme::KeyedBlock)
        .expect("records");
    for repeat in 0..20 {
        let error = open_corpus(&scratch.0, &spec).expect_err("two profiles cannot be opened");
        let want = format!("{}: seed is 7, but the campaign needs 42", path(0).display());
        assert!(error.starts_with(&want), "repeat {repeat}: {error}");
    }
}

#[test]
fn a_profile_listed_twice_is_refused_before_any_file_is_created() {
    let scratch = Scratch::new("twice");
    let mut spec = wide_spec();
    spec.profiles.push(spec.profiles[1].clone());
    let want = format!("profile '{}' is listed twice", spec.profiles[1].name);
    let dir = scratch.0.join("corpus");
    let error = record_campaign(&dir, &spec, AnonScheme::KeyedBlock).expect_err("refused");
    assert!(error.contains(&want), "{error}");
    assert!(!dir.exists(), "nothing is created");
    let error = open_corpus(&dir, &spec).expect_err("refused");
    assert!(error.contains(&want), "{error}");
}
