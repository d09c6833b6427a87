//! Campaign-level trace record and replay.
//!
//! [`record_campaign`] freezes every profile of a [`CampaignSpec`] into a
//! corpus directory (`<dir>/<profile>.rseptrc`); [`open_corpus`] validates
//! a corpus against a spec (profile calibration fingerprint, seed and
//! checkpoint scale must all match the recording); [`replay_campaign`]
//! then runs the full grid with every cell driven from the files instead
//! of live generators. Because each cell sees the same instruction stream
//! (modulo the keyed address translation, which is behaviour-preserving),
//! the replayed [`CampaignResult`] renders **byte-identically** to the
//! live run's report — the property `rsep trace replay` and the CI
//! end-to-end check rely on.
//!
//! Recording and opening fan out over the profiles, one file per worker
//! of [`Executor::auto`]: each file is independent, and most of the time
//! goes to generating records and the byte-serial FNV-1a checksum, which
//! only parallelises across files. Every profile is attempted, results
//! come back in spec order, and the error returned is the first one in
//! spec order, so neither outcome depends on which worker finished first.

use std::collections::BTreeSet;
use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use rsep_core::{run_checkpoint_on, CheckpointResult};
use rsep_isa::Fingerprint;
use rsep_trace::BenchmarkProfile;
use rsep_tracefile::{header_for, record_profile, AnonScheme, TraceFile};

use crate::{Campaign, CampaignResult, CampaignSpec, Executor, MemoryStore};

/// Path of one profile's trace within a corpus directory.
fn trace_path(dir: &Path, profile: &str) -> PathBuf {
    dir.join(format!("{profile}.rseptrc"))
}

/// Summary of one file written by [`record_campaign`].
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    /// Benchmark profile name.
    pub profile: String,
    /// File the trace was written to.
    pub path: PathBuf,
    /// Instruction records in the file (all segments).
    pub instructions: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// Records every profile of `spec` into `dir/<profile>.rseptrc`.
///
/// Each file holds one segment per checkpoint, seeded exactly like the
/// live runner, so [`replay_campaign`] over the same spec reproduces the
/// live grid. Existing files are overwritten: a corpus is a pure function
/// of the spec, never an accumulation.
///
/// The files are written in parallel, one profile per worker of
/// [`Executor::auto`] (up to all cores; `--jobs` sizes cell grids only),
/// each streamed by [`record_profile`] exactly as a serial recording
/// would write it. Every profile is attempted; the summaries come back in
/// spec order, and the error returned is the first one in spec order. A
/// spec that lists a profile twice is refused before any file is created.
pub fn record_campaign(
    dir: &Path,
    spec: &CampaignSpec,
    anon: AnonScheme,
) -> Result<Vec<RecordedTrace>, String> {
    check_distinct_profiles(spec)?;
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for_each_profile(spec, |profile| {
        let path = trace_path(dir, profile.name);
        let out = fs::File::create(&path)
            .map(BufWriter::new)
            .map_err(|e| format!("create {}: {e}", path.display()))?;
        record_profile(out, profile, &spec.checkpoints, spec.seed, anon)
            .map_err(|e| format!("record {}: {e}", path.display()))?;
        let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        // `record_profile` fails unless every segment got its full count.
        let per_segment =
            header_for(profile, &spec.checkpoints, spec.seed, anon).segment_instructions();
        Ok(RecordedTrace {
            profile: profile.name.to_string(),
            path,
            instructions: spec.checkpoints.count as u64 * per_segment,
            bytes,
        })
    })
}

/// Opens and validates `dir`'s trace file for every profile of `spec`, in
/// spec order.
///
/// A file recorded from a different profile calibration, seed or
/// checkpoint scale would replay without error but produce a grid that
/// silently differs from the live campaign — every header field the cell
/// outcome depends on is therefore checked up front, and so is every
/// segment's record count (from the segment table) against the header's
/// warm-up + measure.
///
/// The files are opened in parallel, one profile per worker of
/// [`Executor::auto`], so their checksum passes overlap. Every profile
/// is attempted, and the error returned is the first one in spec order.
/// A spec that lists a profile twice is refused.
pub fn open_corpus(dir: &Path, spec: &CampaignSpec) -> Result<Vec<TraceFile>, String> {
    check_distinct_profiles(spec)?;
    for_each_profile(spec, |profile| {
        let path = trace_path(dir, profile.name);
        let label = path.display().to_string();
        let file = TraceFile::open(&path).map_err(|e| format!("{label}: {e}"))?;
        let h = file.header();
        let mismatch = |what: &str, got: &dyn std::fmt::Display, want: &dyn std::fmt::Display| {
            format!("{label}: {what} is {got}, but the campaign needs {want} — re-record with `rsep trace record`")
        };
        if h.profile != profile.name {
            return Err(mismatch("profile", &h.profile, &profile.name));
        }
        if h.profile_fingerprint != profile.fingerprint_value() {
            return Err(format!(
                "{label}: recorded from a different calibration of profile '{}' — \
                 re-record with `rsep trace record`",
                profile.name
            ));
        }
        if h.seed != spec.seed {
            return Err(mismatch("seed", &h.seed, &spec.seed));
        }
        if h.checkpoints != spec.checkpoints.count as u64 {
            return Err(mismatch("checkpoint count", &h.checkpoints, &spec.checkpoints.count));
        }
        if h.warmup != spec.checkpoints.warmup {
            return Err(mismatch("warm-up scale", &h.warmup, &spec.checkpoints.warmup));
        }
        if h.measure != spec.checkpoints.measure {
            return Err(mismatch("measure scale", &h.measure, &spec.checkpoints.measure));
        }
        // A short segment would drain mid-cell, and a drained trace
        // ends the run without an error.
        let needed = h.warmup + h.measure;
        let short = file.segment_records().enumerate().find(|&(_, records)| records < needed);
        if let Some((index, records)) = short {
            return Err(format!(
                "{label}: segment {index} holds {records} records, fewer than the \
                 {needed} of its header's warm-up + measure — re-record with \
                 `rsep trace record`"
            ));
        }
        Ok(file)
    })
}

/// Refuses a spec that lists a profile twice: both entries would name one
/// corpus file, and two parallel writers of one path would race.
fn check_distinct_profiles(spec: &CampaignSpec) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    match spec.profiles.iter().find(|profile| !seen.insert(profile.name)) {
        Some(profile) => Err(format!(
            "profile '{}' is listed twice, but a corpus holds one file per profile",
            profile.name
        )),
        None => Ok(()),
    }
}

/// Runs `job` on every profile of `spec`, one per worker of
/// [`Executor::auto`], and returns the outputs in spec order or the first
/// error in spec order, whatever order the workers finish in.
fn for_each_profile<T: Send>(
    spec: &CampaignSpec,
    job: impl Fn(&BenchmarkProfile) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let (outputs, _) =
        Executor::auto().run(spec.profiles.len(), |index| job(&spec.profiles[index]));
    outputs.into_iter().collect()
}

/// Runs the full campaign grid with every cell driven from `corpus`
/// (one validated [`TraceFile`] per profile, spec order) instead of live
/// generators.
///
/// This is [`Campaign::run_stored`](crate::Campaign::run_stored)'s grid
/// runner over a [`MemoryStore`] with the trace source swapped, so the
/// result renders byte-identically to a live run of the same spec.
pub fn replay_campaign(
    executor: &Executor,
    spec: &CampaignSpec,
    corpus: &[TraceFile],
) -> Result<CampaignResult, String> {
    if corpus.len() != spec.profiles.len() {
        return Err(format!(
            "corpus holds {} trace file(s) but the campaign has {} profiles",
            corpus.len(),
            spec.profiles.len()
        ));
    }
    let run = Campaign::new(executor.clone())
        .run_cells(spec, &mut MemoryStore, |profile, mechanism, checkpoint| {
            let mut segment = corpus[profile]
                .segment(checkpoint)
                .expect("segment count was validated against the spec");
            // A read or decode error ends the segment early; it fails the
            // cell with that error instead of leaving a silently short run.
            let result = run_checkpoint_on(
                &mut segment,
                mechanism,
                &spec.core_config,
                spec.checkpoints,
                checkpoint,
            );
            match segment.error() {
                Some(e) => {
                    CheckpointResult::failed(checkpoint, &format!("{}: {e}", segment.origin()))
                }
                None => result,
            }
        })
        .expect("an in-memory campaign cannot fail");
    Ok(run.result.expect("a completed run resolves every cell"))
}
