//! One-call recording of a benchmark profile into a trace file.
//!
//! [`record_profile`] is the single recipe shared by the `rsep trace
//! record` subcommand, the frozen test corpus and the record-throughput
//! bench: it derives the per-checkpoint generator seeds exactly like the
//! live experiment runner ([`checkpoint_seed`]), so a replayed segment
//! feeds the core the same instruction stream (modulo the keyed address
//! translation) the generator would have.

use std::io::Write;

use rsep_core::checkpoint_seed;
use rsep_isa::Fingerprint;
use rsep_trace::{BenchmarkProfile, CheckpointSpec, TraceGenerator};

use crate::format::{AnonScheme, TraceError, TraceHeader, FORMAT_MINOR};
use crate::writer::TraceWriter;

/// Extra instructions recorded past `warmup + measure` per segment.
///
/// The core fetches ahead of the commit counter (fetch queue, ROB and
/// replay structures together hold a few hundred instructions), so a
/// segment truncated exactly at the commit target would starve fetch in
/// the final cycles and diverge from the live run. 4096 is an order of
/// magnitude above the deepest in-flight window any shipped
/// configuration can hold.
const RECORD_SLACK: u64 = 4096;

/// The header [`record_profile`] stamps for a given recording request.
pub fn header_for(
    profile: &BenchmarkProfile,
    spec: &CheckpointSpec,
    seed: u64,
    anon: AnonScheme,
) -> TraceHeader {
    TraceHeader {
        profile: profile.name.to_string(),
        profile_fingerprint: profile.fingerprint_value(),
        seed,
        checkpoints: spec.count as u64,
        warmup: spec.warmup,
        measure: spec.measure,
        slack: RECORD_SLACK,
        anon,
        minor: FORMAT_MINOR,
    }
}

/// Records every checkpoint of `profile` under `spec` into `out`.
///
/// Each segment holds `warmup + measure + RECORD_SLACK` instructions from
/// a generator seeded with [`checkpoint_seed`]`(seed, index)` — the same
/// derivation the live runner uses — so replaying segment `index` against
/// checkpoint `index` of a live campaign is exact.
pub fn record_profile<W: Write>(
    out: W,
    profile: &BenchmarkProfile,
    spec: &CheckpointSpec,
    seed: u64,
    anon: AnonScheme,
) -> Result<W, TraceError> {
    let header = header_for(profile, spec, seed, anon);
    let per_segment = header.segment_instructions();
    let mut writer = TraceWriter::new(out, header)?;
    for index in 0..spec.count {
        let mut generator = TraceGenerator::new(profile, checkpoint_seed(seed, index));
        writer.begin_segment()?;
        let written = writer.record_from(&mut generator, per_segment)?;
        if written != per_segment {
            return Err(TraceError::Corrupt("generator ran dry while recording"));
        }
        writer.end_segment()?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::TraceFile;

    #[test]
    fn recorded_file_parses_and_matches_the_spec() {
        let profile = BenchmarkProfile::by_name("mcf").expect("mcf profile");
        let spec = CheckpointSpec::scaled(2, 100, 300);
        let bytes = record_profile(Vec::new(), &profile, &spec, 42, AnonScheme::KeyedBlock)
            .expect("record");
        let file = TraceFile::parse(bytes, "test".into()).expect("parse");
        assert_eq!(file.header().profile, "mcf");
        assert_eq!(file.header().checkpoints, 2);
        assert_eq!(file.segment_count(), 2);
        let per_segment = 100 + 300 + RECORD_SLACK;
        assert_eq!(file.instructions(), 2 * per_segment);
        let drained = file.segment(1).expect("segment").count() as u64;
        assert_eq!(drained, per_segment);
    }

    #[test]
    fn recording_is_deterministic() {
        let profile = BenchmarkProfile::by_name("gcc").expect("gcc profile");
        let spec = CheckpointSpec::scaled(1, 50, 150);
        let a = record_profile(Vec::new(), &profile, &spec, 7, AnonScheme::KeyedBlock).unwrap();
        let b = record_profile(Vec::new(), &profile, &spec, 7, AnonScheme::KeyedBlock).unwrap();
        assert_eq!(a, b);
        let c = record_profile(Vec::new(), &profile, &spec, 8, AnonScheme::KeyedBlock).unwrap();
        assert_ne!(a, c);
    }
}
