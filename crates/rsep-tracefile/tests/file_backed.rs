//! The file-backed reader: `TraceFile::open` rejects the damaged files
//! that `parse` rejects, segments spanning several blocks decode exactly
//! (records straddling block boundaries included), sources over one file
//! are independent, and a file rewritten in place after open ends the
//! stream with an error instead of a garbled record.

use std::fs;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

use rsep_isa::codec::{encode_inst, CodecState};
use rsep_isa::{ArchReg, DynInst, OpClass};
use rsep_trace::{BenchmarkProfile, TraceGenerator};
use rsep_tracefile::format::{encode_footer, encode_header, SegmentMeta, FORMAT_MINOR};
use rsep_tracefile::reader::BLOCK_BYTES;
use rsep_tracefile::{AnonScheme, TraceError, TraceFile, TraceHeader, TraceWriter};

/// A unique, self-cleaning scratch directory per test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rsep-tracefile-test-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// Writes `bytes` to `name` and opens it.
    fn open(&self, name: &str, bytes: &[u8]) -> Result<TraceFile, TraceError> {
        let path = self.0.join(name);
        fs::write(&path, bytes).expect("write trace file");
        TraceFile::open(&path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn header(checkpoints: u64) -> TraceHeader {
    TraceHeader {
        profile: "file-backed".to_string(),
        profile_fingerprint: 0x0123_4567_89ab_cdef,
        seed: 5,
        checkpoints,
        warmup: 0,
        measure: 0,
        slack: 0,
        anon: AnonScheme::None,
        minor: FORMAT_MINOR,
    }
}

fn write_file(segments: &[Vec<DynInst>]) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), header(segments.len() as u64)).expect("writer");
    for segment in segments {
        writer.begin_segment().expect("begin");
        for inst in segment {
            writer.write_inst(inst).expect("write");
        }
        writer.end_segment().expect("end");
    }
    writer.finish().expect("finish")
}

/// `count` instructions of a generated stream: realistic record sizes,
/// so block boundaries fall inside records.
fn generated(profile: &str, seed: u64, count: usize) -> Vec<DynInst> {
    let profile = BenchmarkProfile::by_name(profile).expect("profile exists");
    TraceGenerator::new(&profile, seed).take(count).collect()
}

fn small_segments() -> Vec<Vec<DynInst>> {
    vec![
        vec![
            DynInst::simple(0, 0x4000, OpClass::IntAlu, ArchReg::int(1), 3),
            DynInst::simple(1, 0x4004, OpClass::IntAlu, ArchReg::int(2), 7),
        ],
        vec![DynInst::simple(2, 0x4008, OpClass::IntAlu, ArchReg::int(3), 11)],
    ]
}

#[test]
fn open_rejects_truncation_at_every_boundary() {
    let scratch = Scratch::new("truncation");
    let good = write_file(&small_segments());
    assert!(scratch.open("good.rseptrc", &good).is_ok());
    for cut in 0..good.len() {
        let result = scratch.open("cut.rseptrc", &good[..cut]);
        assert!(result.is_err(), "cut at {cut} of {} opened", good.len());
    }
}

#[test]
fn open_rejects_a_foreign_file() {
    let scratch = Scratch::new("magic");
    let mut bad = write_file(&small_segments());
    bad[0] ^= 0xff;
    assert!(matches!(scratch.open("bad.rseptrc", &bad), Err(TraceError::BadMagic)));
    assert!(scratch.open("empty.rseptrc", &[]).is_err());
}

#[test]
fn open_rejects_every_payload_byte_flip() {
    let scratch = Scratch::new("checksum");
    let segments = small_segments();
    let good = write_file(&segments);
    let payload_start = encode_header(&header(2)).len();
    let payload_len = scratch.open("good.rseptrc", &good).expect("opens").payload_bytes();
    for at in payload_start..payload_start + payload_len as usize {
        let mut bad = good.clone();
        bad[at] ^= 0x01;
        match scratch.open("bad.rseptrc", &bad) {
            Err(TraceError::ChecksumMismatch { .. }) => {}
            other => panic!("flip at {at}: expected checksum mismatch, got {other:?}"),
        }
    }
}

#[test]
fn open_rejects_a_corrupt_segment_table() {
    let scratch = Scratch::new("table");
    let segments = small_segments();
    let good = write_file(&segments);
    let file = scratch.open("good.rseptrc", &good).expect("opens");
    let payload_start = encode_header(file.header()).len();
    let payload_len = file.payload_bytes();
    let checksum = u64::from_le_bytes(good[good.len() - 16..good.len() - 8].try_into().unwrap());
    let mut first = Vec::new();
    let mut state = CodecState::default();
    for inst in &segments[0] {
        encode_inst(&mut state, inst, &mut first);
    }
    let first_len = first.len() as u64;
    let with_table = |table: &[SegmentMeta]| {
        let mut bytes = good[..payload_start + payload_len as usize].to_vec();
        bytes.extend_from_slice(&encode_footer(table, checksum));
        bytes
    };
    let tiled = [
        SegmentMeta { offset: 0, len: first_len, count: 2 },
        SegmentMeta { offset: first_len, len: payload_len - first_len, count: 1 },
    ];
    assert!(scratch.open("tiled.rseptrc", &with_table(&tiled)).is_ok());

    let cases: [(&str, Vec<SegmentMeta>); 4] = [
        ("past the payload", vec![tiled[0], SegmentMeta { len: tiled[1].len + 1, ..tiled[1] }]),
        ("gap", vec![SegmentMeta { len: first_len - 1, ..tiled[0] }, tiled[1]]),
        ("overlap", vec![tiled[0], SegmentMeta { offset: first_len - 1, ..tiled[1] }]),
        ("count", vec![tiled[0]]),
    ];
    for (what, table) in cases {
        match scratch.open("table.rseptrc", &with_table(&table)) {
            Err(TraceError::Corrupt(_)) => {}
            other => panic!("{what}: expected a corrupt-table error, got {other:?}"),
        }
    }
    // A table length reaching back into the header.
    let mut bad = good.clone();
    let at = bad.len() - 20;
    bad[at..at + 4].copy_from_slice(&(good.len() as u32).to_le_bytes());
    assert!(matches!(scratch.open("len.rseptrc", &bad), Err(TraceError::Corrupt(_))));
}

#[test]
fn a_segment_of_several_blocks_decodes_exactly_across_block_boundaries() {
    let scratch = Scratch::new("blocks");
    let stream = generated("gcc", 18, 20_000);
    // The record boundaries the writer produces (no anonymisation).
    let mut state = CodecState::default();
    let mut encoded = Vec::new();
    let mut starts = Vec::with_capacity(stream.len());
    for inst in &stream {
        starts.push(encoded.len());
        encode_inst(&mut state, inst, &mut encoded);
    }
    let blocks = encoded.len().div_ceil(BLOCK_BYTES);
    assert!(blocks >= 3, "{} payload bytes span only {blocks} blocks", encoded.len());
    for boundary in (1..blocks).map(|k| k * BLOCK_BYTES) {
        assert!(
            !starts.contains(&boundary),
            "a record starts exactly at block boundary {boundary}; pick another seed"
        );
    }

    let segments = vec![generated("mcf", 3, 50), stream.clone()];
    let bytes = write_file(&segments);
    let opened = scratch.open("blocks.rseptrc", &bytes).expect("opens");
    let parsed = TraceFile::parse(bytes, "mem".into()).expect("parses");
    for file in [&opened, &parsed] {
        for (index, expected) in segments.iter().enumerate() {
            let mut source = file.segment(index).expect("segment");
            let decoded: Vec<DynInst> = source.by_ref().collect();
            assert!(source.error().is_none(), "segment {index}: {:?}", source.error());
            assert!(decoded == *expected, "segment {index} decodes to another stream");
        }
    }
}

#[test]
fn interleaved_sources_over_one_file_decode_independently() {
    let scratch = Scratch::new("interleaved");
    let segments = vec![generated("gcc", 1, 12_000), generated("libquantum", 2, 9_000)];
    let file = scratch.open("two.rseptrc", &write_file(&segments)).expect("opens");
    // Two readers of segment 0 and one of segment 1, pulled in uneven
    // turns so their block refills interleave.
    let mut sources = [
        file.segment(0).expect("segment 0"),
        file.segment(1).expect("segment 1"),
        file.segment(0).expect("segment 0 again"),
    ];
    let expected = [&segments[0], &segments[1], &segments[0]];
    let mut decoded: [Vec<DynInst>; 3] = Default::default();
    let mut turn = 0usize;
    while sources.iter().any(|s| rsep_trace::TraceSource::remaining(s) != Some(0)) {
        let which = turn % 3;
        decoded[which].extend(sources[which].by_ref().take(97 + 311 * which));
        turn += 1;
    }
    for which in 0..3 {
        assert!(sources[which].error().is_none(), "source {which}: {:?}", sources[which].error());
        assert!(decoded[which] == *expected[which], "source {which} decodes to another stream");
    }
}

#[test]
fn a_block_rewritten_after_open_ends_the_stream_with_an_error() {
    let scratch = Scratch::new("rewritten");
    let stream = generated("gcc", 17, 20_000);
    let bytes = write_file(std::slice::from_ref(&stream));
    let payload_start = encode_header(&header(1)).len() as u64;
    let path = scratch.0.join("rewritten.rseptrc");
    fs::write(&path, &bytes).expect("write");
    let file = TraceFile::open(&path).expect("opens");

    let changed_block = 2u64;
    let at = payload_start + changed_block * BLOCK_BYTES as u64 + 5;
    let handle = fs::OpenOptions::new().write(true).open(&path).expect("reopen for writing");
    handle.write_all_at(&[bytes[at as usize] ^ 0x40], at).expect("overwrite one byte");

    let mut source = file.segment(0).expect("segment");
    let decoded: Vec<DynInst> = source.by_ref().collect();
    assert_eq!(
        source.error(),
        Some(&TraceError::Changed { offset: changed_block * BLOCK_BYTES as u64 })
    );
    assert!(decoded.len() < stream.len());
    assert!(decoded[..] == stream[..decoded.len()], "records before the change decode intact");
}
