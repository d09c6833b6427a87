//! The on-disk trace-file format: header, footer and versioning policy.
//!
//! A trace file is laid out as
//!
//! ```text
//! magic    "RSEPTRC\0"                                  (8 bytes)
//! version  u16 LE major, u16 LE minor
//! chunks   TLV header chunks: u8 id, varint length, payload bytes,
//!          terminated by CHUNK_END
//! payload  one byte range per checkpoint segment of concatenated
//!          varint-packed instruction records (`rsep_isa::codec`), each
//!          segment starting from a fresh `CodecState`
//! footer   varint segment count, then per segment varint {offset from
//!          payload start, byte length, instruction count}
//! trailer  u32 LE footer length, u64 LE FNV-1a checksum of the payload,
//!          end magic "RSEPEND\0"
//! ```
//!
//! **Versioning policy.** A reader accepts exactly its own major version
//! and any minor version. Within a known minor (`minor <=` the reader's
//! own), every chunk id must be known — an unknown id means corruption.
//! A *newer* minor may define new chunk ids; those are skipped by length,
//! so old readers keep reading new files (forward compatibility) and new
//! readers fail loudly only on major bumps.
//!
//! **Anonymisation.** [`AnonScheme::KeyedBlock`] translates every data
//! address by a per-trace constant derived from a keyed hash of the
//! header identity, aligned to [`ANON_BLOCK_BYTES`]. The key itself is
//! never stored — only the scheme id — so the original address-space
//! layout cannot be recovered from the file. The translation is
//! behaviour-preserving by construction: it is a bijection (equalities,
//! store-to-load aliasing and reference strides are unchanged) that
//! keeps the low `ANON_BLOCK_BITS` address bits intact, which covers
//! the line offset and set index of every cache level in the Table I
//! hierarchy, so hit/miss behaviour — and therefore `SimStats` — is
//! bit-identical to the unanonymised stream. Instruction PCs are *not*
//! translated: they are synthetic coordinates already and the branch
//! predictors index by them.

use std::fmt;

use rsep_isa::codec::{read_varint, write_varint, CodecError};

/// File magic, first 8 bytes of every trace file.
const MAGIC: [u8; 8] = *b"RSEPTRC\0";
/// End magic, last 8 bytes of every complete trace file. A file without
/// it was truncated mid-write.
const END_MAGIC: [u8; 8] = *b"RSEPEND\0";
/// Format major version: readers reject any other major.
pub const FORMAT_MAJOR: u16 = 1;
/// Format minor version: readers skip unknown chunks of newer minors.
pub const FORMAT_MINOR: u16 = 0;

/// Header chunk: profile name + profile fingerprint.
const CHUNK_PROFILE: u8 = 1;
/// Header chunk: campaign seed and checkpoint geometry.
const CHUNK_SPEC: u8 = 2;
/// Header chunk: address anonymisation scheme.
const CHUNK_ANON: u8 = 3;
/// Header chunk terminator.
const CHUNK_END: u8 = 0;

/// Alignment of the anonymisation translation, in address bits. 2^18
/// bytes covers set index + line offset of the largest Table I cache
/// (L3: 4096 sets x 64-byte lines), so translating by a multiple of it
/// cannot change any set mapping.
const ANON_BLOCK_BITS: u32 = 18;
/// `ANON_BLOCK_BITS` as a byte count.
pub const ANON_BLOCK_BYTES: u64 = 1 << ANON_BLOCK_BITS;

/// How data addresses were transformed when the trace was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnonScheme {
    /// Addresses stored exactly as generated.
    None,
    /// Addresses translated by a keyed per-trace constant aligned to
    /// [`ANON_BLOCK_BYTES`] (see the module docs). The default for
    /// `rsep trace record`.
    #[default]
    KeyedBlock,
}

impl AnonScheme {
    /// The wire id of the scheme.
    pub fn id(self) -> u8 {
        match self {
            AnonScheme::None => 0,
            AnonScheme::KeyedBlock => 1,
        }
    }

    /// Decodes a wire id.
    pub fn from_id(id: u8) -> Option<AnonScheme> {
        match id {
            0 => Some(AnonScheme::None),
            1 => Some(AnonScheme::KeyedBlock),
            _ => None,
        }
    }
}

/// The self-describing identity of a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Name of the profile the stream was generated from.
    pub profile: String,
    /// `Fingerprint` digest of the generating `BenchmarkProfile`, so a
    /// replayed trace can be matched against the campaign that expects it.
    pub profile_fingerprint: u64,
    /// Campaign seed the checkpoint seeds were derived from.
    pub seed: u64,
    /// Number of checkpoint segments the file carries.
    pub checkpoints: u64,
    /// Warm-up instructions per checkpoint.
    pub warmup: u64,
    /// Measured instructions per checkpoint.
    pub measure: u64,
    /// Extra fetch-ahead instructions recorded past warmup + measure, so
    /// the replayed core never drains its fetch queue early.
    pub slack: u64,
    /// Address anonymisation applied at record time.
    pub anon: AnonScheme,
    /// Minor format version the file was written with.
    pub minor: u16,
}

impl TraceHeader {
    /// Instructions recorded per checkpoint segment.
    pub fn segment_instructions(&self) -> u64 {
        self.warmup + self.measure + self.slack
    }
}

/// Location of one checkpoint segment inside the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Byte offset from the start of the payload.
    pub offset: u64,
    /// Encoded byte length of the segment.
    pub len: u64,
    /// Number of instruction records in the segment.
    pub count: u64,
}

/// Anything that can go wrong writing, reading or validating a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// An underlying I/O failure (message stringified for comparability).
    Io(String),
    /// The file does not start with the `MAGIC` bytes.
    BadMagic,
    /// The file's major format version differs from [`FORMAT_MAJOR`].
    UnsupportedMajor(u16),
    /// The file ends before the structure it promises.
    Truncated,
    /// A structural invariant does not hold.
    Corrupt(&'static str),
    /// The payload checksum does not match the footer.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the payload bytes.
        computed: u64,
    },
    /// A payload block no longer matches the digest taken when the file
    /// was opened: the file was rewritten in place since.
    Changed {
        /// Payload offset of the changed block.
        offset: u64,
    },
    /// An instruction record failed to decode.
    Codec(CodecError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(message) => write!(f, "trace i/o error: {message}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::UnsupportedMajor(found) => write!(
                f,
                "unsupported trace format major version {found} (this build reads {FORMAT_MAJOR})"
            ),
            TraceError::Truncated => write!(f, "truncated trace file"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace payload checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::Changed { offset } => write!(
                f,
                "trace payload changed since the file was opened (block at payload offset {offset})"
            ),
            TraceError::Codec(e) => write!(f, "trace record error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e.to_string())
    }
}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> TraceError {
        match e {
            CodecError::Truncated => TraceError::Truncated,
            other => TraceError::Codec(other),
        }
    }
}

/// FNV-1a over a byte slice, continuing from `state` (start from
/// [`FNV_BASIS`]). Used for the payload checksum; restartable so the
/// writer can fold bytes in as it streams them.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        state ^= u64::from(byte);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// FNV-1a initial state for [`fnv1a`].
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Derives the anonymisation translation for a trace identified by
/// `(profile_fingerprint, seed)`: a keyed FNV digest aligned down to
/// [`ANON_BLOCK_BYTES`]. Deterministic across machines; never stored in
/// the file.
pub fn anon_offset(profile_fingerprint: u64, seed: u64) -> u64 {
    let mut h = rsep_isa::Fnv::new();
    h.write_str("rsep-trace-anon-key");
    h.write_u64(profile_fingerprint);
    h.write_u64(seed);
    h.finish() & !(ANON_BLOCK_BYTES - 1)
}

fn push_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn read_u16(bytes: &[u8], pos: &mut usize) -> Result<u16, TraceError> {
    let end = pos.checked_add(2).ok_or(TraceError::Truncated)?;
    let slice = bytes.get(*pos..end).ok_or(TraceError::Truncated)?;
    *pos = end;
    Ok(u16::from_le_bytes([slice[0], slice[1]]))
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let end = pos.checked_add(8).ok_or(TraceError::Truncated)?;
    let slice = bytes.get(*pos..end).ok_or(TraceError::Truncated)?;
    *pos = end;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(slice);
    Ok(u64::from_le_bytes(raw))
}

fn read_exact<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], TraceError> {
    let end = pos.checked_add(n).ok_or(TraceError::Truncated)?;
    let slice = bytes.get(*pos..end).ok_or(TraceError::Truncated)?;
    *pos = end;
    Ok(slice)
}

/// Serialises the file prefix: magic, version and header chunks.
pub fn encode_header(header: &TraceHeader) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    push_u16(&mut out, FORMAT_MAJOR);
    push_u16(&mut out, FORMAT_MINOR);

    let mut chunk = Vec::new();
    write_varint(&mut chunk, header.profile.len() as u64);
    chunk.extend_from_slice(header.profile.as_bytes());
    push_u64(&mut chunk, header.profile_fingerprint);
    out.push(CHUNK_PROFILE);
    write_varint(&mut out, chunk.len() as u64);
    out.extend_from_slice(&chunk);

    chunk.clear();
    push_u64(&mut chunk, header.seed);
    write_varint(&mut chunk, header.checkpoints);
    write_varint(&mut chunk, header.warmup);
    write_varint(&mut chunk, header.measure);
    write_varint(&mut chunk, header.slack);
    out.push(CHUNK_SPEC);
    write_varint(&mut out, chunk.len() as u64);
    out.extend_from_slice(&chunk);

    out.push(CHUNK_ANON);
    write_varint(&mut out, 1);
    out.push(header.anon.id());

    out.push(CHUNK_END);
    write_varint(&mut out, 0);
    out
}

/// Parses the file prefix written by [`encode_header`], advancing `pos`
/// past the header so it lands on the first payload byte. Enforces the
/// versioning policy: any major other than [`FORMAT_MAJOR`] is rejected;
/// unknown chunk ids are skipped only when the file's minor version is
/// newer than [`FORMAT_MINOR`] (in a known minor they mean corruption).
pub fn decode_header(bytes: &[u8], pos: &mut usize) -> Result<TraceHeader, TraceError> {
    if read_exact(bytes, pos, MAGIC.len())? != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let major = read_u16(bytes, pos)?;
    if major != FORMAT_MAJOR {
        return Err(TraceError::UnsupportedMajor(major));
    }
    let minor = read_u16(bytes, pos)?;

    let mut profile = None;
    let mut spec = None;
    let mut anon = AnonScheme::None;
    loop {
        let &id = bytes.get(*pos).ok_or(TraceError::Truncated)?;
        *pos += 1;
        let len = read_varint(bytes, pos)? as usize;
        if id == CHUNK_END {
            if len != 0 {
                return Err(TraceError::Corrupt("end chunk carries a payload"));
            }
            break;
        }
        let chunk = read_exact(bytes, pos, len)?;
        let mut at = 0usize;
        match id {
            CHUNK_PROFILE => {
                let name_len = read_varint(chunk, &mut at)? as usize;
                let name = read_exact(chunk, &mut at, name_len)?;
                let name = std::str::from_utf8(name)
                    .map_err(|_| TraceError::Corrupt("profile name is not UTF-8"))?
                    .to_string();
                let fingerprint = read_u64(chunk, &mut at)?;
                profile = Some((name, fingerprint));
            }
            CHUNK_SPEC => {
                let seed = read_u64(chunk, &mut at)?;
                let checkpoints = read_varint(chunk, &mut at)?;
                let warmup = read_varint(chunk, &mut at)?;
                let measure = read_varint(chunk, &mut at)?;
                let slack = read_varint(chunk, &mut at)?;
                spec = Some((seed, checkpoints, warmup, measure, slack));
            }
            CHUNK_ANON => {
                let &scheme = chunk.first().ok_or(TraceError::Truncated)?;
                anon = AnonScheme::from_id(scheme)
                    .ok_or(TraceError::Corrupt("unknown anonymisation scheme"))?;
            }
            _ if minor > FORMAT_MINOR => {
                // A chunk defined by a newer minor revision: skippable by
                // construction of the compat policy.
            }
            _ => return Err(TraceError::Corrupt("unknown chunk id in a known minor version")),
        }
    }
    let (profile, profile_fingerprint) =
        profile.ok_or(TraceError::Corrupt("missing profile chunk"))?;
    let (seed, checkpoints, warmup, measure, slack) =
        spec.ok_or(TraceError::Corrupt("missing spec chunk"))?;
    Ok(TraceHeader {
        profile,
        profile_fingerprint,
        seed,
        checkpoints,
        warmup,
        measure,
        slack,
        anon,
        minor,
    })
}

/// Serialises the footer and trailer: segment table, table length,
/// payload checksum and `END_MAGIC`.
pub fn encode_footer(segments: &[SegmentMeta], checksum: u64) -> Vec<u8> {
    let mut table = Vec::new();
    write_varint(&mut table, segments.len() as u64);
    for segment in segments {
        write_varint(&mut table, segment.offset);
        write_varint(&mut table, segment.len);
        write_varint(&mut table, segment.count);
    }
    let mut out = table;
    let table_len = out.len() as u32;
    out.extend_from_slice(&table_len.to_le_bytes());
    push_u64(&mut out, checksum);
    out.extend_from_slice(&END_MAGIC);
    out
}

/// Byte length of the fixed trailer: u32 table length, u64 checksum and
/// `END_MAGIC`.
pub const TRAILER_BYTES: usize = 4 + 8 + END_MAGIC.len();

/// Parses the trailer written by [`encode_footer`] (the file's last
/// [`TRAILER_BYTES`] bytes); returns the segment table's byte length and
/// the stored payload checksum. A missing end magic means the file was
/// cut short.
pub fn decode_trailer(trailer: &[u8]) -> Result<(usize, u64), TraceError> {
    if trailer.len() != TRAILER_BYTES || trailer[TRAILER_BYTES - END_MAGIC.len()..] != END_MAGIC {
        return Err(TraceError::Truncated);
    }
    let mut at = 0usize;
    let table_len = {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(read_exact(trailer, &mut at, 4)?);
        u32::from_le_bytes(raw) as usize
    };
    Ok((table_len, read_u64(trailer, &mut at)?))
}

/// Parses the segment table written by [`encode_footer`] (the bytes just
/// before the trailer) of a file whose payload is `payload_len` bytes.
pub fn decode_segment_table(
    table: &[u8],
    payload_len: u64,
) -> Result<Vec<SegmentMeta>, TraceError> {
    let mut at = 0usize;
    let count = read_varint(table, &mut at)? as usize;
    if count > table.len() {
        // Each segment entry takes >= 3 table bytes; a count beyond the
        // table length is corrupt and would otherwise pre-allocate wildly.
        return Err(TraceError::Corrupt("segment count exceeds table size"));
    }
    let mut segments = Vec::with_capacity(count);
    for _ in 0..count {
        let offset = read_varint(table, &mut at)?;
        let len = read_varint(table, &mut at)?;
        let seg_count = read_varint(table, &mut at)?;
        let end = offset.checked_add(len).ok_or(TraceError::Corrupt("segment range overflows"))?;
        if end > payload_len {
            return Err(TraceError::Corrupt("segment extends past the payload"));
        }
        segments.push(SegmentMeta { offset, len, count: seg_count });
    }
    if at != table.len() {
        return Err(TraceError::Corrupt("trailing bytes in the segment table"));
    }
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> TraceHeader {
        TraceHeader {
            profile: "gcc".into(),
            profile_fingerprint: 0x1234_5678_9abc_def0,
            seed: 42,
            checkpoints: 3,
            warmup: 2_000,
            measure: 8_000,
            slack: 4_096,
            anon: AnonScheme::KeyedBlock,
            minor: FORMAT_MINOR,
        }
    }

    #[test]
    fn header_roundtrips() {
        let bytes = encode_header(&header());
        let mut pos = 0;
        let decoded = decode_header(&bytes, &mut pos).expect("decodes");
        assert_eq!(decoded, header());
        assert_eq!(pos, bytes.len(), "pos must land on the payload");
    }

    #[test]
    fn footer_roundtrips() {
        let segments = vec![
            SegmentMeta { offset: 0, len: 100, count: 20 },
            SegmentMeta { offset: 100, len: 250, count: 55 },
        ];
        let footer = encode_footer(&segments, 0xdead_beef);
        let (table, trailer) = footer.split_at(footer.len() - TRAILER_BYTES);
        let (table_len, checksum) = decode_trailer(trailer).expect("trailer decodes");
        assert_eq!(table_len, table.len());
        assert_eq!(checksum, 0xdead_beef);
        assert_eq!(decode_segment_table(table, 350).expect("table decodes"), segments);
        assert!(matches!(decode_segment_table(table, 349), Err(TraceError::Corrupt(_))));
        assert_eq!(decode_trailer(&trailer[1..]), Err(TraceError::Truncated));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = encode_header(&header());
        bytes[0] ^= 0xff;
        assert_eq!(decode_header(&bytes, &mut 0), Err(TraceError::BadMagic));
    }

    #[test]
    fn future_major_is_rejected() {
        let mut bytes = encode_header(&header());
        bytes[8] = 0x7f; // bump the LE major
        assert!(matches!(decode_header(&bytes, &mut 0), Err(TraceError::UnsupportedMajor(_))));
    }

    #[test]
    fn unknown_chunk_in_known_minor_is_corrupt() {
        let bytes = encode_header(&header());
        // Splice an unknown chunk (id 0x77, 1 payload byte) before CHUNK_END.
        let end_at = bytes.len() - 2;
        let mut spliced = bytes[..end_at].to_vec();
        spliced.extend_from_slice(&[0x77, 1, 0xaa]);
        spliced.extend_from_slice(&bytes[end_at..]);
        assert!(matches!(decode_header(&spliced, &mut 0), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn unknown_chunk_in_newer_minor_is_skipped() {
        let mut bytes = encode_header(&header());
        bytes[10] = FORMAT_MINOR as u8 + 1; // bump the LE minor
        let end_at = bytes.len() - 2;
        let mut spliced = bytes[..end_at].to_vec();
        spliced.extend_from_slice(&[0x77, 1, 0xaa]);
        spliced.extend_from_slice(&bytes[end_at..]);
        let decoded = decode_header(&spliced, &mut 0).expect("skips the unknown chunk");
        assert_eq!(decoded.profile, "gcc");
        assert_eq!(decoded.minor, FORMAT_MINOR + 1);
    }

    #[test]
    fn header_truncation_is_detected() {
        let bytes = encode_header(&header());
        for cut in 0..bytes.len() {
            let result = decode_header(&bytes[..cut], &mut 0);
            assert!(result.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn anon_offset_is_aligned_and_keyed() {
        let a = anon_offset(1, 2);
        assert_eq!(a % ANON_BLOCK_BYTES, 0, "offset must be block-aligned");
        assert_eq!(a, anon_offset(1, 2), "offset must be deterministic");
        assert_ne!(anon_offset(1, 2), anon_offset(1, 3));
        assert_ne!(anon_offset(1, 2), anon_offset(2, 2));
    }

    #[test]
    fn fnv1a_is_restartable() {
        let bytes = b"the quick brown fox";
        let whole = fnv1a(FNV_BASIS, bytes);
        let split = fnv1a(fnv1a(FNV_BASIS, &bytes[..7]), &bytes[7..]);
        assert_eq!(whole, split);
    }
}
