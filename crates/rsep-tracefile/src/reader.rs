//! Trace-file reader: validated open, per-segment streaming
//! [`TraceSource`]s.
//!
//! A [`TraceFile`] holds the header, the segment table, the open file (or
//! the bytes handed to [`TraceFile::parse`]) and one 8-byte digest per
//! [`BLOCK_BYTES`] block of each segment — never the decoded payload, so
//! a corpus of any size opens in a few kilobytes. [`TraceFile::open`]
//! makes one pass over the payload that verifies the stored FNV-1a
//! checksum and takes the block digests, so truncation, bit rot and
//! foreign files are rejected before any record is decoded.
//!
//! [`TraceFile::segment`] then yields a [`SegmentSource`]: a decoding
//! iterator over one checkpoint's records implementing [`TraceSource`],
//! so the simulator drives it exactly like a live generator. It reads its
//! segment a block at a time with positional reads, so sources over one
//! file share no cursor and may run on different threads. Each block is
//! checked against its digest before a record is decoded from it: every
//! decoded byte was validated, and a file rewritten in place after open
//! ends the stream with [`TraceError::Changed`] instead of a garbled
//! instruction.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

use rsep_isa::codec::{decode_inst, CodecState, MAX_RECORD_BYTES};
use rsep_isa::DynInst;
use rsep_trace::TraceSource;

use crate::format::{
    decode_header, decode_segment_table, decode_trailer, fnv1a, SegmentMeta, TraceError,
    TraceHeader, FNV_BASIS, TRAILER_BYTES,
};

/// Size of the blocks a segment is digested and read in (the last block
/// of a segment may be shorter).
pub const BLOCK_BYTES: usize = 64 * 1024;

/// Where the file's bytes live.
#[derive(Debug)]
enum Backing {
    File(File),
    Bytes(Vec<u8>),
}

impl Backing {
    /// Fills `buf` with the bytes at `offset`; a range past the end is
    /// [`TraceError::Truncated`].
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
        match self {
            Backing::File(file) => file.read_exact_at(buf, offset).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    TraceError::Truncated
                } else {
                    e.into()
                }
            }),
            Backing::Bytes(bytes) => {
                let range = usize::try_from(offset)
                    .ok()
                    .and_then(|start| bytes.get(start..start.checked_add(buf.len())?))
                    .ok_or(TraceError::Truncated)?;
                buf.copy_from_slice(range);
                Ok(())
            }
        }
    }
}

/// A validated trace file: header, segment table and block digests, with
/// the payload left where it is.
#[derive(Debug)]
pub struct TraceFile {
    header: TraceHeader,
    origin: String,
    backing: Backing,
    /// File offset of the first payload byte.
    payload_start: u64,
    payload_len: u64,
    segments: Vec<SegmentMeta>,
    /// Per segment, the [`block_digest`] of each of its blocks.
    digests: Vec<Vec<u64>>,
}

impl TraceFile {
    /// Opens and validates a trace file on disk.
    pub fn open(path: &Path) -> Result<TraceFile, TraceError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        TraceFile::load(Backing::File(file), len, path.display().to_string())
    }

    /// Parses an in-memory trace file; `origin` labels the source in
    /// diagnostics (a file path, "stdin", ...).
    pub fn parse(bytes: Vec<u8>, origin: String) -> Result<TraceFile, TraceError> {
        let len = bytes.len() as u64;
        TraceFile::load(Backing::Bytes(bytes), len, origin)
    }

    /// Reads the header, trailer and segment table of a `len`-byte file,
    /// then makes the single checksum-and-digest pass over its payload.
    fn load(backing: Backing, len: u64, origin: String) -> Result<TraceFile, TraceError> {
        let (header, payload_start) = read_header(&backing, len)?;
        let trailer_at = len
            .checked_sub(TRAILER_BYTES as u64)
            .filter(|&at| at >= payload_start)
            .ok_or(TraceError::Truncated)?;
        let mut trailer = [0u8; TRAILER_BYTES];
        backing.read_at(trailer_at, &mut trailer)?;
        let (table_len, stored) = decode_trailer(&trailer)?;
        let table_at = trailer_at
            .checked_sub(table_len as u64)
            .filter(|&at| at >= payload_start)
            .ok_or(TraceError::Corrupt("segment table overlaps the header"))?;
        let mut table = vec![0u8; table_len];
        backing.read_at(table_at, &mut table)?;
        let payload_len = table_at - payload_start;
        let segments = decode_segment_table(&table, payload_len)?;
        if segments.len() as u64 != header.checkpoints {
            return Err(TraceError::Corrupt("segment count differs from the header"));
        }

        // The segments tile the payload in order (as the writer lays them
        // out), so walking their blocks visits every payload byte once.
        let mut computed = FNV_BASIS;
        let mut block = vec![0u8; BLOCK_BYTES];
        let mut digests = Vec::with_capacity(segments.len());
        let mut next = 0u64;
        for meta in &segments {
            if meta.offset != next {
                return Err(TraceError::Corrupt("segments do not tile the payload"));
            }
            let mut segment_digests = Vec::with_capacity(block_count(meta));
            for index in 0..block_count(meta) {
                let (at, block_len) = block_range(meta, index);
                let bytes = &mut block[..block_len];
                backing.read_at(payload_start + at, bytes)?;
                computed = fnv1a(computed, bytes);
                segment_digests.push(block_digest(bytes));
            }
            digests.push(segment_digests);
            next = meta.offset + meta.len;
        }
        if next != payload_len {
            return Err(TraceError::Corrupt("segments do not tile the payload"));
        }
        if computed != stored {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        Ok(TraceFile { header, origin, backing, payload_start, payload_len, segments, digests })
    }

    /// The file's self-describing header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Number of checkpoint segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total instruction records across all segments.
    pub fn instructions(&self) -> u64 {
        self.segment_records().sum()
    }

    /// Instruction records of each segment, in order, as the segment
    /// table states them (nothing is decoded).
    pub fn segment_records(&self) -> impl Iterator<Item = u64> + '_ {
        self.segments.iter().map(|s| s.count)
    }

    /// Payload size in bytes (encoded records only).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_len
    }

    /// A decoding iterator over segment `index`'s records. No byte is
    /// read until the first record is pulled.
    pub fn segment(&self, index: usize) -> Result<SegmentSource<'_>, TraceError> {
        let meta = *self.segments.get(index).ok_or(TraceError::Corrupt("no such segment"))?;
        Ok(SegmentSource {
            file: self,
            meta,
            digests: &self.digests[index],
            next_block: 0,
            buf: Vec::with_capacity(BLOCK_BYTES + MAX_RECORD_BYTES),
            pos: 0,
            safe_end: 0,
            state: CodecState::default(),
            remaining: meta.count,
            origin: format!("file:{}#{}", self.origin, index),
            error: None,
        })
    }
}

/// Decodes the header from a prefix of the file, growing the prefix
/// while the header runs past it; returns the header and the file offset
/// of the first payload byte.
fn read_header(backing: &Backing, len: u64) -> Result<(TraceHeader, u64), TraceError> {
    let mut prefix_len = len.min(4096) as usize;
    loop {
        let mut prefix = vec![0u8; prefix_len];
        backing.read_at(0, &mut prefix)?;
        let mut pos = 0usize;
        match decode_header(&prefix, &mut pos) {
            Err(TraceError::Truncated) if (prefix_len as u64) < len => {
                prefix_len = len.min(prefix_len as u64 * 2) as usize;
            }
            decoded => return decoded.map(|header| (header, pos as u64)),
        }
    }
}

/// Number of [`BLOCK_BYTES`] blocks segment `meta` spans.
fn block_count(meta: &SegmentMeta) -> usize {
    meta.len.div_ceil(BLOCK_BYTES as u64) as usize
}

/// Payload offset and length of block `index` of segment `meta`.
fn block_range(meta: &SegmentMeta, index: usize) -> (u64, usize) {
    let start = index as u64 * BLOCK_BYTES as u64;
    (meta.offset + start, (meta.len - start).min(BLOCK_BYTES as u64) as usize)
}

/// Multiplier of [`block_digest`]'s lanes (odd, so each step is a
/// bijection of the lane).
const DIGEST_K: u64 = 0x9E37_79B9_7F4A_7C15;

fn digest_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(DIGEST_K).rotate_left(29)
}

/// Digest of one payload block, compared before any record is decoded
/// from it. Four independent lanes each fold one little-endian word per
/// step, so it runs several bytes a cycle where byte-serial FNV-1a runs
/// one; a change confined to one word always changes the digest, since
/// every step is a bijection of its lane.
fn block_digest(bytes: &[u8]) -> u64 {
    let mut lanes = [DIGEST_K, DIGEST_K.rotate_left(16), DIGEST_K.rotate_left(32), !DIGEST_K];
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word"));
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, w) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            *lane = digest_step(*lane, word(w));
        }
    }
    let mut tail = [0u8; 32];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    for (lane, w) in lanes.iter_mut().zip(tail.chunks_exact(8)) {
        *lane = digest_step(*lane, word(w));
    }
    lanes.into_iter().fold(bytes.len() as u64, digest_step)
}

/// One checkpoint segment decoded on the fly — the file-backed
/// [`TraceSource`].
///
/// The segment is read one [`BLOCK_BYTES`] block at a time into a buffer
/// that also carries the undecoded tail of the previous block, so a
/// record straddling two blocks decodes whole. An I/O error, a block that
/// changed since open, or a record that fails to decode ends the stream
/// early, and [`SegmentSource::error`] reports it — callers driving a
/// simulation check it after the run.
#[derive(Debug)]
pub struct SegmentSource<'a> {
    file: &'a TraceFile,
    meta: SegmentMeta,
    digests: &'a [u64],
    /// Index of the next block to read.
    next_block: usize,
    /// Carried tail of the previous block followed by the current block.
    buf: Vec<u8>,
    pos: usize,
    /// A record starting before `safe_end` lies wholly inside `buf`.
    safe_end: usize,
    state: CodecState,
    remaining: u64,
    origin: String,
    error: Option<TraceError>,
}

impl SegmentSource<'_> {
    /// The error that ended the stream early, if any.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// Ends the stream with `error`.
    #[cold]
    fn fail(&mut self, error: TraceError) -> bool {
        self.error = Some(error);
        self.remaining = 0;
        false
    }

    /// Moves the undecoded tail to the front of the buffer and appends the
    /// segment's next block once its digest checks out. Returns `false`,
    /// with the error recorded, when there is no next block or it cannot
    /// be read or trusted.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> bool {
        let index = self.next_block;
        let Some(&digest) = self.digests.get(index) else {
            // The segment's bytes ran out before its record count did.
            return self.fail(TraceError::Truncated);
        };
        self.buf.copy_within(self.pos.., 0);
        self.buf.truncate(self.buf.len() - self.pos);
        self.pos = 0;
        let (at, len) = block_range(&self.meta, index);
        let start = self.buf.len();
        self.buf.resize(start + len, 0);
        if let Err(e) =
            self.file.backing.read_at(self.file.payload_start + at, &mut self.buf[start..])
        {
            return self.fail(e);
        }
        if block_digest(&self.buf[start..]) != digest {
            return self.fail(TraceError::Changed { offset: at });
        }
        self.next_block += 1;
        self.safe_end = if self.next_block == self.digests.len() {
            self.buf.len()
        } else {
            self.buf.len() - MAX_RECORD_BYTES
        };
        true
    }
}

impl Iterator for SegmentSource<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.remaining == 0 {
            return None;
        }
        if self.pos >= self.safe_end && !self.refill() {
            return None;
        }
        match decode_inst(&mut self.state, &self.buf, &mut self.pos) {
            Ok(inst) => {
                self.remaining -= 1;
                Some(inst)
            }
            Err(e) => {
                self.fail(e.into());
                None
            }
        }
    }
}

impl TraceSource for SegmentSource<'_> {
    fn origin(&self) -> String {
        self.origin.clone()
    }

    fn remaining(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_digest_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let digest = block_digest(&base);
        for at in [0, 7, 8, 31, 32, 500, 991, 999] {
            let mut changed = base.clone();
            changed[at] ^= 0x10;
            assert_ne!(block_digest(&changed), digest, "flip at {at} unseen");
        }
        let mut longer = base.clone();
        longer.push(0);
        assert_ne!(block_digest(&longer), digest, "a zero byte appended is unseen");
        assert_ne!(block_digest(&base[..999]), digest);
    }
}
