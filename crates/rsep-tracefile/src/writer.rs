//! Streaming trace writer.
//!
//! [`TraceWriter`] emits the header eagerly, streams instruction records
//! segment by segment (folding every payload byte into the running FNV
//! checksum as it goes), and writes the segment table, checksum and end
//! magic on [`TraceWriter::finish`]. A file missing its trailer was
//! interrupted mid-write and is rejected by the reader, so half-recorded
//! traces can never masquerade as complete ones.

use std::io::Write;

use rsep_isa::codec::{encode_inst_with_mem, CodecState};
use rsep_isa::{DynInst, MemInfo};

use crate::format::{
    anon_offset, encode_footer, encode_header, fnv1a, AnonScheme, SegmentMeta, TraceError,
    TraceHeader, FNV_BASIS,
};

/// Writes a trace file to any [`Write`] sink, one checkpoint segment at a
/// time.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    header: TraceHeader,
    /// Keyed translation added to every data address (0 under
    /// [`AnonScheme::None`]).
    anon_offset: u64,
    checksum: u64,
    payload_bytes: u64,
    segments: Vec<SegmentMeta>,
    /// Set between `begin_segment` and `end_segment`.
    segment: Option<(u64, u64, CodecState)>,
    buf: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header immediately.
    pub fn new(mut out: W, header: TraceHeader) -> Result<TraceWriter<W>, TraceError> {
        out.write_all(&encode_header(&header))?;
        let anon_offset = match header.anon {
            AnonScheme::None => 0,
            AnonScheme::KeyedBlock => anon_offset(header.profile_fingerprint, header.seed),
        };
        Ok(TraceWriter {
            out,
            header,
            anon_offset,
            checksum: FNV_BASIS,
            payload_bytes: 0,
            segments: Vec::new(),
            segment: None,
            buf: Vec::with_capacity(256),
        })
    }

    /// The header the file was opened with.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Starts the next checkpoint segment. Each segment begins from a
    /// fresh delta state, so segments replay independently.
    pub fn begin_segment(&mut self) -> Result<(), TraceError> {
        if self.segment.is_some() {
            return Err(TraceError::Corrupt("begin_segment inside an open segment"));
        }
        self.segment = Some((self.payload_bytes, 0, CodecState::default()));
        Ok(())
    }

    /// Appends one instruction record to the open segment, applying the
    /// header's anonymisation scheme to its data address.
    pub fn write_inst(&mut self, inst: &DynInst) -> Result<(), TraceError> {
        let (_, count, state) =
            self.segment.as_mut().ok_or(TraceError::Corrupt("write outside a segment"))?;
        let mem =
            inst.mem.map(|mem| MemInfo { addr: mem.addr.wrapping_add(self.anon_offset), ..mem });
        self.buf.clear();
        encode_inst_with_mem(state, inst, mem, &mut self.buf);
        self.out.write_all(&self.buf)?;
        self.checksum = fnv1a(self.checksum, &self.buf);
        self.payload_bytes += self.buf.len() as u64;
        *count += 1;
        Ok(())
    }

    /// Drains `count` instructions from `source` into the open segment.
    /// Returns the number actually written (shorter when the source runs
    /// dry first).
    pub fn record_from(
        &mut self,
        mut source: impl Iterator<Item = DynInst>,
        count: u64,
    ) -> Result<u64, TraceError> {
        for written in 0..count {
            match source.next() {
                Some(inst) => self.write_inst(&inst)?,
                None => return Ok(written),
            }
        }
        Ok(count)
    }

    /// Closes the open segment, recording its table entry.
    pub fn end_segment(&mut self) -> Result<(), TraceError> {
        let (offset, count, _) =
            self.segment.take().ok_or(TraceError::Corrupt("end_segment without begin"))?;
        self.segments.push(SegmentMeta { offset, len: self.payload_bytes - offset, count });
        Ok(())
    }

    /// Writes the footer and trailer and returns the sink. Without this
    /// call the file has no end magic and the reader rejects it.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if self.segment.is_some() {
            return Err(TraceError::Corrupt("finish with an open segment"));
        }
        if self.segments.len() as u64 != self.header.checkpoints {
            return Err(TraceError::Corrupt("segment count differs from the header"));
        }
        self.out.write_all(&encode_footer(&self.segments, self.checksum))?;
        self.out.flush()?;
        Ok(self.out)
    }
}
