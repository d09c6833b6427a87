//! Compact binary encoding of [`DynInst`] records.
//!
//! The trace-file subsystem (`rsep-tracefile`) stores instruction streams
//! on disk; this module owns the per-record wire format so the encoding
//! lives next to the types it serialises. The layout is delta- and
//! varint-based: consecutive records share most of their sequence number
//! and program counter, and memory addresses correlate strongly with the
//! previous access, so each record is a handful of bytes instead of the
//! ~100 bytes of the in-memory struct.
//!
//! Record layout (all multi-byte quantities are LEB128 varints):
//!
//! ```text
//! byte 0   op-class index (low 4 bits) | source count << 4 (2 bits)
//! byte 1   presence flags: F_DEST | F_MEM | F_BRANCH | F_RESULT
//! varint   seq  delta from previous record (zigzag)
//! varint   pc   delta from previous record (zigzag)
//! byte ×N  source registers (class bit 5, index bits 0..5)
//! [byte]   destination register           (when F_DEST)
//! [varint] result value                   (when F_RESULT, i.e. != 0)
//! [byte]   memory access size             (when F_MEM)
//! [varint] memory address delta (zigzag, from previous access)
//! [byte]   branch kind (bits 0..2) | taken << 2   (when F_BRANCH)
//! [varint] branch target delta from this record's pc (zigzag)
//! ```
//!
//! Encoding and decoding share a [`CodecState`] carrying the previous
//! sequence number, pc and memory address; a stream decoded with the same
//! initial state round-trips bit-exactly (`decode_inst(encode_inst(i)) ==
//! i` — pinned by proptests in `rsep-tracefile`).

use crate::inst::{BranchInfo, BranchKind, DynInst, MemInfo, MAX_SOURCES};
use crate::op::OpClass;
use crate::reg::ArchReg;
use std::fmt;

/// Presence flag: the record carries a destination register byte.
const F_DEST: u8 = 1 << 0;
/// Presence flag: the record carries memory-access size and address fields.
const F_MEM: u8 = 1 << 1;
/// Presence flag: the record carries branch kind/outcome/target fields.
const F_BRANCH: u8 = 1 << 2;
/// Presence flag: the record carries a non-zero result value varint.
const F_RESULT: u8 = 1 << 3;

/// Longest possible encoded record: head and flag bytes, the seq and pc
/// varints, every source, the destination, the result varint, the memory
/// size byte and address varint, the branch byte and target varint (a
/// varint takes at most 10 bytes). A decoder holding this many bytes past
/// a record's start holds the whole record.
pub const MAX_RECORD_BYTES: usize = 2 + 10 + 10 + MAX_SOURCES + 1 + 10 + 1 + 10 + 1 + 10;

/// Delta-coding context shared by the encoder and decoder.
///
/// Both sides must start from the same state (freshly `default()` at the
/// head of each trace segment) and feed every record through it in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecState {
    /// Sequence number of the previous record.
    pub prev_seq: u64,
    /// Program counter of the previous record.
    pub prev_pc: u64,
    /// Effective address of the previous memory access.
    pub prev_addr: u64,
}

/// A malformed or truncated instruction record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended in the middle of a record.
    Truncated,
    /// A field carried a value outside its domain.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated instruction record"),
            CodecError::Invalid(what) => write!(f, "invalid instruction record: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `value` as a LEB128 varint (7 bits per byte, high bit = more).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Invalid("varint longer than 64 bits"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed delta onto an unsigned varint-friendly value.
#[inline]
fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// The signed wrapping difference `to - from`, for delta coding.
#[inline]
fn delta(from: u64, to: u64) -> i64 {
    to.wrapping_sub(from) as i64
}

fn encode_reg(reg: ArchReg) -> u8 {
    ((reg.class().index() as u8) & 0x07) << 5 | reg.index()
}

fn decode_reg(byte: u8) -> Result<ArchReg, CodecError> {
    let index = byte & 0x1f;
    match byte >> 5 {
        0 => Ok(ArchReg::int(index)),
        1 => Ok(ArchReg::fp(index)),
        _ => Err(CodecError::Invalid("register class out of range")),
    }
}

fn encode_branch_kind(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Unconditional => 1,
        BranchKind::Indirect => 2,
        BranchKind::Return => 3,
    }
}

fn decode_branch_kind(bits: u8) -> Result<BranchKind, CodecError> {
    match bits {
        0 => Ok(BranchKind::Conditional),
        1 => Ok(BranchKind::Unconditional),
        2 => Ok(BranchKind::Indirect),
        3 => Ok(BranchKind::Return),
        _ => Err(CodecError::Invalid("branch kind out of range")),
    }
}

/// Encodes one instruction record, appending it to `out` and advancing the
/// delta state.
pub fn encode_inst(state: &mut CodecState, inst: &DynInst, out: &mut Vec<u8>) {
    let nsrcs = inst.num_sources();
    debug_assert!(nsrcs <= MAX_SOURCES);
    out.push((inst.op.index() as u8) | (nsrcs as u8) << 4);
    let mut flags = 0u8;
    if inst.dest.is_some() {
        flags |= F_DEST;
    }
    if inst.mem.is_some() {
        flags |= F_MEM;
    }
    if inst.branch.is_some() {
        flags |= F_BRANCH;
    }
    if inst.result != 0 {
        flags |= F_RESULT;
    }
    out.push(flags);
    write_varint(out, zigzag(delta(state.prev_seq, inst.seq)));
    write_varint(out, zigzag(delta(state.prev_pc, inst.pc)));
    state.prev_seq = inst.seq;
    state.prev_pc = inst.pc;
    for src in inst.sources() {
        out.push(encode_reg(src));
    }
    if let Some(dest) = inst.dest {
        out.push(encode_reg(dest));
    }
    if inst.result != 0 {
        write_varint(out, inst.result);
    }
    if let Some(mem) = &inst.mem {
        out.push(mem.size);
        write_varint(out, zigzag(delta(state.prev_addr, mem.addr)));
        state.prev_addr = mem.addr;
    }
    if let Some(branch) = &inst.branch {
        out.push(encode_branch_kind(branch.kind) | u8::from(branch.taken) << 2);
        write_varint(out, zigzag(delta(inst.pc, branch.target)));
    }
}

/// Decodes one instruction record from `bytes` at `pos`, advancing `pos`
/// and the delta state. Inverse of [`encode_inst`].
pub fn decode_inst(
    state: &mut CodecState,
    bytes: &[u8],
    pos: &mut usize,
) -> Result<DynInst, CodecError> {
    let &head = bytes.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    let op = *OpClass::ALL
        .get((head & 0x0f) as usize)
        .ok_or(CodecError::Invalid("op class out of range"))?;
    let nsrcs = (head >> 4) as usize;
    if nsrcs > MAX_SOURCES {
        return Err(CodecError::Invalid("too many source registers"));
    }
    let &flags = bytes.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    if flags & !(F_DEST | F_MEM | F_BRANCH | F_RESULT) != 0 {
        return Err(CodecError::Invalid("unknown presence flag"));
    }
    let seq = state.prev_seq.wrapping_add(unzigzag(read_varint(bytes, pos)?) as u64);
    let pc = state.prev_pc.wrapping_add(unzigzag(read_varint(bytes, pos)?) as u64);
    state.prev_seq = seq;
    state.prev_pc = pc;
    let mut srcs = [None; MAX_SOURCES];
    for slot in srcs.iter_mut().take(nsrcs) {
        let &byte = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        *slot = Some(decode_reg(byte)?);
    }
    let dest = if flags & F_DEST != 0 {
        let &byte = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        Some(decode_reg(byte)?)
    } else {
        None
    };
    let result = if flags & F_RESULT != 0 { read_varint(bytes, pos)? } else { 0 };
    let mem = if flags & F_MEM != 0 {
        let &size = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        let addr = state.prev_addr.wrapping_add(unzigzag(read_varint(bytes, pos)?) as u64);
        state.prev_addr = addr;
        Some(MemInfo { addr, size })
    } else {
        None
    };
    let branch = if flags & F_BRANCH != 0 {
        let &byte = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if byte & !0x07 != 0 {
            return Err(CodecError::Invalid("unknown branch flag bits"));
        }
        let kind = decode_branch_kind(byte & 0x03)?;
        let taken = byte & 0x04 != 0;
        let target = pc.wrapping_add(unzigzag(read_varint(bytes, pos)?) as u64);
        Some(BranchInfo { kind, taken, target })
    } else {
        None
    };
    Ok(DynInst { seq, pc, op, srcs, dest, result, mem, branch })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::DynInstBuilder;

    fn roundtrip(insts: &[DynInst]) {
        let mut enc_state = CodecState::default();
        let mut bytes = Vec::new();
        for inst in insts {
            encode_inst(&mut enc_state, inst, &mut bytes);
        }
        let mut dec_state = CodecState::default();
        let mut pos = 0;
        for inst in insts {
            let decoded = decode_inst(&mut dec_state, &bytes, &mut pos).expect("decodes");
            assert_eq!(&decoded, inst);
        }
        assert_eq!(pos, bytes.len(), "trailing bytes after the last record");
        assert_eq!(enc_state, dec_state, "codec states diverge");
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for value in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, value);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos).unwrap(), value);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn zigzag_roundtrips() {
        for value in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(value)), value);
        }
    }

    #[test]
    fn simple_alu_record_roundtrips() {
        roundtrip(&[DynInst::simple(0, 0x40_0000, OpClass::IntAlu, ArchReg::int(3), 7)]);
    }

    #[test]
    fn all_fields_roundtrip() {
        let load = DynInstBuilder::new(5, 0x40_0010, OpClass::Load)
            .dest(ArchReg::fp(9))
            .src(ArchReg::int(1))
            .src(ArchReg::int(30))
            .result(u64::MAX)
            .mem(0x7fff_dead_beef, 8)
            .build();
        let store = DynInstBuilder::new(6, 0x40_0014, OpClass::Store)
            .src(ArchReg::int(2))
            .src(ArchReg::int(3))
            .src(ArchReg::fp(31))
            .result(42)
            .mem(0x7fff_dead_bf2f, 4)
            .build();
        let branch = DynInstBuilder::new(7, 0x40_0018, OpClass::Branch)
            .branch(BranchKind::Return, true, 0x3f_fff0)
            .build();
        roundtrip(&[load, store, branch]);
    }

    #[test]
    fn widest_record_takes_max_record_bytes() {
        // Every delta is i64::MIN (a 10-byte zigzag varint), the result is
        // u64::MAX, and every optional field is present.
        let far = 1u64 << 63;
        let widest = DynInstBuilder::new(far, far, OpClass::Load)
            .src(ArchReg::int(1))
            .src(ArchReg::int(2))
            .src(ArchReg::fp(3))
            .dest(ArchReg::fp(4))
            .result(u64::MAX)
            .mem(far, 8)
            .branch(BranchKind::Indirect, true, 0)
            .build();
        let mut bytes = Vec::new();
        encode_inst(&mut CodecState::default(), &widest, &mut bytes);
        assert_eq!(bytes.len(), MAX_RECORD_BYTES);
        roundtrip(&[widest]);
    }

    #[test]
    fn zero_result_skips_the_result_field() {
        // Identical records except for the result: the zero-result one
        // must be strictly shorter (no F_RESULT varint).
        let zero = DynInst::simple(0, 0x1000, OpClass::IntAlu, ArchReg::int(4), 0);
        let one = DynInst::simple(0, 0x1000, OpClass::IntAlu, ArchReg::int(4), 1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_inst(&mut CodecState::default(), &zero, &mut a);
        encode_inst(&mut CodecState::default(), &one, &mut b);
        assert!(a.len() < b.len());
        roundtrip(&[zero, one]);
    }

    #[test]
    fn consecutive_records_are_small() {
        let insts: Vec<DynInst> = (0..16)
            .map(|i| DynInst::simple(i, 0x40_0000 + i * 4, OpClass::IntAlu, ArchReg::int(1), 3))
            .collect();
        let mut state = CodecState::default();
        let mut bytes = Vec::new();
        for inst in &insts {
            encode_inst(&mut state, inst, &mut bytes);
        }
        // head + flags + seq + pc + dest + result = 6 bytes per record,
        // plus a few extra for the first record's absolute pc varint.
        assert!(bytes.len() <= insts.len() * 6 + 4, "{} bytes", bytes.len());
        roundtrip(&insts);
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let inst = DynInstBuilder::new(3, 0x9000, OpClass::Load)
            .dest(ArchReg::int(7))
            .result(0x1234_5678)
            .mem(0x8000_0000, 8)
            .build();
        let mut state = CodecState::default();
        let mut bytes = Vec::new();
        encode_inst(&mut state, &inst, &mut bytes);
        for cut in 0..bytes.len() {
            let mut dec_state = CodecState::default();
            let mut pos = 0;
            assert_eq!(
                decode_inst(&mut dec_state, &bytes[..cut], &mut pos),
                Err(CodecError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn garbage_flags_are_rejected() {
        // Valid head byte, impossible flag byte.
        let bytes = [OpClass::Nop.index() as u8, 0xf0, 0, 0];
        let mut state = CodecState::default();
        let mut pos = 0;
        assert!(matches!(decode_inst(&mut state, &bytes, &mut pos), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn out_of_range_op_class_is_rejected() {
        let bytes = [0x0fu8, 0, 0, 0]; // op index 15 does not exist
        let mut state = CodecState::default();
        let mut pos = 0;
        assert!(matches!(decode_inst(&mut state, &bytes, &mut pos), Err(CodecError::Invalid(_))));
    }
}
