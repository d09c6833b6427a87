//! Golden digest of the generated instruction stream.
//!
//! Pins an FNV-1a digest over every field of the first 20K `DynInst`s of
//! each of the 29 SPEC CPU2006-like profiles (seed 42). The Figure 1 golden
//! covers only the redundancy counts and the trace-corpus manifest only six
//! profiles; this digest catches any change to what the generator emits —
//! a reordered RNG call, a dropped source slot, a different store value —
//! for every profile.

use rsep_isa::{ArchReg, DynInst, Fnv};
use rsep_trace::{BenchmarkProfile, TraceGenerator};

const SEED: u64 = 42;
const INSTS: usize = 20_000;

/// Expected digest per profile, in `BenchmarkProfile::spec2006()` order.
const EXPECTED: [(&str, u64); 29] = [
    ("perlbench", 0xc2769fb6329291a0),
    ("bzip2", 0x0eb127b35b5236e4),
    ("gcc", 0x1aaffc2707e34530),
    ("mcf", 0x24119c5d62c49ef2),
    ("gobmk", 0xb1d744f6bccd981b),
    ("hmmer", 0x03d97f06f5869acd),
    ("sjeng", 0xf9194561e7252a46),
    ("libquantum", 0x62b03e9e8e18c070),
    ("h264ref", 0x7078666039276979),
    ("omnetpp", 0x86105b08d4f31f03),
    ("astar", 0xebb605ffda270a55),
    ("xalancbmk", 0xf322cc95bd8bed7e),
    ("bwaves", 0x1fed67434cb4aae6),
    ("gamess", 0xcc93d966814a105a),
    ("milc", 0x25c7f9d00b1d12d1),
    ("zeusmp", 0xcc0940801c835302),
    ("gromacs", 0x87d0c5b027eb6665),
    ("cactusADM", 0x370819ad7dad7f7b),
    ("leslie3d", 0xe86313838bbacacd),
    ("namd", 0xf60c9a052cd0cee8),
    ("dealII", 0x78d9d81a807244c0),
    ("soplex", 0xa11f5fc45f881595),
    ("povray", 0xc6af3e28483c696d),
    ("calculix", 0x1ce839e56d064ad6),
    ("GemsFDTD", 0x158ae7d2c408b19c),
    ("tonto", 0xd2f58c0ca442601f),
    ("lbm", 0xfd7b2d3d114681ce),
    ("wrf", 0xb5e6611c8aaa9fc2),
    ("sphinx3", 0xc86d3069f2f78a3d),
];

fn write_reg(h: &mut Fnv, reg: Option<ArchReg>) {
    match reg {
        None => h.write_u64(0),
        Some(r) => {
            h.write_u64(1);
            h.write_u64(r.class() as u64);
            h.write_u64(u64::from(r.index()));
        }
    }
}

fn write_inst(h: &mut Fnv, inst: &DynInst) {
    h.write_u64(inst.seq);
    h.write_u64(inst.pc);
    h.write_u64(inst.op as u64);
    for &src in &inst.srcs {
        write_reg(h, src);
    }
    write_reg(h, inst.dest);
    h.write_u64(inst.result);
    match inst.mem {
        None => h.write_u64(0),
        Some(m) => {
            h.write_u64(1);
            h.write_u64(m.addr);
            h.write_u64(u64::from(m.size));
        }
    }
    match inst.branch {
        None => h.write_u64(0),
        Some(b) => {
            h.write_u64(1);
            h.write_u64(b.kind as u64);
            h.write_u64(u64::from(b.taken));
            h.write_u64(b.target);
        }
    }
}

fn digest(profile: &BenchmarkProfile) -> u64 {
    let mut h = Fnv::new();
    for inst in TraceGenerator::new(profile, SEED).take(INSTS) {
        write_inst(&mut h, &inst);
    }
    h.finish()
}

#[test]
fn every_profile_emits_the_pinned_instruction_stream() {
    let actual: Vec<(&str, u64)> =
        BenchmarkProfile::spec2006().iter().map(|p| (p.name, digest(p))).collect();
    let rendered: Vec<String> =
        actual.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),")).collect();
    assert_eq!(
        actual,
        EXPECTED,
        "generated instruction streams diverge from the pinned digests; actual:\n{}",
        rendered.join("\n")
    );
}
