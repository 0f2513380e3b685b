//! Seeded random program generation.
//!
//! [`generate`] produces a self-contained [`DtProgram`] from a 64-bit
//! seed: a scalar-only `serial:` section and a mixed scalar/vector
//! `vector:` section, each initializing every register it reads and
//! ending in `halt`. The two sections are the entry points the harness
//! hands to [`bvl_sim::simulate_with`] (serial/task systems run
//! `serial`, vector-capable systems run `vector`).
//!
//! # Determinism and safety invariants
//!
//! Programs must execute identically on the functional oracle and on
//! every system's core machines, at every hardware vector length (64 to
//! 2048 bits), without faulting. The generator enforces this by
//! construction:
//!
//! - **Memory discipline.** All loads and stores go through four base
//!   registers (`x20`–`x23`) pinned to disjoint 4 KiB buffers. Scalar
//!   offsets stay below 4 KiB minus the access width. Vector AVL is
//!   capped at [`MAX_AVL`] elements, strides at 8 bytes, and index
//!   vectors are regenerated (`vid.v` + `vsll.vi`) at the current SEW
//!   immediately before every indexed access, so no element address can
//!   leave its buffer at any VLEN.
//! - **Register discipline.** Random ops write only scratch registers
//!   (`x5`–`x15`, `f1`–`f6`, `v1`–`v6`); the buffer bases, the stride
//!   register `x26`, the AVL register `x27`, and the loop counter `x28`
//!   are never random destinations. `v0` is written only by the mask
//!   idiom and `v7` only by the index idiom. Registers start zeroed in
//!   both the oracle and the simulated cores, so reading a
//!   never-written register is still deterministic.
//! - **Control discipline.** Loops use the dedicated counter `x28` with
//!   a bounded trip count and a straight-line body; forward branches
//!   jump over a short run of instructions to a label that is always
//!   emitted. Every generated program therefore terminates.

use crate::text::{DtOp, DtProgram};
use bvl_isa::reg::{FReg, VReg, XReg};
use bvl_isa::vcfg::Sew;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Byte size of each data buffer.
pub const BUF_SIZE: u64 = 4096;
/// Base addresses of the four data buffers (held in `x20`–`x23`).
pub const BUF_BASES: [u64; 4] = [0x2000, 0x3000, 0x4000, 0x5000];
/// Maximum application vector length requested by `vsetvli`. Together
/// with the 8-byte stride/element-width cap this bounds every vector
/// access span to under [`BUF_SIZE`] bytes.
pub const MAX_AVL: i64 = 200;

/// First scratch scalar register (`x5`).
const X_SCRATCH_LO: u8 = 5;
/// Last scratch scalar register (`x15`).
const X_SCRATCH_HI: u8 = 15;
/// Scratch FP registers are `f1..=f6`.
const F_SCRATCH_HI: u8 = 6;
/// Scratch vector registers are `v1..=v6`.
const V_SCRATCH_HI: u8 = 6;

/// First buffer base register (`x20`).
const X_BUF: u8 = 20;
/// Stride register (`x26`).
const X_STRIDE: u8 = 26;
/// AVL register (`x27`).
const X_AVL: u8 = 27;
/// Loop counter register (`x28`).
const X_LOOP: u8 = 28;
/// Index vector register (`v7`).
const V_INDEX: u8 = 7;

/// Generates a random differential-test program from `seed`.
///
/// The same seed always yields the same program.
pub fn generate(seed: u64) -> DtProgram {
    let mut g = Gen {
        rng: SmallRng::seed_from_u64(seed),
        lines: Vec::new(),
        label_counter: 0,
        mask_ready: false,
    };
    g.section("serial", false);
    g.section("vector", true);
    DtProgram { lines: g.lines }
}

struct Gen {
    rng: SmallRng,
    lines: Vec<DtOp>,
    label_counter: u32,
    /// True once the current section has initialized `v0` via the mask
    /// idiom under the current SEW.
    mask_ready: bool,
}

impl Gen {
    fn section(&mut self, name: &str, vector: bool) {
        self.mask_ready = false;
        self.lines.push(DtOp::Label(name.to_string()));
        // Pin the buffer bases; every memory access goes through them.
        for (i, base) in BUF_BASES.iter().enumerate() {
            self.lines
                .push(DtOp::Li(XReg::new(X_BUF + i as u8), *base as i64));
        }
        if vector {
            let stride = [1i64, 2, 4, 8][self.rng.gen_range(0..4usize)];
            self.lines.push(DtOp::Li(XReg::new(X_STRIDE), stride));
            self.emit_vsetvli();
        }
        let blocks = self.rng.gen_range(4..=8u32);
        for _ in 0..blocks {
            match self.rng.gen_range(0..10u32) {
                0 | 1 => self.emit_loop(vector),
                2 => self.emit_forward_branch(vector),
                _ => {
                    let n = self.rng.gen_range(2..=6u32);
                    self.emit_straight(vector, n);
                }
            }
        }
        self.lines.push(DtOp::Halt);
    }

    fn fresh_label(&mut self) -> String {
        self.label_counter += 1;
        format!("L{}", self.label_counter)
    }

    fn xs(&mut self) -> XReg {
        XReg::new(self.rng.gen_range(X_SCRATCH_LO..=X_SCRATCH_HI))
    }

    fn fs(&mut self) -> FReg {
        FReg::new(self.rng.gen_range(1..=F_SCRATCH_HI))
    }

    fn vs(&mut self) -> VReg {
        VReg::new(self.rng.gen_range(1..=V_SCRATCH_HI))
    }

    fn buf(&mut self) -> XReg {
        XReg::new(X_BUF + self.rng.gen_range(0..4u8))
    }

    /// A `li x27, avl; vsetvli xs, x27, sew` pair. Resets the mask: its
    /// layout depends on SEW and VL, so it must be rebuilt before the
    /// next masked op.
    fn emit_vsetvli(&mut self) {
        let avl = self.rng.gen_range(1..=MAX_AVL);
        let sew = [Sew::E8, Sew::E16, Sew::E32, Sew::E64][self.rng.gen_range(0..4usize)];
        self.lines.push(DtOp::Li(XReg::new(X_AVL), avl));
        let rd = self.xs();
        self.lines.push(DtOp::Vsetvli(rd, XReg::new(X_AVL), sew));
        self.mask_ready = false;
    }

    /// Initializes `v0` for masked ops: `v0[i] = (i < c)` for a random
    /// cutoff `c`, built from scratch registers under the current SEW.
    fn emit_mask_idiom(&mut self) {
        let vid = self.vs();
        let splat = self.vs();
        let cutoff = self.xs();
        self.lines.push(DtOp::Vid(vid));
        self.lines
            .push(DtOp::Li(cutoff, self.rng.gen_range(0..=MAX_AVL)));
        self.lines.push(DtOp::VmvVX(splat, cutoff));
        self.lines
            .push(DtOp::Vvv("vmslt.vv", VReg::new(0), vid, splat));
        self.mask_ready = true;
    }

    /// Rebuilds the index vector `v7 = vid << k` under the current SEW,
    /// immediately before an indexed access. Element offsets are bounded
    /// by `(MAX_AVL - 1) << 3` (or the SEW mask, whichever is smaller),
    /// keeping every indexed address inside its 4 KiB buffer.
    fn emit_index_idiom(&mut self) {
        let shift = self.rng.gen_range(0..=3i64);
        self.lines.push(DtOp::Vid(VReg::new(V_INDEX)));
        self.lines
            .push(DtOp::VsllVi(VReg::new(V_INDEX), VReg::new(V_INDEX), shift));
    }

    fn emit_straight(&mut self, vector: bool, count: u32) {
        for _ in 0..count {
            if vector && self.rng.gen_range(0..10u32) < 6 {
                self.emit_vector_op();
            } else {
                self.emit_scalar_op();
            }
        }
    }

    /// A bounded counted loop with a straight-line body.
    fn emit_loop(&mut self, vector: bool) {
        let label = self.fresh_label();
        let trips = self.rng.gen_range(1..=5i64);
        self.lines.push(DtOp::Li(XReg::new(X_LOOP), trips));
        self.lines.push(DtOp::Label(label.clone()));
        let body = self.rng.gen_range(2..=5u32);
        self.emit_straight(vector, body);
        self.lines.push(DtOp::AluImm(
            "addi",
            XReg::new(X_LOOP),
            XReg::new(X_LOOP),
            -1,
        ));
        self.lines
            .push(DtOp::Branch("bne", XReg::new(X_LOOP), XReg::new(0), label));
    }

    /// A data-dependent forward branch over a short instruction run.
    fn emit_forward_branch(&mut self, vector: bool) {
        let mn = ["beq", "bne", "blt", "bge", "bltu", "bgeu"][self.rng.gen_range(0..6usize)];
        let (a, b) = (self.xs(), self.xs());
        let label = self.fresh_label();
        self.lines.push(DtOp::Branch(mn, a, b, label.clone()));
        let skipped = self.rng.gen_range(1..=3u32);
        self.emit_straight(vector, skipped);
        self.lines.push(DtOp::Label(label));
    }

    fn emit_scalar_op(&mut self) {
        let op = match self.rng.gen_range(0..12u32) {
            0 => DtOp::Li(self.xs(), self.rng.gen_range(-4096..=4096i64)),
            1 | 2 => {
                let mn = [
                    "add", "sub", "mul", "div", "divu", "rem", "remu", "and", "or", "xor", "slt",
                    "sltu",
                ][self.rng.gen_range(0..12usize)];
                DtOp::Alu(mn, self.xs(), self.xs(), self.xs())
            }
            3 | 4 => {
                let (mn, imm) = match self.rng.gen_range(0..5u32) {
                    0 => ("addi", self.rng.gen_range(-2048..=2047i64)),
                    1 => ("andi", self.rng.gen_range(-2048..=2047i64)),
                    2 => ("slli", self.rng.gen_range(0..=63i64)),
                    3 => ("srli", self.rng.gen_range(0..=63i64)),
                    _ => ("srai", self.rng.gen_range(0..=63i64)),
                };
                DtOp::AluImm(mn, self.xs(), self.xs(), imm)
            }
            5 | 6 => {
                let (mn, off) = self.scalar_access();
                DtOp::Load(mn, self.xs(), off, self.buf())
            }
            7 | 8 => {
                let (mn, off) = self.scalar_access();
                let store = match mn {
                    "lw" => "sw",
                    "ld" => "sd",
                    _ => "sb",
                };
                DtOp::Store(store, self.xs(), off, self.buf())
            }
            9 => DtOp::FmvWX(self.fs(), self.xs()),
            10 => {
                let mn = ["fadd.s", "fsub.s", "fmul.s", "fmin.s", "fmax.s"]
                    [self.rng.gen_range(0..5usize)];
                DtOp::Fp(mn, self.fs(), self.fs(), self.fs())
            }
            _ => {
                let off = self.rng.gen_range(0..1023i64) * 4;
                if self.rng.gen() {
                    DtOp::Flw(self.fs(), off, self.buf())
                } else {
                    DtOp::Fsw(self.fs(), off, self.buf())
                }
            }
        };
        self.lines.push(op);
    }

    /// Picks a scalar load mnemonic and an in-bounds aligned offset.
    fn scalar_access(&mut self) -> (&'static str, i64) {
        match self.rng.gen_range(0..3u32) {
            0 => ("lw", self.rng.gen_range(0..1023i64) * 4),
            1 => ("ld", self.rng.gen_range(0..511i64) * 8),
            _ => ("lbu", self.rng.gen_range(0..4095i64)),
        }
    }

    fn emit_vector_op(&mut self) {
        match self.rng.gen_range(0..14u32) {
            0 => self.emit_vsetvli(),
            1 | 2 => {
                // Unit-stride load/store, sometimes masked.
                let store = self.rng.gen();
                let masked = self.rng.gen_range(0..3u32) == 0;
                if masked && !self.mask_ready {
                    self.emit_mask_idiom();
                }
                let (vreg, base) = (self.vs(), self.buf());
                self.lines.push(DtOp::VMemUnit {
                    store,
                    vreg,
                    base,
                    masked,
                });
            }
            3 => {
                let (vreg, base) = (self.vs(), self.buf());
                self.lines.push(DtOp::VMemStrided {
                    store: self.rng.gen(),
                    vreg,
                    base,
                    stride: XReg::new(X_STRIDE),
                });
            }
            4 => {
                let store = self.rng.gen();
                let masked = self.rng.gen_range(0..3u32) == 0;
                if masked && !self.mask_ready {
                    self.emit_mask_idiom();
                }
                self.emit_index_idiom();
                let (vreg, base) = (self.vs(), self.buf());
                self.lines.push(DtOp::VMemIndexed {
                    store,
                    vreg,
                    base,
                    index: VReg::new(V_INDEX),
                    masked,
                });
            }
            5..=8 => {
                let mn = [
                    "vadd.vv",
                    "vsub.vv",
                    "vmul.vv",
                    "vand.vv",
                    "vmin.vv",
                    "vmax.vv",
                    "vfadd.vv",
                    "vfsub.vv",
                    "vfmul.vv",
                    "vfmacc.vv",
                    "vrgather.vv",
                ][self.rng.gen_range(0..11usize)];
                let (vd, a, b) = (self.vs(), self.vs(), self.vs());
                self.lines.push(DtOp::Vvv(mn, vd, a, b));
            }
            9 => {
                let mn = ["vadd.vx", "vmax.vx", "vslideup.vx", "vslidedown.vx"]
                    [self.rng.gen_range(0..4usize)];
                let (vd, vs2, rs1) = (self.vs(), self.vs(), self.xs());
                self.lines.push(DtOp::Vvx(mn, vd, vs2, rs1));
            }
            10 => {
                // Comparisons write a scratch mask; vmslt into v0 via the
                // mask idiom is the only writer of the real mask register.
                let mn = ["vmslt.vv", "vmflt.vv"][self.rng.gen_range(0..2usize)];
                let (vd, a, b) = (self.vs(), self.vs(), self.vs());
                self.lines.push(DtOp::Vvv(mn, vd, a, b));
            }
            11 => {
                let mn = ["vredsum.vs", "vredmax.vs", "vredmin.vs", "vfredosum.vs"]
                    [self.rng.gen_range(0..4usize)];
                let (vd, a, b) = (self.vs(), self.vs(), self.vs());
                self.lines.push(DtOp::Vvv(mn, vd, a, b));
            }
            12 => {
                if !self.mask_ready {
                    self.emit_mask_idiom();
                }
                let (vd, a, b) = (self.vs(), self.vs(), self.vs());
                self.lines.push(DtOp::VmergeVvm(vd, a, b));
            }
            _ => {
                let op = match self.rng.gen_range(0..4u32) {
                    0 => DtOp::VmvVX(self.vs(), self.xs()),
                    1 => DtOp::VmvXS(self.xs(), self.vs()),
                    2 => DtOp::Vid(self.vs()),
                    _ => DtOp::Vpopc(self.xs(), self.vs()),
                };
                self.lines.push(op);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(1234);
        let b = generate(1234);
        assert_eq!(a, b);
        assert_ne!(a, generate(1235));
    }

    #[test]
    fn programs_assemble_with_both_entries() {
        for seed in 0..50 {
            let p = generate(seed);
            let prog = p.assemble().unwrap_or_else(|e| {
                panic!("seed {seed}: {e}\n{}", p.render());
            });
            assert!(prog.label("serial").is_some());
            assert!(prog.label("vector").is_some());
        }
    }

    #[test]
    fn programs_round_trip_through_text() {
        for seed in 0..50 {
            let p = generate(seed);
            let reparsed = DtProgram::parse(&p.render()).expect("reparse");
            assert_eq!(p, reparsed);
        }
    }

    #[test]
    fn serial_section_is_scalar_only() {
        for seed in 0..50 {
            let p = generate(seed);
            for op in &p.lines {
                if matches!(op, DtOp::Label(l) if l == "vector") {
                    break;
                }
                assert!(
                    !matches!(
                        op,
                        DtOp::Vsetvli(..)
                            | DtOp::VMemUnit { .. }
                            | DtOp::VMemStrided { .. }
                            | DtOp::VMemIndexed { .. }
                            | DtOp::Vvv(..)
                            | DtOp::Vvx(..)
                            | DtOp::VsllVi(..)
                            | DtOp::VmergeVvm(..)
                            | DtOp::VmvVX(..)
                            | DtOp::VmvXS(..)
                            | DtOp::Vid(..)
                            | DtOp::Vpopc(..)
                    ),
                    "seed {seed}: vector op before vector label: {op:?}"
                );
            }
        }
    }
}
