//! A label-resolving program builder.
//!
//! The workload crates emit instruction streams through [`Assembler`] the
//! way a compiler with RVV intrinsics would: mnemonic-shaped methods append
//! instructions, string labels name positions, and [`Assembler::assemble`]
//! resolves every forward/backward reference into a [`Program`].
//!
//! ```
//! use bvl_isa::asm::Assembler;
//! use bvl_isa::reg::XReg;
//!
//! let (t0, t1) = (XReg::new(5), XReg::new(6));
//! let mut a = Assembler::new();
//! a.li(t0, 0);
//! a.li(t1, 10);
//! a.label("loop");
//! a.addi(t0, t0, 1);
//! a.bne(t0, t1, "loop");
//! a.halt();
//! let prog = a.assemble()?;
//! assert_eq!(prog.len(), 5);
//! # Ok::<(), bvl_isa::asm::AsmError>(())
//! ```

use crate::instr::{
    AluOp, AvlSrc, BranchOp, FpCmpOp, FpOp, FpPrec, Instr, MemWidth, VArithOp, VCmpOp, VMemMode,
    VRedOp, VSrc,
};
use crate::predecode::PreDecoded;
use crate::reg::{FReg, VReg, XReg};
use crate::vcfg::Sew;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An assembled program: resolved instructions plus its label table.
///
/// Equality and hashing ignore the lazily-built predecode cache.
#[derive(Clone, Debug, Default)]
pub struct Program {
    instrs: Vec<Instr>,
    labels: HashMap<String, u32>,
    /// Per-PC timing metadata, built on first use and shared by every
    /// core executing this program.
    pre: OnceLock<Arc<PreDecoded>>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.instrs == other.instrs && self.labels == other.labels
    }
}

impl Program {
    /// The resolved instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `idx`, if in range.
    pub fn get(&self, idx: usize) -> Option<&Instr> {
        self.instrs.get(idx)
    }

    /// Resolved index of a label, if defined.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }

    /// The predecoded per-PC metadata table, built once on first use.
    pub fn predecoded(&self) -> Arc<PreDecoded> {
        self.pre
            .get_or_init(|| Arc::new(PreDecoded::of(self)))
            .clone()
    }
}

impl std::ops::Index<usize> for Program {
    type Output = Instr;

    fn index(&self, idx: usize) -> &Instr {
        &self.instrs[idx]
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instr;
    type IntoIter = std::slice::Iter<'a, Instr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

/// Error produced by [`Assembler::assemble`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A branch or jump referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
        }
    }
}

impl std::error::Error for AsmError {}

/// A pending instruction: either fully resolved or waiting on a label.
#[derive(Clone, Debug)]
enum Pending {
    Done(Instr),
    Branch {
        op: BranchOp,
        rs1: XReg,
        rs2: XReg,
        label: String,
    },
    Jal {
        rd: XReg,
        label: String,
    },
}

/// Builds a [`Program`] incrementally with label resolution.
#[derive(Clone, Debug, Default)]
pub struct Assembler {
    pending: Vec<Pending>,
    labels: HashMap<String, u32>,
    duplicate: Option<String>,
    unique_counter: u64,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Appends an already-resolved instruction.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.pending.push(Pending::Done(instr));
        self
    }

    /// Defines `name` at the current position.
    ///
    /// Duplicate definitions are reported by [`Assembler::assemble`].
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        let here = self.pending.len() as u32;
        if self.labels.insert(name.clone(), here).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name);
        }
        self
    }

    /// Returns a fresh label name derived from `stem`, guaranteed unique
    /// within this assembler. Useful for helper functions that emit the same
    /// loop shape repeatedly.
    pub fn unique_label(&mut self, stem: &str) -> String {
        self.unique_counter += 1;
        format!("{stem}${}", self.unique_counter)
    }

    /// Resolves all label references and returns the program.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UndefinedLabel`] if a branch target was never
    /// defined, or [`AsmError::DuplicateLabel`] if a label was bound twice.
    pub fn assemble(&self) -> Result<Program, AsmError> {
        if let Some(d) = &self.duplicate {
            return Err(AsmError::DuplicateLabel(d.clone()));
        }
        let mut instrs = Vec::with_capacity(self.pending.len());
        for p in &self.pending {
            let instr = match p {
                Pending::Done(i) => *i,
                Pending::Branch {
                    op,
                    rs1,
                    rs2,
                    label,
                } => {
                    let target = *self
                        .labels
                        .get(label)
                        .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
                    Instr::Branch {
                        op: *op,
                        rs1: *rs1,
                        rs2: *rs2,
                        target,
                    }
                }
                Pending::Jal { rd, label } => {
                    let target = *self
                        .labels
                        .get(label)
                        .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
                    Instr::Jal { rd: *rd, target }
                }
            };
            instrs.push(instr);
        }
        Ok(Program {
            instrs,
            labels: self.labels.clone(),
            pre: OnceLock::new(),
        })
    }

    // ----- scalar integer -----

    /// `rd = rs1 op rs2` for a register-register ALU operation.
    pub fn op(&mut self, op: AluOp, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.push(Instr::Op { op, rd, rs1, rs2 })
    }

    /// `rd = rs1 op imm` for a register-immediate ALU operation.
    pub fn op_imm(&mut self, op: AluOp, rd: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.push(Instr::OpImm { op, rd, rs1, imm })
    }

    /// `rd = rs1 + rs2`.
    pub fn add(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::Add, rd, rs1, rs2)
    }

    /// `rd = rs1 + imm`.
    pub fn addi(&mut self, rd: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.op_imm(AluOp::Add, rd, rs1, imm)
    }

    /// `rd = rs1 - rs2`.
    pub fn sub(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::Sub, rd, rs1, rs2)
    }

    /// `rd = rs1 * rs2` (low 64 bits).
    pub fn mul(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::Mul, rd, rs1, rs2)
    }

    /// `rd = rs1 / rs2` (signed).
    pub fn div(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::Div, rd, rs1, rs2)
    }

    /// `rd = rs1 % rs2` (signed).
    pub fn rem(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::Rem, rd, rs1, rs2)
    }

    /// `rd = rs1 << imm`.
    pub fn slli(&mut self, rd: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.op_imm(AluOp::Sll, rd, rs1, imm)
    }

    /// `rd = rs1 >> imm` (logical).
    pub fn srli(&mut self, rd: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.op_imm(AluOp::Srl, rd, rs1, imm)
    }

    /// `rd = rs1 >> imm` (arithmetic).
    pub fn srai(&mut self, rd: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.op_imm(AluOp::Sra, rd, rs1, imm)
    }

    /// `rd = rs1 & imm`.
    pub fn andi(&mut self, rd: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.op_imm(AluOp::And, rd, rs1, imm)
    }

    /// `rd = rs1 & rs2`.
    pub fn and(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::And, rd, rs1, rs2)
    }

    /// `rd = rs1 | rs2`.
    pub fn or(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::Or, rd, rs1, rs2)
    }

    /// `rd = rs1 ^ rs2`.
    pub fn xor(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::Xor, rd, rs1, rs2)
    }

    /// `rd = (rs1 < rs2) ? 1 : 0` (signed).
    pub fn slt(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::Slt, rd, rs1, rs2)
    }

    /// `rd = imm` (pseudo; counted as one instruction — see crate docs).
    pub fn li(&mut self, rd: XReg, imm: i64) -> &mut Self {
        self.op_imm(AluOp::Add, rd, XReg::ZERO, imm)
    }

    /// `rd = rs1` (pseudo for `addi rd, rs1, 0`).
    pub fn mv(&mut self, rd: XReg, rs1: XReg) -> &mut Self {
        self.addi(rd, rs1, 0)
    }

    /// Scalar load (signed widths use sign extension).
    pub fn load(
        &mut self,
        rd: XReg,
        rs1: XReg,
        imm: i64,
        width: MemWidth,
        signed: bool,
    ) -> &mut Self {
        self.push(Instr::Load {
            rd,
            rs1,
            imm,
            width,
            signed,
        })
    }

    /// `lw rd, imm(rs1)`.
    pub fn lw(&mut self, rd: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.load(rd, rs1, imm, MemWidth::W, true)
    }

    /// `ld rd, imm(rs1)`.
    pub fn ld(&mut self, rd: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.load(rd, rs1, imm, MemWidth::D, true)
    }

    /// `lbu rd, imm(rs1)`.
    pub fn lbu(&mut self, rd: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.load(rd, rs1, imm, MemWidth::B, false)
    }

    /// Scalar store.
    pub fn store(&mut self, rs2: XReg, rs1: XReg, imm: i64, width: MemWidth) -> &mut Self {
        self.push(Instr::Store {
            rs2,
            rs1,
            imm,
            width,
        })
    }

    /// `sw rs2, imm(rs1)`.
    pub fn sw(&mut self, rs2: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.store(rs2, rs1, imm, MemWidth::W)
    }

    /// `sd rs2, imm(rs1)`.
    pub fn sd(&mut self, rs2: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.store(rs2, rs1, imm, MemWidth::D)
    }

    /// `sb rs2, imm(rs1)`.
    pub fn sb(&mut self, rs2: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.store(rs2, rs1, imm, MemWidth::B)
    }

    // ----- branches & jumps -----

    /// Conditional branch to `label`.
    pub fn branch(
        &mut self,
        op: BranchOp,
        rs1: XReg,
        rs2: XReg,
        label: impl Into<String>,
    ) -> &mut Self {
        self.pending.push(Pending::Branch {
            op,
            rs1,
            rs2,
            label: label.into(),
        });
        self
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: XReg, rs2: XReg, label: impl Into<String>) -> &mut Self {
        self.branch(BranchOp::Eq, rs1, rs2, label)
    }

    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: XReg, rs2: XReg, label: impl Into<String>) -> &mut Self {
        self.branch(BranchOp::Ne, rs1, rs2, label)
    }

    /// `blt rs1, rs2, label` (signed).
    pub fn blt(&mut self, rs1: XReg, rs2: XReg, label: impl Into<String>) -> &mut Self {
        self.branch(BranchOp::Lt, rs1, rs2, label)
    }

    /// `bge rs1, rs2, label` (signed).
    pub fn bge(&mut self, rs1: XReg, rs2: XReg, label: impl Into<String>) -> &mut Self {
        self.branch(BranchOp::Ge, rs1, rs2, label)
    }

    /// `bltu rs1, rs2, label`.
    pub fn bltu(&mut self, rs1: XReg, rs2: XReg, label: impl Into<String>) -> &mut Self {
        self.branch(BranchOp::Ltu, rs1, rs2, label)
    }

    /// `bgeu rs1, rs2, label`.
    pub fn bgeu(&mut self, rs1: XReg, rs2: XReg, label: impl Into<String>) -> &mut Self {
        self.branch(BranchOp::Geu, rs1, rs2, label)
    }

    /// Unconditional jump to `label` (no link).
    pub fn j(&mut self, label: impl Into<String>) -> &mut Self {
        self.pending.push(Pending::Jal {
            rd: XReg::ZERO,
            label: label.into(),
        });
        self
    }

    /// Jump-and-link to `label`.
    pub fn jal(&mut self, rd: XReg, label: impl Into<String>) -> &mut Self {
        self.pending.push(Pending::Jal {
            rd,
            label: label.into(),
        });
        self
    }

    /// Indirect jump `pc = rs1 + imm` (instruction-index arithmetic).
    pub fn jalr(&mut self, rd: XReg, rs1: XReg, imm: i64) -> &mut Self {
        self.push(Instr::Jalr { rd, rs1, imm })
    }

    // ----- scalar floating point (single precision helpers) -----

    /// FP computational op at the given precision.
    pub fn fp_op(&mut self, op: FpOp, prec: FpPrec, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.push(Instr::FpOp {
            op,
            prec,
            rd,
            rs1,
            rs2,
        })
    }

    /// `fadd.s rd, rs1, rs2`.
    pub fn fadd_s(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOp::Add, FpPrec::S, rd, rs1, rs2)
    }

    /// `fsub.s rd, rs1, rs2`.
    pub fn fsub_s(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOp::Sub, FpPrec::S, rd, rs1, rs2)
    }

    /// `fmul.s rd, rs1, rs2`.
    pub fn fmul_s(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOp::Mul, FpPrec::S, rd, rs1, rs2)
    }

    /// `fdiv.s rd, rs1, rs2`.
    pub fn fdiv_s(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOp::Div, FpPrec::S, rd, rs1, rs2)
    }

    /// `fsqrt.s rd, rs1`.
    pub fn fsqrt_s(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.fp_op(FpOp::Sqrt, FpPrec::S, rd, rs1, rs1)
    }

    /// `fabs.s rd, rs1` (pseudo for `fsgnjx.s rd, rs1, rs1`).
    pub fn fabs_s(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.fp_op(FpOp::Sgnjx, FpPrec::S, rd, rs1, rs1)
    }

    /// `fmv.s rd, rs1` (pseudo for `fsgnj.s rd, rs1, rs1`).
    pub fn fmv_s(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.fp_op(FpOp::Sgnj, FpPrec::S, rd, rs1, rs1)
    }

    /// `fmadd.s rd, rs1, rs2, rs3` (`rd = rs1 * rs2 + rs3`).
    pub fn fmadd_s(&mut self, rd: FReg, rs1: FReg, rs2: FReg, rs3: FReg) -> &mut Self {
        self.push(Instr::FpFma {
            prec: FpPrec::S,
            rd,
            rs1,
            rs2,
            rs3,
        })
    }

    /// FP comparison writing 0/1 into an integer register.
    pub fn fp_cmp(&mut self, op: FpCmpOp, rd: XReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.push(Instr::FpCmp {
            op,
            prec: FpPrec::S,
            rd,
            rs1,
            rs2,
        })
    }

    /// `flt.s rd, rs1, rs2`.
    pub fn flt_s(&mut self, rd: XReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_cmp(FpCmpOp::Lt, rd, rs1, rs2)
    }

    /// `fle.s rd, rs1, rs2`.
    pub fn fle_s(&mut self, rd: XReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_cmp(FpCmpOp::Le, rd, rs1, rs2)
    }

    /// `flw rd, imm(rs1)`.
    pub fn flw(&mut self, rd: FReg, rs1: XReg, imm: i64) -> &mut Self {
        self.push(Instr::FpLoad {
            rd,
            rs1,
            imm,
            prec: FpPrec::S,
        })
    }

    /// `fsw rs2, imm(rs1)`.
    pub fn fsw(&mut self, rs2: FReg, rs1: XReg, imm: i64) -> &mut Self {
        self.push(Instr::FpStore {
            rs2,
            rs1,
            imm,
            prec: FpPrec::S,
        })
    }

    /// `fcvt.s.w rd, rs1` (signed int -> f32).
    pub fn fcvt_s_w(&mut self, rd: FReg, rs1: XReg) -> &mut Self {
        self.push(Instr::FpCvtFromInt {
            prec: FpPrec::S,
            rd,
            rs1,
        })
    }

    /// `fmv.w.x rd, rs1` (raw bit move int -> fp).
    pub fn fmv_w_x(&mut self, rd: FReg, rs1: XReg) -> &mut Self {
        self.push(Instr::FpMvFromInt {
            prec: FpPrec::S,
            rd,
            rs1,
        })
    }

    /// `fmv.x.w rd, rs1` (raw bit move fp -> int).
    pub fn fmv_x_w(&mut self, rd: XReg, rs1: FReg) -> &mut Self {
        self.push(Instr::FpMvToInt {
            prec: FpPrec::S,
            rd,
            rs1,
        })
    }

    // ----- vector -----

    /// `vsetvli rd, rs1, sew` — request AVL from a register.
    pub fn vsetvli(&mut self, rd: XReg, avl: XReg, sew: Sew) -> &mut Self {
        self.push(Instr::VSetVl {
            rd,
            avl: AvlSrc::Reg(avl),
            sew,
        })
    }

    /// `vsetivli rd, imm, sew` — request an immediate AVL.
    pub fn vsetivli(&mut self, rd: XReg, avl: u32, sew: Sew) -> &mut Self {
        self.push(Instr::VSetVl {
            rd,
            avl: AvlSrc::Imm(avl),
            sew,
        })
    }

    /// Unit-stride vector load (`vle<sew>.v vd, (base)`).
    pub fn vle(&mut self, vd: VReg, base: XReg) -> &mut Self {
        self.push(Instr::VLoad {
            vd,
            base,
            mode: VMemMode::Unit,
            masked: false,
        })
    }

    /// Masked unit-stride vector load.
    pub fn vle_m(&mut self, vd: VReg, base: XReg) -> &mut Self {
        self.push(Instr::VLoad {
            vd,
            base,
            mode: VMemMode::Unit,
            masked: true,
        })
    }

    /// Constant-stride vector load (`vlse.v vd, (base), stride`).
    pub fn vlse(&mut self, vd: VReg, base: XReg, stride: XReg) -> &mut Self {
        self.push(Instr::VLoad {
            vd,
            base,
            mode: VMemMode::Strided(stride),
            masked: false,
        })
    }

    /// Indexed-gather vector load (`vluxei.v vd, (base), vidx`).
    pub fn vluxei(&mut self, vd: VReg, base: XReg, vidx: VReg) -> &mut Self {
        self.push(Instr::VLoad {
            vd,
            base,
            mode: VMemMode::Indexed(vidx),
            masked: false,
        })
    }

    /// Masked indexed-gather vector load.
    pub fn vluxei_m(&mut self, vd: VReg, base: XReg, vidx: VReg) -> &mut Self {
        self.push(Instr::VLoad {
            vd,
            base,
            mode: VMemMode::Indexed(vidx),
            masked: true,
        })
    }

    /// Unit-stride vector store (`vse.v vs3, (base)`).
    pub fn vse(&mut self, vs3: VReg, base: XReg) -> &mut Self {
        self.push(Instr::VStore {
            vs3,
            base,
            mode: VMemMode::Unit,
            masked: false,
        })
    }

    /// Masked unit-stride vector store.
    pub fn vse_m(&mut self, vs3: VReg, base: XReg) -> &mut Self {
        self.push(Instr::VStore {
            vs3,
            base,
            mode: VMemMode::Unit,
            masked: true,
        })
    }

    /// Constant-stride vector store.
    pub fn vsse(&mut self, vs3: VReg, base: XReg, stride: XReg) -> &mut Self {
        self.push(Instr::VStore {
            vs3,
            base,
            mode: VMemMode::Strided(stride),
            masked: false,
        })
    }

    /// Indexed-scatter vector store.
    pub fn vsuxei(&mut self, vs3: VReg, base: XReg, vidx: VReg) -> &mut Self {
        self.push(Instr::VStore {
            vs3,
            base,
            mode: VMemMode::Indexed(vidx),
            masked: false,
        })
    }

    /// Masked indexed-scatter vector store.
    pub fn vsuxei_m(&mut self, vs3: VReg, base: XReg, vidx: VReg) -> &mut Self {
        self.push(Instr::VStore {
            vs3,
            base,
            mode: VMemMode::Indexed(vidx),
            masked: true,
        })
    }

    /// Generic element-wise vector arithmetic.
    pub fn varith(
        &mut self,
        op: VArithOp,
        vd: VReg,
        src1: VSrc,
        vs2: VReg,
        masked: bool,
    ) -> &mut Self {
        self.push(Instr::VArith {
            op,
            vd,
            src1,
            vs2,
            masked,
        })
    }

    /// `vadd.vv vd, vs2, vs1`.
    pub fn vadd_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::Add, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vadd.vx vd, vs2, rs1`.
    pub fn vadd_vx(&mut self, vd: VReg, vs2: VReg, rs1: XReg) -> &mut Self {
        self.varith(VArithOp::Add, vd, VSrc::X(rs1), vs2, false)
    }

    /// `vsub.vv vd, vs2, vs1` (`vd = vs2 - vs1`).
    pub fn vsub_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::Sub, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vmul.vv vd, vs2, vs1`.
    pub fn vmul_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::Mul, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vsll.vi vd, vs2, imm`.
    pub fn vsll_vi(&mut self, vd: VReg, vs2: VReg, imm: i64) -> &mut Self {
        self.varith(VArithOp::Sll, vd, VSrc::I(imm), vs2, false)
    }

    /// `vand.vv vd, vs2, vs1`.
    pub fn vand_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::And, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vmin.vv vd, vs2, vs1` (signed).
    pub fn vmin_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::Min, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vmax.vv vd, vs2, vs1` (signed).
    pub fn vmax_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::Max, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vmax.vx vd, vs2, rs1`.
    pub fn vmax_vx(&mut self, vd: VReg, vs2: VReg, rs1: XReg) -> &mut Self {
        self.varith(VArithOp::Max, vd, VSrc::X(rs1), vs2, false)
    }

    /// `vfadd.vv vd, vs2, vs1`.
    pub fn vfadd_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::FAdd, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vfsub.vv vd, vs2, vs1` (`vd = vs2 - vs1`).
    pub fn vfsub_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::FSub, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vfmul.vv vd, vs2, vs1`.
    pub fn vfmul_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::FMul, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vfmul.vf vd, vs2, fs1`.
    pub fn vfmul_vf(&mut self, vd: VReg, vs2: VReg, fs1: FReg) -> &mut Self {
        self.varith(VArithOp::FMul, vd, VSrc::F(fs1), vs2, false)
    }

    /// `vfdiv.vv vd, vs2, vs1`.
    pub fn vfdiv_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::FDiv, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vfsqrt.v vd, vs2`.
    pub fn vfsqrt_v(&mut self, vd: VReg, vs2: VReg) -> &mut Self {
        self.varith(VArithOp::FSqrt, vd, VSrc::V(vs2), vs2, false)
    }

    /// `vfmacc.vv vd, vs1, vs2` (`vd += vs1 * vs2`).
    pub fn vfmacc_vv(&mut self, vd: VReg, vs1: VReg, vs2: VReg) -> &mut Self {
        self.varith(VArithOp::FMacc, vd, VSrc::V(vs1), vs2, false)
    }

    /// `vfmacc.vf vd, fs1, vs2` (`vd += fs1 * vs2`).
    pub fn vfmacc_vf(&mut self, vd: VReg, fs1: FReg, vs2: VReg) -> &mut Self {
        self.varith(VArithOp::FMacc, vd, VSrc::F(fs1), vs2, false)
    }

    /// `vmerge.vvm vd, vs2, vs1, v0` (`vd[i] = v0[i] ? vs1[i] : vs2[i]`).
    pub fn vmerge_vvm(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.varith(VArithOp::Merge, vd, VSrc::V(vs1), vs2, true)
    }

    /// Generic vector comparison into a mask register.
    pub fn vcmp(&mut self, op: VCmpOp, vd: VReg, vs2: VReg, src1: VSrc) -> &mut Self {
        self.push(Instr::VCmp {
            op,
            vd,
            vs2,
            src1,
            masked: false,
        })
    }

    /// `vmseq.vx vd, vs2, rs1`.
    pub fn vmseq_vx(&mut self, vd: VReg, vs2: VReg, rs1: XReg) -> &mut Self {
        self.vcmp(VCmpOp::Eq, vd, vs2, VSrc::X(rs1))
    }

    /// `vmslt.vv vd, vs2, vs1` (`vd[i] = vs2[i] < vs1[i]`).
    pub fn vmslt_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.vcmp(VCmpOp::Lt, vd, vs2, VSrc::V(vs1))
    }

    /// `vmflt.vv vd, vs2, vs1` (FP less-than).
    pub fn vmflt_vv(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.vcmp(VCmpOp::FLt, vd, vs2, VSrc::V(vs1))
    }

    /// `vredsum.vs vd, vs2, vs1`.
    pub fn vredsum(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.push(Instr::VRed {
            op: VRedOp::Sum,
            vd,
            vs2,
            vs1,
            masked: false,
        })
    }

    /// `vredmax.vs vd, vs2, vs1` (signed).
    pub fn vredmax(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.push(Instr::VRed {
            op: VRedOp::Max,
            vd,
            vs2,
            vs1,
            masked: false,
        })
    }

    /// `vredmin.vs vd, vs2, vs1` (signed).
    pub fn vredmin(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.push(Instr::VRed {
            op: VRedOp::Min,
            vd,
            vs2,
            vs1,
            masked: false,
        })
    }

    /// `vfredosum.vs vd, vs2, vs1` (ordered FP sum).
    pub fn vfredosum(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.push(Instr::VRed {
            op: VRedOp::FSum,
            vd,
            vs2,
            vs1,
            masked: false,
        })
    }

    /// `vfredmax.vs vd, vs2, vs1`.
    pub fn vfredmax(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.push(Instr::VRed {
            op: VRedOp::FMax,
            vd,
            vs2,
            vs1,
            masked: false,
        })
    }

    /// `vcpop.m rd, vs2` — mask population count.
    pub fn vpopc(&mut self, rd: XReg, vs2: VReg) -> &mut Self {
        self.push(Instr::VPopc { rd, vs2 })
    }

    /// `vfirst.m rd, vs2` — index of first set bit or -1.
    pub fn vfirst(&mut self, rd: XReg, vs2: VReg) -> &mut Self {
        self.push(Instr::VFirst { rd, vs2 })
    }

    /// `vrgather.vv vd, vs2, vs1`.
    pub fn vrgather(&mut self, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.push(Instr::VRgather { vd, vs2, vs1 })
    }

    /// `vslideup.vx vd, vs2, rs1`.
    pub fn vslideup(&mut self, vd: VReg, vs2: VReg, amt: XReg) -> &mut Self {
        self.push(Instr::VSlideUp { vd, vs2, amt })
    }

    /// `vslidedown.vx vd, vs2, rs1`.
    pub fn vslidedown(&mut self, vd: VReg, vs2: VReg, amt: XReg) -> &mut Self {
        self.push(Instr::VSlideDown { vd, vs2, amt })
    }

    /// `vmv.v.x vd, rs1` — splat scalar.
    pub fn vmv_v_x(&mut self, vd: VReg, rs1: XReg) -> &mut Self {
        self.push(Instr::VMvVX { vd, rs1 })
    }

    /// `vfmv.v.f vd, fs1` — splat scalar float.
    pub fn vfmv_v_f(&mut self, vd: VReg, fs1: FReg) -> &mut Self {
        self.push(Instr::VFMvVF { vd, fs1 })
    }

    /// `vmv.v.v vd, vs2` — vector copy.
    pub fn vmv_v_v(&mut self, vd: VReg, vs2: VReg) -> &mut Self {
        self.push(Instr::VMvVV { vd, vs2 })
    }

    /// `vmv.x.s rd, vs2` — element 0 to scalar.
    pub fn vmv_x_s(&mut self, rd: XReg, vs2: VReg) -> &mut Self {
        self.push(Instr::VMvXS { rd, vs2 })
    }

    /// `vfmv.f.s rd, vs2` — element 0 to scalar float.
    pub fn vfmv_f_s(&mut self, rd: FReg, vs2: VReg) -> &mut Self {
        self.push(Instr::VFMvFS { rd, vs2 })
    }

    /// `vmv.s.x vd, rs1` — scalar to element 0.
    pub fn vmv_s_x(&mut self, vd: VReg, rs1: XReg) -> &mut Self {
        self.push(Instr::VMvSX { vd, rs1 })
    }

    /// `vid.v vd` — element indices.
    pub fn vid(&mut self, vd: VReg) -> &mut Self {
        self.push(Instr::VId { vd, masked: false })
    }

    /// `vmfence` — vector/scalar memory fence (paper section III-B).
    pub fn vmfence(&mut self) -> &mut Self {
        self.push(Instr::VmFence)
    }

    /// `halt` — end of program.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }

    /// `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Assembler::new();
        a.j("end"); // forward
        a.label("loop");
        a.nop();
        a.bne(XReg::new(1), XReg::new(2), "loop"); // backward
        a.label("end");
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(
            p[0],
            Instr::Jal {
                rd: XReg::ZERO,
                target: 3
            }
        );
        match p[2] {
            Instr::Branch { target, .. } => assert_eq!(target, 1),
            ref other => panic!("expected branch, got {other:?}"),
        }
        assert_eq!(p.label("end"), Some(3));
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Assembler::new();
        a.j("nowhere");
        assert_eq!(
            a.assemble(),
            Err(AsmError::UndefinedLabel("nowhere".into()))
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Assembler::new();
        a.label("x");
        a.nop();
        a.label("x");
        a.halt();
        assert_eq!(a.assemble(), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn unique_labels_are_unique() {
        let mut a = Assembler::new();
        let l1 = a.unique_label("loop");
        let l2 = a.unique_label("loop");
        assert_ne!(l1, l2);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            AsmError::UndefinedLabel("foo".into()).to_string(),
            "undefined label `foo`"
        );
    }
}
