//! The instruction set: an RV64 scalar subset plus an RVV 1.0 vector subset.
//!
//! Instructions are represented structurally (an enum), not as raw bits:
//! no simulated path holds an instruction word. `Display` prints the
//! disassembly, and [`crate::snap`] holds the one binary form, the
//! checkpoint encoding. Branch and jump targets are *resolved instruction
//! indices* produced by the [`crate::asm::Assembler`]; the timing models
//! map index `i` to the nominal byte address `text_base + 4 * i` when
//! modeling instruction fetch.

use crate::reg::{FReg, VReg, XReg};
use crate::vcfg::Sew;
use std::fmt;

/// Width of a scalar memory access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl MemWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }
}

/// Scalar integer register-register / register-immediate ALU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction (register form only).
    Sub,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Set-if-less-than, signed.
    Slt,
    /// Set-if-less-than, unsigned.
    Sltu,
    /// 64x64 -> low 64 multiply (M extension; register form only).
    Mul,
    /// Signed division (register form only).
    Div,
    /// Unsigned division (register form only).
    Divu,
    /// Signed remainder (register form only).
    Rem,
    /// Unsigned remainder (register form only).
    Remu,
}

impl AluOp {
    /// True for multiply/divide/remainder ops (long-latency in the cores).
    pub const fn is_muldiv(self) -> bool {
        matches!(
            self,
            AluOp::Mul | AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu
        )
    }
}

/// Floating-point precision of a scalar or vector FP operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FpPrec {
    /// IEEE-754 binary32.
    #[default]
    S,
    /// IEEE-754 binary64.
    D,
}

/// Scalar floating-point computational operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Square root (unary; `rs2` ignored).
    Sqrt,
    /// Sign injection (`fsgnj`): magnitude of `rs1`, sign of `rs2`.
    Sgnj,
    /// Negated sign injection (`fsgnjn`): `fneg` when `rs1 == rs2`.
    Sgnjn,
    /// XORed sign injection (`fsgnjx`): `fabs` when `rs1 == rs2`.
    Sgnjx,
}

/// Scalar floating-point comparison writing 0/1 to an integer register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpCmpOp {
    /// Equal.
    Eq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
}

/// Branch condition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

/// Source of the application vector length for `vsetvl`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AvlSrc {
    /// AVL read from a scalar register.
    Reg(XReg),
    /// Immediate AVL (`vsetivli`).
    Imm(u32),
}

/// Addressing mode of a vector memory instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VMemMode {
    /// Unit-stride: consecutive elements at `base + i * sew`.
    Unit,
    /// Constant-stride: byte stride read from a scalar register.
    Strided(XReg),
    /// Indexed (gather/scatter): per-element byte offsets from a vector
    /// register, `base + vidx[i]`.
    Indexed(VReg),
}

impl VMemMode {
    /// True for indexed (gather/scatter) accesses, whose addresses are only
    /// known inside the vector engine (per-element translation, paper
    /// section III-E).
    pub const fn is_indexed(self) -> bool {
        matches!(self, VMemMode::Indexed(_))
    }
}

/// Second source operand of a vector arithmetic instruction (`.vv`, `.vx`,
/// `.vf`, `.vi` forms).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VSrc {
    /// Vector register.
    V(VReg),
    /// Scalar integer register (splatted).
    X(XReg),
    /// Scalar floating-point register (splatted).
    F(FReg),
    /// Immediate (splatted).
    I(i64),
}

impl VSrc {
    /// The scalar integer register carried by this operand, if any.
    pub const fn xreg(self) -> Option<XReg> {
        match self {
            VSrc::X(x) => Some(x),
            _ => None,
        }
    }

    /// The scalar FP register carried by this operand, if any.
    pub const fn freg(self) -> Option<FReg> {
        match self {
            VSrc::F(f) => Some(f),
            _ => None,
        }
    }
}

/// Vector arithmetic operation (element-wise).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VArithOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiply (low).
    Mul,
    /// Signed integer division.
    Div,
    /// Unsigned integer division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// FP addition.
    FAdd,
    /// FP subtraction.
    FSub,
    /// FP multiplication.
    FMul,
    /// FP division.
    FDiv,
    /// FP minimum.
    FMin,
    /// FP maximum.
    FMax,
    /// FP square root (unary: `src1` ignored).
    FSqrt,
    /// FP fused multiply-accumulate: `vd[i] += src1[i] * vs2[i]`.
    FMacc,
    /// FP negated sign: `vd[i] = -vs2[i]` (unary).
    FNeg,
    /// FP absolute value (unary).
    FAbs,
    /// Mask merge: `vd[i] = mask[i] ? src1[i] : vs2[i]` (always uses `v0`).
    Merge,
}

impl VArithOp {
    /// True for floating-point element operations.
    pub const fn is_fp(self) -> bool {
        matches!(
            self,
            VArithOp::FAdd
                | VArithOp::FSub
                | VArithOp::FMul
                | VArithOp::FDiv
                | VArithOp::FMin
                | VArithOp::FMax
                | VArithOp::FSqrt
                | VArithOp::FMacc
                | VArithOp::FNeg
                | VArithOp::FAbs
        )
    }

    /// True for long-latency element operations (mul/div/sqrt and all FP):
    /// these serialize packed sub-word elements in the little cores (paper
    /// section III-C) and occupy the long-latency functional unit.
    pub const fn is_long_latency(self) -> bool {
        self.is_fp()
            || matches!(
                self,
                VArithOp::Mul | VArithOp::Div | VArithOp::Divu | VArithOp::Rem
            )
    }

    /// True for unary operations (only `vs2` is a real source).
    pub const fn is_unary(self) -> bool {
        matches!(self, VArithOp::FSqrt | VArithOp::FNeg | VArithOp::FAbs)
    }
}

/// Vector comparison writing a mask register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VCmpOp {
    /// Integer equal.
    Eq,
    /// Integer not-equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// FP equal.
    FEq,
    /// FP less-than.
    FLt,
    /// FP less-or-equal.
    FLe,
}

/// Vector reduction operation (cross-element; executes via the VXU in the
/// VLITTLE engine).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VRedOp {
    /// Integer sum reduction (`vredsum`).
    Sum,
    /// Integer minimum reduction.
    Min,
    /// Integer maximum reduction.
    Max,
    /// FP sum reduction (`vfredosum`, ordered).
    FSum,
    /// FP minimum reduction.
    FMin,
    /// FP maximum reduction.
    FMax,
}

impl VRedOp {
    /// True for floating-point reductions.
    pub const fn is_fp(self) -> bool {
        matches!(self, VRedOp::FSum | VRedOp::FMin | VRedOp::FMax)
    }
}

/// Mask-register logical operation (`vmand.mm` etc.).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VMaskOp {
    /// AND of two masks.
    And,
    /// OR of two masks.
    Or,
    /// XOR of two masks.
    Xor,
    /// AND-NOT (`vmandn`): `vs1 & !vs2`.
    AndNot,
    /// NOT via `vmnand` of a mask with itself.
    Not,
}

/// One instruction of the modeled ISA.
///
/// Scalar variants mirror RV64IMFD; vector variants mirror the RVV 1.0
/// subset exercised by the paper's workloads (unit/strided/indexed memory,
/// element arithmetic, comparisons, reductions, permutations, mask ops and
/// the `vmfence` scalar/vector ordering fence of section III-B).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Instr {
    // ----- scalar integer -----
    /// Register-register ALU operation.
    Op {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: XReg,
        /// First source.
        rs1: XReg,
        /// Second source.
        rs2: XReg,
    },
    /// Register-immediate ALU operation (Sub/Mul/Div/Rem are not valid
    /// immediate forms).
    OpImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: XReg,
        /// Source.
        rs1: XReg,
        /// Sign-extended immediate.
        imm: i64,
    },
    /// Load upper immediate (`rd = imm << 12`).
    Lui {
        /// Destination.
        rd: XReg,
        /// Upper-immediate value (placed at bit 12).
        imm: i64,
    },
    /// Scalar load: `rd = mem[rs1 + imm]`.
    Load {
        /// Destination.
        rd: XReg,
        /// Base address register.
        rs1: XReg,
        /// Byte offset.
        imm: i64,
        /// Access width.
        width: MemWidth,
        /// Sign-extend the loaded value.
        signed: bool,
    },
    /// Scalar store: `mem[rs1 + imm] = rs2`.
    Store {
        /// Value source.
        rs2: XReg,
        /// Base address register.
        rs1: XReg,
        /// Byte offset.
        imm: i64,
        /// Access width.
        width: MemWidth,
    },
    /// Conditional branch to a resolved instruction index.
    Branch {
        /// Condition.
        op: BranchOp,
        /// First compare source.
        rs1: XReg,
        /// Second compare source.
        rs2: XReg,
        /// Target instruction index.
        target: u32,
    },
    /// Unconditional jump; `rd` receives the return index + 1 (link).
    Jal {
        /// Link destination (use `x0` for a plain jump).
        rd: XReg,
        /// Target instruction index.
        target: u32,
    },
    /// Indirect jump: `pc = rs1 + imm` (instruction-index arithmetic).
    Jalr {
        /// Link destination.
        rd: XReg,
        /// Target base register.
        rs1: XReg,
        /// Index offset.
        imm: i64,
    },

    // ----- scalar floating point -----
    /// FP computational operation.
    FpOp {
        /// Operation.
        op: FpOp,
        /// Precision.
        prec: FpPrec,
        /// Destination.
        rd: FReg,
        /// First source.
        rs1: FReg,
        /// Second source (ignored by unary ops).
        rs2: FReg,
    },
    /// FP fused multiply-add: `rd = rs1 * rs2 + rs3`.
    FpFma {
        /// Precision.
        prec: FpPrec,
        /// Destination.
        rd: FReg,
        /// Multiplicand.
        rs1: FReg,
        /// Multiplier.
        rs2: FReg,
        /// Addend.
        rs3: FReg,
    },
    /// FP comparison to an integer register (0/1).
    FpCmp {
        /// Comparison.
        op: FpCmpOp,
        /// Precision.
        prec: FpPrec,
        /// Destination (integer).
        rd: XReg,
        /// First source.
        rs1: FReg,
        /// Second source.
        rs2: FReg,
    },
    /// FP load.
    FpLoad {
        /// Destination.
        rd: FReg,
        /// Base address register.
        rs1: XReg,
        /// Byte offset.
        imm: i64,
        /// Precision (S = 4 bytes, D = 8 bytes).
        prec: FpPrec,
    },
    /// FP store.
    FpStore {
        /// Value source.
        rs2: FReg,
        /// Base address register.
        rs1: XReg,
        /// Byte offset.
        imm: i64,
        /// Precision.
        prec: FpPrec,
    },
    /// Convert signed integer to FP: `rd = (fp) rs1`.
    FpCvtFromInt {
        /// Precision of the result.
        prec: FpPrec,
        /// Destination.
        rd: FReg,
        /// Integer source.
        rs1: XReg,
    },
    /// Convert FP to signed integer (truncating): `rd = (i64) rs1`.
    FpCvtToInt {
        /// Precision of the source.
        prec: FpPrec,
        /// Integer destination.
        rd: XReg,
        /// FP source.
        rs1: FReg,
    },
    /// Move raw bits from integer to FP register.
    FpMvFromInt {
        /// Precision (S moves low 32 bits).
        prec: FpPrec,
        /// Destination.
        rd: FReg,
        /// Source.
        rs1: XReg,
    },
    /// Move raw bits from FP to integer register.
    FpMvToInt {
        /// Precision.
        prec: FpPrec,
        /// Destination.
        rd: XReg,
        /// Source.
        rs1: FReg,
    },

    // ----- vector configuration & memory -----
    /// `vsetvl`: set `vl`/`sew`, returning the granted `vl` in `rd`.
    VSetVl {
        /// Destination for the granted vl.
        rd: XReg,
        /// Application vector length.
        avl: AvlSrc,
        /// Element width.
        sew: Sew,
    },
    /// Vector load (unit-stride, strided or indexed-gather).
    VLoad {
        /// Destination vector register.
        vd: VReg,
        /// Base address register.
        base: XReg,
        /// Addressing mode.
        mode: VMemMode,
        /// Execute under mask `v0`.
        masked: bool,
    },
    /// Vector store (unit-stride, strided or indexed-scatter).
    VStore {
        /// Data source vector register.
        vs3: VReg,
        /// Base address register.
        base: XReg,
        /// Addressing mode.
        mode: VMemMode,
        /// Execute under mask `v0`.
        masked: bool,
    },

    // ----- vector compute -----
    /// Element-wise arithmetic: `vd[i] = op(src1[i], vs2[i])`.
    VArith {
        /// Operation.
        op: VArithOp,
        /// Destination (also an accumulator source for `FMacc`).
        vd: VReg,
        /// First source (vector, splatted scalar, or immediate).
        src1: VSrc,
        /// Second source.
        vs2: VReg,
        /// Execute under mask `v0`.
        masked: bool,
    },
    /// Element-wise comparison writing mask bits to `vd`.
    VCmp {
        /// Comparison.
        op: VCmpOp,
        /// Mask destination.
        vd: VReg,
        /// First source (vector).
        vs2: VReg,
        /// Second source (vector, splatted scalar, or immediate).
        src1: VSrc,
        /// Execute under mask `v0`.
        masked: bool,
    },
    /// Reduction: `vd[0] = reduce(op, vs1[0], vs2[0..vl])`.
    VRed {
        /// Reduction operation.
        op: VRedOp,
        /// Destination (element 0 written).
        vd: VReg,
        /// Element source vector.
        vs2: VReg,
        /// Initial-value vector (element 0 read).
        vs1: VReg,
        /// Execute under mask `v0`.
        masked: bool,
    },
    /// Mask population count to a scalar register (`vcpop.m`).
    VPopc {
        /// Scalar destination.
        rd: XReg,
        /// Mask source.
        vs2: VReg,
    },
    /// Index of first set mask bit, or -1 (`vfirst.m`).
    VFirst {
        /// Scalar destination.
        rd: XReg,
        /// Mask source.
        vs2: VReg,
    },
    /// Mask-register logical operation.
    VMask {
        /// Operation.
        op: VMaskOp,
        /// Destination mask.
        vd: VReg,
        /// First source mask.
        vs1: VReg,
        /// Second source mask (ignored by `Not`).
        vs2: VReg,
    },

    // ----- vector permutation (cross-element; VXU in the VLITTLE engine) -----
    /// Register gather: `vd[i] = vs2[vs1[i]]` (out-of-range indices yield 0).
    VRgather {
        /// Destination.
        vd: VReg,
        /// Data source.
        vs2: VReg,
        /// Index source.
        vs1: VReg,
    },
    /// Slide up by a scalar amount: `vd[i + amt] = vs2[i]`.
    VSlideUp {
        /// Destination.
        vd: VReg,
        /// Source.
        vs2: VReg,
        /// Slide amount.
        amt: XReg,
    },
    /// Slide down by a scalar amount: `vd[i] = vs2[i + amt]`.
    VSlideDown {
        /// Destination.
        vd: VReg,
        /// Source.
        vs2: VReg,
        /// Slide amount.
        amt: XReg,
    },

    // ----- vector moves -----
    /// Splat a scalar integer: `vd[i] = rs1`.
    VMvVX {
        /// Destination.
        vd: VReg,
        /// Scalar source.
        rs1: XReg,
    },
    /// Splat a scalar float: `vd[i] = fs1`.
    VFMvVF {
        /// Destination.
        vd: VReg,
        /// Scalar FP source.
        fs1: FReg,
    },
    /// Vector-register copy: `vd = vs2` (`vmv.v.v`).
    VMvVV {
        /// Destination.
        vd: VReg,
        /// Source.
        vs2: VReg,
    },
    /// Element 0 to scalar integer register (`vmv.x.s`).
    VMvXS {
        /// Scalar destination.
        rd: XReg,
        /// Vector source.
        vs2: VReg,
    },
    /// Element 0 to scalar FP register (`vfmv.f.s`).
    VFMvFS {
        /// Scalar FP destination.
        rd: FReg,
        /// Vector source.
        vs2: VReg,
    },
    /// Scalar integer to element 0 (`vmv.s.x`).
    VMvSX {
        /// Vector destination.
        vd: VReg,
        /// Scalar source.
        rs1: XReg,
    },
    /// Element indices: `vd[i] = i` (`vid.v`).
    VId {
        /// Destination.
        vd: VReg,
        /// Execute under mask `v0`.
        masked: bool,
    },

    // ----- ordering & system -----
    /// Vector/scalar memory fence (paper section III-B): all older scalar
    /// and vector memory operations complete before any younger one issues.
    VmFence,
    /// Stop the hart. The simulator treats this as end-of-program.
    Halt,
    /// No operation.
    Nop,
}

impl Instr {
    /// True if this is a vector instruction dispatched to a vector engine.
    ///
    /// `vsetvl` is *not* in this set: its result depends only on the
    /// machine's constant VLMAX, so it executes in the scalar core like
    /// real RVV implementations do — routing it through the engine would
    /// add a scalar-response round trip to every strip-mine iteration and
    /// serialize the decoupling the architecture exists for.
    pub const fn is_vector(&self) -> bool {
        matches!(
            self,
            Instr::VLoad { .. }
                | Instr::VStore { .. }
                | Instr::VArith { .. }
                | Instr::VCmp { .. }
                | Instr::VRed { .. }
                | Instr::VPopc { .. }
                | Instr::VFirst { .. }
                | Instr::VMask { .. }
                | Instr::VRgather { .. }
                | Instr::VSlideUp { .. }
                | Instr::VSlideDown { .. }
                | Instr::VMvVX { .. }
                | Instr::VFMvVF { .. }
                | Instr::VMvVV { .. }
                | Instr::VMvXS { .. }
                | Instr::VFMvFS { .. }
                | Instr::VMvSX { .. }
                | Instr::VId { .. }
                | Instr::VmFence
        )
    }

    /// True if this vector instruction writes a *scalar* register, forcing
    /// the big core to hold it at the ROB head until the vector engine
    /// responds (paper section III-A).
    pub const fn vector_writes_scalar(&self) -> bool {
        matches!(
            self,
            Instr::VPopc { .. } | Instr::VFirst { .. } | Instr::VMvXS { .. } | Instr::VFMvFS { .. }
        )
    }

    /// The scalar integer register a vector instruction carries *into* the
    /// engine (the VCU's scalar DataQ entry), if any.
    pub fn vector_scalar_source(&self) -> Option<XReg> {
        match *self {
            Instr::VLoad { base, mode, .. }
            | Instr::VStore {
                vs3: _, base, mode, ..
            } => {
                // Base always carried; strided also carries the stride, but
                // one DataQ slot is modeled per instruction.
                let _ = mode;
                Some(base)
            }
            Instr::VArith { src1, .. } | Instr::VCmp { src1, .. } => src1.xreg(),
            Instr::VSlideUp { amt, .. } | Instr::VSlideDown { amt, .. } => Some(amt),
            Instr::VMvVX { rs1, .. } | Instr::VMvSX { rs1, .. } => Some(rs1),
            Instr::VSetVl {
                avl: AvlSrc::Reg(r),
                ..
            } => Some(r),
            _ => None,
        }
    }

    /// True if this is a cross-element vector instruction (reduction,
    /// permutation, or element-0-to-scalar move), which occupies the VXU
    /// in the VLITTLE engine.
    pub const fn is_cross_element(&self) -> bool {
        matches!(
            self,
            Instr::VRed { .. }
                | Instr::VRgather { .. }
                | Instr::VSlideUp { .. }
                | Instr::VSlideDown { .. }
                | Instr::VPopc { .. }
                | Instr::VFirst { .. }
                | Instr::VMvXS { .. }
                | Instr::VFMvFS { .. }
        )
    }

    /// True if this is a vector memory instruction.
    pub const fn is_vector_mem(&self) -> bool {
        matches!(self, Instr::VLoad { .. } | Instr::VStore { .. })
    }

    /// True if this is a scalar memory access (load or store, integer or FP).
    pub const fn is_scalar_mem(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::FpLoad { .. } | Instr::FpStore { .. }
        )
    }

    /// True for control-flow instructions (branches and jumps).
    pub const fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::disasm::disasm(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let vadd = Instr::VArith {
            op: VArithOp::Add,
            vd: VReg::new(1),
            src1: VSrc::V(VReg::new(2)),
            vs2: VReg::new(3),
            masked: false,
        };
        assert!(vadd.is_vector());
        assert!(!vadd.vector_writes_scalar());
        assert!(!vadd.is_cross_element());

        let vpopc = Instr::VPopc {
            rd: XReg::new(5),
            vs2: VReg::MASK,
        };
        assert!(vpopc.is_vector());
        assert!(vpopc.vector_writes_scalar());
        assert!(vpopc.is_cross_element());

        let add = Instr::Op {
            op: AluOp::Add,
            rd: XReg::new(1),
            rs1: XReg::new(2),
            rs2: XReg::new(3),
        };
        assert!(!add.is_vector());
        assert!(!add.is_scalar_mem());
    }

    #[test]
    fn scalar_sources_for_dataq() {
        let vload = Instr::VLoad {
            vd: VReg::new(1),
            base: XReg::new(10),
            mode: VMemMode::Unit,
            masked: false,
        };
        assert_eq!(vload.vector_scalar_source(), Some(XReg::new(10)));

        let vv = Instr::VArith {
            op: VArithOp::Add,
            vd: VReg::new(1),
            src1: VSrc::V(VReg::new(2)),
            vs2: VReg::new(3),
            masked: false,
        };
        assert_eq!(vv.vector_scalar_source(), None);

        let vx = Instr::VArith {
            op: VArithOp::Add,
            vd: VReg::new(1),
            src1: VSrc::X(XReg::new(7)),
            vs2: VReg::new(3),
            masked: false,
        };
        assert_eq!(vx.vector_scalar_source(), Some(XReg::new(7)));
    }

    #[test]
    fn long_latency_ops() {
        assert!(VArithOp::FMul.is_long_latency());
        assert!(VArithOp::Mul.is_long_latency());
        assert!(!VArithOp::Add.is_long_latency());
        assert!(!VArithOp::And.is_long_latency());
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::D.bytes(), 8);
    }
}
