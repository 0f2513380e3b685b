//! Disassembly: the assembly-like text [`Instr`]'s `Display` prints.
//!
//! Mnemonics follow RV64IMFD and RVV 1.0, plus the model's own `halt` and
//! `vmfence`. Branch and jump targets print as `@index`, the resolved
//! instruction index an [`Instr`] holds.

use crate::instr::{
    AluOp, AvlSrc, BranchOp, FpCmpOp, FpOp, FpPrec, Instr, MemWidth, VArithOp, VCmpOp, VMaskOp,
    VMemMode, VRedOp, VSrc,
};
use crate::reg::XReg;
use std::fmt;

/// Formats an instruction as assembly-like text (used by `Display`).
pub(crate) fn disasm(instr: &Instr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match *instr {
        Instr::Op { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", alu_name(op)),
        Instr::OpImm { op, rd, rs1, imm } => write!(f, "{}i {rd}, {rs1}, {imm}", alu_name(op)),
        Instr::Lui { rd, imm } => write!(f, "lui {rd}, {imm}"),
        Instr::Load {
            rd,
            rs1,
            imm,
            width,
            signed,
        } => write!(
            f,
            "l{}{} {rd}, {imm}({rs1})",
            width_name(width),
            if signed { "" } else { "u" }
        ),
        Instr::Store {
            rs2,
            rs1,
            imm,
            width,
        } => write!(f, "s{} {rs2}, {imm}({rs1})", width_name(width)),
        Instr::Branch {
            op,
            rs1,
            rs2,
            target,
        } => {
            let n = match op {
                BranchOp::Eq => "beq",
                BranchOp::Ne => "bne",
                BranchOp::Lt => "blt",
                BranchOp::Ge => "bge",
                BranchOp::Ltu => "bltu",
                BranchOp::Geu => "bgeu",
            };
            write!(f, "{n} {rs1}, {rs2}, @{target}")
        }
        Instr::Jal { rd, target } => write!(f, "jal {rd}, @{target}"),
        Instr::Jalr { rd, rs1, imm } => write!(f, "jalr {rd}, {imm}({rs1})"),
        Instr::FpOp {
            op,
            prec,
            rd,
            rs1,
            rs2,
        } => write!(f, "f{}.{} {rd}, {rs1}, {rs2}", fp_name(op), prec_name(prec)),
        Instr::FpFma {
            prec,
            rd,
            rs1,
            rs2,
            rs3,
        } => write!(f, "fmadd.{} {rd}, {rs1}, {rs2}, {rs3}", prec_name(prec)),
        Instr::FpCmp {
            op,
            prec,
            rd,
            rs1,
            rs2,
        } => {
            let n = match op {
                FpCmpOp::Eq => "feq",
                FpCmpOp::Lt => "flt",
                FpCmpOp::Le => "fle",
            };
            write!(f, "{n}.{} {rd}, {rs1}, {rs2}", prec_name(prec))
        }
        Instr::FpLoad { rd, rs1, imm, prec } => {
            write!(f, "fl{} {rd}, {imm}({rs1})", fp_mem_suffix(prec))
        }
        Instr::FpStore {
            rs2,
            rs1,
            imm,
            prec,
        } => {
            write!(f, "fs{} {rs2}, {imm}({rs1})", fp_mem_suffix(prec))
        }
        Instr::FpCvtFromInt { prec, rd, rs1 } => {
            write!(f, "fcvt.{}.l {rd}, {rs1}", prec_name(prec))
        }
        Instr::FpCvtToInt { prec, rd, rs1 } => {
            write!(f, "fcvt.l.{} {rd}, {rs1}", prec_name(prec))
        }
        Instr::FpMvFromInt { prec, rd, rs1 } => {
            write!(f, "fmv.{}.x {rd}, {rs1}", prec_name(prec))
        }
        Instr::FpMvToInt { prec, rd, rs1 } => write!(f, "fmv.x.{} {rd}, {rs1}", prec_name(prec)),
        Instr::VSetVl { rd, avl, sew } => match avl {
            AvlSrc::Reg(r) => write!(f, "vsetvli {rd}, {r}, {sew}"),
            AvlSrc::Imm(i) => write!(f, "vsetivli {rd}, {i}, {sew}"),
        },
        Instr::VLoad {
            vd,
            base,
            mode,
            masked,
        } => write_vmem(f, "vl", vd.index(), base, mode, masked),
        Instr::VStore {
            vs3,
            base,
            mode,
            masked,
        } => write_vmem(f, "vs", vs3.index(), base, mode, masked),
        Instr::VArith {
            op,
            vd,
            src1,
            vs2,
            masked,
        } => {
            write!(f, "{}.{} {vd}, {vs2}, ", varith_name(op), vsrc_suffix(src1))?;
            write_vsrc(f, src1)?;
            write_mask(f, masked)
        }
        Instr::VCmp {
            op,
            vd,
            vs2,
            src1,
            masked,
        } => {
            let n = match op {
                VCmpOp::Eq => "vmseq",
                VCmpOp::Ne => "vmsne",
                VCmpOp::Lt => "vmslt",
                VCmpOp::Le => "vmsle",
                VCmpOp::Gt => "vmsgt",
                VCmpOp::FEq => "vmfeq",
                VCmpOp::FLt => "vmflt",
                VCmpOp::FLe => "vmfle",
            };
            write!(f, "{n}.{} {vd}, {vs2}, ", vsrc_suffix(src1))?;
            write_vsrc(f, src1)?;
            write_mask(f, masked)
        }
        Instr::VRed {
            op,
            vd,
            vs2,
            vs1,
            masked,
        } => {
            let n = match op {
                VRedOp::Sum => "vredsum",
                VRedOp::Min => "vredmin",
                VRedOp::Max => "vredmax",
                VRedOp::FSum => "vfredosum",
                VRedOp::FMin => "vfredmin",
                VRedOp::FMax => "vfredmax",
            };
            write!(f, "{n}.vs {vd}, {vs2}, {vs1}")?;
            write_mask(f, masked)
        }
        Instr::VPopc { rd, vs2 } => write!(f, "vcpop.m {rd}, {vs2}"),
        Instr::VFirst { rd, vs2 } => write!(f, "vfirst.m {rd}, {vs2}"),
        Instr::VMask { op, vd, vs1, vs2 } => {
            let n = match op {
                VMaskOp::And => "vmand",
                VMaskOp::Or => "vmor",
                VMaskOp::Xor => "vmxor",
                VMaskOp::AndNot => "vmandn",
                VMaskOp::Not => "vmnot",
            };
            write!(f, "{n}.mm {vd}, {vs1}, {vs2}")
        }
        Instr::VRgather { vd, vs2, vs1 } => write!(f, "vrgather.vv {vd}, {vs2}, {vs1}"),
        Instr::VSlideUp { vd, vs2, amt } => write!(f, "vslideup.vx {vd}, {vs2}, {amt}"),
        Instr::VSlideDown { vd, vs2, amt } => write!(f, "vslidedown.vx {vd}, {vs2}, {amt}"),
        Instr::VMvVX { vd, rs1 } => write!(f, "vmv.v.x {vd}, {rs1}"),
        Instr::VFMvVF { vd, fs1 } => write!(f, "vfmv.v.f {vd}, {fs1}"),
        Instr::VMvVV { vd, vs2 } => write!(f, "vmv.v.v {vd}, {vs2}"),
        Instr::VMvXS { rd, vs2 } => write!(f, "vmv.x.s {rd}, {vs2}"),
        Instr::VFMvFS { rd, vs2 } => write!(f, "vfmv.f.s {rd}, {vs2}"),
        Instr::VMvSX { vd, rs1 } => write!(f, "vmv.s.x {vd}, {rs1}"),
        Instr::VId { vd, masked } => {
            write!(f, "vid.v {vd}")?;
            write_mask(f, masked)
        }
        Instr::VmFence => write!(f, "vmfence"),
        Instr::Halt => write!(f, "halt"),
        Instr::Nop => write!(f, "nop"),
    }
}

fn write_mask(f: &mut fmt::Formatter<'_>, masked: bool) -> fmt::Result {
    if masked {
        write!(f, ", v0.t")
    } else {
        Ok(())
    }
}

fn write_vsrc(f: &mut fmt::Formatter<'_>, src: VSrc) -> fmt::Result {
    match src {
        VSrc::V(v) => write!(f, "{v}"),
        VSrc::X(x) => write!(f, "{x}"),
        VSrc::F(r) => write!(f, "{r}"),
        VSrc::I(i) => write!(f, "{i}"),
    }
}

fn vsrc_suffix(src: VSrc) -> &'static str {
    match src {
        VSrc::V(_) => "vv",
        VSrc::X(_) => "vx",
        VSrc::F(_) => "vf",
        VSrc::I(_) => "vi",
    }
}

fn write_vmem(
    f: &mut fmt::Formatter<'_>,
    prefix: &str,
    vreg: usize,
    base: XReg,
    mode: VMemMode,
    masked: bool,
) -> fmt::Result {
    match mode {
        VMemMode::Unit => write!(f, "{prefix}e.v v{vreg}, ({base})")?,
        VMemMode::Strided(s) => write!(f, "{prefix}se.v v{vreg}, ({base}), {s}")?,
        VMemMode::Indexed(v) => write!(f, "{prefix}uxei.v v{vreg}, ({base}), {v}")?,
    }
    write_mask(f, masked)
}

fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::Sll => "sll",
        AluOp::Srl => "srl",
        AluOp::Sra => "sra",
        AluOp::And => "and",
        AluOp::Or => "or",
        AluOp::Xor => "xor",
        AluOp::Slt => "slt",
        AluOp::Sltu => "sltu",
        AluOp::Mul => "mul",
        AluOp::Div => "div",
        AluOp::Divu => "divu",
        AluOp::Rem => "rem",
        AluOp::Remu => "remu",
    }
}

fn varith_name(op: VArithOp) -> &'static str {
    use VArithOp::*;
    match op {
        Add => "vadd",
        Sub => "vsub",
        Mul => "vmul",
        Div => "vdiv",
        Divu => "vdivu",
        Rem => "vrem",
        Min => "vmin",
        Max => "vmax",
        And => "vand",
        Or => "vor",
        Xor => "vxor",
        Sll => "vsll",
        Srl => "vsrl",
        Sra => "vsra",
        FAdd => "vfadd",
        FSub => "vfsub",
        FMul => "vfmul",
        FDiv => "vfdiv",
        FMin => "vfmin",
        FMax => "vfmax",
        FSqrt => "vfsqrt",
        FMacc => "vfmacc",
        FNeg => "vfneg",
        FAbs => "vfabs",
        Merge => "vmerge",
    }
}

fn fp_name(op: FpOp) -> &'static str {
    match op {
        FpOp::Add => "add",
        FpOp::Sub => "sub",
        FpOp::Mul => "mul",
        FpOp::Div => "div",
        FpOp::Min => "min",
        FpOp::Max => "max",
        FpOp::Sqrt => "sqrt",
        FpOp::Sgnj => "sgnj",
        FpOp::Sgnjn => "sgnjn",
        FpOp::Sgnjx => "sgnjx",
    }
}

fn prec_name(prec: FpPrec) -> &'static str {
    match prec {
        FpPrec::S => "s",
        FpPrec::D => "d",
    }
}

fn fp_mem_suffix(prec: FpPrec) -> &'static str {
    match prec {
        FpPrec::S => "w",
        FpPrec::D => "d",
    }
}

fn width_name(w: MemWidth) -> &'static str {
    match w {
        MemWidth::B => "b",
        MemWidth::H => "h",
        MemWidth::W => "w",
        MemWidth::D => "d",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::VReg;

    #[test]
    fn disasm_smoke() {
        let i = Instr::VArith {
            op: VArithOp::FMacc,
            vd: VReg::new(1),
            src1: VSrc::V(VReg::new(2)),
            vs2: VReg::new(3),
            masked: false,
        };
        assert_eq!(i.to_string(), "vfmacc.vv v1, v3, v2");
        let i = Instr::Load {
            rd: XReg::new(1),
            rs1: XReg::new(2),
            imm: 8,
            width: MemWidth::W,
            signed: true,
        };
        assert_eq!(i.to_string(), "lw x1, 8(x2)");
    }
}
