//! Checkpoint encodings ([`Snap`]) for the architectural types.
//!
//! In-flight pipeline structures (ROB entries, vector commands, little-core
//! pending slots) carry whole [`Instr`] values, so instructions serialize
//! *structurally* — one tag byte per variant plus its operands, each
//! immediate at its full width. This is an instruction's only binary
//! form: a structurally-built immediate need not fit a 32-bit instruction
//! format, and a checkpoint save must never fail.
//!
//! Every register decode validates its index before constructing the
//! newtype (the constructors panic on out-of-range indices; a corrupt
//! checkpoint must produce a [`SnapError`], never a panic).

use crate::exec::{ExecCounters, MemAccess, StepInfo};
use crate::instr::{
    AluOp, AvlSrc, BranchOp, FpCmpOp, FpOp, FpPrec, Instr, MemWidth, VArithOp, VCmpOp, VMaskOp,
    VMemMode, VRedOp, VSrc,
};
use crate::predecode::DestReg;
use crate::reg::{FReg, VReg, XReg, NUM_REGS};
use crate::vcfg::{Sew, VectorConfig};
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

macro_rules! snap_reg {
    ($ty:ident) => {
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.u8(self.index() as u8);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let i = r.u8()?;
                if (i as usize) < NUM_REGS {
                    Ok($ty::new(i))
                } else {
                    Err(SnapError::BadTag {
                        ty: stringify!($ty),
                        tag: u64::from(i),
                    })
                }
            }
        }
    };
}

snap_reg!(XReg);
snap_reg!(FReg);
snap_reg!(VReg);

macro_rules! snap_enum {
    ($ty:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.u8(match self { $($ty::$variant => $tag),+ });
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                match r.u8()? {
                    $($tag => Ok($ty::$variant),)+
                    t => Err(SnapError::BadTag {
                        ty: stringify!($ty),
                        tag: u64::from(t),
                    }),
                }
            }
        }
    };
}

snap_enum!(Sew { E8 = 0, E16 = 1, E32 = 2, E64 = 3 });
snap_enum!(MemWidth { B = 0, H = 1, W = 2, D = 3 });
snap_enum!(FpPrec { S = 0, D = 1 });
snap_enum!(AluOp {
    Add = 0, Sub = 1, Sll = 2, Srl = 3, Sra = 4, And = 5, Or = 6, Xor = 7,
    Slt = 8, Sltu = 9, Mul = 10, Div = 11, Divu = 12, Rem = 13, Remu = 14,
});
snap_enum!(FpOp {
    Add = 0, Sub = 1, Mul = 2, Div = 3, Min = 4, Max = 5, Sqrt = 6,
    Sgnj = 7, Sgnjn = 8, Sgnjx = 9,
});
snap_enum!(FpCmpOp { Eq = 0, Lt = 1, Le = 2 });
snap_enum!(BranchOp { Eq = 0, Ne = 1, Lt = 2, Ge = 3, Ltu = 4, Geu = 5 });
snap_enum!(VArithOp {
    Add = 0, Sub = 1, Mul = 2, Div = 3, Divu = 4, Rem = 5, Min = 6, Max = 7,
    And = 8, Or = 9, Xor = 10, Sll = 11, Srl = 12, Sra = 13,
    FAdd = 14, FSub = 15, FMul = 16, FDiv = 17, FMin = 18, FMax = 19,
    FSqrt = 20, FMacc = 21, FNeg = 22, FAbs = 23, Merge = 24,
});
snap_enum!(VCmpOp {
    Eq = 0, Ne = 1, Lt = 2, Le = 3, Gt = 4, FEq = 5, FLt = 6, FLe = 7,
});
snap_enum!(VRedOp { Sum = 0, Min = 1, Max = 2, FSum = 3, FMin = 4, FMax = 5 });
snap_enum!(VMaskOp { And = 0, Or = 1, Xor = 2, AndNot = 3, Not = 4 });

impl Snap for AvlSrc {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            AvlSrc::Reg(x) => {
                w.u8(0);
                x.save(w);
            }
            AvlSrc::Imm(i) => {
                w.u8(1);
                w.u32(*i);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(AvlSrc::Reg(Snap::load(r)?)),
            1 => Ok(AvlSrc::Imm(r.u32()?)),
            t => Err(SnapError::BadTag {
                ty: "AvlSrc",
                tag: u64::from(t),
            }),
        }
    }
}

impl Snap for VMemMode {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            VMemMode::Unit => w.u8(0),
            VMemMode::Strided(x) => {
                w.u8(1);
                x.save(w);
            }
            VMemMode::Indexed(v) => {
                w.u8(2);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(VMemMode::Unit),
            1 => Ok(VMemMode::Strided(Snap::load(r)?)),
            2 => Ok(VMemMode::Indexed(Snap::load(r)?)),
            t => Err(SnapError::BadTag {
                ty: "VMemMode",
                tag: u64::from(t),
            }),
        }
    }
}

impl Snap for VSrc {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            VSrc::V(v) => {
                w.u8(0);
                v.save(w);
            }
            VSrc::X(x) => {
                w.u8(1);
                x.save(w);
            }
            VSrc::F(f) => {
                w.u8(2);
                f.save(w);
            }
            VSrc::I(i) => {
                w.u8(3);
                w.i64(*i);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(VSrc::V(Snap::load(r)?)),
            1 => Ok(VSrc::X(Snap::load(r)?)),
            2 => Ok(VSrc::F(Snap::load(r)?)),
            3 => Ok(VSrc::I(r.i64()?)),
            t => Err(SnapError::BadTag {
                ty: "VSrc",
                tag: u64::from(t),
            }),
        }
    }
}

impl Snap for DestReg {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            DestReg::X(r) => {
                w.u8(0);
                w.u8(*r);
            }
            DestReg::F(r) => {
                w.u8(1);
                w.u8(*r);
            }
            DestReg::None => w.u8(2),
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(DestReg::X(r.u8()?)),
            1 => Ok(DestReg::F(r.u8()?)),
            2 => Ok(DestReg::None),
            t => Err(SnapError::BadTag {
                ty: "DestReg",
                tag: u64::from(t),
            }),
        }
    }
}

snap_struct!(VectorConfig { vl, sew });
snap_struct!(MemAccess {
    addr,
    size,
    is_store,
});
snap_struct!(StepInfo {
    pc,
    instr,
    taken,
    mem,
    vl,
    sew,
    halted,
});
snap_struct!(ExecCounters {
    instrs,
    vector_instrs,
    vector_elem_ops,
    scalar_mem_ops,
    vector_mem_instrs,
    fp_ops,
    branches,
    branches_taken,
});

impl Snap for Instr {
    fn save(&self, w: &mut SnapWriter) {
        use Instr::*;
        match *self {
            Op { op, rd, rs1, rs2 } => {
                w.u8(0);
                op.save(w);
                rd.save(w);
                rs1.save(w);
                rs2.save(w);
            }
            OpImm { op, rd, rs1, imm } => {
                w.u8(1);
                op.save(w);
                rd.save(w);
                rs1.save(w);
                w.i64(imm);
            }
            Lui { rd, imm } => {
                w.u8(2);
                rd.save(w);
                w.i64(imm);
            }
            Load {
                rd,
                rs1,
                imm,
                width,
                signed,
            } => {
                w.u8(3);
                rd.save(w);
                rs1.save(w);
                w.i64(imm);
                width.save(w);
                w.bool(signed);
            }
            Store {
                rs2,
                rs1,
                imm,
                width,
            } => {
                w.u8(4);
                rs2.save(w);
                rs1.save(w);
                w.i64(imm);
                width.save(w);
            }
            Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                w.u8(5);
                op.save(w);
                rs1.save(w);
                rs2.save(w);
                w.u32(target);
            }
            Jal { rd, target } => {
                w.u8(6);
                rd.save(w);
                w.u32(target);
            }
            Jalr { rd, rs1, imm } => {
                w.u8(7);
                rd.save(w);
                rs1.save(w);
                w.i64(imm);
            }
            FpOp {
                op,
                prec,
                rd,
                rs1,
                rs2,
            } => {
                w.u8(8);
                op.save(w);
                prec.save(w);
                rd.save(w);
                rs1.save(w);
                rs2.save(w);
            }
            FpFma {
                prec,
                rd,
                rs1,
                rs2,
                rs3,
            } => {
                w.u8(9);
                prec.save(w);
                rd.save(w);
                rs1.save(w);
                rs2.save(w);
                rs3.save(w);
            }
            FpCmp {
                op,
                prec,
                rd,
                rs1,
                rs2,
            } => {
                w.u8(10);
                op.save(w);
                prec.save(w);
                rd.save(w);
                rs1.save(w);
                rs2.save(w);
            }
            FpLoad { rd, rs1, imm, prec } => {
                w.u8(11);
                rd.save(w);
                rs1.save(w);
                w.i64(imm);
                prec.save(w);
            }
            FpStore {
                rs2,
                rs1,
                imm,
                prec,
            } => {
                w.u8(12);
                rs2.save(w);
                rs1.save(w);
                w.i64(imm);
                prec.save(w);
            }
            FpCvtFromInt { prec, rd, rs1 } => {
                w.u8(13);
                prec.save(w);
                rd.save(w);
                rs1.save(w);
            }
            FpCvtToInt { prec, rd, rs1 } => {
                w.u8(14);
                prec.save(w);
                rd.save(w);
                rs1.save(w);
            }
            FpMvFromInt { prec, rd, rs1 } => {
                w.u8(15);
                prec.save(w);
                rd.save(w);
                rs1.save(w);
            }
            FpMvToInt { prec, rd, rs1 } => {
                w.u8(16);
                prec.save(w);
                rd.save(w);
                rs1.save(w);
            }
            VSetVl { rd, avl, sew } => {
                w.u8(17);
                rd.save(w);
                avl.save(w);
                sew.save(w);
            }
            VLoad {
                vd,
                base,
                mode,
                masked,
            } => {
                w.u8(18);
                vd.save(w);
                base.save(w);
                mode.save(w);
                w.bool(masked);
            }
            VStore {
                vs3,
                base,
                mode,
                masked,
            } => {
                w.u8(19);
                vs3.save(w);
                base.save(w);
                mode.save(w);
                w.bool(masked);
            }
            VArith {
                op,
                vd,
                src1,
                vs2,
                masked,
            } => {
                w.u8(20);
                op.save(w);
                vd.save(w);
                src1.save(w);
                vs2.save(w);
                w.bool(masked);
            }
            VCmp {
                op,
                vd,
                vs2,
                src1,
                masked,
            } => {
                w.u8(21);
                op.save(w);
                vd.save(w);
                vs2.save(w);
                src1.save(w);
                w.bool(masked);
            }
            VRed {
                op,
                vd,
                vs2,
                vs1,
                masked,
            } => {
                w.u8(22);
                op.save(w);
                vd.save(w);
                vs2.save(w);
                vs1.save(w);
                w.bool(masked);
            }
            VPopc { rd, vs2 } => {
                w.u8(23);
                rd.save(w);
                vs2.save(w);
            }
            VFirst { rd, vs2 } => {
                w.u8(24);
                rd.save(w);
                vs2.save(w);
            }
            VMask { op, vd, vs1, vs2 } => {
                w.u8(25);
                op.save(w);
                vd.save(w);
                vs1.save(w);
                vs2.save(w);
            }
            VRgather { vd, vs2, vs1 } => {
                w.u8(26);
                vd.save(w);
                vs2.save(w);
                vs1.save(w);
            }
            VSlideUp { vd, vs2, amt } => {
                w.u8(27);
                vd.save(w);
                vs2.save(w);
                amt.save(w);
            }
            VSlideDown { vd, vs2, amt } => {
                w.u8(28);
                vd.save(w);
                vs2.save(w);
                amt.save(w);
            }
            VMvVX { vd, rs1 } => {
                w.u8(29);
                vd.save(w);
                rs1.save(w);
            }
            VFMvVF { vd, fs1 } => {
                w.u8(30);
                vd.save(w);
                fs1.save(w);
            }
            VMvVV { vd, vs2 } => {
                w.u8(31);
                vd.save(w);
                vs2.save(w);
            }
            VMvXS { rd, vs2 } => {
                w.u8(32);
                rd.save(w);
                vs2.save(w);
            }
            VFMvFS { rd, vs2 } => {
                w.u8(33);
                rd.save(w);
                vs2.save(w);
            }
            VMvSX { vd, rs1 } => {
                w.u8(34);
                vd.save(w);
                rs1.save(w);
            }
            VId { vd, masked } => {
                w.u8(35);
                vd.save(w);
                w.bool(masked);
            }
            VmFence => w.u8(36),
            Halt => w.u8(37),
            Nop => w.u8(38),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        use Instr::*;
        Ok(match r.u8()? {
            0 => Op {
                op: Snap::load(r)?,
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
                rs2: Snap::load(r)?,
            },
            1 => OpImm {
                op: Snap::load(r)?,
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
                imm: r.i64()?,
            },
            2 => Lui {
                rd: Snap::load(r)?,
                imm: r.i64()?,
            },
            3 => Load {
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
                imm: r.i64()?,
                width: Snap::load(r)?,
                signed: r.bool()?,
            },
            4 => Store {
                rs2: Snap::load(r)?,
                rs1: Snap::load(r)?,
                imm: r.i64()?,
                width: Snap::load(r)?,
            },
            5 => Branch {
                op: Snap::load(r)?,
                rs1: Snap::load(r)?,
                rs2: Snap::load(r)?,
                target: r.u32()?,
            },
            6 => Jal {
                rd: Snap::load(r)?,
                target: r.u32()?,
            },
            7 => Jalr {
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
                imm: r.i64()?,
            },
            8 => FpOp {
                op: Snap::load(r)?,
                prec: Snap::load(r)?,
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
                rs2: Snap::load(r)?,
            },
            9 => FpFma {
                prec: Snap::load(r)?,
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
                rs2: Snap::load(r)?,
                rs3: Snap::load(r)?,
            },
            10 => FpCmp {
                op: Snap::load(r)?,
                prec: Snap::load(r)?,
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
                rs2: Snap::load(r)?,
            },
            11 => FpLoad {
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
                imm: r.i64()?,
                prec: Snap::load(r)?,
            },
            12 => FpStore {
                rs2: Snap::load(r)?,
                rs1: Snap::load(r)?,
                imm: r.i64()?,
                prec: Snap::load(r)?,
            },
            13 => FpCvtFromInt {
                prec: Snap::load(r)?,
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
            },
            14 => FpCvtToInt {
                prec: Snap::load(r)?,
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
            },
            15 => FpMvFromInt {
                prec: Snap::load(r)?,
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
            },
            16 => FpMvToInt {
                prec: Snap::load(r)?,
                rd: Snap::load(r)?,
                rs1: Snap::load(r)?,
            },
            17 => VSetVl {
                rd: Snap::load(r)?,
                avl: Snap::load(r)?,
                sew: Snap::load(r)?,
            },
            18 => VLoad {
                vd: Snap::load(r)?,
                base: Snap::load(r)?,
                mode: Snap::load(r)?,
                masked: r.bool()?,
            },
            19 => VStore {
                vs3: Snap::load(r)?,
                base: Snap::load(r)?,
                mode: Snap::load(r)?,
                masked: r.bool()?,
            },
            20 => VArith {
                op: Snap::load(r)?,
                vd: Snap::load(r)?,
                src1: Snap::load(r)?,
                vs2: Snap::load(r)?,
                masked: r.bool()?,
            },
            21 => VCmp {
                op: Snap::load(r)?,
                vd: Snap::load(r)?,
                vs2: Snap::load(r)?,
                src1: Snap::load(r)?,
                masked: r.bool()?,
            },
            22 => VRed {
                op: Snap::load(r)?,
                vd: Snap::load(r)?,
                vs2: Snap::load(r)?,
                vs1: Snap::load(r)?,
                masked: r.bool()?,
            },
            23 => VPopc {
                rd: Snap::load(r)?,
                vs2: Snap::load(r)?,
            },
            24 => VFirst {
                rd: Snap::load(r)?,
                vs2: Snap::load(r)?,
            },
            25 => VMask {
                op: Snap::load(r)?,
                vd: Snap::load(r)?,
                vs1: Snap::load(r)?,
                vs2: Snap::load(r)?,
            },
            26 => VRgather {
                vd: Snap::load(r)?,
                vs2: Snap::load(r)?,
                vs1: Snap::load(r)?,
            },
            27 => VSlideUp {
                vd: Snap::load(r)?,
                vs2: Snap::load(r)?,
                amt: Snap::load(r)?,
            },
            28 => VSlideDown {
                vd: Snap::load(r)?,
                vs2: Snap::load(r)?,
                amt: Snap::load(r)?,
            },
            29 => VMvVX {
                vd: Snap::load(r)?,
                rs1: Snap::load(r)?,
            },
            30 => VFMvVF {
                vd: Snap::load(r)?,
                fs1: Snap::load(r)?,
            },
            31 => VMvVV {
                vd: Snap::load(r)?,
                vs2: Snap::load(r)?,
            },
            32 => VMvXS {
                rd: Snap::load(r)?,
                vs2: Snap::load(r)?,
            },
            33 => VFMvFS {
                rd: Snap::load(r)?,
                vs2: Snap::load(r)?,
            },
            34 => VMvSX {
                vd: Snap::load(r)?,
                rs1: Snap::load(r)?,
            },
            35 => VId {
                vd: Snap::load(r)?,
                masked: r.bool()?,
            },
            36 => VmFence,
            37 => Halt,
            38 => Nop,
            t => {
                return Err(SnapError::BadTag {
                    ty: "Instr",
                    tag: u64::from(t),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_snap::{from_framed, to_framed};

    fn sample_instrs() -> Vec<Instr> {
        vec![
            Instr::Op {
                op: AluOp::Mul,
                rd: XReg::new(5),
                rs1: XReg::new(6),
                rs2: XReg::new(7),
            },
            Instr::OpImm {
                op: AluOp::Add,
                rd: XReg::new(1),
                rs1: XReg::new(2),
                imm: -4096,
            },
            Instr::Load {
                rd: XReg::new(3),
                rs1: XReg::new(4),
                imm: 16,
                width: MemWidth::W,
                signed: true,
            },
            Instr::Branch {
                op: BranchOp::Ltu,
                rs1: XReg::new(8),
                rs2: XReg::new(9),
                target: 42,
            },
            Instr::FpFma {
                prec: FpPrec::D,
                rd: FReg::new(1),
                rs1: FReg::new(2),
                rs2: FReg::new(3),
                rs3: FReg::new(4),
            },
            Instr::VSetVl {
                rd: XReg::new(10),
                avl: AvlSrc::Imm(8),
                sew: Sew::E32,
            },
            Instr::VLoad {
                vd: VReg::new(1),
                base: XReg::new(11),
                mode: VMemMode::Indexed(VReg::new(2)),
                masked: true,
            },
            Instr::VArith {
                op: VArithOp::FMacc,
                vd: VReg::new(3),
                src1: VSrc::F(FReg::new(5)),
                vs2: VReg::new(4),
                masked: false,
            },
            // A structurally-legal immediate the binary encoder rejects:
            // the structural codec must still round-trip it.
            Instr::VArith {
                op: VArithOp::Add,
                vd: VReg::new(1),
                src1: VSrc::I(1 << 40),
                vs2: VReg::new(2),
                masked: false,
            },
            Instr::VRed {
                op: VRedOp::FSum,
                vd: VReg::new(5),
                vs2: VReg::new(6),
                vs1: VReg::new(7),
                masked: true,
            },
            Instr::VmFence,
            Instr::Halt,
            Instr::Nop,
        ]
    }

    #[test]
    fn instr_round_trip() {
        for i in sample_instrs() {
            let blob = to_framed(&i);
            assert_eq!(from_framed::<Instr>(&blob).unwrap(), i, "{i:?}");
        }
    }

    #[test]
    fn out_of_range_register_is_typed_error_not_panic() {
        let mut w = SnapWriter::new();
        w.u8(40); // register index 40 >= 32
        let payload = w.into_bytes();
        let mut r = SnapReader::new(&payload);
        assert!(matches!(
            XReg::load(&mut r),
            Err(SnapError::BadTag {
                ty: "XReg",
                tag: 40
            })
        ));
    }

    #[test]
    fn bad_instr_tag_rejected() {
        let mut w = SnapWriter::new();
        w.u8(200);
        let payload = w.into_bytes();
        let mut r = SnapReader::new(&payload);
        assert!(matches!(
            Instr::load(&mut r),
            Err(SnapError::BadTag { ty: "Instr", .. })
        ));
    }

    #[test]
    fn step_info_round_trip() {
        let info = StepInfo {
            pc: 7,
            instr: Instr::VStore {
                vs3: VReg::new(3),
                base: XReg::new(12),
                mode: VMemMode::Strided(XReg::new(13)),
                masked: false,
            },
            taken: Some(99),
            mem: vec![
                MemAccess {
                    addr: 0x2000,
                    size: 4,
                    is_store: true,
                },
                MemAccess {
                    addr: 0x2040,
                    size: 4,
                    is_store: true,
                },
            ],
            vl: 8,
            sew: Sew::E32,
            halted: false,
        };
        let blob = to_framed(&info);
        let back: StepInfo = from_framed(&blob).unwrap();
        assert_eq!(back.pc, info.pc);
        assert_eq!(back.instr, info.instr);
        assert_eq!(back.taken, info.taken);
        assert_eq!(back.mem, info.mem);
        assert_eq!(back.vl, info.vl);
        assert_eq!(back.sew, info.sew);
        assert_eq!(back.halted, info.halted);
    }
}
