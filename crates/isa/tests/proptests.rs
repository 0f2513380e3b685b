//! Property-based tests for the ISA crate: disassembly, executor
//! invariants, and assembler behaviour under random programs.

use bvl_isa::asm::Assembler;
use bvl_isa::exec::Machine;
use bvl_isa::instr::{
    AluOp, AvlSrc, BranchOp, Instr, MemWidth, VArithOp, VCmpOp, VMaskOp, VMemMode, VRedOp, VSrc,
};
use bvl_isa::mem::{Memory, VecMemory};
use bvl_isa::reg::{FReg, VReg, XReg};
use bvl_isa::vcfg::Sew;
use proptest::prelude::*;

fn xreg() -> impl Strategy<Value = XReg> {
    (0u8..32).prop_map(XReg::new)
}

fn freg() -> impl Strategy<Value = FReg> {
    (0u8..32).prop_map(FReg::new)
}

fn vreg() -> impl Strategy<Value = VReg> {
    (0u8..32).prop_map(VReg::new)
}

fn sew() -> impl Strategy<Value = Sew> {
    prop_oneof![
        Just(Sew::E8),
        Just(Sew::E16),
        Just(Sew::E32),
        Just(Sew::E64)
    ]
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Mul),
        Just(AluOp::Div),
        Just(AluOp::Divu),
        Just(AluOp::Rem),
        Just(AluOp::Remu),
    ]
}

fn varith_op() -> impl Strategy<Value = VArithOp> {
    prop_oneof![
        Just(VArithOp::Add),
        Just(VArithOp::Sub),
        Just(VArithOp::Mul),
        Just(VArithOp::Div),
        Just(VArithOp::Min),
        Just(VArithOp::Max),
        Just(VArithOp::And),
        Just(VArithOp::Or),
        Just(VArithOp::Xor),
        Just(VArithOp::FAdd),
        Just(VArithOp::FMul),
        Just(VArithOp::FMacc),
    ]
}

fn vsrc() -> impl Strategy<Value = VSrc> {
    prop_oneof![
        vreg().prop_map(VSrc::V),
        xreg().prop_map(VSrc::X),
        freg().prop_map(VSrc::F),
        (-16i64..16).prop_map(VSrc::I),
    ]
}

/// Instructions whose immediates fit the field widths of the real RV64 and
/// RVV formats.
fn encodable_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (alu_op(), xreg(), xreg(), xreg()).prop_map(|(op, rd, rs1, rs2)| Instr::Op {
            op,
            rd,
            rs1,
            rs2
        }),
        (xreg(), xreg(), -2048i64..2048).prop_map(|(rd, rs1, imm)| Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm
        }),
        (xreg(), xreg(), -2048i64..2048, any::<bool>()).prop_map(|(rd, rs1, imm, s)| {
            Instr::Load {
                rd,
                rs1,
                imm,
                width: MemWidth::W,
                signed: s,
            }
        }),
        (xreg(), xreg(), -2048i64..2048).prop_map(|(rs2, rs1, imm)| Instr::Store {
            rs2,
            rs1,
            imm,
            width: MemWidth::D
        }),
        (xreg(), xreg(), 0u32..64).prop_map(|(rs1, rs2, target)| Instr::Branch {
            op: BranchOp::Ne,
            rs1,
            rs2,
            target
        }),
        (xreg(), 0u32..64).prop_map(|(rd, target)| Instr::Jal { rd, target }),
        (varith_op(), vreg(), vsrc(), vreg(), any::<bool>()).prop_map(
            |(op, vd, src1, vs2, masked)| Instr::VArith {
                op,
                vd,
                src1,
                vs2,
                masked
            }
        ),
        (vreg(), vreg(), vsrc()).prop_map(|(vd, vs2, src1)| Instr::VCmp {
            op: VCmpOp::Lt,
            vd,
            vs2,
            src1,
            masked: false
        }),
        (vreg(), vreg(), vreg(), any::<bool>()).prop_map(|(vd, vs2, vs1, masked)| Instr::VRed {
            op: VRedOp::Sum,
            vd,
            vs2,
            vs1,
            masked
        }),
        (vreg(), vreg(), vreg()).prop_map(|(vd, vs1, vs2)| Instr::VMask {
            op: VMaskOp::Xor,
            vd,
            vs1,
            vs2
        }),
        (vreg(), xreg(), any::<bool>()).prop_map(|(vd, base, masked)| Instr::VLoad {
            vd,
            base,
            mode: VMemMode::Unit,
            masked
        }),
        (vreg(), xreg(), vreg(), any::<bool>()).prop_map(|(vs3, base, vidx, masked)| {
            Instr::VStore {
                vs3,
                base,
                mode: VMemMode::Indexed(vidx),
                masked,
            }
        }),
        (xreg(), xreg(), sew()).prop_map(|(rd, avl, sew)| Instr::VSetVl {
            rd,
            avl: AvlSrc::Reg(avl),
            sew
        }),
        (xreg(), 0u32..32, sew()).prop_map(|(rd, avl, sew)| Instr::VSetVl {
            rd,
            avl: AvlSrc::Imm(avl),
            sew
        }),
        Just(Instr::VmFence),
        Just(Instr::Halt),
        Just(Instr::Nop),
    ]
}

proptest! {
    /// The disassembly of any encodable instruction is non-empty
    /// (C-DEBUG-NONEMPTY analogue for `Display`).
    #[test]
    fn disasm_never_empty(instr in encodable_instr()) {
        prop_assert!(!instr.to_string().is_empty());
    }

    /// Memory uint round-trips at every width and alignment.
    #[test]
    fn memory_uint_round_trip(addr in 0u64..1000, v: u64, size in prop_oneof![Just(1u64), Just(2), Just(4), Just(8)]) {
        let mut m = VecMemory::new(2048);
        let masked = if size == 8 { v } else { v & ((1 << (size * 8)) - 1) };
        m.write_uint(addr, size, v);
        prop_assert_eq!(m.read_uint(addr, size), masked);
    }

    /// x0 stays zero no matter what executes.
    #[test]
    fn x0_invariant(vals in proptest::collection::vec(-100i64..100, 1..20)) {
        let mut a = Assembler::new();
        for v in &vals {
            a.li(XReg::ZERO, *v);
            a.addi(XReg::ZERO, XReg::ZERO, *v);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(VecMemory::new(64), 512);
        m.run(&p, 10_000).unwrap();
        prop_assert_eq!(m.xreg(XReg::ZERO), 0);
    }

    /// vsetvl never grants more than VLMAX and never more than requested.
    #[test]
    fn vsetvl_grant_bounds(avl in 0u32..10_000, vlen_pow in 7u32..12) {
        let vlen = 1 << vlen_pow; // 128..2048
        let mut a = Assembler::new();
        a.li(XReg::new(1), i64::from(avl));
        a.vsetvli(XReg::new(2), XReg::new(1), Sew::E32);
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(VecMemory::new(64), vlen);
        m.run(&p, 100).unwrap();
        let granted = m.xreg(XReg::new(2)) as u32;
        prop_assert!(granted <= avl);
        prop_assert!(granted <= vlen / 32);
        if avl >= vlen / 32 {
            prop_assert_eq!(granted, vlen / 32);
        } else {
            prop_assert_eq!(granted, avl);
        }
    }

    /// A vectorized add produces the same memory image as the scalar loop,
    /// element for element, for arbitrary inputs and lengths.
    #[test]
    fn vector_add_matches_scalar(
        xs in proptest::collection::vec(any::<i32>(), 1..64),
        ys_seed in any::<u32>(),
    ) {
        let n = xs.len();
        let a_base = 0x1000u64;
        let b_base = a_base + (n as u64) * 4;
        let c_vec_base = b_base + (n as u64) * 4;
        let c_sca_base = c_vec_base + (n as u64) * 4;

        let mut mem = VecMemory::new(1 << 16);
        for (i, &x) in xs.iter().enumerate() {
            let y = ys_seed.wrapping_add((i as u32).wrapping_mul(2_654_435_761)) as i32;
            mem.write_uint(a_base + i as u64 * 4, 4, x as u32 as u64);
            mem.write_uint(b_base + i as u64 * 4, 4, y as u32 as u64);
        }

        // Vector version (strip-mined).
        let (x_n, x_a, x_b, x_c, x_vl) = (
            XReg::new(10),
            XReg::new(11),
            XReg::new(12),
            XReg::new(13),
            XReg::new(14),
        );
        let mut a = Assembler::new();
        a.li(x_n, n as i64);
        a.li(x_a, a_base as i64);
        a.li(x_b, b_base as i64);
        a.li(x_c, c_vec_base as i64);
        a.label("strip");
        a.vsetvli(x_vl, x_n, Sew::E32);
        a.vle(VReg::new(1), x_a);
        a.vle(VReg::new(2), x_b);
        a.vadd_vv(VReg::new(3), VReg::new(1), VReg::new(2));
        a.vse(VReg::new(3), x_c);
        let x_bytes = XReg::new(15);
        a.slli(x_bytes, x_vl, 2);
        a.add(x_a, x_a, x_bytes);
        a.add(x_b, x_b, x_bytes);
        a.add(x_c, x_c, x_bytes);
        a.sub(x_n, x_n, x_vl);
        a.bne(x_n, XReg::ZERO, "strip");
        a.halt();
        let pv = a.assemble().unwrap();
        let mut mv = Machine::new(mem.clone(), 512);
        mv.run(&pv, 1_000_000).unwrap();

        // Scalar version.
        let mut a = Assembler::new();
        let (t0, t1) = (XReg::new(20), XReg::new(21));
        a.li(x_n, n as i64);
        a.li(x_a, a_base as i64);
        a.li(x_b, b_base as i64);
        a.li(x_c, c_sca_base as i64);
        a.label("loop");
        a.lw(t0, x_a, 0);
        a.lw(t1, x_b, 0);
        a.add(t0, t0, t1);
        a.sw(t0, x_c, 0);
        a.addi(x_a, x_a, 4);
        a.addi(x_b, x_b, 4);
        a.addi(x_c, x_c, 4);
        a.addi(x_n, x_n, -1);
        a.bne(x_n, XReg::ZERO, "loop");
        a.halt();
        let ps = a.assemble().unwrap();
        let mut ms = Machine::new(mem, 512);
        ms.run(&ps, 1_000_000).unwrap();

        for i in 0..n as u64 {
            prop_assert_eq!(
                mv.mem().read_uint(c_vec_base + i * 4, 4),
                ms.mem().read_uint(c_sca_base + i * 4, 4),
                "element {}", i
            );
        }
    }

    /// vrgather with the identity index vector is a copy; with a reversal
    /// permutation applied twice it is also a copy.
    #[test]
    fn rgather_permutation_involution(vals in proptest::collection::vec(0u32..1000, 2..16)) {
        let n = vals.len();
        let mut a = Assembler::new();
        a.vsetivli(XReg::new(1), n as u32, Sew::E32);
        // v1 = data
        let mut mem = VecMemory::new(1 << 12);
        for (i, v) in vals.iter().enumerate() {
            mem.write_uint(0x100 + i as u64 * 4, 4, u64::from(*v));
        }
        a.li(XReg::new(2), 0x100);
        a.vle(VReg::new(1), XReg::new(2));
        // v2 = reversal indices: (n-1) - vid
        a.vid(VReg::new(3));
        a.li(XReg::new(3), n as i64 - 1);
        a.vmv_v_x(VReg::new(4), XReg::new(3));
        a.vsub_vv(VReg::new(2), VReg::new(4), VReg::new(3)); // v2 = v4 - v3
        // reverse twice
        a.vrgather(VReg::new(5), VReg::new(1), VReg::new(2));
        a.vrgather(VReg::new(6), VReg::new(5), VReg::new(2));
        a.li(XReg::new(4), 0x200);
        a.vse(VReg::new(6), XReg::new(4));
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(mem, 2048);
        m.run(&p, 10_000).unwrap();
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(m.mem().read_uint(0x200 + i as u64 * 4, 4), u64::from(*v));
        }
    }

    /// Integer sum reduction equals the wrapping scalar sum.
    #[test]
    fn redsum_matches_scalar_sum(vals in proptest::collection::vec(any::<u32>(), 1..16)) {
        let n = vals.len();
        let mut mem = VecMemory::new(1 << 12);
        for (i, v) in vals.iter().enumerate() {
            mem.write_uint(0x100 + i as u64 * 4, 4, u64::from(*v));
        }
        let mut a = Assembler::new();
        a.vsetivli(XReg::new(1), n as u32, Sew::E32);
        a.li(XReg::new(2), 0x100);
        a.vle(VReg::new(1), XReg::new(2));
        a.vmv_s_x(VReg::new(2), XReg::ZERO);
        a.vredsum(VReg::new(3), VReg::new(1), VReg::new(2));
        a.vmv_x_s(XReg::new(3), VReg::new(3));
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(mem, 2048);
        m.run(&p, 1_000).unwrap();
        let expect = vals.iter().fold(0u32, |acc, &v| acc.wrapping_add(v));
        prop_assert_eq!(m.xreg(XReg::new(3)) as u32, expect);
    }
}
