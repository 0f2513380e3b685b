//! The restricted assembly format differential-test programs live in.
//!
//! A [`DtProgram`] is a flat list of [`DtOp`] lines covering exactly the
//! vocabulary the random generator emits: a scalar RV64 subset, forward
//! branches and label-bounded loops, and the RVV 1.0 subset the timing
//! models implement (unit/strided/indexed memory, masked ops, `vsetvli`,
//! arithmetic, reductions, permutations).
//!
//! The format round-trips: [`DtProgram::render`] produces RVV-style
//! assembly text, [`DtProgram::parse`] reads the same grammar back, and
//! [`DtProgram::assemble`] lowers to a [`Program`] via the workspace
//! assembler. Regression-corpus files under `corpus/*.s` are stored in
//! this format, so a shrunken divergence can be committed verbatim and
//! replayed as an ordinary test.

use bvl_isa::asm::{AsmError, Assembler, Program};
use bvl_isa::instr::{AluOp, BranchOp, FpOp, FpPrec};
use bvl_isa::reg::{FReg, VReg, XReg};
use bvl_isa::vcfg::Sew;
use std::fmt;

/// Scalar register-register ALU mnemonics and their ops.
const ALU_RR: &[(&str, AluOp)] = &[
    ("add", AluOp::Add),
    ("sub", AluOp::Sub),
    ("mul", AluOp::Mul),
    ("div", AluOp::Div),
    ("divu", AluOp::Divu),
    ("rem", AluOp::Rem),
    ("remu", AluOp::Remu),
    ("and", AluOp::And),
    ("or", AluOp::Or),
    ("xor", AluOp::Xor),
    ("slt", AluOp::Slt),
    ("sltu", AluOp::Sltu),
];

/// Scalar register-immediate ALU mnemonics and their ops.
const ALU_RI: &[(&str, AluOp)] = &[
    ("addi", AluOp::Add),
    ("andi", AluOp::And),
    ("slli", AluOp::Sll),
    ("srli", AluOp::Srl),
    ("srai", AluOp::Sra),
];

/// Scalar FP three-operand mnemonics and their ops (single precision).
const FP_RRR: &[(&str, FpOp)] = &[
    ("fadd.s", FpOp::Add),
    ("fsub.s", FpOp::Sub),
    ("fmul.s", FpOp::Mul),
    ("fmin.s", FpOp::Min),
    ("fmax.s", FpOp::Max),
];

/// Branch mnemonics and their conditions.
const BRANCHES: &[(&str, BranchOp)] = &[
    ("beq", BranchOp::Eq),
    ("bne", BranchOp::Ne),
    ("blt", BranchOp::Lt),
    ("bge", BranchOp::Ge),
    ("bltu", BranchOp::Ltu),
    ("bgeu", BranchOp::Geu),
];

/// Scalar load mnemonics.
const LOADS: &[&str] = &["lw", "ld", "lbu"];
/// Scalar store mnemonics.
const STORES: &[&str] = &["sw", "sd", "sb"];

/// `v*.vv`-shaped mnemonics: `mn vd, vs2, vs1` in text order (the
/// assembler helpers take operands in the same order as the text, so
/// emission is uniform; this includes the `.vs` reductions and
/// `vfmacc.vv`, whose text order is `vd, vs1, vs2`).
const VVV: &[&str] = &[
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
    "vmslt.vv",
    "vmflt.vv",
    "vredsum.vs",
    "vredmax.vs",
    "vredmin.vs",
    "vfredosum.vs",
    "vrgather.vv",
];

/// `v*.vx`-shaped mnemonics: `mn vd, vs2, rs1`.
const VVX: &[&str] = &[
    "vadd.vx",
    "vmax.vx",
    "vmseq.vx",
    "vslideup.vx",
    "vslidedown.vx",
];

/// One line of a differential-test program.
#[derive(Clone, Debug, PartialEq)]
pub enum DtOp {
    /// A label definition (`name:`).
    Label(String),
    /// `li rd, imm`.
    Li(XReg, i64),
    /// Register-register ALU op (`add rd, rs1, rs2`, ...).
    Alu(&'static str, XReg, XReg, XReg),
    /// Register-immediate ALU op (`addi rd, rs1, imm`, ...).
    AluImm(&'static str, XReg, XReg, i64),
    /// Scalar load (`lw rd, off(base)`, ...).
    Load(&'static str, XReg, i64, XReg),
    /// Scalar store (`sw src, off(base)`, ...).
    Store(&'static str, XReg, i64, XReg),
    /// Conditional branch to a label (`beq rs1, rs2, target`, ...).
    Branch(&'static str, XReg, XReg, String),
    /// Unconditional jump (`j target`).
    Jump(String),
    /// Scalar FP op (`fadd.s rd, rs1, rs2`, ...).
    Fp(&'static str, FReg, FReg, FReg),
    /// `fmv.w.x rd, rs1` — move integer bits into an FP register.
    FmvWX(FReg, XReg),
    /// `flw rd, off(base)`.
    Flw(FReg, i64, XReg),
    /// `fsw src, off(base)`.
    Fsw(FReg, i64, XReg),
    /// `vsetvli rd, avl, sew`.
    Vsetvli(XReg, XReg, Sew),
    /// Unit-stride vector load/store (`vle.v`/`vse.v`), optionally masked.
    VMemUnit {
        /// True for `vse.v`.
        store: bool,
        /// Data register.
        vreg: VReg,
        /// Base address register.
        base: XReg,
        /// Executes under `v0.t` when set.
        masked: bool,
    },
    /// Strided vector load/store (`vlse.v`/`vsse.v`).
    VMemStrided {
        /// True for `vsse.v`.
        store: bool,
        /// Data register.
        vreg: VReg,
        /// Base address register.
        base: XReg,
        /// Byte-stride register.
        stride: XReg,
    },
    /// Indexed vector load/store (`vluxei.v`/`vsuxei.v`), optionally
    /// masked.
    VMemIndexed {
        /// True for `vsuxei.v`.
        store: bool,
        /// Data register.
        vreg: VReg,
        /// Base address register.
        base: XReg,
        /// Per-element byte-offset vector.
        index: VReg,
        /// Executes under `v0.t` when set.
        masked: bool,
    },
    /// Three-vector-operand op (see `VVV` for text operand order).
    Vvv(&'static str, VReg, VReg, VReg),
    /// Vector-scalar op (`mn vd, vs2, rs1`; see `VVX`).
    Vvx(&'static str, VReg, VReg, XReg),
    /// `vsll.vi vd, vs2, imm`.
    VsllVi(VReg, VReg, i64),
    /// `vmerge.vvm vd, vs2, vs1, v0`.
    VmergeVvm(VReg, VReg, VReg),
    /// `vmv.v.x vd, rs1`.
    VmvVX(VReg, XReg),
    /// `vmv.x.s rd, vs2`.
    VmvXS(XReg, VReg),
    /// `vid.v vd`.
    Vid(VReg),
    /// `vpopc.m rd, vs2`.
    Vpopc(XReg, VReg),
    /// Stop the hart.
    Halt,
    /// No operation.
    Nop,
}

impl DtOp {
    fn emit(&self, a: &mut Assembler) {
        match self {
            DtOp::Label(l) => {
                a.label(l.clone());
            }
            DtOp::Li(rd, imm) => {
                a.li(*rd, *imm);
            }
            DtOp::Alu(mn, rd, rs1, rs2) => {
                let op = lookup(ALU_RR, mn);
                a.op(op, *rd, *rs1, *rs2);
            }
            DtOp::AluImm(mn, rd, rs1, imm) => {
                let op = lookup(ALU_RI, mn);
                a.op_imm(op, *rd, *rs1, *imm);
            }
            DtOp::Load(mn, rd, off, base) => {
                match *mn {
                    "lw" => a.lw(*rd, *base, *off),
                    "ld" => a.ld(*rd, *base, *off),
                    "lbu" => a.lbu(*rd, *base, *off),
                    other => unreachable!("load mnemonic {other}"),
                };
            }
            DtOp::Store(mn, src, off, base) => {
                match *mn {
                    "sw" => a.sw(*src, *base, *off),
                    "sd" => a.sd(*src, *base, *off),
                    "sb" => a.sb(*src, *base, *off),
                    other => unreachable!("store mnemonic {other}"),
                };
            }
            DtOp::Branch(mn, rs1, rs2, target) => {
                let op = lookup(BRANCHES, mn);
                a.branch(op, *rs1, *rs2, target.clone());
            }
            DtOp::Jump(target) => {
                a.j(target.clone());
            }
            DtOp::Fp(mn, rd, rs1, rs2) => {
                let op = lookup(FP_RRR, mn);
                a.fp_op(op, FpPrec::S, *rd, *rs1, *rs2);
            }
            DtOp::FmvWX(rd, rs1) => {
                a.fmv_w_x(*rd, *rs1);
            }
            DtOp::Flw(rd, off, base) => {
                a.flw(*rd, *base, *off);
            }
            DtOp::Fsw(src, off, base) => {
                a.fsw(*src, *base, *off);
            }
            DtOp::Vsetvli(rd, avl, sew) => {
                a.vsetvli(*rd, *avl, *sew);
            }
            DtOp::VMemUnit {
                store,
                vreg,
                base,
                masked,
            } => {
                match (store, masked) {
                    (false, false) => a.vle(*vreg, *base),
                    (false, true) => a.vle_m(*vreg, *base),
                    (true, false) => a.vse(*vreg, *base),
                    (true, true) => a.vse_m(*vreg, *base),
                };
            }
            DtOp::VMemStrided {
                store,
                vreg,
                base,
                stride,
            } => {
                if *store {
                    a.vsse(*vreg, *base, *stride);
                } else {
                    a.vlse(*vreg, *base, *stride);
                }
            }
            DtOp::VMemIndexed {
                store,
                vreg,
                base,
                index,
                masked,
            } => {
                match (store, masked) {
                    (false, false) => a.vluxei(*vreg, *base, *index),
                    (false, true) => a.vluxei_m(*vreg, *base, *index),
                    (true, false) => a.vsuxei(*vreg, *base, *index),
                    (true, true) => a.vsuxei_m(*vreg, *base, *index),
                };
            }
            DtOp::Vvv(mn, vd, x, y) => {
                let (vd, x, y) = (*vd, *x, *y);
                match *mn {
                    "vadd.vv" => a.vadd_vv(vd, x, y),
                    "vsub.vv" => a.vsub_vv(vd, x, y),
                    "vmul.vv" => a.vmul_vv(vd, x, y),
                    "vand.vv" => a.vand_vv(vd, x, y),
                    "vmin.vv" => a.vmin_vv(vd, x, y),
                    "vmax.vv" => a.vmax_vv(vd, x, y),
                    "vfadd.vv" => a.vfadd_vv(vd, x, y),
                    "vfsub.vv" => a.vfsub_vv(vd, x, y),
                    "vfmul.vv" => a.vfmul_vv(vd, x, y),
                    "vfmacc.vv" => a.vfmacc_vv(vd, x, y),
                    "vmslt.vv" => a.vmslt_vv(vd, x, y),
                    "vmflt.vv" => a.vmflt_vv(vd, x, y),
                    "vredsum.vs" => a.vredsum(vd, x, y),
                    "vredmax.vs" => a.vredmax(vd, x, y),
                    "vredmin.vs" => a.vredmin(vd, x, y),
                    "vfredosum.vs" => a.vfredosum(vd, x, y),
                    "vrgather.vv" => a.vrgather(vd, x, y),
                    other => unreachable!("vvv mnemonic {other}"),
                };
            }
            DtOp::Vvx(mn, vd, vs2, rs1) => {
                let (vd, vs2, rs1) = (*vd, *vs2, *rs1);
                match *mn {
                    "vadd.vx" => a.vadd_vx(vd, vs2, rs1),
                    "vmax.vx" => a.vmax_vx(vd, vs2, rs1),
                    "vmseq.vx" => a.vmseq_vx(vd, vs2, rs1),
                    "vslideup.vx" => a.vslideup(vd, vs2, rs1),
                    "vslidedown.vx" => a.vslidedown(vd, vs2, rs1),
                    other => unreachable!("vvx mnemonic {other}"),
                };
            }
            DtOp::VsllVi(vd, vs2, imm) => {
                a.vsll_vi(*vd, *vs2, *imm);
            }
            DtOp::VmergeVvm(vd, vs2, vs1) => {
                a.vmerge_vvm(*vd, *vs2, *vs1);
            }
            DtOp::VmvVX(vd, rs1) => {
                a.vmv_v_x(*vd, *rs1);
            }
            DtOp::VmvXS(rd, vs2) => {
                a.vmv_x_s(*rd, *vs2);
            }
            DtOp::Vid(vd) => {
                a.vid(*vd);
            }
            DtOp::Vpopc(rd, vs2) => {
                a.vpopc(*rd, *vs2);
            }
            DtOp::Halt => {
                a.halt();
            }
            DtOp::Nop => {
                a.nop();
            }
        }
    }
}

fn lookup<T: Copy>(table: &[(&str, T)], mn: &str) -> T {
    table
        .iter()
        .find(|(m, _)| *m == mn)
        .map(|(_, op)| *op)
        .unwrap_or_else(|| unreachable!("unknown mnemonic {mn}"))
}

/// Resolves a parsed mnemonic to its canonical `&'static str`.
fn canonical(tables: &[&[&'static str]], mn: &str) -> Option<&'static str> {
    tables
        .iter()
        .flat_map(|t| t.iter())
        .find(|m| **m == mn)
        .copied()
}

impl fmt::Display for DtOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mask = |m: bool| if m { ", v0.t" } else { "" };
        match self {
            DtOp::Label(l) => write!(f, "{l}:"),
            DtOp::Li(rd, imm) => write!(f, "  li {rd}, {imm}"),
            DtOp::Alu(mn, rd, rs1, rs2) => write!(f, "  {mn} {rd}, {rs1}, {rs2}"),
            DtOp::AluImm(mn, rd, rs1, imm) => write!(f, "  {mn} {rd}, {rs1}, {imm}"),
            DtOp::Load(mn, rd, off, base) => write!(f, "  {mn} {rd}, {off}({base})"),
            DtOp::Store(mn, src, off, base) => write!(f, "  {mn} {src}, {off}({base})"),
            DtOp::Branch(mn, rs1, rs2, target) => write!(f, "  {mn} {rs1}, {rs2}, {target}"),
            DtOp::Jump(target) => write!(f, "  j {target}"),
            DtOp::Fp(mn, rd, rs1, rs2) => write!(f, "  {mn} {rd}, {rs1}, {rs2}"),
            DtOp::FmvWX(rd, rs1) => write!(f, "  fmv.w.x {rd}, {rs1}"),
            DtOp::Flw(rd, off, base) => write!(f, "  flw {rd}, {off}({base})"),
            DtOp::Fsw(src, off, base) => write!(f, "  fsw {src}, {off}({base})"),
            DtOp::Vsetvli(rd, avl, sew) => write!(f, "  vsetvli {rd}, {avl}, {sew}"),
            DtOp::VMemUnit {
                store,
                vreg,
                base,
                masked,
            } => {
                let mn = if *store { "vse.v" } else { "vle.v" };
                write!(f, "  {mn} {vreg}, ({base}){}", mask(*masked))
            }
            DtOp::VMemStrided {
                store,
                vreg,
                base,
                stride,
            } => {
                let mn = if *store { "vsse.v" } else { "vlse.v" };
                write!(f, "  {mn} {vreg}, ({base}), {stride}")
            }
            DtOp::VMemIndexed {
                store,
                vreg,
                base,
                index,
                masked,
            } => {
                let mn = if *store { "vsuxei.v" } else { "vluxei.v" };
                write!(f, "  {mn} {vreg}, ({base}), {index}{}", mask(*masked))
            }
            DtOp::Vvv(mn, vd, x, y) => write!(f, "  {mn} {vd}, {x}, {y}"),
            DtOp::Vvx(mn, vd, vs2, rs1) => write!(f, "  {mn} {vd}, {vs2}, {rs1}"),
            DtOp::VsllVi(vd, vs2, imm) => write!(f, "  vsll.vi {vd}, {vs2}, {imm}"),
            DtOp::VmergeVvm(vd, vs2, vs1) => write!(f, "  vmerge.vvm {vd}, {vs2}, {vs1}, v0"),
            DtOp::VmvVX(vd, rs1) => write!(f, "  vmv.v.x {vd}, {rs1}"),
            DtOp::VmvXS(rd, vs2) => write!(f, "  vmv.x.s {rd}, {vs2}"),
            DtOp::Vid(vd) => write!(f, "  vid.v {vd}"),
            DtOp::Vpopc(rd, vs2) => write!(f, "  vpopc.m {rd}, {vs2}"),
            DtOp::Halt => write!(f, "  halt"),
            DtOp::Nop => write!(f, "  nop"),
        }
    }
}

/// A differential-test program: a flat line list that renders to text,
/// parses back, and assembles to a runnable [`Program`].
///
/// By convention a complete program defines two self-contained sections,
/// `serial:` (scalar-only) and `vector:` (mixed scalar/vector), each
/// ending in `halt` — the two entry points the harness feeds to the
/// systems under test.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct DtProgram {
    /// The program lines, in order.
    pub lines: Vec<DtOp>,
}

impl DtProgram {
    /// Renders the program as assembly text (the corpus file format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }

    /// Lowers to an executable [`Program`].
    ///
    /// # Errors
    ///
    /// Propagates assembler errors (duplicate or undefined labels).
    pub fn assemble(&self) -> Result<Program, AsmError> {
        let mut a = Assembler::new();
        for line in &self.lines {
            line.emit(&mut a);
        }
        a.assemble()
    }

    /// Parses the text format produced by [`DtProgram::render`].
    ///
    /// # Errors
    ///
    /// Reports the first malformed line with its 1-based line number.
    pub fn parse(text: &str) -> Result<DtProgram, String> {
        let mut lines = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            lines.push(parse_line(line).map_err(|e| format!("line {}: {e}: `{line}`", n + 1))?);
        }
        Ok(DtProgram { lines })
    }
}

fn xreg(tok: &str) -> Result<XReg, String> {
    parse_reg(tok, 'x').map(XReg::new)
}

fn freg(tok: &str) -> Result<FReg, String> {
    parse_reg(tok, 'f').map(FReg::new)
}

fn vreg(tok: &str) -> Result<VReg, String> {
    parse_reg(tok, 'v').map(VReg::new)
}

fn parse_reg(tok: &str, prefix: char) -> Result<u8, String> {
    tok.strip_prefix(prefix)
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|n| *n < 32)
        .ok_or_else(|| format!("expected {prefix}-register, got `{tok}`"))
}

fn imm(tok: &str) -> Result<i64, String> {
    tok.parse::<i64>()
        .map_err(|_| format!("expected immediate, got `{tok}`"))
}

fn sew(tok: &str) -> Result<Sew, String> {
    match tok {
        "e8" => Ok(Sew::E8),
        "e16" => Ok(Sew::E16),
        "e32" => Ok(Sew::E32),
        "e64" => Ok(Sew::E64),
        other => Err(format!("expected element width, got `{other}`")),
    }
}

/// Splits `off(base)` into the offset and base register.
fn mem_operand(tok: &str) -> Result<(i64, XReg), String> {
    let (off, rest) = tok
        .split_once('(')
        .ok_or_else(|| format!("expected off(base), got `{tok}`"))?;
    let base = rest
        .strip_suffix(')')
        .ok_or_else(|| format!("expected off(base), got `{tok}`"))?;
    let off = if off.is_empty() { 0 } else { imm(off)? };
    Ok((off, xreg(base)?))
}

/// Strips the parentheses from a bare `(base)` operand.
fn paren_base(tok: &str) -> Result<XReg, String> {
    let inner = tok
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| format!("expected (base), got `{tok}`"))?;
    xreg(inner)
}

fn parse_line(line: &str) -> Result<DtOp, String> {
    if let Some(label) = line.strip_suffix(':') {
        if label.is_empty() || !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label `{label}`"));
        }
        return Ok(DtOp::Label(label.to_string()));
    }
    let (mn, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let ops: Vec<&str> = rest
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .collect();
    let argc = |want: usize| -> Result<(), String> {
        if ops.len() == want {
            Ok(())
        } else {
            Err(format!("expected {want} operands, got {}", ops.len()))
        }
    };
    // Trailing `v0.t` marks a masked vector memory op.
    let masked = ops.last() == Some(&"v0.t");
    let vops: Vec<&str> = if masked {
        ops[..ops.len() - 1].to_vec()
    } else {
        ops.clone()
    };

    if let Some(canon) = canonical(&[VVV], mn) {
        argc(3)?;
        return Ok(DtOp::Vvv(
            canon,
            vreg(ops[0])?,
            vreg(ops[1])?,
            vreg(ops[2])?,
        ));
    }
    if let Some(canon) = canonical(&[VVX], mn) {
        argc(3)?;
        return Ok(DtOp::Vvx(
            canon,
            vreg(ops[0])?,
            vreg(ops[1])?,
            xreg(ops[2])?,
        ));
    }
    if let Some((canon, _)) = ALU_RR.iter().find(|(m, _)| *m == mn) {
        argc(3)?;
        return Ok(DtOp::Alu(
            canon,
            xreg(ops[0])?,
            xreg(ops[1])?,
            xreg(ops[2])?,
        ));
    }
    if let Some((canon, _)) = ALU_RI.iter().find(|(m, _)| *m == mn) {
        argc(3)?;
        return Ok(DtOp::AluImm(
            canon,
            xreg(ops[0])?,
            xreg(ops[1])?,
            imm(ops[2])?,
        ));
    }
    if let Some((canon, _)) = FP_RRR.iter().find(|(m, _)| *m == mn) {
        argc(3)?;
        return Ok(DtOp::Fp(canon, freg(ops[0])?, freg(ops[1])?, freg(ops[2])?));
    }
    if let Some((canon, _)) = BRANCHES.iter().find(|(m, _)| *m == mn) {
        argc(3)?;
        return Ok(DtOp::Branch(
            canon,
            xreg(ops[0])?,
            xreg(ops[1])?,
            ops[2].to_string(),
        ));
    }
    if let Some(canon) = LOADS.iter().find(|m| **m == mn) {
        argc(2)?;
        let (off, base) = mem_operand(ops[1])?;
        return Ok(DtOp::Load(canon, xreg(ops[0])?, off, base));
    }
    if let Some(canon) = STORES.iter().find(|m| **m == mn) {
        argc(2)?;
        let (off, base) = mem_operand(ops[1])?;
        return Ok(DtOp::Store(canon, xreg(ops[0])?, off, base));
    }
    match mn {
        "li" => {
            argc(2)?;
            Ok(DtOp::Li(xreg(ops[0])?, imm(ops[1])?))
        }
        "j" => {
            argc(1)?;
            Ok(DtOp::Jump(ops[0].to_string()))
        }
        "fmv.w.x" => {
            argc(2)?;
            Ok(DtOp::FmvWX(freg(ops[0])?, xreg(ops[1])?))
        }
        "flw" => {
            argc(2)?;
            let (off, base) = mem_operand(ops[1])?;
            Ok(DtOp::Flw(freg(ops[0])?, off, base))
        }
        "fsw" => {
            argc(2)?;
            let (off, base) = mem_operand(ops[1])?;
            Ok(DtOp::Fsw(freg(ops[0])?, off, base))
        }
        "vsetvli" => {
            argc(3)?;
            Ok(DtOp::Vsetvli(xreg(ops[0])?, xreg(ops[1])?, sew(ops[2])?))
        }
        "vle.v" | "vse.v" => {
            if vops.len() != 2 {
                return Err(format!("expected 2 operands, got {}", vops.len()));
            }
            Ok(DtOp::VMemUnit {
                store: mn == "vse.v",
                vreg: vreg(vops[0])?,
                base: paren_base(vops[1])?,
                masked,
            })
        }
        "vlse.v" | "vsse.v" => {
            argc(3)?;
            Ok(DtOp::VMemStrided {
                store: mn == "vsse.v",
                vreg: vreg(ops[0])?,
                base: paren_base(ops[1])?,
                stride: xreg(ops[2])?,
            })
        }
        "vluxei.v" | "vsuxei.v" => {
            if vops.len() != 3 {
                return Err(format!("expected 3 operands, got {}", vops.len()));
            }
            Ok(DtOp::VMemIndexed {
                store: mn == "vsuxei.v",
                vreg: vreg(vops[0])?,
                base: paren_base(vops[1])?,
                index: vreg(vops[2])?,
                masked,
            })
        }
        "vsll.vi" => {
            argc(3)?;
            Ok(DtOp::VsllVi(vreg(ops[0])?, vreg(ops[1])?, imm(ops[2])?))
        }
        "vmerge.vvm" => {
            argc(4)?;
            if ops[3] != "v0" {
                return Err("vmerge.vvm mask operand must be v0".to_string());
            }
            Ok(DtOp::VmergeVvm(vreg(ops[0])?, vreg(ops[1])?, vreg(ops[2])?))
        }
        "vmv.v.x" => {
            argc(2)?;
            Ok(DtOp::VmvVX(vreg(ops[0])?, xreg(ops[1])?))
        }
        "vmv.x.s" => {
            argc(2)?;
            Ok(DtOp::VmvXS(xreg(ops[0])?, vreg(ops[1])?))
        }
        "vid.v" => {
            argc(1)?;
            Ok(DtOp::Vid(vreg(ops[0])?))
        }
        "vpopc.m" => {
            argc(2)?;
            Ok(DtOp::Vpopc(xreg(ops[0])?, vreg(ops[1])?))
        }
        "halt" => {
            argc(0)?;
            Ok(DtOp::Halt)
        }
        "nop" => {
            argc(0)?;
            Ok(DtOp::Nop)
        }
        other => Err(format!("unknown mnemonic `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
serial:
  li x5, -7          # init
  add x6, x5, x5
  addi x7, x6, 12
  sw x7, 8(x20)
  lw x8, 8(x20)
  beq x8, x7, done
  div x9, x8, x5
done:
  fmv.w.x f1, x5
  fadd.s f2, f1, f1
  halt
vector:
  li x27, 17
  vsetvli x14, x27, e32
  vid.v v7
  vsll.vi v7, v7, 2
  vle.v v1, (x20)
  vluxei.v v2, (x21), v7, v0.t
  vlse.v v3, (x22), x26
  vadd.vv v4, v1, v2
  vredsum.vs v5, v4, v1
  vmerge.vvm v6, v1, v2, v0
  vse.v v4, (x23)
  vmv.x.s x5, v5
  halt
";

    #[test]
    fn parse_render_round_trips() {
        let p = DtProgram::parse(SAMPLE).expect("parse");
        let rendered = p.render();
        let p2 = DtProgram::parse(&rendered).expect("reparse");
        assert_eq!(p, p2);
        // Rendering is canonical: render(parse(render(x))) == render(x).
        assert_eq!(p2.render(), rendered);
    }

    #[test]
    fn sample_assembles_with_both_entries() {
        let p = DtProgram::parse(SAMPLE).expect("parse");
        let prog = p.assemble().expect("assemble");
        assert!(prog.label("serial").is_some());
        assert!(prog.label("vector").is_some());
    }

    #[test]
    fn masked_and_unmasked_forms_are_distinct() {
        let m = DtProgram::parse("  vle.v v1, (x20), v0.t").unwrap();
        let u = DtProgram::parse("  vle.v v1, (x20)").unwrap();
        assert_ne!(m, u);
        assert!(m.render().contains("v0.t"));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = DtProgram::parse("  nop\n  bogus x1, x2\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = DtProgram::parse("  lw x5, x6\n").unwrap_err();
        assert!(err.contains("off(base)"), "{err}");
    }
}
