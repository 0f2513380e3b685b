//! The golden functional executor.
//!
//! [`Machine`] interprets a [`Program`] against architectural state: 32
//! integer registers, 32 FP registers, 32 vector registers of a configurable
//! hardware vector length, and a [`Memory`]. It is *purely functional* (no
//! timing): the timing models in `bvl-core`/`bvl-vengine` call
//! [`Machine::step`] as their semantic oracle and consume the returned
//! [`StepInfo`] (effective addresses, branch outcomes) to drive their
//! pipelines, so a timing bug can never corrupt program results.
//!
//! Masks are modeled one element per mask-register slot (LSB significant)
//! rather than bit-packed; this is semantically equivalent for the modeled
//! subset and keeps the element-to-core mapping in the VLITTLE engine
//! uniform.

use crate::asm::Program;
use crate::instr::{
    AluOp, AvlSrc, BranchOp, FpCmpOp, FpOp, FpPrec, Instr, VArithOp, VCmpOp, VMaskOp, VMemMode,
    VRedOp, VSrc,
};
use crate::mem::Memory;
use crate::reg::{FReg, VReg, XReg, NUM_REGS};
use crate::vcfg::{Sew, VectorConfig};
use bvl_snap::Snap;
use std::fmt;

/// One memory access performed by an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// True for stores.
    pub is_store: bool,
}

/// Everything a timing model needs to know about one executed instruction.
#[derive(Clone, Debug)]
pub struct StepInfo {
    /// Index of the executed instruction.
    pub pc: u32,
    /// The instruction itself.
    pub instr: Instr,
    /// Redirect target if control flow left fall-through.
    pub taken: Option<u32>,
    /// Memory accesses performed (one per element for gathers/scatters).
    pub mem: Vec<MemAccess>,
    /// Vector length in effect (vector instructions only; 0 otherwise).
    pub vl: u32,
    /// Element width in effect.
    pub sew: Sew,
    /// True once the hart has halted.
    pub halted: bool,
}

/// Dynamic-count statistics accumulated by the executor, used for the
/// workload-characterization tables (paper Tables IV and V).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Total dynamic instructions.
    pub instrs: u64,
    /// Dynamic vector instructions.
    pub vector_instrs: u64,
    /// Vector *element* operations (sum of vl over vector instructions).
    pub vector_elem_ops: u64,
    /// Scalar memory accesses.
    pub scalar_mem_ops: u64,
    /// Vector memory instructions.
    pub vector_mem_instrs: u64,
    /// Floating-point operations (scalar + per-element vector).
    pub fp_ops: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches taken.
    pub branches_taken: u64,
}

impl ExecCounters {
    /// Fraction of dynamic work performed by vector instructions, counting
    /// each vector instruction as `vl` element operations (the paper's
    /// "VOp" metric).
    pub fn vectorized_fraction(&self) -> f64 {
        let scalar = (self.instrs - self.vector_instrs) as f64;
        let velems = self.vector_elem_ops as f64;
        if scalar + velems == 0.0 {
            0.0
        } else {
            velems / (scalar + velems)
        }
    }
}

/// Error returned by [`Machine::run`] and [`Machine::step`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the program without reaching `halt`.
    PcOutOfRange(u32),
    /// The step limit was exhausted before `halt`.
    StepLimit(u64),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange(pc) => write!(f, "pc {pc} left the program without halting"),
            ExecError::StepLimit(n) => write!(f, "step limit of {n} instructions exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A comparable snapshot of a machine's complete architectural state.
///
/// Captured by [`Machine::snapshot`] after a run; two machines that
/// executed the same instruction stream from the same initial state must
/// produce *identical* snapshots regardless of the timing model driving
/// them — the invariant the differential-test harness checks across every
/// system configuration.
///
/// Equality covers every architecturally visible bit: the integer and FP
/// register files, all 32 vector registers element by element, the vector
/// configuration (`vl`/`sew`), the PC, the halt flag, and the dynamic
/// execution counters. Snapshots taken at different hardware vector
/// lengths compare unequal (`vlen_bits` differs and the vector containers
/// have different shapes) — compare like against like.
#[derive(Clone, PartialEq, Eq)]
pub struct ArchSnapshot {
    /// Hardware vector length the machine was built with.
    pub vlen_bits: u32,
    /// Final program counter (instruction index).
    pub pc: u32,
    /// Whether `halt` executed.
    pub halted: bool,
    /// Granted vector length in effect.
    pub vl: u32,
    /// Selected element width in effect.
    pub sew: Sew,
    /// Integer register file (`x0` always 0).
    pub xregs: [u64; NUM_REGS],
    /// FP register file (raw bits).
    pub fregs: [u64; NUM_REGS],
    /// Vector register file, one container word per element slot.
    pub vregs: Vec<Vec<u64>>,
    /// Dynamic instruction counters accumulated during execution.
    pub counters: ExecCounters,
}

impl fmt::Debug for ArchSnapshot {
    /// Compact rendering: scalar state plus only the *non-zero* registers,
    /// so assertion failures stay readable (a full dump would be 32 vector
    /// registers of up to 256 elements each).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ArchSnapshot {{ vlen={} pc={} halted={} vl={} sew={}",
            self.vlen_bits, self.pc, self.halted, self.vl, self.sew
        )?;
        for (i, v) in self.xregs.iter().enumerate() {
            if *v != 0 {
                writeln!(f, "  x{i} = {v:#x}")?;
            }
        }
        for (i, v) in self.fregs.iter().enumerate() {
            if *v != 0 {
                writeln!(f, "  f{i} = {v:#x}")?;
            }
        }
        for (i, v) in self.vregs.iter().enumerate() {
            if v.iter().any(|e| *e != 0) {
                writeln!(f, "  v{i} = {v:x?}")?;
            }
        }
        write!(f, "  counters: {:?} }}", self.counters)
    }
}

/// The architectural machine state and functional interpreter.
///
/// Generic over [`Memory`] so it can execute against the plain test memory
/// or the simulator's shared memory image.
#[derive(Clone, Debug)]
pub struct Machine<M> {
    xregs: [u64; NUM_REGS],
    fregs: [u64; NUM_REGS],
    vregs: Vec<Vec<u64>>,
    vcfg: VectorConfig,
    vlen_bits: u32,
    pc: u32,
    halted: bool,
    counters: ExecCounters,
    mem: M,
}

impl<M: Memory> Machine<M> {
    /// Creates a machine with the given memory and hardware vector length.
    ///
    /// # Panics
    ///
    /// Panics if `vlen_bits` is not a positive multiple of 64.
    pub fn new(mem: M, vlen_bits: u32) -> Self {
        assert!(
            vlen_bits >= 64 && vlen_bits.is_multiple_of(64),
            "vlen must be a positive multiple of 64 bits"
        );
        let max_elems = (vlen_bits / 8) as usize; // VLMAX at e8
        Machine {
            xregs: [0; NUM_REGS],
            fregs: [0; NUM_REGS],
            vregs: vec![vec![0; max_elems]; NUM_REGS],
            vcfg: VectorConfig::default(),
            vlen_bits,
            pc: 0,
            halted: false,
            counters: ExecCounters::default(),
            mem,
        }
    }

    /// Hardware vector length in bits.
    pub fn vlen_bits(&self) -> u32 {
        self.vlen_bits
    }

    /// Current program counter (instruction index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (e.g. to start a task at a label).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
        self.halted = false;
    }

    /// True once `halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Accumulated dynamic counters.
    pub fn counters(&self) -> ExecCounters {
        self.counters
    }

    /// Reads an integer register.
    pub fn xreg(&self, r: XReg) -> u64 {
        if r.index() == 0 {
            0
        } else {
            self.xregs[r.index()]
        }
    }

    /// Writes an integer register (`x0` writes are ignored).
    pub fn set_xreg(&mut self, r: XReg, v: u64) {
        if r.index() != 0 {
            self.xregs[r.index()] = v;
        }
    }

    /// Reads an FP register's raw bits.
    pub fn freg(&self, r: FReg) -> u64 {
        self.fregs[r.index()]
    }

    /// Writes an FP register's raw bits.
    pub fn set_freg(&mut self, r: FReg, v: u64) {
        self.fregs[r.index()] = v;
    }

    /// Reads element `i` of a vector register (raw container bits).
    pub fn vreg_elem(&self, r: VReg, i: usize) -> u64 {
        self.vregs[r.index()][i]
    }

    /// Writes element `i` of a vector register.
    pub fn set_vreg_elem(&mut self, r: VReg, i: usize, v: u64) {
        self.vregs[r.index()][i] = v;
    }

    /// Borrow of the backing memory.
    pub fn mem(&self) -> &M {
        &self.mem
    }

    /// Captures the complete architectural state for differential
    /// comparison (see [`ArchSnapshot`]).
    pub fn snapshot(&self) -> ArchSnapshot {
        ArchSnapshot {
            vlen_bits: self.vlen_bits,
            pc: self.pc,
            halted: self.halted,
            vl: self.vcfg.vl,
            sew: self.vcfg.sew,
            xregs: self.xregs,
            fregs: self.fregs,
            vregs: self.vregs.clone(),
            counters: self.counters,
        }
    }

    /// Appends the architectural state (registers, vector config, PC, halt
    /// flag, counters — *not* the backing memory, which the simulator
    /// checkpoints once, globally) to a checkpoint.
    ///
    /// Each vector register is written up to its last non-zero element
    /// slot: the rest are zero, so a register the program never wrote
    /// costs one length word however long the hardware vectors are.
    pub fn save_state(&self, w: &mut bvl_snap::SnapWriter) {
        w.u32(self.vlen_bits);
        self.xregs.save(w);
        self.fregs.save(w);
        for v in &self.vregs {
            let used = v.iter().rposition(|&e| e != 0).map_or(0, |i| i + 1);
            w.usize(used);
            for &e in &v[..used] {
                w.u64(e);
            }
        }
        self.vcfg.save(w);
        w.u32(self.pc);
        w.bool(self.halted);
        self.counters.save(w);
    }

    /// Restores state written by [`Machine::save_state`], keeping the
    /// backing memory.
    ///
    /// # Errors
    ///
    /// Fails with [`bvl_snap::SnapError::Corrupt`] if the checkpoint was
    /// taken at a different hardware vector length or holds a vector
    /// register longer than this machine's.
    pub fn restore_state(
        &mut self,
        r: &mut bvl_snap::SnapReader<'_>,
    ) -> Result<(), bvl_snap::SnapError> {
        let vlen_bits = r.u32()?;
        if vlen_bits != self.vlen_bits {
            return Err(bvl_snap::SnapError::Corrupt {
                what: format!(
                    "machine vlen {} does not match checkpoint vlen {vlen_bits}",
                    self.vlen_bits
                ),
            });
        }
        let xregs: [u64; NUM_REGS] = Snap::load(r)?;
        let fregs: [u64; NUM_REGS] = Snap::load(r)?;
        let max_elems = (self.vlen_bits / 8) as usize;
        let mut vregs = vec![vec![0; max_elems]; NUM_REGS];
        for v in &mut vregs {
            let used = r.len(8)?;
            if used > max_elems {
                return Err(bvl_snap::SnapError::Corrupt {
                    what: format!("vector register of {used} elements, machine holds {max_elems}"),
                });
            }
            for e in &mut v[..used] {
                *e = r.u64()?;
            }
        }
        self.xregs = xregs;
        self.fregs = fregs;
        self.vregs = vregs;
        self.vcfg = Snap::load(r)?;
        self.pc = r.u32()?;
        self.halted = r.bool()?;
        self.counters = Snap::load(r)?;
        Ok(())
    }

    /// Runs until `halt`, returning the number of instructions executed.
    ///
    /// # Errors
    ///
    /// Fails with [`ExecError::StepLimit`] after `max_steps` instructions or
    /// [`ExecError::PcOutOfRange`] if the PC escapes the program.
    pub fn run(&mut self, prog: &Program, max_steps: u64) -> Result<u64, ExecError> {
        let mut steps = 0;
        let mut info = StepInfo {
            pc: 0,
            instr: Instr::Halt,
            taken: None,
            mem: Vec::new(),
            vl: 0,
            sew: self.vcfg.sew,
            halted: false,
        };
        while !self.halted {
            if steps >= max_steps {
                return Err(ExecError::StepLimit(max_steps));
            }
            self.step_into(prog, &mut info)?;
            steps += 1;
        }
        Ok(steps)
    }

    /// Executes one instruction and reports its effects.
    ///
    /// # Errors
    ///
    /// Fails with [`ExecError::PcOutOfRange`] if the PC is outside the
    /// program (including after the last instruction without a `halt`).
    pub fn step(&mut self, prog: &Program) -> Result<StepInfo, ExecError> {
        let mut info = StepInfo {
            pc: 0,
            instr: Instr::Halt,
            taken: None,
            mem: Vec::new(),
            vl: 0,
            sew: self.vcfg.sew,
            halted: false,
        };
        self.step_into(prog, &mut info)?;
        Ok(info)
    }

    /// [`step`](Self::step) into a caller-owned [`StepInfo`], reusing its
    /// `mem` buffer — the hot path for loops that step millions of
    /// instructions (functional fast-forward, the oracle), where a fresh
    /// allocation per memory instruction dominates.
    ///
    /// # Errors
    ///
    /// Fails with [`ExecError::PcOutOfRange`] if the PC is outside the
    /// program (including after the last instruction without a `halt`).
    pub fn step_into(&mut self, prog: &Program, info: &mut StepInfo) -> Result<(), ExecError> {
        let pc = self.pc;
        let instr = *prog.get(pc as usize).ok_or(ExecError::PcOutOfRange(pc))?;
        info.pc = pc;
        info.instr = instr;
        info.taken = None;
        info.mem.clear();
        info.vl = if instr.is_vector() { self.vcfg.vl } else { 0 };
        info.sew = self.vcfg.sew;
        info.halted = false;
        self.pc = pc + 1;

        self.counters.instrs += 1;
        if instr.is_vector() {
            self.counters.vector_instrs += 1;
            self.counters.vector_elem_ops += u64::from(self.vcfg.vl);
        }

        self.execute(instr, info);

        self.counters.scalar_mem_ops +=
            info.mem.iter().filter(|_| instr.is_scalar_mem()).count() as u64;
        if instr.is_vector_mem() {
            self.counters.vector_mem_instrs += 1;
        }
        if let Some(t) = info.taken {
            self.pc = t;
        }
        info.halted = self.halted;
        Ok(())
    }

    fn execute(&mut self, instr: Instr, info: &mut StepInfo) {
        match instr {
            Instr::Op { op, rd, rs1, rs2 } => {
                let v = alu(op, self.xreg(rs1), self.xreg(rs2));
                self.set_xreg(rd, v);
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let v = alu(op, self.xreg(rs1), imm as u64);
                self.set_xreg(rd, v);
            }
            Instr::Lui { rd, imm } => self.set_xreg(rd, (imm << 12) as u64),
            Instr::Load {
                rd,
                rs1,
                imm,
                width,
                signed,
            } => {
                let addr = self.xreg(rs1).wrapping_add(imm as u64);
                let raw = self.mem.read_uint(addr, width.bytes());
                let v = if signed {
                    match width {
                        crate::instr::MemWidth::B => raw as u8 as i8 as i64 as u64,
                        crate::instr::MemWidth::H => raw as u16 as i16 as i64 as u64,
                        crate::instr::MemWidth::W => raw as u32 as i32 as i64 as u64,
                        crate::instr::MemWidth::D => raw,
                    }
                } else {
                    raw
                };
                self.set_xreg(rd, v);
                info.mem.push(MemAccess {
                    addr,
                    size: width.bytes(),
                    is_store: false,
                });
            }
            Instr::Store {
                rs2,
                rs1,
                imm,
                width,
            } => {
                let addr = self.xreg(rs1).wrapping_add(imm as u64);
                self.mem.write_uint(addr, width.bytes(), self.xreg(rs2));
                info.mem.push(MemAccess {
                    addr,
                    size: width.bytes(),
                    is_store: true,
                });
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                self.counters.branches += 1;
                let (a, b) = (self.xreg(rs1), self.xreg(rs2));
                let t = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i64) < (b as i64),
                    BranchOp::Ge => (a as i64) >= (b as i64),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if t {
                    self.counters.branches_taken += 1;
                    info.taken = Some(target);
                }
            }
            Instr::Jal { rd, target } => {
                self.set_xreg(rd, u64::from(info.pc) + 1);
                info.taken = Some(target);
            }
            Instr::Jalr { rd, rs1, imm } => {
                let target = self.xreg(rs1).wrapping_add(imm as u64) as u32;
                self.set_xreg(rd, u64::from(info.pc) + 1);
                info.taken = Some(target);
            }

            Instr::FpOp {
                op,
                prec,
                rd,
                rs1,
                rs2,
            } => {
                self.counters.fp_ops += 1;
                let v = fp_op(op, prec, self.freg(rs1), self.freg(rs2));
                self.set_freg(rd, v);
            }
            Instr::FpFma {
                prec,
                rd,
                rs1,
                rs2,
                rs3,
            } => {
                self.counters.fp_ops += 1;
                let v = match prec {
                    FpPrec::S => {
                        let (a, b, c) = (
                            f32::from_bits(self.freg(rs1) as u32),
                            f32::from_bits(self.freg(rs2) as u32),
                            f32::from_bits(self.freg(rs3) as u32),
                        );
                        u64::from((a.mul_add(b, c)).to_bits())
                    }
                    FpPrec::D => {
                        let (a, b, c) = (
                            f64::from_bits(self.freg(rs1)),
                            f64::from_bits(self.freg(rs2)),
                            f64::from_bits(self.freg(rs3)),
                        );
                        a.mul_add(b, c).to_bits()
                    }
                };
                self.set_freg(rd, v);
            }
            Instr::FpCmp {
                op,
                prec,
                rd,
                rs1,
                rs2,
            } => {
                self.counters.fp_ops += 1;
                let r = match prec {
                    FpPrec::S => {
                        let (a, b) = (
                            f32::from_bits(self.freg(rs1) as u32),
                            f32::from_bits(self.freg(rs2) as u32),
                        );
                        fp_cmp(op, a as f64, b as f64)
                    }
                    FpPrec::D => fp_cmp(
                        op,
                        f64::from_bits(self.freg(rs1)),
                        f64::from_bits(self.freg(rs2)),
                    ),
                };
                self.set_xreg(rd, u64::from(r));
            }
            Instr::FpLoad { rd, rs1, imm, prec } => {
                let addr = self.xreg(rs1).wrapping_add(imm as u64);
                let size = prec_bytes(prec);
                self.set_freg(rd, self.mem.read_uint(addr, size));
                info.mem.push(MemAccess {
                    addr,
                    size,
                    is_store: false,
                });
            }
            Instr::FpStore {
                rs2,
                rs1,
                imm,
                prec,
            } => {
                let addr = self.xreg(rs1).wrapping_add(imm as u64);
                let size = prec_bytes(prec);
                self.mem.write_uint(addr, size, self.freg(rs2));
                info.mem.push(MemAccess {
                    addr,
                    size,
                    is_store: true,
                });
            }
            Instr::FpCvtFromInt { prec, rd, rs1 } => {
                let i = self.xreg(rs1) as i64;
                let v = match prec {
                    FpPrec::S => u64::from((i as f32).to_bits()),
                    FpPrec::D => (i as f64).to_bits(),
                };
                self.set_freg(rd, v);
            }
            Instr::FpCvtToInt { prec, rd, rs1 } => {
                let v = match prec {
                    FpPrec::S => f32::from_bits(self.freg(rs1) as u32) as i64,
                    FpPrec::D => f64::from_bits(self.freg(rs1)) as i64,
                };
                self.set_xreg(rd, v as u64);
            }
            Instr::FpMvFromInt { prec, rd, rs1 } => {
                let v = match prec {
                    FpPrec::S => self.xreg(rs1) & 0xFFFF_FFFF,
                    FpPrec::D => self.xreg(rs1),
                };
                self.set_freg(rd, v);
            }
            Instr::FpMvToInt { prec, rd, rs1 } => {
                let v = match prec {
                    FpPrec::S => Sew::E32.sign_extend(self.freg(rs1) & 0xFFFF_FFFF),
                    FpPrec::D => self.freg(rs1),
                };
                self.set_xreg(rd, v);
            }

            Instr::VSetVl { rd, avl, sew } => {
                let avl = match avl {
                    AvlSrc::Reg(r) => self.xreg(r),
                    AvlSrc::Imm(i) => u64::from(i),
                };
                self.vcfg = VectorConfig::grant(avl, sew, self.vlen_bits);
                info.vl = self.vcfg.vl;
                info.sew = sew;
                self.set_xreg(rd, u64::from(self.vcfg.vl));
            }
            Instr::VLoad {
                vd,
                base,
                mode,
                masked,
            } => self.v_load(vd, base, mode, masked, info),
            Instr::VStore {
                vs3,
                base,
                mode,
                masked,
            } => self.v_store(vs3, base, mode, masked, info),
            Instr::VArith {
                op,
                vd,
                src1,
                vs2,
                masked,
            } => self.v_arith(op, vd, src1, vs2, masked),
            Instr::VCmp {
                op,
                vd,
                vs2,
                src1,
                masked,
            } => self.v_cmp(op, vd, vs2, src1, masked),
            Instr::VRed {
                op,
                vd,
                vs2,
                vs1,
                masked,
            } => self.v_red(op, vd, vs2, vs1, masked),
            Instr::VPopc { rd, vs2 } => {
                let n = (0..self.vcfg.vl as usize)
                    .filter(|&i| self.vregs[vs2.index()][i] & 1 == 1)
                    .count();
                self.set_xreg(rd, n as u64);
            }
            Instr::VFirst { rd, vs2 } => {
                let idx = (0..self.vcfg.vl as usize)
                    .find(|&i| self.vregs[vs2.index()][i] & 1 == 1)
                    .map(|i| i as i64)
                    .unwrap_or(-1);
                self.set_xreg(rd, idx as u64);
            }
            Instr::VMask { op, vd, vs1, vs2 } => {
                for i in 0..self.vcfg.vl as usize {
                    let a = self.vregs[vs1.index()][i] & 1;
                    let b = self.vregs[vs2.index()][i] & 1;
                    let r = match op {
                        VMaskOp::And => a & b,
                        VMaskOp::Or => a | b,
                        VMaskOp::Xor => a ^ b,
                        VMaskOp::AndNot => a & (b ^ 1),
                        VMaskOp::Not => a ^ 1,
                    };
                    self.vregs[vd.index()][i] = r;
                }
            }
            Instr::VRgather { vd, vs2, vs1 } => {
                let vl = self.vcfg.vl as usize;
                let mut out = vec![0u64; vl];
                for (i, o) in out.iter_mut().enumerate() {
                    let idx = self.vregs[vs1.index()][i] as usize;
                    *o = if idx < vl {
                        self.vregs[vs2.index()][idx]
                    } else {
                        0
                    };
                }
                self.vregs[vd.index()][..vl].copy_from_slice(&out);
            }
            Instr::VSlideUp { vd, vs2, amt } => {
                let vl = self.vcfg.vl as usize;
                let amt = self.xreg(amt) as usize;
                // Walk downward so vd == vs2 behaves like the spec
                // (elements below `amt` are untouched).
                for i in (amt..vl).rev() {
                    self.vregs[vd.index()][i] = self.vregs[vs2.index()][i - amt];
                }
            }
            Instr::VSlideDown { vd, vs2, amt } => {
                let vl = self.vcfg.vl as usize;
                let amt = self.xreg(amt) as usize;
                for i in 0..vl {
                    self.vregs[vd.index()][i] = if i + amt < vl {
                        self.vregs[vs2.index()][i + amt]
                    } else {
                        0
                    };
                }
            }
            Instr::VMvVX { vd, rs1 } => {
                let v = self.xreg(rs1) & self.vcfg.sew.mask();
                for i in 0..self.vcfg.vl as usize {
                    self.vregs[vd.index()][i] = v;
                }
            }
            Instr::VFMvVF { vd, fs1 } => {
                let v = self.freg(fs1) & self.vcfg.sew.mask();
                for i in 0..self.vcfg.vl as usize {
                    self.vregs[vd.index()][i] = v;
                }
            }
            Instr::VMvVV { vd, vs2 } => {
                for i in 0..self.vcfg.vl as usize {
                    self.vregs[vd.index()][i] = self.vregs[vs2.index()][i];
                }
            }
            Instr::VMvXS { rd, vs2 } => {
                let v = self.vcfg.sew.sign_extend(self.vregs[vs2.index()][0]);
                self.set_xreg(rd, v);
            }
            Instr::VFMvFS { rd, vs2 } => {
                self.set_freg(rd, self.vregs[vs2.index()][0]);
            }
            Instr::VMvSX { vd, rs1 } => {
                self.vregs[vd.index()][0] = self.xreg(rs1) & self.vcfg.sew.mask();
            }
            Instr::VId { vd, masked } => {
                for i in 0..self.vcfg.vl as usize {
                    if masked && !self.mask_bit(i) {
                        continue;
                    }
                    self.vregs[vd.index()][i] = i as u64;
                }
            }

            Instr::VmFence | Instr::Nop => {}
            Instr::Halt => self.halted = true,
        }
    }

    fn mask_bit(&self, i: usize) -> bool {
        self.vregs[VReg::MASK.index()][i] & 1 == 1
    }

    fn v_load(&mut self, vd: VReg, base: XReg, mode: VMemMode, masked: bool, info: &mut StepInfo) {
        let vl = self.vcfg.vl as usize;
        let sew = self.vcfg.sew;
        let base = self.xreg(base);
        for i in 0..vl {
            if masked && !self.mask_bit(i) {
                continue;
            }
            let addr = self.v_elem_addr(base, mode, i, sew);
            let v = self.mem.read_uint(addr, sew.bytes());
            self.vregs[vd.index()][i] = v;
            info.mem.push(MemAccess {
                addr,
                size: sew.bytes(),
                is_store: false,
            });
        }
    }

    fn v_store(
        &mut self,
        vs3: VReg,
        base: XReg,
        mode: VMemMode,
        masked: bool,
        info: &mut StepInfo,
    ) {
        let vl = self.vcfg.vl as usize;
        let sew = self.vcfg.sew;
        let base = self.xreg(base);
        for i in 0..vl {
            if masked && !self.mask_bit(i) {
                continue;
            }
            let addr = self.v_elem_addr(base, mode, i, sew);
            let v = self.vregs[vs3.index()][i] & sew.mask();
            self.mem.write_uint(addr, sew.bytes(), v);
            info.mem.push(MemAccess {
                addr,
                size: sew.bytes(),
                is_store: true,
            });
        }
    }

    fn v_elem_addr(&self, base: u64, mode: VMemMode, i: usize, sew: Sew) -> u64 {
        match mode {
            VMemMode::Unit => base + i as u64 * sew.bytes(),
            VMemMode::Strided(s) => base.wrapping_add((self.xreg(s) as i64 * i as i64) as u64),
            VMemMode::Indexed(vidx) => base.wrapping_add(self.vregs[vidx.index()][i]),
        }
    }

    fn v_src1(&self, src1: VSrc, i: usize) -> u64 {
        let sew = self.vcfg.sew;
        match src1 {
            VSrc::V(v) => self.vregs[v.index()][i],
            VSrc::X(x) => self.xreg(x) & sew.mask(),
            VSrc::F(f) => self.freg(f) & sew.mask(),
            VSrc::I(imm) => (imm as u64) & sew.mask(),
        }
    }

    fn v_arith(&mut self, op: VArithOp, vd: VReg, src1: VSrc, vs2: VReg, masked: bool) {
        let vl = self.vcfg.vl as usize;
        let sew = self.vcfg.sew;
        if op.is_fp() {
            self.counters.fp_ops += vl as u64;
        }
        for i in 0..vl {
            let active = if op == VArithOp::Merge {
                true // merge consumes the mask itself
            } else {
                !masked || self.mask_bit(i)
            };
            if !active {
                continue;
            }
            let a = self.v_src1(src1, i);
            let b = self.vregs[vs2.index()][i];
            let d = self.vregs[vd.index()][i];
            let r = if op == VArithOp::Merge {
                if self.mask_bit(i) {
                    a
                } else {
                    b
                }
            } else {
                v_elem_op(op, sew, a, b, d)
            };
            self.vregs[vd.index()][i] = r & sew.mask();
        }
    }

    fn v_cmp(&mut self, op: VCmpOp, vd: VReg, vs2: VReg, src1: VSrc, masked: bool) {
        let vl = self.vcfg.vl as usize;
        let sew = self.vcfg.sew;
        for i in 0..vl {
            if masked && !self.mask_bit(i) {
                continue;
            }
            let a = self.vregs[vs2.index()][i];
            let b = self.v_src1(src1, i);
            let (sa, sb) = (sew.sign_extend(a) as i64, sew.sign_extend(b) as i64);
            let r = match op {
                VCmpOp::Eq => a == b,
                VCmpOp::Ne => a != b,
                VCmpOp::Lt => sa < sb,
                VCmpOp::Le => sa <= sb,
                VCmpOp::Gt => sa > sb,
                VCmpOp::FEq => v_f(sew, a) == v_f(sew, b),
                VCmpOp::FLt => v_f(sew, a) < v_f(sew, b),
                VCmpOp::FLe => v_f(sew, a) <= v_f(sew, b),
            };
            self.vregs[vd.index()][i] = u64::from(r);
        }
    }

    fn v_red(&mut self, op: VRedOp, vd: VReg, vs2: VReg, vs1: VReg, masked: bool) {
        let vl = self.vcfg.vl as usize;
        let sew = self.vcfg.sew;
        if op.is_fp() {
            self.counters.fp_ops += vl as u64;
        }
        let mut acc = self.vregs[vs1.index()][0];
        for i in 0..vl {
            if masked && !self.mask_bit(i) {
                continue;
            }
            let e = self.vregs[vs2.index()][i];
            acc = v_reduce_step(op, sew, acc, e);
        }
        self.vregs[vd.index()][0] = acc & sew.mask();
    }
}

fn prec_bytes(prec: FpPrec) -> u64 {
    match prec {
        FpPrec::S => 4,
        FpPrec::D => 8,
    }
}

/// Scalar ALU semantics (shared with the vector element path for int ops).
fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
        AluOp::Srl => a.wrapping_shr((b & 63) as u32),
        AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Slt => u64::from((a as i64) < (b as i64)),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                u64::MAX
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

fn fp_op(op: FpOp, prec: FpPrec, a_bits: u64, b_bits: u64) -> u64 {
    match prec {
        FpPrec::S => {
            let (a, b) = (f32::from_bits(a_bits as u32), f32::from_bits(b_bits as u32));
            let r = match op {
                FpOp::Add => a + b,
                FpOp::Sub => a - b,
                FpOp::Mul => a * b,
                FpOp::Div => a / b,
                FpOp::Min => a.min(b),
                FpOp::Max => a.max(b),
                FpOp::Sqrt => a.sqrt(),
                FpOp::Sgnj => a.copysign(b),
                FpOp::Sgnjn => a.copysign(-b),
                FpOp::Sgnjx => f32::from_bits(a.to_bits() ^ (b.to_bits() & 0x8000_0000)),
            };
            u64::from(r.to_bits())
        }
        FpPrec::D => {
            let (a, b) = (f64::from_bits(a_bits), f64::from_bits(b_bits));
            let r = match op {
                FpOp::Add => a + b,
                FpOp::Sub => a - b,
                FpOp::Mul => a * b,
                FpOp::Div => a / b,
                FpOp::Min => a.min(b),
                FpOp::Max => a.max(b),
                FpOp::Sqrt => a.sqrt(),
                FpOp::Sgnj => a.copysign(b),
                FpOp::Sgnjn => a.copysign(-b),
                FpOp::Sgnjx => f64::from_bits(a.to_bits() ^ (b.to_bits() & 0x8000_0000_0000_0000)),
            };
            r.to_bits()
        }
    }
}

fn fp_cmp(op: FpCmpOp, a: f64, b: f64) -> bool {
    match op {
        FpCmpOp::Eq => a == b,
        FpCmpOp::Lt => a < b,
        FpCmpOp::Le => a <= b,
    }
}

/// Interprets element bits as a float at the active width (E32 => f32
/// widened to f64 for comparison, E64 => f64). Narrower widths have no FP
/// interpretation in the modeled subset and compare as zero-extended ints.
fn v_f(sew: Sew, bits: u64) -> f64 {
    match sew {
        Sew::E32 => f64::from(f32::from_bits(bits as u32)),
        Sew::E64 => f64::from_bits(bits),
        _ => bits as f64,
    }
}

fn v_f_store(sew: Sew, v: f64) -> u64 {
    match sew {
        Sew::E32 => u64::from((v as f32).to_bits()),
        Sew::E64 => v.to_bits(),
        _ => v as u64,
    }
}

/// Element-wise vector arithmetic semantics. `d` is the old destination
/// value (accumulator for `FMacc`).
fn v_elem_op(op: VArithOp, sew: Sew, a: u64, b: u64, d: u64) -> u64 {
    use VArithOp::*;
    match op {
        Add | Sub | Mul | And | Or | Xor | Sll | Srl => {
            let alu_op = match op {
                Add => AluOp::Add,
                Sub => AluOp::Sub,
                Mul => AluOp::Mul,
                And => AluOp::And,
                Or => AluOp::Or,
                Xor => AluOp::Xor,
                Sll => AluOp::Sll,
                Srl => AluOp::Srl,
                _ => unreachable!(),
            };
            // RVV `.vv/.vx` operand order: vs2 (b) is the first operand.
            alu(alu_op, b, a)
        }
        Sra => (sew.sign_extend(b) as i64).wrapping_shr((a & 63) as u32) as u64,
        Div => {
            let (sb, sa) = (sew.sign_extend(b) as i64, sew.sign_extend(a) as i64);
            if sa == 0 {
                u64::MAX
            } else {
                sb.wrapping_div(sa) as u64
            }
        }
        Divu => b.checked_div(a).unwrap_or(u64::MAX),
        Rem => {
            let (sb, sa) = (sew.sign_extend(b) as i64, sew.sign_extend(a) as i64);
            if sa == 0 {
                b
            } else {
                sb.wrapping_rem(sa) as u64
            }
        }
        Min => {
            let (sb, sa) = (sew.sign_extend(b) as i64, sew.sign_extend(a) as i64);
            sb.min(sa) as u64
        }
        Max => {
            let (sb, sa) = (sew.sign_extend(b) as i64, sew.sign_extend(a) as i64);
            sb.max(sa) as u64
        }
        FAdd => v_f_store(sew, v_f(sew, b) + v_f(sew, a)),
        FSub => v_f_store(sew, v_f(sew, b) - v_f(sew, a)),
        FMul => v_f_store(sew, v_f(sew, b) * v_f(sew, a)),
        FDiv => v_f_store(sew, v_f(sew, b) / v_f(sew, a)),
        FMin => v_f_store(sew, v_f(sew, b).min(v_f(sew, a))),
        FMax => v_f_store(sew, v_f(sew, b).max(v_f(sew, a))),
        FSqrt => v_f_store(sew, v_f(sew, b).sqrt()),
        FMacc => match sew {
            // f32 FMA must round once at f32 precision.
            Sew::E32 => {
                let (x, y, acc) = (
                    f32::from_bits(a as u32),
                    f32::from_bits(b as u32),
                    f32::from_bits(d as u32),
                );
                u64::from(x.mul_add(y, acc).to_bits())
            }
            _ => v_f_store(sew, v_f(sew, a).mul_add(v_f(sew, b), v_f(sew, d))),
        },
        FNeg => v_f_store(sew, -v_f(sew, b)),
        FAbs => v_f_store(sew, v_f(sew, b).abs()),
        Merge => unreachable!("merge handled by caller"),
    }
}

fn v_reduce_step(op: VRedOp, sew: Sew, acc: u64, e: u64) -> u64 {
    match op {
        VRedOp::Sum => acc.wrapping_add(e) & sew.mask(),
        VRedOp::Min => (sew.sign_extend(acc) as i64).min(sew.sign_extend(e) as i64) as u64,
        VRedOp::Max => (sew.sign_extend(acc) as i64).max(sew.sign_extend(e) as i64) as u64,
        VRedOp::FSum => v_f_store(sew, v_f(sew, acc) + v_f(sew, e)),
        VRedOp::FMin => v_f_store(sew, v_f(sew, acc).min(v_f(sew, e))),
        VRedOp::FMax => v_f_store(sew, v_f(sew, acc).max(v_f(sew, e))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::mem::VecMemory;

    fn x(i: u8) -> XReg {
        XReg::new(i)
    }
    fn v(i: u8) -> VReg {
        VReg::new(i)
    }
    fn f(i: u8) -> FReg {
        FReg::new(i)
    }

    fn run(a: &Assembler) -> Machine<VecMemory> {
        let p = a.assemble().unwrap();
        let mut m = Machine::new(VecMemory::new(1 << 20), 512);
        m.run(&p, 1_000_000).unwrap();
        m
    }

    fn saved(m: &Machine<VecMemory>) -> Vec<u8> {
        let mut w = bvl_snap::SnapWriter::new();
        m.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn checkpoint_holds_vector_elements_up_to_the_last_nonzero() {
        let cold = saved(&Machine::new(VecMemory::new(64), 512));
        let wide = Machine::new(VecMemory::new(64), 4096);
        assert_eq!(
            saved(&wide).len(),
            cold.len(),
            "unused vectors cost nothing"
        );

        let mut m = Machine::new(VecMemory::new(64), 4096);
        m.set_vreg_elem(v(3), 0, 7);
        m.set_vreg_elem(v(3), 9, u64::MAX); // ten slots, interior zeros kept
        m.set_vreg_elem(v(31), 511, 1); // the very last slot
        let bytes = saved(&m);
        assert_eq!(bytes.len(), cold.len() + (10 + 512) * 8);

        let mut back = Machine::new(VecMemory::new(64), 4096);
        let mut r = bvl_snap::SnapReader::new(&bytes);
        back.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.snapshot(), m.snapshot());
    }

    #[test]
    fn checkpoint_vector_longer_than_the_machine_is_rejected() {
        let mut m = Machine::new(VecMemory::new(64), 4096);
        m.set_vreg_elem(v(0), 100, 1);
        let bytes = saved(&m);
        let mut narrow = Machine::new(VecMemory::new(64), 512);
        // Claim the narrow machine's vlen, so the register length is what
        // disagrees.
        let mut patched = bytes.clone();
        patched[..4].copy_from_slice(&512u32.to_le_bytes());
        let err = narrow
            .restore_state(&mut bvl_snap::SnapReader::new(&patched))
            .unwrap_err();
        assert!(
            matches!(err, bvl_snap::SnapError::Corrupt { ref what } if what.contains("101 elements")),
            "{err}"
        );
    }

    #[test]
    fn scalar_loop_counts_to_ten() {
        let mut a = Assembler::new();
        a.li(x(5), 0);
        a.li(x(6), 10);
        a.label("loop");
        a.addi(x(5), x(5), 1);
        a.bne(x(5), x(6), "loop");
        a.halt();
        let m = run(&a);
        assert_eq!(m.xreg(x(5)), 10);
        assert_eq!(m.counters().branches, 10);
        assert_eq!(m.counters().branches_taken, 9);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut a = Assembler::new();
        a.li(XReg::ZERO, 99);
        a.add(x(1), XReg::ZERO, XReg::ZERO);
        a.halt();
        let m = run(&a);
        assert_eq!(m.xreg(XReg::ZERO), 0);
        assert_eq!(m.xreg(x(1)), 0);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut a = Assembler::new();
        a.li(x(1), 0x100);
        a.li(x(2), -7i64);
        a.sw(x(2), x(1), 0);
        a.lw(x(3), x(1), 0); // sign-extended
        a.load(x(4), x(1), 0, crate::instr::MemWidth::W, false); // zero-extended
        a.halt();
        let m = run(&a);
        assert_eq!(m.xreg(x(3)) as i64, -7);
        assert_eq!(m.xreg(x(4)), 0xFFFF_FFF9);
    }

    #[test]
    fn division_by_zero_riscv_semantics() {
        let mut a = Assembler::new();
        a.li(x(1), 42);
        a.li(x(2), 0);
        a.div(x(3), x(1), x(2));
        a.rem(x(4), x(1), x(2));
        a.halt();
        let m = run(&a);
        assert_eq!(m.xreg(x(3)), u64::MAX);
        assert_eq!(m.xreg(x(4)), 42);
    }

    #[test]
    fn fp_add_and_fma() {
        let mut a = Assembler::new();
        a.li(x(1), 0x100);
        let mut mem = VecMemory::new(1 << 12);
        mem.write_f32(0x100, 1.5);
        mem.write_f32(0x104, 2.25);
        a.flw(f(1), x(1), 0);
        a.flw(f(2), x(1), 4);
        a.fadd_s(f(3), f(1), f(2));
        a.fmadd_s(f(4), f(1), f(2), f(3));
        a.fsw(f(4), x(1), 8);
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(mem, 512);
        m.run(&p, 100).unwrap();
        assert_eq!(m.mem().read_f32(0x108), 1.5 * 2.25 + 3.75);
    }

    #[test]
    fn vsetvl_grants_min() {
        let mut a = Assembler::new();
        a.li(x(1), 100);
        a.vsetvli(x(2), x(1), Sew::E32);
        a.halt();
        let m = run(&a); // vlen = 512 -> vlmax = 16
        assert_eq!(m.xreg(x(2)), 16);
    }

    #[test]
    fn vector_unit_load_add_store() {
        let mut a = Assembler::new();
        let mut mem = VecMemory::new(1 << 12);
        for i in 0..8u64 {
            mem.write_uint(0x200 + i * 4, 4, i + 1);
            mem.write_uint(0x300 + i * 4, 4, 10 * (i + 1));
        }
        a.vsetivli(x(1), 8, Sew::E32);
        a.li(x(2), 0x200);
        a.li(x(3), 0x300);
        a.li(x(4), 0x400);
        a.vle(v(1), x(2));
        a.vle(v(2), x(3));
        a.vadd_vv(v(3), v(1), v(2));
        a.vse(v(3), x(4));
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(mem, 512);
        m.run(&p, 100).unwrap();
        for i in 0..8u64 {
            assert_eq!(m.mem().read_uint(0x400 + i * 4, 4), 11 * (i + 1));
        }
    }

    #[test]
    fn vector_indexed_gather() {
        let mut a = Assembler::new();
        let mut mem = VecMemory::new(1 << 12);
        for i in 0..4u64 {
            mem.write_uint(0x200 + i * 4, 4, 100 + i);
        }
        // Byte-offset indices gathering in reverse.
        for (i, off) in [12u64, 8, 4, 0].iter().enumerate() {
            mem.write_uint(0x300 + i as u64 * 4, 4, *off);
        }
        a.vsetivli(x(1), 4, Sew::E32);
        a.li(x(2), 0x300);
        a.vle(v(1), x(2)); // indices
        a.li(x(3), 0x200);
        a.vluxei(v(2), x(3), v(1));
        a.li(x(4), 0x400);
        a.vse(v(2), x(4));
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(mem, 512);
        m.run(&p, 100).unwrap();
        for i in 0..4u64 {
            assert_eq!(m.mem().read_uint(0x400 + i * 4, 4), 103 - i);
        }
    }

    #[test]
    fn masked_add_leaves_inactive_untouched() {
        let mut a = Assembler::new();
        a.vsetivli(x(1), 4, Sew::E32);
        a.li(x(2), 5);
        a.vmv_v_x(v(1), x(2)); // v1 = [5,5,5,5]
        a.li(x(3), 2);
        a.vmv_v_x(v(2), x(3)); // v2 = [2,2,2,2]
        a.vid(v(3));
        a.li(x(4), 2);
        a.vmseq_vx(VReg::MASK, v(3), x(4)); // mask = [0,0,1,0]
        a.varith(VArithOp::Add, v(1), VSrc::V(v(2)), v(1), true);
        a.halt();
        let m = run(&a);
        assert_eq!(m.vreg_elem(v(1), 0), 5);
        assert_eq!(m.vreg_elem(v(1), 1), 5);
        assert_eq!(m.vreg_elem(v(1), 2), 7);
        assert_eq!(m.vreg_elem(v(1), 3), 5);
    }

    #[test]
    fn reduction_sum() {
        let mut a = Assembler::new();
        a.vsetivli(x(1), 8, Sew::E32);
        a.vid(v(1)); // 0..7
        a.li(x(2), 100);
        a.vmv_s_x(v(2), x(2)); // init = 100
        a.vredsum(v(3), v(1), v(2));
        a.vmv_x_s(x(3), v(3));
        a.halt();
        let m = run(&a);
        assert_eq!(m.xreg(x(3)), 100 + 28);
    }

    #[test]
    fn vrgather_reverses() {
        let mut a = Assembler::new();
        a.vsetivli(x(1), 4, Sew::E32);
        a.vid(v(1));
        a.li(x(2), 3);
        a.vmv_v_x(v(2), x(2));
        a.vsub_vv(v(3), v(2), v(1)); // idx = [3,2,1,0]
        a.li(x(4), 10);
        a.vmv_v_x(v(4), x(4));
        a.vadd_vv(v(5), v(4), v(1)); // data = [10,11,12,13]
        a.vrgather(v(6), v(5), v(3));
        a.halt();
        let m = run(&a);
        for i in 0..4 {
            assert_eq!(m.vreg_elem(v(6), i), 13 - i as u64);
        }
    }

    #[test]
    fn slide_up_down() {
        let mut a = Assembler::new();
        a.vsetivli(x(1), 4, Sew::E32);
        a.vid(v(1)); // [0,1,2,3]
        a.li(x(2), 1);
        a.vmv_v_x(v(3), x(2)); // v3=[1,1,1,1] placeholder values
        a.vslideup(v(3), v(1), x(2)); // v3 = [1, 0,1,2]
        a.vslidedown(v(4), v(1), x(2)); // v4 = [1,2,3,0]
        a.halt();
        let m = run(&a);
        assert_eq!(m.vreg_elem(v(3), 0), 1);
        assert_eq!(m.vreg_elem(v(3), 1), 0);
        assert_eq!(m.vreg_elem(v(3), 3), 2);
        assert_eq!(m.vreg_elem(v(4), 0), 1);
        assert_eq!(m.vreg_elem(v(4), 3), 0);
    }

    #[test]
    fn vpopc_and_vfirst() {
        let mut a = Assembler::new();
        a.vsetivli(x(1), 8, Sew::E32);
        a.vid(v(1));
        a.li(x(2), 5);
        a.vmv_v_x(v(2), x(2));
        a.vmslt_vv(v(3), v(2), v(1)); // v3[i] = 5 < i -> i in {6,7}
        a.vpopc(x(3), v(3));
        a.vfirst(x(4), v(3));
        a.halt();
        let m = run(&a);
        assert_eq!(m.xreg(x(3)), 2);
        assert_eq!(m.xreg(x(4)), 6);
    }

    #[test]
    fn step_limit_error() {
        let mut a = Assembler::new();
        a.label("spin");
        a.j("spin");
        let p = a.assemble().unwrap();
        let mut m = Machine::new(VecMemory::new(64), 512);
        assert_eq!(m.run(&p, 10), Err(ExecError::StepLimit(10)));
    }

    #[test]
    fn pc_out_of_range_error() {
        let mut a = Assembler::new();
        a.nop();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(VecMemory::new(64), 512);
        assert!(matches!(m.run(&p, 10), Err(ExecError::PcOutOfRange(1))));
    }

    #[test]
    fn counters_track_vector_work() {
        let mut a = Assembler::new();
        a.vsetivli(x(1), 8, Sew::E32);
        a.vid(v(1));
        a.vadd_vv(v(2), v(1), v(1));
        a.halt();
        let m = run(&a);
        let c = m.counters();
        assert_eq!(c.instrs, 4);
        // vsetvl executes in the scalar core; vid and vadd are vector.
        assert_eq!(c.vector_instrs, 2);
        assert_eq!(c.vector_elem_ops, 16);
        assert!(c.vectorized_fraction() > 0.8);
    }

    #[test]
    fn fmacc_accumulates() {
        let mut a = Assembler::new();
        a.vsetivli(x(1), 4, Sew::E32);
        a.li(x(2), 2);
        a.fcvt_s_w(f(1), x(2)); // f1 = 2.0
        a.vfmv_v_f(v(1), f(1)); // v1 = 2.0
        a.vfmv_v_f(v(2), f(1)); // v2 = 2.0
        a.vfmv_v_f(v(3), f(1)); // v3 = 2.0 (accumulator)
        a.vfmacc_vv(v(3), v(1), v(2)); // v3 = 2 + 2*2 = 6
        a.halt();
        let m = run(&a);
        assert_eq!(f32::from_bits(m.vreg_elem(v(3), 0) as u32), 6.0);
    }
}
