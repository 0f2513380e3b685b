#![warn(missing_docs)]
//! # bvl-isa — instruction-set model for the big.VLITTLE reproduction
//!
//! This crate defines everything the rest of the workspace needs to *talk
//! about programs*:
//!
//! * [`reg`] — newtypes for scalar integer ([`XReg`]), scalar floating-point
//!   ([`FReg`]) and vector ([`VReg`]) architectural registers.
//! * [`vcfg`] — the RVV 1.0 vector-configuration state: selected element
//!   width ([`Sew`]), granted vector length ([`vcfg::VectorConfig`]).
//! * [`instr`] — the [`Instr`] enum covering the RV64 scalar subset and the
//!   RVV 1.0 vector subset used by the paper's workloads. Its `Display`
//!   is the disassembly, and [`snap`] holds its one binary form, the
//!   checkpoint encoding.
//! * [`asm`] — a label-resolving program builder ([`Assembler`]) used by the
//!   workload crates to emit instruction streams the way a compiler with
//!   RVV intrinsics would.
//! * [`exec`] — the *golden* functional executor ([`Machine`]): a pure
//!   architectural-state interpreter used both directly (workload
//!   characterization, Table IV/V) and as the semantic oracle inside every
//!   timing model.
//! * [`mem`] — the byte-addressable [`Memory`] trait the executor runs
//!   against, plus a simple in-crate [`mem::VecMemory`] implementation.
//! * [`meta`] — static per-instruction metadata (functional-unit class,
//!   latency class, memory behaviour) consumed by the timing models.
//!
//! ## Example
//!
//! ```
//! use bvl_isa::asm::Assembler;
//! use bvl_isa::exec::Machine;
//! use bvl_isa::mem::VecMemory;
//! use bvl_isa::reg::XReg;
//!
//! // x1 = 2; x2 = 40; x3 = x1 + x2; halt
//! let mut a = Assembler::new();
//! a.li(XReg::new(1), 2);
//! a.li(XReg::new(2), 40);
//! a.add(XReg::new(3), XReg::new(1), XReg::new(2));
//! a.halt();
//! let prog = a.assemble().unwrap();
//!
//! let mut m = Machine::new(VecMemory::new(1 << 16), 512);
//! m.run(&prog, 1_000).unwrap();
//! assert_eq!(m.xreg(XReg::new(3)), 42);
//! ```

pub mod asm;
mod disasm;
pub mod exec;
pub mod instr;
pub mod mem;
pub mod meta;
pub mod predecode;
pub mod reg;
pub mod snap;
pub mod vcfg;

pub use asm::Assembler;
pub use exec::{ArchSnapshot, Machine};
pub use instr::Instr;
pub use mem::Memory;
pub use reg::{FReg, VReg, XReg};
pub use vcfg::Sew;
