//! The differential harness: one program, every system, one oracle.
//!
//! [`check_program`] runs a [`DtProgram`] through the functional
//! [`Machine`] executor (the architectural oracle) and through
//! [`bvl_sim::simulate_with`] on **every** [`SystemKind`], then
//! compares final memory images, scalar/FP register files and vector
//! registers element-by-element. The contract it enforces is written up
//! in `DESIGN.md` §4.9: because the simulator executes architectural
//! state at dispatch on the same [`Machine`], any divergence is a bug in
//! state extraction, termination detection or instruction sequencing —
//! not a modelling approximation.

use crate::text::DtProgram;
use bvl_isa::asm::Program;
use bvl_isa::exec::{ArchSnapshot, ExecError, Machine};
use bvl_mem::{MemImage, SimMemory};
use bvl_runtime::Task;
use bvl_sim::{simulate_with, ExecMode, FinalState, Hooks, SimParams, SystemKind};
use bvl_workloads::{Phase, Workload, WorkloadClass};
use std::collections::HashMap;
use std::fmt;

/// Simulated memory size for difftest workloads. Generated programs only
/// touch the four 4 KiB buffers, so 1 MiB leaves a wide safety margin.
const MEM_SIZE: usize = 1 << 20;

/// Instruction budget for one oracle section run. Generated programs are
/// a few hundred dynamic instructions; hitting this limit means the
/// generator produced a non-terminating program (an [`DiffResult::Invalid`]
/// outcome, not a divergence).
const ORACLE_STEP_LIMIT: u64 = 2_000_000;

/// Simulated-cycle budget per system run, far above anything a generated
/// program needs but small enough that a livelocked run fails fast.
pub(crate) const MAX_UNCORE_CYCLES: u64 = 20_000_000;

/// Every hardware vector length a core in [`SystemKind::ALL`] can run an
/// entry at: little cores and engine-less big cores (64), the integrated
/// vector unit (128), the VLITTLE engine (512) and the decoupled engine
/// (2048). Used to pre-flight the oracle; an unexpected VLEN still works
/// via the lazy path, it just skips the pre-flight.
const PREFLIGHT_VLENS: [u32; 4] = [64, 128, 512, 2048];

/// One detected divergence between a system and the oracle.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The system that disagreed with the oracle.
    pub system: SystemKind,
    /// The entry label that ran (`"serial"` or `"vector"`).
    pub entry: &'static str,
    /// Hardware vector length (bits) of the core that ran the entry.
    pub vlen_bits: u32,
    /// Human-readable description of the first mismatch.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (entry `{}`, VLEN {}): {}",
            self.system.label(),
            self.entry,
            self.vlen_bits,
            self.detail
        )
    }
}

/// Outcome of differentially testing one program.
#[derive(Clone, Debug)]
pub enum DiffResult {
    /// Every system matched the oracle.
    Pass,
    /// The program could not be tested (assembly error, oracle fault,
    /// missing entry label). A generator bug, not a simulator bug.
    Invalid(String),
    /// A system's final architectural state disagreed with the oracle.
    Diverged(Divergence),
}

impl DiffResult {
    /// True for [`DiffResult::Diverged`].
    pub fn is_divergence(&self) -> bool {
        matches!(self, DiffResult::Diverged(_))
    }
}

/// Runs `dt` through the oracle and every system, returning the first
/// divergence found (systems are visited in [`SystemKind::ALL`] order).
pub fn check_program(dt: &DtProgram) -> DiffResult {
    let program = match dt.assemble() {
        Ok(p) => p,
        Err(e) => return DiffResult::Invalid(format!("assembly failed: {e}")),
    };
    let (serial, vector) = match (program.label("serial"), program.label("vector")) {
        (Some(s), Some(v)) => (s, v),
        _ => return DiffResult::Invalid("missing `serial`/`vector` entry label".to_string()),
    };

    let workload = difftest_workload(&program, serial, vector);
    let params = SimParams {
        max_uncore_cycles: MAX_UNCORE_CYCLES,
        ..SimParams::default()
    };
    // The oracle's final state depends only on (entry, VLEN), so one run
    // serves every system that resolves to the same pair.
    let mut oracle = OracleCache::new(&workload.mem, &program);

    // Pre-flight both entries at every hardware VLEN the seven systems
    // can run them at. This catches non-terminating or PC-escaping
    // programs (shrink candidates routinely produce them) in a few
    // thousand oracle steps, before any system burns its full simulated
    // cycle budget — and it classifies them as Invalid, not Diverged.
    for vlen in PREFLIGHT_VLENS {
        for entry in [serial, vector] {
            oracle.run(entry, vlen);
            if let Some(e) = oracle.error.take() {
                return DiffResult::Invalid(e);
            }
        }
    }
    // The serial entry runs on cores without a vector engine (1L, 1b and
    // the task systems' littles), which cannot execute vector
    // instructions at all. Shrink candidates routinely splice vector code
    // into the serial path (e.g. by deleting its `halt`); classify those
    // as untestable before any system panics on them.
    if let Err(e) = serial_scalar_only(&program, serial) {
        return DiffResult::Invalid(e);
    }

    for kind in SystemKind::ALL {
        let hooks = Hooks {
            want_state: true,
            ..Hooks::default()
        };
        let fs = match simulate_with(kind, &workload, &params, hooks) {
            Ok(out) => out
                .finished()
                .and_then(|run| run.final_state)
                .expect("no checkpoint callback; state requested"),
            Err(e) => {
                return DiffResult::Diverged(Divergence {
                    system: kind,
                    entry: "?",
                    vlen_bits: 0,
                    detail: format!("simulation failed: {e}"),
                })
            }
        };
        let entry = match fs.mode {
            ExecMode::Vector => "vector",
            ExecMode::Serial | ExecMode::Tasks => "serial",
        };
        let entry_pc = if entry == "vector" { vector } else { serial };
        if let Err(detail) = compare_against_oracle(&fs, entry_pc, &mut oracle) {
            let vlen_bits = active_snapshot(&fs).map_or(0, |s| s.vlen_bits);
            return DiffResult::Diverged(Divergence {
                system: kind,
                entry,
                vlen_bits,
                detail,
            });
        }
    }
    match oracle.error.take() {
        Some(e) => DiffResult::Invalid(e),
        None => DiffResult::Pass,
    }
}

/// Wraps an assembled difftest program as a [`Workload`].
///
/// The single scalar-only task (`vector_pc: None`) makes the
/// work-stealing systems run the `serial` entry on whichever worker wins
/// the steal; the `DataParallelKernel` class routes every vector-capable
/// single-engine system to the `vector` entry (see `pick_mode`).
///
/// Public so other suites can replay corpus programs through the full
/// simulator (the golden-trace regression test in `bvl-obs` does).
pub fn difftest_workload(program: &Program, serial: u32, vector: u32) -> Workload {
    Workload {
        name: "difftest",
        class: WorkloadClass::DataParallelKernel,
        program: std::sync::Arc::new(program.clone()),
        mem: SimMemory::new(MEM_SIZE),
        serial_entry: serial,
        vector_entry: Some(vector),
        phases: vec![Phase::new(vec![Task {
            scalar_pc: serial,
            vector_pc: None,
            args: vec![],
        }])],
        // The oracle comparison *is* the check; the workload's own
        // checker accepts anything.
        check: Box::new(|_| Ok(())),
    }
}

/// Oracle runs memoized per `(entry, vlen)`.
struct OracleCache<'a> {
    init_mem: &'a SimMemory,
    program: &'a Program,
    runs: HashMap<(u32, u32), (ArchSnapshot, MemImage)>,
    /// First oracle execution error, if any (poisons the whole program
    /// as [`DiffResult::Invalid`]).
    error: Option<String>,
}

impl<'a> OracleCache<'a> {
    fn new(init_mem: &'a SimMemory, program: &'a Program) -> Self {
        OracleCache {
            init_mem,
            program,
            runs: HashMap::new(),
            error: None,
        }
    }

    fn run(&mut self, entry: u32, vlen_bits: u32) -> Option<&(ArchSnapshot, MemImage)> {
        if !self.runs.contains_key(&(entry, vlen_bits)) {
            let mut m = Machine::new(self.init_mem.fork(), vlen_bits);
            m.set_pc(entry);
            match m.run(self.program, ORACLE_STEP_LIMIT) {
                Ok(_) => {
                    let snap = m.snapshot();
                    let mem = MemImage::capture(m.mem());
                    self.runs.insert((entry, vlen_bits), (snap, mem));
                }
                Err(e @ (ExecError::PcOutOfRange(_) | ExecError::StepLimit(_))) => {
                    self.error.get_or_insert_with(|| {
                        format!("oracle fault at entry {entry} (VLEN {vlen_bits}): {e}")
                    });
                    return None;
                }
            }
        }
        self.runs.get(&(entry, vlen_bits))
    }
}

/// Verifies the serial entry never executes a vector instruction
/// (`vsetvli` is scalar — see `Instr::is_vector`), by stepping the
/// functional machine down the actual dynamic path.
fn serial_scalar_only(program: &Program, serial: u32) -> Result<(), String> {
    let mut m = Machine::new(SimMemory::new(MEM_SIZE), 64);
    m.set_pc(serial);
    for _ in 0..ORACLE_STEP_LIMIT {
        if m.halted() {
            return Ok(());
        }
        let info = m
            .step(program)
            .map_err(|e| format!("serial entry fault: {e}"))?;
        if info.instr.is_vector() {
            return Err(format!(
                "serial entry executes a vector instruction at pc {}",
                info.pc
            ));
        }
    }
    Err("serial entry step limit exhausted".to_string())
}

/// The snapshot of the core that actually executed an entry: exactly one
/// core per run reaches `halt` (parked workers never start).
fn active_snapshot(fs: &FinalState) -> Option<&ArchSnapshot> {
    fs.big.iter().chain(fs.littles.iter()).find(|s| s.halted)
}

fn compare_against_oracle(
    fs: &FinalState,
    entry_pc: u32,
    oracle: &mut OracleCache<'_>,
) -> Result<(), String> {
    if !fs.engine_drained {
        return Err("vector engine not drained at end of run".to_string());
    }
    let halted: Vec<&ArchSnapshot> = fs
        .big
        .iter()
        .chain(fs.littles.iter())
        .filter(|s| s.halted)
        .collect();
    let snap = match halted.as_slice() {
        [one] => *one,
        [] => return Err("no core reached halt".to_string()),
        many => return Err(format!("{} cores reached halt, expected 1", many.len())),
    };
    let Some((want_snap, want_mem)) = oracle.run(entry_pc, snap.vlen_bits) else {
        // Oracle fault: reported as Invalid by the caller, not as a
        // divergence of this system.
        return Ok(());
    };
    if snap != want_snap {
        return Err(describe_snapshot_diff(snap, want_snap));
    }
    if &fs.mem != want_mem {
        let at = fs
            .mem
            .first_difference(want_mem)
            .map_or("length".to_string(), |a| format!("{a:#x}"));
        return Err(format!("memory image differs at {at}"));
    }
    Ok(())
}

/// Pinpoints the first differing architectural field for the report.
fn describe_snapshot_diff(got: &ArchSnapshot, want: &ArchSnapshot) -> String {
    if got.pc != want.pc {
        return format!("final pc {} != oracle {}", got.pc, want.pc);
    }
    if (got.vl, got.sew) != (want.vl, want.sew) {
        return format!(
            "vector config vl={} {} != oracle vl={} {}",
            got.vl, got.sew, want.vl, want.sew
        );
    }
    for i in 0..got.xregs.len() {
        if got.xregs[i] != want.xregs[i] {
            return format!("x{i} = {:#x} != oracle {:#x}", got.xregs[i], want.xregs[i]);
        }
    }
    for i in 0..got.fregs.len() {
        if got.fregs[i] != want.fregs[i] {
            return format!("f{i} = {:#x} != oracle {:#x}", got.fregs[i], want.fregs[i]);
        }
    }
    for (r, (gv, wv)) in got.vregs.iter().zip(&want.vregs).enumerate() {
        for (e, (g, w)) in gv.iter().zip(wv).enumerate() {
            if g != w {
                return format!("v{r}[{e}] = {g:#x} != oracle {w:#x}");
            }
        }
    }
    if got.counters != want.counters {
        return format!(
            "exec counters differ: {:?} != oracle {:?}",
            got.counters, want.counters
        );
    }
    "snapshots differ".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn trivial_program_passes_everywhere() {
        let dt = DtProgram::parse(
            "serial:\n  li x5, 3\n  halt\nvector:\n  li x27, 8\n  vsetvli x5, x27, e32\n  halt\n",
        )
        .unwrap();
        let r = check_program(&dt);
        assert!(matches!(r, DiffResult::Pass), "{r:?}");
    }

    #[test]
    fn generated_programs_pass() {
        for seed in 0..3 {
            let dt = generate(seed);
            let r = check_program(&dt);
            assert!(
                matches!(r, DiffResult::Pass),
                "seed {seed}: {r:?}\n{}",
                dt.render()
            );
        }
    }

    #[test]
    fn missing_entry_is_invalid() {
        let dt = DtProgram::parse("serial:\n  halt\n").unwrap();
        assert!(matches!(check_program(&dt), DiffResult::Invalid(_)));
    }

    #[test]
    fn serial_fallthrough_into_vector_code_is_invalid() {
        // Shrinking can delete `serial`'s halt so it falls through into
        // the vector section. Engine-less systems would panic on the
        // first vector instruction — the scalar-only guard must reject
        // the program before any simulation runs.
        let dt = DtProgram::parse(
            "serial:\n  li x5, 1\nvector:\n  li x27, 8\n  vsetvli x5, x27, e32\n  vid.v v3\n  halt\n",
        )
        .unwrap();
        let r = check_program(&dt);
        assert!(matches!(r, DiffResult::Invalid(_)), "{r:?}");
    }

    #[test]
    fn non_terminating_section_is_invalid() {
        // `serial` falls through into `vector`, which loops forever.
        let dt = DtProgram::parse("serial:\n  halt\nvector:\nspin:\n  j spin\n").unwrap();
        let r = check_program(&dt);
        assert!(matches!(r, DiffResult::Invalid(_)), "{r:?}");
    }
}
