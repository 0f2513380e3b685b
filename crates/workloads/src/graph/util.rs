//! Shared plumbing for the graph workloads: CSR layout in simulated
//! memory, task-entry wrappers and unrolled serial drivers.

use crate::gen::CsrGraph;
use crate::workload::{regs, Phase};
use bvl_isa::asm::Assembler;
use bvl_isa::reg::XReg;
use bvl_mem::SimMemory;
use bvl_runtime::parallel_for_tasks;

/// A CSR graph laid out in simulated memory.
#[derive(Clone, Copy, Debug)]
pub struct GraphInMem {
    /// Base of the `u32` offsets array (`v + 1` entries).
    pub offsets: u64,
    /// Base of the `u32` edges array.
    pub edges: u64,
    /// Vertex count.
    pub v: u64,
}

/// Allocates the graph's CSR arrays.
pub fn alloc_graph(mem: &mut SimMemory, g: &CsrGraph) -> GraphInMem {
    GraphInMem {
        offsets: mem.alloc_u32(&g.offsets),
        edges: mem.alloc_u32(&g.edges),
        v: g.vertices() as u64,
    }
}

/// One barrier-delimited phase: which returning body runs, with what
/// extra task arguments.
#[derive(Clone, Debug)]
pub struct PhaseSpec {
    /// Label of the returning body to execute.
    pub body: &'static str,
    /// Extra task arguments (beyond the vertex range).
    pub args: Vec<(XReg, u64)>,
}

/// Backwards-compatible alias used by single-body workloads.
pub type PhaseArgs = Vec<Vec<(XReg, u64)>>;

/// Emits one halting task wrapper per distinct body (`task$<body>`) plus
/// the unrolled `serial` driver running every phase over the full range.
pub fn emit_phase_entries(asm: &mut Assembler, specs: &[PhaseSpec], v: u64) {
    let mut seen: Vec<&str> = Vec::new();
    for spec in specs {
        if !seen.contains(&spec.body) {
            seen.push(spec.body);
            asm.label(format!("task${}", spec.body));
            asm.jal(XReg::RA, spec.body.to_string());
            asm.halt();
        }
    }
    asm.label("serial");
    for spec in specs {
        asm.li(regs::START, 0);
        asm.li(regs::END, v as i64);
        for &(r, val) in &spec.args {
            asm.li(r, val as i64);
        }
        asm.jal(XReg::RA, spec.body.to_string());
    }
    asm.halt();
}

/// Builds the per-phase task lists matching [`emit_phase_entries`].
pub fn make_phase_tasks(
    program: &bvl_isa::asm::Program,
    v: u64,
    chunk: u64,
    specs: &[PhaseSpec],
) -> Vec<Phase> {
    specs
        .iter()
        .map(|spec| {
            let pc = program
                .label(&format!("task${}", spec.body))
                .unwrap_or_else(|| panic!("missing wrapper for body {}", spec.body));
            Phase::new(parallel_for_tasks(
                v,
                chunk,
                pc,
                None,
                regs::START,
                regs::END,
                &spec.args,
            ))
        })
        .collect()
}

/// Single-body convenience: emits `scalar_task` + `serial` (legacy names).
pub fn emit_entries(asm: &mut Assembler, body: &'static str, phase_args: &PhaseArgs, v: u64) {
    asm.label("scalar_task");
    asm.jal(XReg::RA, body.to_string());
    asm.halt();
    asm.label("serial");
    for args in phase_args {
        asm.li(regs::START, 0);
        asm.li(regs::END, v as i64);
        for &(r, val) in args {
            asm.li(r, val as i64);
        }
        asm.jal(XReg::RA, body.to_string());
    }
    asm.halt();
}

/// Builds the per-phase task lists matching [`emit_entries`]'s driver.
pub fn make_phases(scalar_pc: u32, v: u64, chunk: u64, phase_args: &PhaseArgs) -> Vec<Phase> {
    phase_args
        .iter()
        .map(|args| {
            Phase::new(parallel_for_tasks(
                v,
                chunk,
                scalar_pc,
                None,
                regs::START,
                regs::END,
                args,
            ))
        })
        .collect()
}

/// Emits the standard per-vertex neighbour loop scaffold:
///
/// ```text
/// for v in [START, END):
///     <per_vertex(asm)>           // v in t[0]
///     for e in offsets[v]..offsets[v+1]:
///         u = edges[e]            // u in t[2]
///         <per_edge(asm)>
///     <finalize(asm)>
/// return
/// ```
///
/// Register contract inside the callbacks: `t[0]` = vertex, `t[1]` =
/// remaining-edge counter, `t[2]` = neighbour vertex, `bs[0]` = current
/// edge pointer; `t[3]`–`t[7]`, `bs[1]`–`bs[5]` and ARG registers are free
/// for the callbacks (the scaffold does not touch them between hooks).
pub fn emit_vertex_sweep(
    asm: &mut Assembler,
    body_label: &str,
    g: &GraphInMem,
    per_vertex: impl Fn(&mut Assembler),
    per_edge: impl Fn(&mut Assembler),
    finalize: impl Fn(&mut Assembler),
) {
    let t = regs::T;
    let bs = regs::B;
    let l = |s: &str| format!("{body_label}${s}");

    asm.label(body_label);
    asm.mv(t[0], regs::START);
    asm.label(l("v"));
    asm.bge(t[0], regs::END, l("ret"));
    per_vertex(asm);
    // edge range
    asm.li(bs[0], g.offsets as i64);
    asm.slli(t[1], t[0], 2);
    asm.add(bs[0], bs[0], t[1]);
    asm.lw(t[1], bs[0], 4); // offsets[v+1]
    asm.lw(t[2], bs[0], 0); // offsets[v]
    asm.sub(t[1], t[1], t[2]); // edge count
    asm.slli(t[2], t[2], 2);
    asm.li(bs[0], g.edges as i64);
    asm.add(bs[0], bs[0], t[2]); // &edges[offsets[v]]
    asm.label(l("e"));
    asm.beq(t[1], XReg::ZERO, l("efin"));
    asm.lw(t[2], bs[0], 0); // u
    per_edge(asm);
    asm.addi(bs[0], bs[0], 4);
    asm.addi(t[1], t[1], -1);
    asm.j(l("e"));
    asm.label(l("efin"));
    finalize(asm);
    asm.addi(t[0], t[0], 1);
    asm.j(l("v"));
    asm.label(l("ret"));
    asm.jalr(XReg::ZERO, XReg::RA, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use bvl_isa::exec::Machine;
    use bvl_isa::mem::Memory;

    #[test]
    fn vertex_sweep_computes_degrees() {
        let g = gen::rmat(3, 64, 4);
        let mut mem = SimMemory::default();
        let gm = alloc_graph(&mut mem, &g);
        let deg_out = mem.alloc(gm.v * 4, 64);
        let t = regs::T;

        let mut asm = Assembler::new();
        let phase_args: PhaseArgs = vec![vec![]];
        emit_entries(&mut asm, "body", &phase_args, gm.v);
        emit_vertex_sweep(
            &mut asm,
            "body",
            &gm,
            |asm| {
                asm.li(t[3], 0);
            },
            |asm| {
                asm.addi(t[3], t[3], 1);
            },
            |asm| {
                asm.li(regs::B[1], deg_out as i64);
                asm.slli(t[4], t[0], 2);
                asm.add(regs::B[1], regs::B[1], t[4]);
                asm.sw(t[3], regs::B[1], 0);
            },
        );
        let prog = asm.assemble().unwrap();
        let mut m = Machine::new(mem, 512);
        m.set_pc(prog.label("serial").unwrap());
        m.run(&prog, 10_000_000).unwrap();
        for v in 0..g.vertices() {
            assert_eq!(
                m.mem().read_uint(deg_out + v as u64 * 4, 4) as usize,
                g.degree(v),
                "vertex {v}"
            );
        }
    }
}
