//! Developer tool: disassembles a workload's program — an `objdump`-style
//! view of what the in-library "compiler" emitted, one instruction per
//! line after its index.
//!
//! ```sh
//! cargo run --release -p bvl-experiments --bin dump_program -- --scale tiny 2>/dev/null | head
//! ```
//!
//! Accepts the common `--scale` flag; dumps every workload, headed by its
//! entry points and task counts.

use bvl_experiments::ExpOpts;
use bvl_workloads::{all_data_parallel, all_task_parallel};

fn main() {
    let opts = ExpOpts::from_args();
    for w in all_data_parallel(opts.scale)
        .into_iter()
        .chain(all_task_parallel(opts.scale))
    {
        println!("\n==== {} ({} instructions) ====", w.name, w.program.len());
        println!(
            "serial entry @{}; vector entry {:?}; {} tasks in {} phases",
            w.serial_entry,
            w.vector_entry,
            w.total_tasks(),
            w.phases.len()
        );
        for (pc, instr) in w.program.iter().enumerate() {
            println!("{pc:6}: {instr}");
        }
    }
}
