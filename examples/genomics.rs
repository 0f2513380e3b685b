//! Genomics scenario: batch Smith-Waterman alignment — the paper's
//! motivating on-device DNA-analysis workload. Compares the scalar
//! big-core run against the anti-diagonal-vectorized run on the VLITTLE
//! engine and shows where the cycles go.
//!
//! ```sh
//! cargo run --release --example genomics
//! ```

use big_vlittle::sim::{simulate, SimParams, SystemKind};
use big_vlittle::workloads::{apps::sw, Scale};

fn main() -> Result<(), String> {
    let scale = Scale::default_eval();
    let workload = sw::build(scale);
    let params = SimParams::default();

    println!(
        "Smith-Waterman: 4 query chunks x {} bp against a {} bp reference\n",
        scale.dim * 4,
        scale.dim * 4
    );

    let scalar_big = simulate(SystemKind::B1, &workload, &params)?;
    println!(
        "1b     (scalar DP):           {:>9.1} µs",
        scalar_big.wall_ns / 1000.0
    );

    let tasks = simulate(SystemKind::B4L, &workload, &params)?;
    println!(
        "1b-4L  (chunk tasks):         {:>9.1} µs  ({} tasks, {} steals)",
        tasks.wall_ns / 1000.0,
        tasks.stat("sys.runtime.tasks_run"),
        tasks.stat("sys.runtime.steals")
    );

    let vlittle = simulate(SystemKind::B4Vl, &workload, &params)?;
    println!(
        "1b-4VL (anti-diagonal RVV):   {:>9.1} µs  ({:.2}x over 1b)",
        vlittle.wall_ns / 1000.0,
        scalar_big.wall_ns / vlittle.wall_ns
    );

    println!(
        "\nmemory traffic (data requests): 1b = {}, 1b-4VL = {}",
        scalar_big.stat("sys.mem.data_reqs"),
        vlittle.stat("sys.mem.data_reqs")
    );
    Ok(())
}
