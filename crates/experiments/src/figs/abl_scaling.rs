//! Future-work exploration (paper Section IX: "scalability of
//! big.VLITTLE architectures beyond the scope of mobile SoCs"): scale the
//! VLITTLE cluster to 2, 4 and 8 little cores and measure how the engine's
//! hardware vector length and bank count track performance.
//!
//! Each (workload, lanes) pair is an ordinary `1b-4VL` sweep point whose
//! `EngineParams::regmap.cores` sets the engine's lanes and, in vector
//! mode, the cluster's L1 banks. The ablation therefore runs under every
//! sweep mode (memo, disk cache, `--sampled`, `--serve`, checkpoints,
//! `--no-skip`), and its 4-lane column is Figure 4's `1b-4VL` points.

use crate::sweep::{run_sweep, SweepJob};
use crate::{fmt2, print_table, ExpOpts};
use bvl_sim::{SimParams, SystemKind};
use bvl_vengine::regmap::RegMap;
use bvl_workloads::{all_data_parallel, Workload};
use serde::Serialize;
use std::sync::Arc;

const LANES: [u8; 3] = [2, 4, 8];

#[derive(Serialize)]
struct ScalePoint {
    workload: String,
    lanes: u8,
    vlen_bits: u32,
    cycles: u64,
}

/// Regenerates the cluster-scaling ablation at `opts`' scale.
pub fn run(opts: &ExpOpts) {
    let workloads: Vec<Arc<Workload>> = all_data_parallel(opts.scale)
        .into_iter()
        .map(Arc::new)
        .collect();
    let scale = &opts.scale_name;
    let jobs: Vec<SweepJob> = workloads
        .iter()
        .flat_map(|w| {
            LANES.into_iter().map(move |lanes| {
                let mut params = SimParams::default();
                params.engine.regmap = RegMap {
                    cores: lanes,
                    chimes: 2,
                    packed: true,
                };
                SweepJob::new(SystemKind::B4Vl, w, scale, params)
            })
        })
        .collect();
    // `cycles` keeps the numbers of the single-clock loop this ablation
    // once ran by hand, which reported the index of its last tick: one
    // less than the uncore cycles `System` counts.
    let cycles: Vec<u64> = run_sweep(&jobs, opts)
        .iter()
        .map(|r| r.stat("sys.clock.uncore") - 1)
        .collect();

    println!(
        "\n## Ablation: VLITTLE cluster scaling (speedup over 2 lanes, scale = {})\n",
        opts.scale_name
    );
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let runs = &cycles[wi * LANES.len()..(wi + 1) * LANES.len()];
        let base = runs[0]; // 2 lanes
        let mut row = vec![w.name.to_string()];
        for (li, lanes) in LANES.into_iter().enumerate() {
            row.push(fmt2(base as f64 / runs[li] as f64));
            out.push(ScalePoint {
                workload: w.name.to_string(),
                lanes,
                vlen_bits: u32::from(lanes) * 128,
                cycles: runs[li],
            });
        }
        rows.push(row);
    }
    print_table(
        &[
            "workload",
            "2 lanes (256b)",
            "4 lanes (512b)",
            "8 lanes (1024b)",
        ],
        &rows,
    );
    opts.save_json("abl_scaling", &out);
}
