//! Ablation — VMIU index coalescing (section III-E: "the VMIU tries to
//! coalesce a number of consecutive indices into a single cache-line
//! request"). Measured on a synthetic gather microbenchmark whose index
//! vector has configurable locality, since the paper-suite kernels are
//! unit/constant-stride.
//!
//! The gather builder lives in [`bvl_workloads::micro`] so fabric worker
//! processes can rebuild the exact same instance from a
//! [`WorkloadSpec::Gather`] wire spec.

use crate::sweep::{run_sweep, SweepJob};
use crate::{fmt2, print_table, ExpOpts};
use bvl_serve::WorkloadSpec;
use bvl_sim::{SimParams, SystemKind};
use bvl_workloads::micro::{build_gather, gather_len};
use serde::Serialize;
use std::sync::Arc;

const LOCALITIES: [u64; 2] = [1, 4];
const COALESCE: [u32; 2] = [1, 4];

#[derive(Serialize)]
struct Row {
    locality: u64,
    coalesce: u32,
    wall_ns: f64,
    line_reqs: u64,
}

/// Regenerates the VMIU-coalescing ablation at `opts`' scale.
pub fn run(opts: &ExpOpts) {
    let mut jobs = Vec::new();
    for locality in LOCALITIES {
        // Same kernel name, different index vector — the key carries the
        // locality so the variants do not collide in the cache.
        let w = Arc::new(build_gather(opts.scale, locality).expect("tables hold 1024 or more"));
        let key = format!("gather-loc{locality}@{}", opts.scale_name);
        for coalesce in COALESCE {
            let mut params = SimParams::default();
            params.engine.vmu.coalesce = coalesce;
            jobs.push(
                SweepJob::keyed(SystemKind::B4Vl, &w, key.clone(), params).with_spec(
                    WorkloadSpec::Gather {
                        locality,
                        scale: opts.scale,
                    },
                ),
            );
        }
    }
    let results = run_sweep(&jobs, opts);
    let mut results = results.iter();

    let mut rows = Vec::new();
    let mut out = Vec::new();
    println!(
        "\n## Ablation: VMIU index coalescing on 1b-4VL (gather microbenchmark, scale = {})\n",
        opts.scale_name
    );
    for locality in LOCALITIES {
        for coalesce in COALESCE {
            let r = results.next().expect("matrix run");
            rows.push(vec![
                locality.to_string(),
                coalesce.to_string(),
                format!("{:.0}", r.wall_ns),
                r.stat("sys.mem.data_reqs").to_string(),
                fmt2(r.stat("sys.mem.data_reqs") as f64 / gather_len(opts.scale) as f64),
            ]);
            out.push(Row {
                locality,
                coalesce,
                wall_ns: r.wall_ns,
                line_reqs: r.stat("sys.mem.data_reqs"),
            });
        }
    }
    print_table(
        &[
            "index locality",
            "coalesce",
            "time (ns)",
            "line reqs",
            "reqs/elem",
        ],
        &rows,
    );
    opts.save_json("abl_vmu_coalesce", &out);
}
