//! One module per paper artifact, each exposing `run(&ExpOpts)`.
//!
//! The experiment binaries are thin wrappers over these functions so the
//! `run_all` binary can regenerate every artifact in-process, submitting
//! to one shared scheduler core ([`crate::sweep::SweepSched`]) — points
//! common to several figures (fig04/05/06 measure the same
//! `1L`/`1bIV-4L`/`1bDV`/`1b-4VL` runs) then simulate exactly once.
//!
//! Every module builds its full job matrix up front, fans it out through
//! [`crate::sweep::run_sweep`], and does all printing and accumulation
//! afterwards in deterministic matrix order — output is byte-identical at
//! any `--jobs` count. Only work that is not a `simulate` call (Tables IV
//! and V's golden-model characterization, and the `difftest` binary) fans
//! out through [`crate::sweep::run_parallel`] instead.

pub mod abl_mode_switch;
pub mod abl_scaling;
pub mod abl_vmu_coalesce;
pub mod abl_vxu_topology;
pub mod fig04_speedup;
pub mod fig05_ifetch;
pub mod fig06_dreq;
pub mod fig07_breakdown;
pub mod fig08_lsq_sweep;
pub mod fig09_vf_heatmap;
pub mod fig10_perf_power;
pub mod fig11_pareto;
pub mod tab06_area;
pub mod tab07_power_levels;
pub mod tab45_workloads;

use crate::sweep::{run_sweep, SweepJob};
use crate::{fmt2, print_table, ExpOpts, Measurement};
use bvl_sim::{SimParams, SystemKind};
use bvl_workloads::{all_data_parallel, Workload};
use std::sync::Arc;

/// Figures 5 and 6: the counter at `stat` for every data-parallel
/// workload on the three vector-capable comparison systems, normalized to
/// `1bDV` and titled `Figure {figure} ({what}, …)`, saved as `artifact`.
fn requests_over_1bdv(opts: &ExpOpts, figure: u8, what: &str, stat: &str, artifact: &str) {
    const SYSTEMS: [SystemKind; 3] = [SystemKind::BIv4L, SystemKind::BDv, SystemKind::B4Vl];
    let params = SimParams::default();
    let workloads: Vec<Arc<Workload>> = all_data_parallel(opts.scale)
        .into_iter()
        .map(Arc::new)
        .collect();
    let jobs: Vec<SweepJob> = workloads
        .iter()
        .flat_map(|w| {
            SYSTEMS
                .into_iter()
                .map(|kind| SweepJob::new(kind, w, &opts.scale_name, params.clone()))
        })
        .collect();
    let results = run_sweep(&jobs, opts);

    let mut rows = Vec::new();
    let mut measurements = Vec::new();
    println!(
        "\n## Figure {figure} ({what}, normalized to 1bDV, scale = {})\n",
        opts.scale_name
    );
    for (wi, w) in workloads.iter().enumerate() {
        let runs = &results[wi * SYSTEMS.len()..(wi + 1) * SYSTEMS.len()];
        for (i, kind) in SYSTEMS.into_iter().enumerate() {
            measurements.push(Measurement::of(w.name, kind, &runs[i]));
        }
        let base = runs[1].stat(stat).max(1) as f64; // 1bDV
        let mut row = vec![w.name.to_string()];
        for r in runs {
            row.push(fmt2(r.stat(stat) as f64 / base));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("workload")
        .chain(SYSTEMS.iter().map(|k| k.label()))
        .collect();
    print_table(&headers, &rows);
    opts.save_json(artifact, &measurements);
}
