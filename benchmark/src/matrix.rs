//! The benchmark's workloads: point matrices restated from the paper
//! artifacts, with inputs generated from the run's seed.

use bvl_experiments::sweep::SweepJob;
use bvl_power::{BIG_LEVELS, LITTLE_LEVELS};
use bvl_serve::{PointSpec, WorkloadSpec};
use bvl_sim::{SimParams, SystemKind};
use bvl_workloads::{Scale, Workload};
use std::sync::Arc;

/// The scale presets' own input seed. At this seed a matrix's inputs are
/// the ones the committed `results/` were generated from.
pub const DEFAULT_SEED: u64 = 0xB16B_00B5;

/// One benchmark workload.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Scale preset the inputs are built at (`--smoke` uses `tiny`).
    preset: &'static str,
    /// The matrix's points over the workloads it built.
    points: fn(&[Arc<Workload>]) -> Vec<Point>,
    /// Builds the matrix's workloads at a scale.
    suite: fn(Scale) -> Vec<Workload>,
    /// Committed artifact whose values the exact pass must reproduce at
    /// the default seed and preset: `(file under results/, value field)`.
    /// Rows are matched by their `label`.
    pub reference: Option<(&'static str, &'static str)>,
    /// Seconds of `--seconds` one round is budgeted: a round's length at
    /// the commit that set it, plus its share of the reference phase.
    round_budget_s: f64,
}

pub const WORKLOADS: [WorkloadDef; 2] = [
    WorkloadDef {
        name: "fig04_tiny",
        preset: "tiny",
        points: fig04_points,
        suite: fig04_suite,
        reference: None,
        round_budget_s: 7.5,
    },
    WorkloadDef {
        name: "vlittle_default",
        preset: "default",
        points: vlittle_points,
        suite: bvl_workloads::all_data_parallel,
        reference: Some(("fig10_perf_power.default.json", "time")),
        round_budget_s: 5.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One point of a matrix.
pub struct Point {
    pub system: SystemKind,
    pub workload: Arc<Workload>,
    pub params: SimParams,
    /// Row label in the artifact the point comes from.
    pub label: String,
}

/// A workload's points, built for one seed.
pub struct Matrix {
    /// Scale preset the inputs were built at.
    pub preset: &'static str,
    pub scale: Scale,
    /// `<preset>` at the default seed, `<preset>-s<seed>` otherwise, so
    /// cache keys of different inputs never collide.
    pub scale_name: String,
    pub points: Vec<Point>,
}

impl WorkloadDef {
    /// Rounds a run of `seconds` makes: fixed by `seconds` alone, so how
    /// fast the code runs never changes how many rounds the fastest-of
    /// timings draw on. At least one.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds / self.round_budget_s) as usize).max(1)
    }

    /// Builds the matrix for `seed` (at `tiny` scale when `smoke`).
    pub fn build(&self, seed: u64, smoke: bool) -> Matrix {
        let preset: &'static str = if smoke { "tiny" } else { self.preset };
        let scale = Scale {
            seed,
            ..Scale::by_name(preset).expect("workload presets are named scales")
        };
        let scale_name = if seed == DEFAULT_SEED {
            preset.to_string()
        } else {
            format!("{preset}-s{seed}")
        };
        let workloads: Vec<Arc<Workload>> = (self.suite)(scale).into_iter().map(Arc::new).collect();
        Matrix {
            scale,
            points: (self.points)(&workloads),
            preset,
            scale_name,
        }
    }
}

impl Matrix {
    fn workload_key(&self, p: &Point) -> String {
        format!("{}@{}", p.workload.name, self.scale_name)
    }

    /// The matrix as in-process sweep jobs.
    pub fn sweep_jobs(&self) -> Vec<SweepJob> {
        self.points
            .iter()
            .map(|p| {
                SweepJob::keyed(
                    p.system,
                    &p.workload,
                    self.workload_key(p),
                    p.params.clone(),
                )
            })
            .collect()
    }

    /// Point `i` as a fabric request: the worker rebuilds the workload
    /// from its name and this matrix's seeded scale.
    pub fn spec(&self, i: usize) -> PointSpec {
        let p = &self.points[i];
        PointSpec {
            system: p.system,
            workload_key: self.workload_key(p),
            workload: WorkloadSpec::Named {
                name: p.workload.name.to_string(),
                scale: self.scale,
            },
            params: p.params.clone(),
        }
    }
}

fn fig04_suite(scale: Scale) -> Vec<Workload> {
    let mut ws = bvl_workloads::all_task_parallel(scale);
    ws.extend(bvl_workloads::all_data_parallel(scale));
    ws
}

/// Figure 4's matrix, in the artifact's order: every workload on every
/// system, default parameters.
fn fig04_points(ws: &[Arc<Workload>]) -> Vec<Point> {
    ws.iter()
        .flat_map(|w| {
            SystemKind::ALL.into_iter().map(|system| Point {
                system,
                workload: Arc::clone(w),
                params: SimParams::default(),
                label: format!("{} {}", w.name, system.label()),
            })
        })
        .collect()
}

/// Figure 10's grid point at the default 1 GHz clocks (`b1,l2`), with
/// the parameters and labels the artifact uses.
fn vlittle_points(ws: &[Arc<Workload>]) -> Vec<Point> {
    let (b, l) = (BIG_LEVELS[1], LITTLE_LEVELS[2]);
    ws.iter()
        .map(|w| {
            let mut params = SimParams::default();
            params.clocks.big_ghz = b.ghz;
            params.clocks.little_ghz = l.ghz;
            Point {
                system: SystemKind::B4Vl,
                workload: Arc::clone(w),
                params,
                label: format!("{} ({},{})", w.name, b.name, l.name),
            }
        })
        .collect()
}
