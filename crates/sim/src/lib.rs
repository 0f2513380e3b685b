#![warn(missing_docs)]
//! # bvl-sim — system compositions and the top-level simulation loop
//!
//! Builds the seven systems of the paper's Table III and runs workloads on
//! them:
//!
//! | key | composition |
//! |---|---|
//! | `1L` | one little core |
//! | `1b` | one big core |
//! | `1bIV` | big core + integrated 128-bit vector unit |
//! | `1b-4L` | big + four little cores (no vector support) |
//! | `1bIV-4L` | big with integrated vector unit + four little cores |
//! | `1bDV` | big + decoupled 2048-bit vector engine |
//! | `1b-4VL` | **big.VLITTLE**: big + four little cores reconfigurable as a 512-bit VLITTLE engine |
//!
//! Execution modes follow the paper's methodology: data-parallel workloads
//! run their vectorized whole-program entry on vector-capable single-core
//! systems, and as work-stealing tasks on the multi-core systems
//! (`1bIV-4L` runs the vectorized task variant when a task lands on the
//! big core); task-parallel workloads run as tasks wherever there are
//! multiple cores and serially elsewhere (`1bDV` can only use its big
//! core — the 1.7× deficit of Figure 4).
//!
//! Big and little clusters tick in independent clock domains (Section
//! VII's voltage/frequency exploration); the uncore stays at 1 GHz.

pub mod config;
pub mod result;
pub mod sampling;
pub mod snapshot;
pub mod system;

pub use config::{ClockConfig, SamplingParams, SimParams, SystemKind};
pub use result::{RunResult, SamplingMeta};
pub use sampling::{
    combine_sampled, plan_sampled, run_sample_window, simulate_sampled, PlannedWindow, SamplePlan,
    WindowMeasurement,
};
pub use snapshot::{params_fingerprint, SysState};
pub use system::{
    simulate, simulate_with, simulate_with_stats, CkptControl, ExecMode, FinalState, FinishedRun,
    Hooks, SimError, SimOutcome, SkipStats,
};

/// Checks every conservation law against a finished run's counter
/// snapshot (see `bvl_obs::conservation` for the laws). Every build runs
/// this at the end of every simulation and of every sampled window, and
/// ends a run that breaks a law with [`SimError::Run`].
pub fn verify_conservation(result: &RunResult) -> Vec<bvl_obs::Violation> {
    bvl_obs::check_conservation(&result.stats)
}
