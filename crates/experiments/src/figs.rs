//! One module per paper artifact, each exposing `run(&ExpOpts)`.
//!
//! The experiment binaries are thin wrappers over these functions so the
//! `run_all` binary can regenerate every artifact in-process, submitting
//! to one shared scheduler core ([`crate::sweep::SweepSched`]) — points
//! common to several figures (fig04/05/06 measure the same
//! `1L`/`1bIV-4L`/`1bDV`/`1b-4VL` runs) then simulate exactly once.
//!
//! Every module builds its full job matrix up front, fans it out through
//! [`crate::sweep::run_sweep`] (or [`crate::sweep::run_parallel`] where
//! the unit of work is not a `simulate` call), and does all printing and
//! accumulation afterwards in deterministic matrix order — output is
//! byte-identical at any `--jobs` count.

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
