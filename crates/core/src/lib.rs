#![warn(missing_docs)]
//! # bvl-core — core timing models
//!
//! Two processor models drive every system in the paper:
//!
//! * [`little`] — a single-issue in-order core with a register scoreboard,
//!   one outstanding load, a small store buffer, and a static
//!   backward-taken branch predictor. It models the paper's in-house
//!   little core (RV64-class, Table II) and collects the per-category
//!   stall statistics used throughout the evaluation.
//! * [`big`] — a simplified out-of-order core: wide fetch, register
//!   renaming via producer tracking, a reorder buffer, a functional-unit
//!   pool, a load/store queue, and in-order commit. Vector instructions
//!   wait at the ROB head and are dispatched to a [`VectorEngine`]
//!   (paper section III-A).
//!
//! Both cores use the *execute-at-decode* oracle style: the golden
//! [`bvl_isa::Machine`] functionally executes each instruction as it
//! enters the pipeline, and the timing model replays its effects
//! (effective addresses, branch outcomes, vector lengths). Timing can
//! therefore never corrupt architectural state.

pub mod big;
pub mod fetch;
pub mod little;
pub mod types;

pub use big::{BigCore, BigParams};
pub use fetch::FetchUnit;
pub use little::{LittleCore, LittleParams};
pub use types::{ClockDomain, CoreStats, RegList, StallKind, VecCmd, VectorEngine};
