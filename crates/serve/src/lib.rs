#![warn(missing_docs)]
//! # bvl-serve — the one-host, resumable sweep fabric
//!
//! A daemon ([`Daemon`]) takes experiment points over a length-prefixed
//! protocol on a loopback socket and schedules them across workers —
//! in-process threads, spawned worker processes and `bvl-serve --worker`
//! processes started by hand, each joining over one connection — with
//! the scheduler core every sweep uses: in-process sweeps drive their own
//! core through threads (`bvl_experiments::sweep`), so a point meets the
//! same memo, coalescing, store and failure decisions with or without a
//! daemon. Checkpoints are the recovery primitive: a killed worker loses
//! at most one checkpoint interval, a killed daemon's clients resubmit
//! and its in-flight points resume from their blobs, and the
//! restore-equivalence contract keeps served artifacts byte-identical to
//! in-process ones (DESIGN.md §4.13–4.14).
//!
//! Layering:
//!
//! - [`proto`] — the wire protocol (framed, checksummed [`proto::Msg`]s)
//! - [`spec`] — wire-transportable point specs ([`spec::PointSpec`])
//! - [`store`] — content-addressed result + checkpoint store
//! - [`worker`] — point execution shared by every fabric worker and the
//!   in-process sweep, and the worker loop
//! - [`sched`] — the scheduler core, with no sockets, threads, locks or
//!   clocks: priority + fair-share dispatch, dedupe, memo and disk hits,
//!   storing results as they complete, failures, backpressure, requeues,
//!   counters
//! - [`daemon`] — the loopback listener, workers and fault plans around
//!   the core
//! - [`client`] — the submit/collect client library, whose
//!   [`ServedResult`]s an in-process sweep collects too
//!
//! Binaries: `bvl-serve` (standalone daemon) and `bvl-client` (submit
//! points from the command line); `run_all --serve` embeds the daemon.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod sched;
pub mod spec;
pub mod store;
pub mod worker;

pub use client::{Client, ServedResult};
pub use daemon::{Daemon, DaemonConfig, FaultPlan, WorkerCmd};
pub use proto::{Msg, Priority, ProtoError, MAX_FRAME};
pub use sched::{FabricReport, FabricStats, Sched};
pub use spec::{PointSpec, WorkloadSpec};
pub use store::{cache_key_for, ResultStore};
pub use worker::{run_one_point, run_point, worker_main, PointRun};
