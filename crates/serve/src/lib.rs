#![warn(missing_docs)]
//! # bvl-serve — the one-host, resumable sweep fabric
//!
//! A daemon ([`Daemon`]) that accepts experiment-point requests over a
//! length-prefixed protocol on a loopback socket, schedules them across
//! workers — in-process worker threads, spawned worker processes and
//! `bvl-serve --worker` processes started by hand on the same host, each
//! joining over one connection and speaking the same protocol — dedupes
//! in-flight identical points by their params-hash cache key, and serves
//! completed results from a content-addressed store layered on the
//! sweep's disk cache.
//!
//! The PR-5 checkpoint machinery is the fabric's recovery primitive: a
//! killed worker process loses at most one checkpoint interval of
//! simulated work, and the point resumes from its last blob on whichever
//! worker takes it next. Nothing preempts a running point. A killed
//! daemon keeps no queue to recover: its workers stop at their next
//! checkpoint, its clients resubmit, finished points come back from the
//! store and a point that was in flight resumes from its blob.
//! The restore-equivalence contract (checkpoint → restore →
//! byte-identical results) is what lets the fabric promise that a served
//! sweep's artifacts are byte-identical to an in-process run's.
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
//!   backpressure, requeues, counters
//! - [`daemon`] — the loopback listener, workers and fault plans around
//!   the core
//! - [`client`] — the submit/collect client library
//!
//! Binaries: `bvl-serve` (standalone daemon) and `bvl-client` (submit
//! points from the command line); `run_all --serve` embeds the daemon
//! and drives it through [`client::Client`].

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
pub use worker::{run_exact_point, run_one_point, worker_main, PointOutcome, PointRun};
