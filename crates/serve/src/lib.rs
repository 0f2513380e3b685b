#![warn(missing_docs)]
//! # bvl-serve — the sharded, resumable sweep fabric
//!
//! A daemon ([`Daemon`]) that accepts experiment-point requests over a
//! length-prefixed protocol on a localhost socket, schedules them across
//! workers — in-process worker threads, spawned worker processes and
//! workers on other hosts, all speaking the same protocol — dedupes
//! in-flight identical points by their params-hash cache key, and serves
//! completed results from a content-addressed store layered on the
//! sweep's disk cache.
//!
//! The PR-5 checkpoint machinery is the fabric's preemption/migration
//! primitive: a long-running point can be evicted at its last checkpoint
//! and resumed on another worker, and a killed worker process loses at
//! most one checkpoint interval of simulated work. A killed daemon keeps
//! no queue to recover: its clients resubmit, finished points come back
//! from the store and a point that was in flight resumes from its blob.
//! The restore-equivalence contract (checkpoint → restore →
//! byte-identical results) is what lets the fabric promise that a served
//! sweep's artifacts are byte-identical to an in-process run's.
//!
//! Layering:
//!
//! - [`proto`] — the wire protocol (framed, checksummed [`proto::Msg`]s)
//! - [`auth`] — the shared-secret handshake for non-loopback binds
//! - [`spec`] — wire-transportable point specs ([`spec::PointSpec`])
//! - [`store`] — content-addressed result + checkpoint store
//! - [`worker`] — point execution shared by every fabric worker and the
//!   in-process sweep, and the worker loop
//! - [`sched`] — the scheduler core, with no sockets, threads, locks or
//!   clocks: priority + fair-share dispatch, dedupe, memo and disk hits,
//!   backpressure, requeues, counters
//! - [`daemon`] — sockets, authentication, workers, preemption and
//!   fault plans around the core
//! - [`client`] — the submit/collect client library
//!
//! Binaries: `bvl-serve` (standalone daemon) and `bvl-client` (submit
//! points from the command line); `run_all --serve` embeds the daemon
//! and drives it through [`client::Client`].

pub mod auth;
pub mod client;
pub mod daemon;
pub mod proto;
pub mod sched;
pub mod spec;
pub mod store;
pub mod worker;

pub use client::{Client, ServedResult};
pub use daemon::{Daemon, DaemonConfig, FaultPlan, WorkerCmd};
pub use proto::{Msg, Priority, ProtoError, EVICT_BYTE, MAX_FRAME};
pub use sched::{FabricReport, FabricStats, Sched};
pub use spec::{PointSpec, WorkloadSpec};
pub use store::{cache_key_for, ResultStore};
pub use worker::{run_exact_point, run_one_point, worker_main, PointOutcome, PointRun};
