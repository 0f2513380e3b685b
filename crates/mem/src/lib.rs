#![warn(missing_docs)]
//! # bvl-mem — cycle-level reconfigurable memory hierarchy
//!
//! Implements the memory substrate of the big.VLITTLE paper:
//!
//! * [`simmem`] — the shared *functional* memory image ([`SimMemory`]) all
//!   cores execute against, plus a bump allocator for workload data.
//! * [`req`] — memory request/response types and port identifiers.
//! * [`queue`] — fixed-latency delay queues used to model pipelined paths.
//! * [`idmap`] — a dense sliding-window map over monotonically allocated
//!   transaction ids (the hot-path replacement for `HashMap<u64, _>`).
//! * [`cache`] — a set-associative write-back cache timing model with
//!   MSHRs, LRU replacement and per-access statistics.
//! * [`dram`] — a latency/bandwidth-limited DRAM model.
//! * [`coherence`] — an invalidation-based MSI directory kept at the shared
//!   L2 (a simplified stand-in for the paper's AMBA 5 CHI model).
//! * [`hier`] — the composed hierarchy: per-core private L1I/L1D caches, a
//!   shared banked L2 and DRAM, with the paper's *reconfigurable L1
//!   subsystem* (section III-E): in vector mode the little cores' private
//!   L1Ds become a logically-shared multi-bank cache addressed by bank
//!   bits placed between the block offset and the index.
//!
//! Timing and function are split: caches track tags/state/latency only,
//! while data lives in [`SimMemory`] and is moved by the golden executor.
//! This trace-driven-style split keeps the timing model honest (it cannot
//! invent values) while preserving every quantity the paper reports
//! (cycles, request counts, hit rates).

pub mod cache;
pub mod coherence;
pub mod dram;
pub mod hier;
pub mod idmap;
pub mod queue;
pub mod req;
pub mod simmem;

pub use cache::{Cache, CacheParams, CacheStats};
pub use dram::{Dram, DramParams};
pub use hier::{HierConfig, MemHierarchy, MemStats, WarmTarget};
pub use idmap::IdMap;
pub use req::{AccessKind, MemReq, MemResp, PortId};
pub use simmem::{MemImage, SharedMem, SimMemory};
