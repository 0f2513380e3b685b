#![warn(missing_docs)]
//! # bvl-obs — the cycle-attribution observability layer
//!
//! Three facilities, shared by every crate of the simulator:
//!
//! 1. **[`StatsRegistry`]** — every ticked component (cores, caches, DRAM,
//!    the vector engines, the runtime) registers its counters under a
//!    hierarchical dotted path (`sys.little3.l1d.misses`). The registry
//!    freezes into a [`StatsSnapshot`], the typed, ordered key→value view
//!    that `bvl-sim` embeds in its `RunResult` and that every figure
//!    module reads instead of reaching into per-component structs.
//! 2. **Event tracing** ([`trace`]) — a thread-local, ring-buffered
//!    structured event sink ([`TraceEvent`]) that is a branch-on-a-bool
//!    no-op when disabled, with a Chrome `trace_event` JSON exporter so
//!    any run can be opened in `chrome://tracing` / Perfetto.
//! 3. **Conservation laws** ([`conservation`]) — exact flow balances
//!    (`busy + Σstalls == cycles`, `hits + misses + merges == accesses`,
//!    L1→L2→DRAM flow, VMU→bank line delivery) checked over a snapshot
//!    by [`check_conservation`]. `bvl_sim::verify_conservation` wraps it
//!    for `RunResult`, and every build checks it at the end of every
//!    exact run and sampled window.
//!    The contracts each component promises are documented in
//!    `DESIGN.md` §4.10.

pub mod conservation;
pub mod registry;
pub mod trace;

pub use conservation::{check_conservation, Violation};
pub use registry::{Scope, StatsRegistry, StatsSnapshot};
pub use trace::{TraceEvent, TraceLog};
