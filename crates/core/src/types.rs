//! Shared core-facing types: statistics, stall taxonomy and the vector
//! engine interface.

use bvl_isa::exec::MemAccess;
use bvl_isa::instr::Instr;
use bvl_isa::vcfg::Sew;
use bvl_mem::{MemHierarchy, PortId, WarmTarget};
use bvl_snap::{snap_struct, SnapError, SnapReader, SnapWriter};

/// Why a core could not retire useful work in a given cycle.
///
/// The categories mirror Figure 7 of the paper (vector-mode little cores);
/// scalar execution uses the same taxonomy so breakdowns are comparable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StallKind {
    /// Issued (or retired) useful work — not a stall.
    Busy,
    /// Waiting for lock-step micro-op issue from the VCU (vector mode).
    Simd,
    /// Read-after-write on an outstanding memory value.
    RawMem,
    /// Read-after-write on a long-latency functional unit.
    RawLlfu,
    /// Structural hazard (FU or port busy, queue full).
    Struct,
    /// Waiting on a cross-element (VXU) operation.
    Xelem,
    /// Front-end starvation, fences, and everything else.
    Misc,
}

impl StallKind {
    /// All categories, in the order used by the Figure 7 breakdown.
    pub const ALL: [StallKind; 7] = [
        StallKind::Busy,
        StallKind::Simd,
        StallKind::RawMem,
        StallKind::RawLlfu,
        StallKind::Struct,
        StallKind::Xelem,
        StallKind::Misc,
    ];

    /// Short label matching the paper's legend.
    pub const fn label(self) -> &'static str {
        match self {
            StallKind::Busy => "busy",
            StallKind::Simd => "simd",
            StallKind::RawMem => "raw_mem",
            StallKind::RawLlfu => "raw_llfu",
            StallKind::Struct => "struct",
            StallKind::Xelem => "xelem",
            StallKind::Misc => "misc",
        }
    }
}

/// Per-core statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles the core was powered in its current role.
    pub cycles: u64,
    /// Instructions (or micro-ops) retired.
    pub retired: u64,
    /// Instruction fetch groups read from the L1I (Figure 5's quantity).
    pub fetch_groups: u64,
    /// Cycle breakdown, indexed by [`StallKind::ALL`] order.
    pub breakdown: [u64; 7],
    /// Conditional branches executed / mispredicted.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
}

impl CoreStats {
    /// Records one cycle attributed to `kind`.
    pub fn account(&mut self, kind: StallKind) {
        self.account_many(kind, 1);
    }

    /// Records `n` cycles attributed to `kind` at once — the batch form
    /// of [`CoreStats::account`] used when the simulator skips a window
    /// of quiescent cycles whose accounting is known to be constant.
    pub fn account_many(&mut self, kind: StallKind, n: u64) {
        self.cycles += n;
        let idx = StallKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind is in ALL");
        self.breakdown[idx] += n;
    }

    /// Cycles attributed to `kind`.
    pub fn of(&self, kind: StallKind) -> u64 {
        let idx = StallKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind is in ALL");
        self.breakdown[idx]
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Registers every counter under `scope` (e.g. `sys.little3`). The
    /// breakdown lands under `breakdown.{label}` in [`StallKind::ALL`]
    /// order, satisfying the `breakdown` conservation law:
    /// `Σ breakdown.* == cycles`.
    pub fn register(&self, scope: &mut bvl_obs::Scope<'_>) {
        scope.set("cycles", self.cycles);
        scope.set("retired", self.retired);
        scope.set("fetch_groups", self.fetch_groups);
        let mut bd = scope.scope("breakdown");
        for (kind, n) in StallKind::ALL.iter().zip(self.breakdown) {
            bd.set(kind.label(), n);
        }
        scope.set("branches", self.branches);
        scope.set("mispredicts", self.mispredicts);
    }
}

/// A ticked component's self-assessment of upcoming work, used by the
/// simulator's quiescence-skip engine (see DESIGN.md, "The event-skip
/// contract").
///
/// The contract: while a component reports `Idle`, every naive tick
/// strictly before `until` (every tick, when `until` is `None`) is a
/// no-op except for accounting exactly one cycle of `account` — provided
/// no memory response is pending on the component's ports and no other
/// component acts on it in the window. The first cycle at which its
/// behavior may differ must be covered by `until`; reporting an earlier
/// `until` is allowed (it only shrinks the skip), a later one is a bug.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Quiescence {
    /// Ticking now may change state: do not skip.
    Active,
    /// Quiescent until `until` (exclusive). `None` means quiescent until
    /// externally woken (a memory response, an engine event, or a new
    /// work assignment).
    Idle {
        /// First cycle the component may act on its own, if any.
        until: Option<u64>,
        /// The per-cycle stall accounting each skipped tick would have
        /// performed (`None`: the tick accounts nothing, e.g. a halted
        /// core).
        account: Option<StallKind>,
    },
}

/// A vector instruction handed from the big core to a vector engine, with
/// the functional effects the timing model needs.
#[derive(Clone, Debug)]
pub struct VecCmd {
    /// The big core's sequence number for the instruction (echoed back on
    /// completion of scalar-writing instructions).
    pub seq: u64,
    /// The vector instruction.
    pub instr: Instr,
    /// Vector length in effect.
    pub vl: u32,
    /// Element width in effect.
    pub sew: Sew,
    /// Per-element memory accesses performed (for vector loads/stores).
    pub mem: Vec<MemAccess>,
    /// True if the big core blocks at the ROB head until the engine
    /// responds with a scalar value (paper section III-A).
    pub needs_scalar_response: bool,
}

snap_struct!(CoreStats {
    cycles,
    retired,
    fetch_groups,
    breakdown,
    branches,
    mispredicts,
});

snap_struct!(VecCmd {
    seq,
    instr,
    vl,
    sew,
    mem,
    needs_scalar_response,
});

/// The cluster clock a vector engine ticks on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClockDomain {
    /// The big core's clock (integrated and decoupled units).
    Big,
    /// The little cluster's clock (the VLITTLE engine is made of it).
    Little,
}

/// The interface every vector engine implements: the VLITTLE cluster, the
/// integrated vector unit and the decoupled vector engine.
///
/// The big core dispatches one vector instruction at a time from its ROB
/// head; instructions that do not write a scalar register are considered
/// committed at dispatch, while scalar-writing instructions complete when
/// the engine reports their sequence number via
/// [`VectorEngine::pop_scalar_done`].
///
/// Beyond that handshake the trait carries everything the system
/// simulator needs to clock, skip, checkpoint and report an engine, so
/// attaching a new engine is one impl of this trait.
pub trait VectorEngine {
    /// True if the engine can accept a new command this cycle.
    fn can_accept(&self) -> bool;

    /// Accepts a command.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called while [`VectorEngine::can_accept`]
    /// is false.
    fn dispatch(&mut self, cmd: VecCmd);

    /// Pops the sequence number of a completed scalar-writing instruction.
    fn pop_scalar_done(&mut self) -> Option<u64>;

    /// True when every dispatched vector *memory* operation has retired —
    /// the condition `vmfence` waits on (paper section III-B).
    fn mem_drained(&self) -> bool;

    /// True when the engine holds no work at all.
    fn idle(&self) -> bool;

    /// Advances the engine one cycle, exchanging traffic with the memory
    /// hierarchy.
    fn tick(&mut self, now: u64, hier: &mut MemHierarchy);

    /// Hardware vector length in bits (what `vsetvl` grants against).
    fn vlen_bits(&self) -> u32;

    /// The clock the engine ticks on (before the cores of that cluster).
    fn clock_domain(&self) -> ClockDomain;

    /// The hierarchy port the engine's memory responses return on. A
    /// pending response there wakes the engine, so the tick-skip planner
    /// does not skip while one is pending.
    fn port(&self) -> PortId;

    /// True while a scalar response awaits the big core's poll (the big
    /// core's next tick consumes it, so its domain must keep stepping).
    fn scalar_pending(&self) -> bool;

    /// The engine's self-assessment for the tick-skip planner, at cycle
    /// `now` of its own clock. `Idle` promises that every tick strictly
    /// before `until` — absent responses on [`VectorEngine::port`] and new
    /// dispatches — changes nothing but the accounting that
    /// [`VectorEngine::skip_idle`] applies in batch.
    fn quiescence(&self, now: u64) -> Quiescence;

    /// Batch-applies the effects of `cycles` skipped quiescent ticks
    /// starting at `now`.
    fn skip_idle(&mut self, now: u64, cycles: u64);

    /// The tag that guards a checkpoint against restoring into an engine
    /// of another shape (0 is reserved for "no engine").
    fn checkpoint_tag(&self) -> u8;

    /// Appends the engine's mutable state to a checkpoint. Configuration
    /// is not written: a restore target is built from the same arguments.
    fn save_state(&self, w: &mut SnapWriter);

    /// Restores state written by [`VectorEngine::save_state`].
    ///
    /// # Errors
    ///
    /// Fails with a [`SnapError`] on malformed input or shapes not
    /// matching this engine's configuration.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;

    /// The structure a detailed run's vector accesses to `line` fill —
    /// where sampled simulation warms them.
    fn warm_target(&self, line: u64, hier: &MemHierarchy) -> WarmTarget;

    /// Registers the engine's counters under the system scope `sys`:
    /// its own under `sys.engine`, and lane-level ones beside the cores.
    fn register_stats(&self, sys: &mut bvl_obs::Scope<'_>);

    /// Per-lane statistics, for engines built from lanes (Figure 7).
    fn lane_stats(&self) -> Vec<CoreStats> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accounting() {
        let mut s = CoreStats::default();
        s.account(StallKind::Busy);
        s.account(StallKind::RawMem);
        s.account(StallKind::RawMem);
        assert_eq!(s.cycles, 3);
        assert_eq!(s.of(StallKind::RawMem), 2);
        assert_eq!(s.of(StallKind::Busy), 1);
        assert_eq!(s.of(StallKind::Xelem), 0);
    }

    #[test]
    fn labels_match_paper_legend() {
        let labels: Vec<&str> = StallKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec!["busy", "simd", "raw_mem", "raw_llfu", "struct", "xelem", "misc"]
        );
    }

    #[test]
    fn ipc() {
        let s = CoreStats {
            retired: 50,
            cycles: 100,
            ..Default::default()
        };
        assert!((s.ipc() - 0.5).abs() < 1e-12);
    }
}
