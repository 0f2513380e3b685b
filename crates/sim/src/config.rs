//! System selection and simulation parameters.

use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use bvl_vengine::EngineParams;

/// The seven evaluated systems (paper Table III).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SystemKind {
    /// One little core.
    L1,
    /// One big core.
    B1,
    /// Big core with the integrated 128-bit vector unit.
    BIv,
    /// Big + four little cores, no vector support.
    B4L,
    /// Big with integrated vector unit + four little cores.
    BIv4L,
    /// Big + decoupled 2048-bit vector engine.
    BDv,
    /// big.VLITTLE: big + four reconfigurable little cores.
    B4Vl,
}

impl SystemKind {
    /// All systems, in the paper's Figure 4 order.
    pub const ALL: [SystemKind; 7] = [
        SystemKind::L1,
        SystemKind::B1,
        SystemKind::BIv,
        SystemKind::B4L,
        SystemKind::BIv4L,
        SystemKind::BDv,
        SystemKind::B4Vl,
    ];

    /// The paper's label for this system.
    pub const fn label(self) -> &'static str {
        match self {
            SystemKind::L1 => "1L",
            SystemKind::B1 => "1b",
            SystemKind::BIv => "1bIV",
            SystemKind::B4L => "1b-4L",
            SystemKind::BIv4L => "1bIV-4L",
            SystemKind::BDv => "1bDV",
            SystemKind::B4Vl => "1b-4VL",
        }
    }

    /// Number of little cores in the cluster. In vector mode `1b-4VL`'s
    /// cluster is the VLITTLE engine, and `EngineParams::regmap.cores`
    /// sizes it instead (4 lanes by default).
    pub const fn num_little(self) -> usize {
        match self {
            SystemKind::L1 => 1,
            SystemKind::B1 | SystemKind::BIv | SystemKind::BDv => 0,
            SystemKind::B4L | SystemKind::BIv4L | SystemKind::B4Vl => 4,
        }
    }

    /// Whether a big core is present.
    pub const fn has_big(self) -> bool {
        !matches!(self, SystemKind::L1)
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// Wire encoding (sweep-fabric protocol): the index into `ALL`, one byte.
impl Snap for SystemKind {
    fn save(&self, w: &mut SnapWriter) {
        let tag = SystemKind::ALL
            .iter()
            .position(|k| k == self)
            .expect("ALL lists every variant");
        w.u8(tag as u8);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let tag = r.u8()?;
        SystemKind::ALL
            .get(usize::from(tag))
            .copied()
            .ok_or(SnapError::BadTag {
                ty: "SystemKind",
                tag: u64::from(tag),
            })
    }
}

/// Per-cluster clock frequencies in GHz (paper Table VII levels).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClockConfig {
    /// Big-cluster frequency.
    pub big_ghz: f64,
    /// Little-cluster frequency (also clocks attached vector engines built
    /// from the little cluster; the IVU/DVE follow the big core).
    pub little_ghz: f64,
    /// Uncore (caches/NoC/DRAM) frequency.
    pub uncore_ghz: f64,
}

impl Default for ClockConfig {
    fn default() -> Self {
        // Section V isolates microarchitecture by clocking everything at
        // 1 GHz.
        ClockConfig {
            big_ghz: 1.0,
            little_ghz: 1.0,
            uncore_ghz: 1.0,
        }
    }
}

// Clocks travel over the sweep-fabric wire bit-exactly (f64 bit pattern),
// so a submitted point hashes and simulates identically on every worker.
snap_struct!(ClockConfig {
    big_ghz,
    little_ghz,
    uncore_ghz,
});

impl ClockConfig {
    /// Clock period in femtoseconds.
    pub fn period_fs(ghz: f64) -> u64 {
        assert!(ghz > 0.0, "frequency must be positive");
        (1.0e6 / ghz).round() as u64
    }
}

/// Parameters for sampled simulation (SMARTS-style systematic sampling).
///
/// A sampled run functionally fast-forwards the workload with the
/// architectural `Machine` and drops into cycle-accurate simulation only
/// for a *window* of `window_instrs` instructions at every
/// `period_instrs` instruction boundary. Whole-run figures are then
/// estimated by stratified extrapolation over the measured windows (see
/// `crate::sampling` and DESIGN.md §4.12).
///
/// Setting `SimParams::sampling` does **not** change the behaviour of the
/// exact entry points (`simulate` and friends) — they ignore the field.
/// It selects the sampled path in `simulate_sampled` and in the
/// experiment sweep harness, and it *is* part of the parameter
/// fingerprint and sweep memo key, so sampled results never alias exact
/// ones in caches or checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingParams {
    /// Distance between consecutive window starts, in retired
    /// instructions. One window is measured per period.
    pub period_instrs: u64,
    /// Length of each detailed window, in retired instructions. Must not
    /// exceed `period_instrs`.
    pub window_instrs: u64,
}

snap_struct!(SamplingParams {
    period_instrs,
    window_instrs,
});

impl Default for SamplingParams {
    fn default() -> Self {
        // Tuned for throughput on `default`-scale sweeps: every window
        // boundary materializes a whole-system checkpoint and every
        // window pays a fresh `System::new` + restore, so short periods
        // make sampled runs *slower* than exact ones (a 4096-instr
        // period lost to exact on every run_all artifact). A 1/16
        // detailed fraction keeps run_all --sampled ahead of exact;
        // runs shorter than one period degenerate to a single
        // (near-exact) full-coverage window. Accuracy is pinned by the
        // sampled-validation suite, which sizes periods per machine.
        SamplingParams {
            period_instrs: 65536,
            window_instrs: 4096,
        }
    }
}

/// Everything configurable about one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimParams {
    /// Cluster clocks.
    pub clocks: ClockConfig,
    /// VLITTLE engine geometry/queues (used by `1b-4VL` only). The
    /// Figure 7 chime/packing ablations, the Figure 8 queue sweep and the
    /// cluster-scaling ablation's lane counts plug in here; in vector mode
    /// `regmap.cores` also sets the cluster's L1 bank count.
    pub engine: EngineParams,
    /// Hard cap on simulated uncore cycles before the run aborts.
    pub max_uncore_cycles: u64,
    /// Force the naive cycle-by-cycle loop, disabling quiescence-aware
    /// tick skipping. Results are bit-identical either way (the
    /// skip-equivalence test suite enforces it); this exists for
    /// debugging and as the oracle side of that suite.
    pub no_skip: bool,
    /// Collect a structured event trace of the run (see `bvl_obs::trace`).
    /// Off by default: the emit sites compile down to a branch on a
    /// thread-local bool, and the collected log is returned on
    /// [`crate::FinishedRun::trace`] by [`crate::simulate_with`].
    pub trace: bool,
    /// Emit a whole-system checkpoint (`crate::snapshot::SysState`) every
    /// this-many uncore cycles; 0 (the default) disables checkpointing.
    /// Taking a checkpoint is read-only — results are byte-identical with
    /// it on or off — and the cadence is deliberately excluded from the
    /// checkpoint's own parameter fingerprint, so a run may be resumed
    /// under a different cadence than the one that saved it.
    pub checkpoint_every: u64,
    /// Sampled-simulation configuration; `None` (the default) runs
    /// exactly. Ignored by the exact entry points — consumed by
    /// `simulate_sampled` and the experiment sweep harness — but always
    /// part of fingerprints and memo keys (a sampled estimate must never
    /// be confused with an exact result).
    pub sampling: Option<SamplingParams>,
}

// The full parameter set of one experiment point, as submitted to the
// sweep fabric. Every field is included — the *daemon* normalizes
// observability knobs (trace, checkpoint_every) when computing the dedupe
// key, not the codec.
snap_struct!(SimParams {
    clocks,
    engine,
    max_uncore_cycles,
    no_skip,
    trace,
    checkpoint_every,
    sampling,
});

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            clocks: ClockConfig::default(),
            engine: EngineParams::paper_default(),
            max_uncore_cycles: 400_000_000,
            no_skip: false,
            trace: false,
            checkpoint_every: 0,
            sampling: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(SystemKind::B4Vl.label(), "1b-4VL");
        assert_eq!(SystemKind::ALL.len(), 7);
    }

    #[test]
    fn periods() {
        assert_eq!(ClockConfig::period_fs(1.0), 1_000_000);
        assert_eq!(ClockConfig::period_fs(2.0), 500_000);
        assert_eq!(ClockConfig::period_fs(0.8), 1_250_000);
    }

    #[test]
    fn cluster_shapes() {
        assert_eq!(SystemKind::L1.num_little(), 1);
        assert!(!SystemKind::L1.has_big());
        assert_eq!(SystemKind::B4Vl.num_little(), 4);
    }
}
