//! Simulation results.

use bvl_obs::StatsSnapshot;
use bvl_snap::snap_struct;

/// Everything one run reports.
///
/// `PartialEq` compares every field (including exact `wall_ns` bits) so the
/// sweep harness can assert run-to-run and parallel-vs-serial determinism.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    /// Wall-clock time in nanoseconds (the cross-frequency metric).
    pub wall_ns: f64,
    /// Every simulator counter of the run, under `sys.little3.l1d.miss`
    /// style paths (see `DESIGN.md` §4.10 for the schema): uncore cycles
    /// at `sys.clock.uncore`, Figure 5's fetch groups at
    /// `sys.fetch_groups`, Figure 6's data requests at
    /// `sys.mem.data_reqs`, Figure 7's lane breakdowns under
    /// `sys.lane{i}.breakdown`. The one place a counter lives.
    pub stats: StatsSnapshot,
    /// Present when this result is a *sampled estimate* rather than an
    /// exact measurement: how it was sampled and the confidence interval
    /// on `wall_ns` (DESIGN.md §4.12). Exact runs carry `None`.
    pub sampling: Option<SamplingMeta>,
}

// Wire encoding for the sweep fabric. `wall_ns` (and the CI half-width)
// travel as IEEE-754 bit patterns, so a result relayed through the daemon
// is `PartialEq`-identical to one computed in-process — the fabric's
// byte-identity acceptance test depends on this.
snap_struct!(RunResult {
    wall_ns,
    stats,
    sampling,
});

/// How a sampled run's estimate was produced, carried on [`RunResult`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SamplingMeta {
    /// Instruction distance between window starts.
    pub period_instrs: u64,
    /// Detailed-window length in instructions.
    pub window_instrs: u64,
    /// Total instructions the functional fast-forward retired (the
    /// population size the estimate extrapolates to).
    pub total_instrs: u64,
    /// Windows measured in detail.
    pub windows_measured: u64,
    /// Windows that ended early because the program (or its final
    /// stratum) was shorter than the window length. Reported, never
    /// silent — see the run-summary logging in the sweep harness.
    pub windows_truncated: u64,
    /// 95% confidence half-width on `wall_ns`, including the documented
    /// warming-bias allowance (DESIGN.md §4.12). The exact wall time is
    /// expected to lie in `wall_ns ± ci_halfwidth_ns`.
    pub ci_halfwidth_ns: f64,
    /// True when the system/workload combination cannot be functionally
    /// fast-forwarded (work-stealing task mode is timing-dependent), so
    /// the run silently *fell back to exact simulation* — the estimate is
    /// the true value and the CI is zero-width up to the bias allowance.
    pub exact_fallback: bool,
}

snap_struct!(SamplingMeta {
    period_instrs,
    window_instrs,
    total_instrs,
    windows_measured,
    windows_truncated,
    ci_halfwidth_ns,
    exact_fallback,
});

impl SamplingMeta {
    /// True when the 95% interval `wall_ns ± ci_halfwidth_ns` covers
    /// `exact_wall_ns`.
    pub fn ci_covers(&self, estimated_wall_ns: f64, exact_wall_ns: f64) -> bool {
        (estimated_wall_ns - exact_wall_ns).abs() <= self.ci_halfwidth_ns
    }
}

impl RunResult {
    /// Speedup of this run over a baseline run (by wall time).
    pub fn speedup_over(&self, base: &RunResult) -> f64 {
        base.wall_ns / self.wall_ns
    }

    /// The counter registered at `path`, 0 when the component did not
    /// exist in this run (see [`StatsSnapshot::value`]).
    pub fn stat(&self, path: &str) -> u64 {
        self.stats.value(path)
    }

    /// Sum of a lane-breakdown category across lanes (Figure 7), read
    /// from the snapshot's `sys.lane{i}.breakdown.{label}` paths.
    pub fn lane_total(&self, kind: bvl_core::types::StallKind) -> u64 {
        self.stats
            .sum_matching("sys.lane", &format!(".breakdown.{}", kind.label()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_core::types::StallKind;

    #[test]
    fn speedup_math() {
        let fast = RunResult {
            wall_ns: 50.0,
            ..RunResult::default()
        };
        let slow = RunResult {
            wall_ns: 100.0,
            ..RunResult::default()
        };
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lane_total_reads_snapshot() {
        let r = RunResult {
            stats: StatsSnapshot::from_entries(vec![
                ("sys.lane0.breakdown.busy".into(), 3),
                ("sys.lane1.breakdown.busy".into(), 4),
                ("sys.lane1.breakdown.raw_mem".into(), 9),
                ("sys.big.breakdown.busy".into(), 100),
            ]),
            ..RunResult::default()
        };
        assert_eq!(r.lane_total(StallKind::Busy), 7);
        assert_eq!(r.lane_total(StallKind::RawMem), 9);
        assert_eq!(r.lane_total(StallKind::Simd), 0);
        assert_eq!(r.stat("sys.big.breakdown.busy"), 100);
        assert_eq!(r.stat("sys.absent"), 0);
    }
}
