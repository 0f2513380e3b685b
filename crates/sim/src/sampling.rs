//! Sampled + fast-forwarded simulation (DESIGN.md §4.12).
//!
//! A sampled run replaces most of the cycle-accurate tick loop with the
//! architectural executor: the workload is *functionally fast-forwarded*
//! on a [`Machine`], and only a short *window* of instructions at every
//! sampling-period boundary is simulated in detail. This is SMARTS-style
//! systematic sampling adapted to this simulator's structure:
//!
//! 1. [`plan_sampled`] fast-forwards the whole program once, recording a
//!    functional cache-warming trace along the way, and materializes a
//!    whole-system checkpoint ([`SysState`]) at every period boundary —
//!    the fast-forwarded architectural state injected into a freshly
//!    built system with its caches functionally warmed.
//! 2. [`run_sample_window`] restores one such checkpoint and runs the
//!    detailed simulator for the window's instruction budget.
//! 3. [`combine_sampled`] extrapolates the per-window measurements into
//!    a whole-run estimate with a 95% confidence interval, carried on
//!    [`RunResult::sampling`].
//!
//! The three phases are exposed separately so the experiment sweep
//! harness can fan the (independent, `Send`) windows out across its
//! worker pool; [`simulate_sampled`] chains them serially for simple
//! callers.
//!
//! **Exact fallback.** Work-stealing task mode cannot be functionally
//! fast-forwarded: which core runs which task is decided by the timing
//! model, so there is no timing-independent architectural path to skip
//! along. For task-mode combinations the plan flags
//! [`SamplePlan::exact_fallback`] and [`combine_sampled`] runs the exact
//! simulator, attaching a [`SamplingMeta`] that says so.
//!
//! **Known biases** (all folded into the CI's bias allowance,
//! [`SAMPLING_BIAS_FRAC`]): warmed caches replay the fast-forward trace
//! in touch order, so their LRU stamps reflect functional order rather
//! than detailed-simulation cycle times; branch predictors are static
//! (backward-taken) in both cores and need no warming; and each window
//! starts from a drained pipeline and empty engine queues, so
//! issue/execute overlap across the window boundary is not modeled.
//! Windows *end* on a quiescent cut (instruction target reached and
//! engine idle), so queued vector work is never dropped.

use crate::config::{SamplingParams, SimParams, SystemKind};
use crate::result::{RunResult, SamplingMeta};
use crate::snapshot::SysState;
use crate::system::{simulate_with_stats, ExecMode, SkipStats, System};
use bvl_core::fetch::TEXT_BASE;
use bvl_isa::exec::{Machine, StepInfo};
use bvl_mem::{SimMemory, WarmTarget};
use bvl_obs::StatsSnapshot;
use bvl_snap::{SnapReader, SnapWriter};
use bvl_workloads::Workload;
use std::collections::HashMap;

/// Fractional bias allowance added to the statistical confidence term:
/// sampled estimates carry modeling bias (cold-ish warmup, LRU stamp
/// order, window drain truncation) that no amount of windows averages
/// away, so the reported 95% interval is widened by this fraction of the
/// estimate itself.
pub const SAMPLING_BIAS_FRAC: f64 = 0.02;

/// Hard cap on functionally fast-forwarded instructions, so a workload
/// that never halts fails loudly instead of spinning.
const MAX_FF_INSTRS: u64 = 200_000_000;

/// One planned detailed window: the materialized whole-system checkpoint
/// at its start plus the stratum bookkeeping the estimator needs.
#[derive(Clone, Debug)]
pub struct PlannedWindow {
    /// The injected system state at the window's start boundary: fresh
    /// system, fast-forwarded architectural state, functionally warmed
    /// caches, all counters zero.
    pub state: SysState,
    /// Retired-instruction index of the window start (a multiple of the
    /// sampling period).
    pub start_instr: u64,
    /// Instructions in this window's stratum — the sampling period,
    /// except for the final partial stratum.
    pub stratum_instrs: u64,
    /// Detailed instructions to simulate: `min(window, stratum)`.
    pub target_instrs: u64,
}

/// The output of [`plan_sampled`]: everything needed to measure windows
/// (in any order, on any thread) and combine them.
#[derive(Clone, Debug)]
pub struct SamplePlan {
    /// The sampling configuration the plan was built under.
    pub params: SamplingParams,
    /// The planned windows, in start order. Empty on exact fallback.
    pub windows: Vec<PlannedWindow>,
    /// Total instructions the functional fast-forward retired.
    pub total_instrs: u64,
    /// The fast-forward `Machine`'s final architectural snapshot — the
    /// sampled run's architectural result, which the differential-test
    /// suite compares against the oracle. `None` on exact fallback.
    pub final_arch: Option<bvl_isa::exec::ArchSnapshot>,
    /// True when this kind/workload runs in task mode and must be
    /// simulated exactly (see the module docs).
    pub exact_fallback: bool,
}

/// One measured window: the detailed result plus how many instructions
/// the window actually covered.
#[derive(Clone, Debug)]
pub struct WindowMeasurement {
    /// The window's detailed measurements (counters start at zero at the
    /// window boundary, so these are per-window absolutes).
    pub result: RunResult,
    /// Instructions actually retired in the window (may fall short of
    /// the target when the program halts first — never silently: the
    /// combiner reports every truncated window in [`SamplingMeta`]).
    pub instrs: u64,
    /// True when the program ran to completion inside this window.
    pub completed: bool,
    /// Tick-skip counters for the window.
    pub skip: SkipStats,
}

// ---------------------------------------------------------------------
// Functional cache warming
// ---------------------------------------------------------------------

/// Cumulative functional touch traces, one map per warm category. Keyed
/// by line address; the value is the most recent touch's instruction
/// stamp and a sticky dirty bit. Kept for the whole fast-forward (a line
/// touched periods ago may still be resident); bounded at replay time by
/// the target cache's line capacity.
#[derive(Default)]
struct WarmTraces {
    ifetch: LineMap,
    scalar: LineMap,
    vector: LineMap,
    /// Last instruction line touched, to skip the map probe while
    /// execution stays on one line (the common case in loop bodies). A
    /// line's recency stamp is then the *start* of its latest streak —
    /// indistinguishable from the streak's end for LRU replay ordering
    /// unless another line was touched in between, which is exactly when
    /// the streak breaks and the stamp refreshes.
    last_ifetch: Option<u64>,
}

/// Line-address map on a multiply–xorshift hasher: these maps see one
/// probe per line touched per instruction on the fast-forward hot path,
/// where the default SipHash costs more than the lookup. Iteration order
/// is irrelevant — replay sorts entries by (stamp, line, dirty) before
/// installing.
type LineMap = HashMap<u64, (u64, bool), std::hash::BuildHasherDefault<LineHasher>>;

/// One replay group: the warm target and its `(stamp, line, dirty)`
/// entries.
type WarmGroup = (WarmTarget, Vec<(u64, u64, bool)>);

#[derive(Default)]
struct LineHasher(u64);

impl std::hash::Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        // Fibonacci multiply + xorshift: enough avalanche to spread
        // line addresses (low bits zeroed by the line mask) across
        // buckets.
        let h = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }
}

fn touch(map: &mut LineMap, line: u64, stamp: u64, dirty: bool) {
    let e = map.entry(line).or_insert((stamp, false));
    e.0 = stamp;
    e.1 |= dirty;
}

impl WarmTraces {
    /// Records one executed instruction's fetch and data lines.
    fn record(&mut self, info: &StepInfo, stamp: u64, line_bytes: u64) {
        let mask = !(line_bytes - 1);
        let iline = (TEXT_BASE + u64::from(info.pc) * 4) & mask;
        if self.last_ifetch != Some(iline) {
            touch(&mut self.ifetch, iline, stamp, false);
            self.last_ifetch = Some(iline);
        }
        let data = if info.instr.is_vector() {
            &mut self.vector
        } else {
            &mut self.scalar
        };
        for a in &info.mem {
            if a.size == 0 {
                continue;
            }
            let mut line = a.addr & mask;
            let last = (a.addr + a.size - 1) & mask;
            loop {
                touch(data, line, stamp, a.is_store);
                if line >= last {
                    break;
                }
                line += line_bytes;
            }
        }
    }

    /// Replays the traces into `sys`'s hierarchy, routing each category
    /// to the L1 structure the detailed run would have used and keeping
    /// only the capacity-most-recent lines per target. Install order is
    /// deterministic (targets in a fixed order, lines by touch stamp).
    fn replay(&self, sys: &mut System<'_>) {
        let big = sys.big.is_some();
        let itarget = if big {
            WarmTarget::BigI
        } else {
            WarmTarget::LittleI(0)
        };
        let starget = if big {
            WarmTarget::BigD
        } else {
            WarmTarget::LittleD(0)
        };

        // Per-target entry lists: the instruction and scalar targets
        // first, then the vector-only ones in target order, so the
        // materialized snapshot is identical across plan runs.
        let mut groups: Vec<WarmGroup> = vec![(itarget, Vec::new()), (starget, Vec::new())];
        // A serial entry never executes vector instructions, but be safe:
        // outside vector mode, route them to the scalar structure.
        let engine = sys
            .engine
            .as_deref()
            .filter(|_| sys.mode == ExecMode::Vector);
        let push = |groups: &mut Vec<WarmGroup>, t: WarmTarget, e: (u64, u64, bool)| match groups
            .iter_mut()
            .find(|(g, _)| *g == t)
        {
            Some((_, entries)) => entries.push(e),
            None => groups.push((t, vec![e])),
        };

        for (&line, &(stamp, _)) in &self.ifetch {
            push(&mut groups, itarget, (stamp, line, false));
        }
        for (&line, &(stamp, dirty)) in &self.scalar {
            // A line touched both scalar-side and vector-side lives in
            // whichever structure touched it last; dirtiness follows it.
            if let Some(&(vstamp, vdirty)) = self.vector.get(&line) {
                if vstamp > stamp {
                    continue;
                }
                push(&mut groups, starget, (stamp, line, dirty | vdirty));
                continue;
            }
            push(&mut groups, starget, (stamp, line, dirty));
        }
        for (&line, &(stamp, dirty)) in &self.vector {
            let (stamp, dirty) = match self.scalar.get(&line) {
                Some(&(sstamp, _)) if sstamp > stamp => continue,
                Some(&(_, sdirty)) => (stamp, dirty | sdirty),
                None => (stamp, dirty),
            };
            let vtarget = engine.map_or(starget, |e| e.warm_target(line, &sys.hier));
            push(&mut groups, vtarget, (stamp, line, dirty));
        }
        groups[2..].sort_unstable_by_key(|(t, _)| *t);

        for (target, mut entries) in groups {
            entries.sort_unstable();
            let cap = sys.hier.warm_capacity(target);
            let skip = entries.len().saturating_sub(cap);
            for (i, &(_, line, dirty)) in entries[skip..].iter().enumerate() {
                sys.hier.warm_line(i as u64, target, line, dirty);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Phase 1: planning (fast-forward + boundary materialization)
// ---------------------------------------------------------------------

/// Builds a freshly constructed system holding the fast-forwarded state:
/// forked functional memory, the `Machine`'s architectural state restored
/// into the active core, entry PC assigned, caches warmed.
fn materialize_boundary(
    kind: SystemKind,
    workload: &Workload,
    params: &SimParams,
    m: &Machine<SimMemory>,
    warm: &WarmTraces,
    start_instr: u64,
) -> Result<PlannedWindow, String> {
    let mut sys = System::new(kind, workload, params)?;
    sys.shared.with_mut(|dst| *dst = m.mem().fork());

    let mut w = SnapWriter::new();
    m.save_state(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    // The active core mirrors `System::new`'s entry assignment: the big
    // core when present (serial and vector modes both run there), else
    // little 0.
    if let Some(b) = sys.big.as_mut() {
        b.machine_mut()
            .restore_state(&mut r)
            .map_err(|e| format!("fast-forward state injection failed: {e}"))?;
        b.assign(m.pc());
    } else {
        let l = &mut sys.littles[0];
        l.machine_mut()
            .restore_state(&mut r)
            .map_err(|e| format!("fast-forward state injection failed: {e}"))?;
        l.assign(m.pc());
    }
    r.finish()
        .map_err(|e| format!("fast-forward state injection failed: {e}"))?;

    warm.replay(&mut sys);

    Ok(PlannedWindow {
        state: sys.snapshot(),
        start_instr,
        // Filled in by `plan_sampled` once the total is known.
        stratum_instrs: 0,
        target_instrs: 0,
    })
}

/// Fast-forwards `workload` on `kind` functionally and materializes a
/// detailed-window checkpoint at every sampling-period boundary.
///
/// Uses `params.sampling` (or [`SamplingParams::default`] when unset).
/// The fast-forwarded final memory image is verified against the
/// workload's reference check, so a sampled run is still end-to-end
/// functionally validated.
///
/// # Errors
///
/// Fails when the sampling parameters are malformed (zero, or a window
/// longer than the period), the workload has no entry for the execution
/// mode, functional execution faults or fails the reference check, or a
/// boundary cannot be materialized.
pub fn plan_sampled(
    kind: SystemKind,
    workload: &Workload,
    params: &SimParams,
) -> Result<SamplePlan, String> {
    let sp = params.sampling.unwrap_or_default();
    if sp.period_instrs == 0 || sp.window_instrs == 0 {
        return Err("sampling period and window must be nonzero".into());
    }
    if sp.window_instrs > sp.period_instrs {
        return Err(format!(
            "sampling window ({}) must not exceed the period ({})",
            sp.window_instrs, sp.period_instrs
        ));
    }

    // Probe the composed system for the execution mode, the active
    // machine's hardware vector length, and the line size.
    let probe = System::new(kind, workload, params)?;
    let mode = probe.mode;
    let vlen = probe.machine_vlen();
    let line_bytes = probe.hier.line_bytes();
    drop(probe);

    if mode == ExecMode::Tasks {
        return Ok(SamplePlan {
            params: sp,
            windows: Vec::new(),
            total_instrs: 0,
            final_arch: None,
            exact_fallback: true,
        });
    }
    let entry = match mode {
        ExecMode::Serial => workload.serial_entry,
        ExecMode::Vector => workload
            .vector_entry
            .ok_or_else(|| format!("{} has no vectorized variant", workload.name))?,
        ExecMode::Tasks => unreachable!("handled above"),
    };

    let mut m = Machine::new(workload.mem.fork(), vlen);
    m.set_pc(entry);
    let mut warm = WarmTraces::default();
    let mut windows = Vec::new();
    let mut n: u64 = 0;
    // One reusable StepInfo for the whole fast-forward: `step_into`
    // clears and refills its `mem` buffer instead of allocating per
    // memory instruction.
    let mut info = StepInfo {
        pc: 0,
        instr: bvl_isa::instr::Instr::Halt,
        taken: None,
        mem: Vec::new(),
        vl: 0,
        sew: bvl_isa::Sew::default(),
        halted: false,
    };
    while !m.halted() {
        if n.is_multiple_of(sp.period_instrs) {
            windows.push(materialize_boundary(kind, workload, params, &m, &warm, n)?);
        }
        m.step_into(&workload.program, &mut info)
            .map_err(|e| format!("{} fast-forward failed at instr {n}: {e}", workload.name))?;
        warm.record(&info, n, line_bytes);
        n += 1;
        if n > MAX_FF_INSTRS {
            return Err(format!(
                "{} fast-forward exceeded {MAX_FF_INSTRS} instructions",
                workload.name
            ));
        }
    }
    // End-to-end functional validation of the fast-forwarded run.
    (workload.check)(m.mem())?;

    for w in &mut windows {
        w.stratum_instrs = sp.period_instrs.min(n - w.start_instr);
        w.target_instrs = w.stratum_instrs.min(sp.window_instrs);
    }
    Ok(SamplePlan {
        params: sp,
        windows,
        total_instrs: n,
        final_arch: Some(m.snapshot()),
        exact_fallback: false,
    })
}

// ---------------------------------------------------------------------
// Phase 2: detailed windows
// ---------------------------------------------------------------------

/// Restores one planned window and simulates it in detail until its
/// instruction target (or program completion). Windows are independent:
/// this function is safe to fan out across threads, one fresh system per
/// call.
///
/// # Errors
///
/// Fails when the checkpoint does not restore, the window exceeds the
/// cycle budget or breaks the skip law or a conservation law.
pub fn run_sample_window(
    kind: SystemKind,
    workload: &Workload,
    params: &SimParams,
    window: &PlannedWindow,
) -> Result<WindowMeasurement, String> {
    let mut sys = System::new(kind, workload, params)?;
    sys.restore_from(&window.state)?;
    debug_assert_eq!(
        sys.retired_total(),
        0,
        "window systems must start with zeroed timing counters"
    );
    let mut completed = false;
    loop {
        if sys.step()? {
            completed = true;
            break;
        }
        // End the window at a *quiescent* cut: the instruction target is
        // reached and no vector work is queued. Stopping mid-drain would
        // silently drop the queued work's cycles (the deeply decoupled
        // 1bDV engine runs far behind the big core's retirement);
        // instructions retired while draining count toward the window.
        if sys.retired_total() >= window.target_instrs && sys.engine_idle() {
            break;
        }
    }
    sys.check_skip_law()?;
    let result = sys.collect_result();
    sys.check_conservation(&result)?;
    Ok(WindowMeasurement {
        instrs: sys.retired_total(),
        completed,
        skip: sys.skip_stats,
        result,
    })
}

// ---------------------------------------------------------------------
// Phase 3: stratified combination
// ---------------------------------------------------------------------

/// Combines per-window measurements into the whole-run estimate.
///
/// Each window `k` is weighted by `stratum_k / instrs_k` — its counters
/// stand in for its whole stratum, normalized by what the window really
/// measured. Wall time is summed at full precision; every counter is
/// extrapolated once, through [`StatsSnapshot::weighted_sum`] over the
/// windows' snapshots. The 95% interval is the usual systematic-sampling
/// `1.96·(s_TPI/√n)·N` term (time-per-instruction spread across windows,
/// scaled to the population) plus the [`SAMPLING_BIAS_FRAC`] allowance.
///
/// On an exact-fallback plan this runs the exact simulator and tags the
/// result. Windows that measured zero instructions are dropped — and
/// *reported* (never silently) via [`SamplingMeta::windows_truncated`]
/// alongside windows the program ended early in.
///
/// # Errors
///
/// Fails when `measurements` does not match the plan, every window was
/// dropped, or (on fallback) the exact run fails.
pub fn combine_sampled(
    kind: SystemKind,
    workload: &Workload,
    params: &SimParams,
    plan: &SamplePlan,
    measurements: &[WindowMeasurement],
) -> Result<(RunResult, SkipStats), String> {
    let sp = plan.params;
    if plan.exact_fallback {
        let (mut r, skip) = simulate_with_stats(kind, workload, params)?;
        let total = r.stat("sys.big.retired") + r.stats.sum_matching("sys.little", ".retired");
        r.sampling = Some(SamplingMeta {
            period_instrs: sp.period_instrs,
            window_instrs: sp.window_instrs,
            total_instrs: total,
            windows_measured: 0,
            windows_truncated: 0,
            ci_halfwidth_ns: 0.0,
            exact_fallback: true,
        });
        return Ok((r, skip));
    }
    if measurements.len() != plan.windows.len() {
        return Err(format!(
            "plan has {} windows but {} measurements were supplied",
            plan.windows.len(),
            measurements.len()
        ));
    }

    let mut est_wall = 0.0f64;
    let mut tpis: Vec<f64> = Vec::with_capacity(measurements.len());
    let mut parts: Vec<(&StatsSnapshot, f64)> = Vec::with_capacity(measurements.len());
    let mut skip = SkipStats::default();
    let mut truncated = 0u64;

    for (w, m) in plan.windows.iter().zip(measurements) {
        skip.edges_run += m.skip.edges_run;
        skip.edges_skipped += m.skip.edges_skipped;
        skip.windows += m.skip.windows;
        if m.instrs == 0 {
            truncated += 1;
            continue;
        }
        if m.instrs < sp.window_instrs {
            truncated += 1;
        }
        let weight = w.stratum_instrs as f64 / m.instrs as f64;
        est_wall += weight * m.result.wall_ns;
        tpis.push(m.result.wall_ns / m.instrs as f64);
        parts.push((&m.result.stats, weight));
    }
    if parts.is_empty() {
        return Err("every sampled window was dropped; nothing to estimate".into());
    }

    // 95% CI on the wall-time estimate: TPI spread across windows scaled
    // to the instruction population, plus the bias allowance. With one
    // window there is no spread to measure — only the bias term remains.
    let n = tpis.len() as f64;
    let statistical = if tpis.len() > 1 {
        let mean = tpis.iter().sum::<f64>() / n;
        let var = tpis.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / (n - 1.0);
        1.96 * (var.sqrt() / n.sqrt()) * plan.total_instrs as f64
    } else {
        0.0
    };
    let ci_halfwidth_ns = statistical + SAMPLING_BIAS_FRAC * est_wall;

    let result = RunResult {
        wall_ns: est_wall,
        stats: StatsSnapshot::weighted_sum(&parts),
        sampling: Some(SamplingMeta {
            period_instrs: sp.period_instrs,
            window_instrs: sp.window_instrs,
            total_instrs: plan.total_instrs,
            windows_measured: parts.len() as u64,
            windows_truncated: truncated,
            ci_halfwidth_ns,
            exact_fallback: false,
        }),
    };
    Ok((result, skip))
}

/// Runs `workload` on `kind` with sampled simulation: plan, measure every
/// window (serially — the sweep harness parallelizes instead), combine.
///
/// # Errors
///
/// Any failure of [`plan_sampled`], [`run_sample_window`] or
/// [`combine_sampled`].
pub fn simulate_sampled(
    kind: SystemKind,
    workload: &Workload,
    params: &SimParams,
) -> Result<(RunResult, SkipStats), String> {
    let plan = plan_sampled(kind, workload, params)?;
    let measurements: Vec<WindowMeasurement> = plan
        .windows
        .iter()
        .map(|w| run_sample_window(kind, workload, params, w))
        .collect::<Result<_, _>>()?;
    combine_sampled(kind, workload, params, &plan, &measurements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplingParams;
    use crate::system::simulate;
    use bvl_workloads::kernels::{mmult, vvadd};
    use bvl_workloads::Scale;
    use std::collections::HashSet;

    fn sampled_params(period: u64, window: u64) -> SimParams {
        SimParams {
            sampling: Some(SamplingParams {
                period_instrs: period,
                window_instrs: window,
            }),
            ..SimParams::default()
        }
    }

    /// Warm-state injection check: the functionally warmed data cache at
    /// a fast-forward boundary must substantially agree with the resident
    /// set of a detailed run stopped at the same instruction boundary.
    fn warm_overlap(kind: SystemKind, w: &Workload, target: WarmTarget, boundary: u64) -> f64 {
        let params = sampled_params(boundary, boundary / 4);
        let plan = plan_sampled(kind, w, &params).expect("plan");
        assert!(
            plan.windows.len() >= 2,
            "need a mid-run boundary, got {} windows over {} instrs",
            plan.windows.len(),
            plan.total_instrs
        );
        let mut warmed = System::new(kind, w, &params).expect("build");
        warmed
            .restore_from(&plan.windows[1].state)
            .expect("restore");
        let warm_set: HashSet<u64> = warmed
            .hier
            .resident_lines(target)
            .into_iter()
            .map(|(l, _)| l)
            .collect();

        // Detailed reference: run from cold to the same retired count.
        let mut detailed = System::new(kind, w, &params).expect("build");
        while detailed.retired_total() < boundary {
            assert!(!detailed.step().expect("step"), "program ended early");
        }
        let detail_set: HashSet<u64> = detailed
            .hier
            .resident_lines(target)
            .into_iter()
            .map(|(l, _)| l)
            .collect();

        assert!(!warm_set.is_empty(), "warming installed nothing");
        assert!(!detail_set.is_empty());
        let overlap = detail_set.intersection(&warm_set).count() as f64;
        overlap / detail_set.len() as f64
    }

    #[test]
    fn warmed_l1d_matches_detailed_run_on_little() {
        let w = vvadd::build(Scale::tiny());
        let frac = warm_overlap(SystemKind::L1, &w, WarmTarget::LittleD(0), 1024);
        assert!(
            frac >= 0.6,
            "warmed little L1D covers only {frac:.2} of the detailed resident set"
        );
    }

    #[test]
    fn warmed_l1d_matches_detailed_run_on_big() {
        let w = mmult::build(Scale::tiny());
        let frac = warm_overlap(SystemKind::B1, &w, WarmTarget::BigD, 1024);
        assert!(
            frac >= 0.6,
            "warmed big L1D covers only {frac:.2} of the detailed resident set"
        );
    }

    #[test]
    fn planning_is_deterministic() {
        let w = vvadd::build(Scale::tiny());
        let params = sampled_params(1024, 256);
        let a = plan_sampled(SystemKind::BIv, &w, &params).expect("plan a");
        let b = plan_sampled(SystemKind::BIv, &w, &params).expect("plan b");
        assert_eq!(a.total_instrs, b.total_instrs);
        assert_eq!(a.windows.len(), b.windows.len());
        for (x, y) in a.windows.iter().zip(&b.windows) {
            assert_eq!(x.state, y.state, "materialized states differ");
            assert_eq!(x.stratum_instrs, y.stratum_instrs);
        }
        assert_eq!(a.final_arch, b.final_arch);
    }

    /// A program shorter than one period degenerates to a single cold
    /// window covering the whole run — and that must be reported as a
    /// truncated window, not silently swallowed.
    #[test]
    fn short_program_single_window_is_reported_truncated() {
        let w = vvadd::build(Scale::tiny());
        let params = sampled_params(1 << 20, 1 << 18);
        let (r, _) = simulate_sampled(SystemKind::L1, &w, &params).expect("sampled");
        let meta = r.sampling.as_ref().expect("sampling meta");
        assert_eq!(meta.windows_measured, 1);
        assert_eq!(meta.windows_truncated, 1);
        assert!(meta.total_instrs < 1 << 20);
        // One full-coverage window is (nearly) the exact run.
        let exact = simulate(SystemKind::L1, &w, &SimParams::default()).expect("exact");
        let rel = (r.wall_ns - exact.wall_ns).abs() / exact.wall_ns;
        assert!(rel < 0.02, "single-window estimate off by {rel:.3}");
        assert!(meta.ci_covers(r.wall_ns, exact.wall_ns));
    }

    #[test]
    fn task_mode_falls_back_to_exact() {
        let w = vvadd::build(Scale::tiny());
        let params = sampled_params(4096, 1024);
        let plan = plan_sampled(SystemKind::B4L, &w, &params).expect("plan");
        assert!(plan.exact_fallback);
        assert!(plan.windows.is_empty());
        let (r, _) = simulate_sampled(SystemKind::B4L, &w, &params).expect("sampled");
        let meta = r.sampling.as_ref().expect("meta");
        assert!(meta.exact_fallback);
        let exact = simulate(SystemKind::B4L, &w, &SimParams::default()).expect("exact");
        assert_eq!(r.wall_ns, exact.wall_ns, "fallback must be the exact run");
        assert!(r.stats.get("sys.runtime.tasks_run").is_some());
    }

    #[test]
    fn sampled_estimates_track_exact_on_tiny_kernels() {
        let w = vvadd::build(Scale::tiny());
        // Periods sized to each machine's dynamic instruction count: the
        // wider the vectors, the fewer instructions tiny vvadd retires.
        for (kind, period, window) in [
            (SystemKind::L1, 1024, 512),
            (SystemKind::B1, 1024, 512),
            (SystemKind::BIv, 512, 256),
            (SystemKind::BDv, 32, 16),
        ] {
            let params = sampled_params(period, window);
            let (r, _) =
                simulate_sampled(kind, &w, &params).unwrap_or_else(|e| panic!("{kind}: {e}"));
            let exact = simulate(kind, &w, &SimParams::default()).expect("exact");
            let rel = (r.wall_ns - exact.wall_ns).abs() / exact.wall_ns;
            // Tiny scale is the hostile case (few windows, large edge
            // effects) — the bound here is a smoke tolerance; the real
            // ≤2% validation runs at default scale in tests/.
            assert!(rel < 0.25, "{kind}: sampled off exact by {rel:.3}");
            let meta = r.sampling.as_ref().expect("meta");
            assert!(meta.windows_measured >= 2, "{kind}: too few windows");
            assert!(
                meta.ci_covers(r.wall_ns, exact.wall_ns),
                "{kind}: CI ±{:.1} ns does not cover exact {} (est {})",
                meta.ci_halfwidth_ns,
                exact.wall_ns,
                r.wall_ns
            );
        }
    }

    #[test]
    fn rejects_malformed_sampling_params() {
        let w = vvadd::build(Scale::tiny());
        let err = plan_sampled(SystemKind::L1, &w, &sampled_params(0, 0)).expect_err("zero");
        assert!(err.contains("nonzero"));
        let err = plan_sampled(SystemKind::L1, &w, &sampled_params(128, 256))
            .expect_err("window > period");
        assert!(err.contains("must not exceed"));
    }
}
