//! The composed system simulator.

use crate::config::{ClockConfig, SimParams, SystemKind};
use crate::result::RunResult;
use crate::snapshot::{params_fingerprint, workload_fingerprint, SysState};
use bvl_baseline::{dve_params, ivu_params, SimpleVecMachine};
use bvl_core::fetch::TEXT_BASE;
use bvl_core::types::{ClockDomain, Quiescence, StallKind, VectorEngine};
use bvl_core::{BigCore, BigParams, LittleCore, LittleParams};
use bvl_isa::exec::ArchSnapshot;
use bvl_mem::coherence::MAX_CACHES;
use bvl_mem::hier::MAX_LITTLE;
use bvl_mem::{HierConfig, MemHierarchy, MemImage, PortId, SharedMem, SimMemory};
use bvl_obs::{trace, StatsRegistry, TraceLog};
use bvl_runtime::{Fetched, RuntimeParams, WorkStealing};
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use bvl_vengine::regmap::RegMap;
use bvl_vengine::VLittleEngine;
use bvl_workloads::{Workload, WorkloadClass};
use std::sync::Arc;

/// Ring-buffer capacity of a traced run: the first this-many events are
/// kept, later ones only counted (`TraceLog::dropped`) — a deterministic
/// truncation policy the golden-trace test relies on.
const TRACE_CAPACITY: usize = 1 << 16;

/// Tick-skip effectiveness counters for one run.
///
/// A side channel next to [`RunResult`] — deliberately **not** part of
/// it, so skip-on and skip-off runs stay byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Clock edges processed by the naive loop body.
    pub edges_run: u64,
    /// Clock edges batch-advanced by the quiescence engine.
    pub edges_skipped: u64,
    /// Number of batch advances (`edges_skipped / windows` is the mean
    /// window length — the amortization factor for planning cost).
    pub windows: u64,
}

snap_struct!(SkipStats {
    edges_run,
    edges_skipped,
    windows,
});

impl SkipStats {
    /// Fraction of all clock edges that were skipped.
    pub fn skipped_frac(&self) -> f64 {
        let total = self.edges_run + self.edges_skipped;
        if total == 0 {
            0.0
        } else {
            self.edges_skipped as f64 / total as f64
        }
    }

    /// The counters accumulated since `earlier` (a prior snapshot of the
    /// same run — e.g. the totals a restored checkpoint carried in).
    pub fn since(&self, earlier: &SkipStats) -> SkipStats {
        SkipStats {
            edges_run: self.edges_run - earlier.edges_run,
            edges_skipped: self.edges_skipped - earlier.edges_skipped,
            windows: self.windows - earlier.windows,
        }
    }
}

/// Failed-plan backoff ramp cap: after repeated vetoes the planner rests
/// for up to `2^this` edge steps between attempts (see the loop comment).
const PLAN_BACKOFF_LOG_CAP: u32 = 3;

/// How the workload executes on this system.
///
/// Chosen by the simulator from the system kind and the workload class
/// (see the crate docs); exposed in [`FinalState`] so consumers know
/// which entry point and which cores carried the architectural work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Scalar whole-program on the single core.
    Serial,
    /// Vectorized whole-program on the big core + engine.
    Vector,
    /// Work-stealing task phases across all cores.
    Tasks,
}

/// Final architectural state of a finished run, extracted after the
/// workload check passed and every component certified it was drained.
///
/// What each field means — and when it is defined — is specified by the
/// oracle contract in `DESIGN.md` (§4.9): per-core register state is only
/// meaningful for cores that actually executed an entry point, while the
/// memory image is placement-independent and always comparable.
#[derive(Clone, Debug, PartialEq)]
pub struct FinalState {
    /// The execution mode the run used.
    pub mode: ExecMode,
    /// True when the attached vector engine (if any) certified that no
    /// in-flight activity could still affect architectural state. Always
    /// true after a clean run — recorded so a violation is loud.
    pub engine_drained: bool,
    /// The big core's architectural state, if the system has one.
    pub big: Option<ArchSnapshot>,
    /// Each little *core*'s architectural state (empty when the littles
    /// ran as VLITTLE lanes, which hold no architectural state).
    pub littles: Vec<ArchSnapshot>,
    /// The shared memory image (live prefix up to the high-water mark).
    pub mem: MemImage,
}

#[derive(Clone, Copy, Debug)]
enum WorkerState {
    /// Must ask the runtime for work.
    NeedWork,
    /// Serving scheduling overhead until the given domain cycle, then
    /// starting the contained task (None = just backing off).
    Overhead(u64, Option<usize>),
    /// Executing a task.
    Running,
    /// No work left anywhere.
    Parked,
}

impl Snap for WorkerState {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            WorkerState::NeedWork => w.u8(0),
            WorkerState::Overhead(until, task) => {
                w.u8(1);
                until.save(w);
                task.save(w);
            }
            WorkerState::Running => w.u8(2),
            WorkerState::Parked => w.u8(3),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => WorkerState::NeedWork,
            1 => WorkerState::Overhead(u64::load(r)?, Option::<usize>::load(r)?),
            2 => WorkerState::Running,
            3 => WorkerState::Parked,
            t => {
                return Err(SnapError::BadTag {
                    ty: "WorkerState",
                    tag: u64::from(t),
                })
            }
        })
    }
}

pub(crate) fn pick_mode(kind: SystemKind, w: &Workload) -> ExecMode {
    match (kind, w.class) {
        (SystemKind::B4L | SystemKind::BIv4L, _) => ExecMode::Tasks,
        (SystemKind::B4Vl, WorkloadClass::TaskParallel) => ExecMode::Tasks,
        (SystemKind::B4Vl, _) => ExecMode::Vector,
        (SystemKind::BIv | SystemKind::BDv, _) if w.vector_entry.is_some() => ExecMode::Vector,
        _ => ExecMode::Serial,
    }
}

/// The fully composed system plus the tick loop's own control state.
///
/// Factoring the run loop's locals into a struct is what makes whole-run
/// checkpointing possible: [`System::save_state`] serializes every field
/// that evolves during a run, and restoring into a freshly built `System`
/// (same kind/workload/params — immutable wiring is rebuilt, not saved)
/// resumes the loop exactly where the checkpoint was taken.
pub(crate) struct System<'w> {
    kind: SystemKind,
    workload: &'w Workload,
    params: SimParams,
    pub(crate) mode: ExecMode,
    pub(crate) shared: SharedMem,
    pub(crate) hier: MemHierarchy,
    pub(crate) engine: Option<Box<dyn VectorEngine>>,
    pub(crate) big: Option<BigCore>,
    pub(crate) littles: Vec<LittleCore>,
    big_worker_exists: bool,
    runtime: Option<WorkStealing>,
    worker_state: Vec<WorkerState>,
    phase_idx: usize,
    // Clock-domain periods (fs) — derived constants, not checkpointed.
    pb: u64,
    pl: u64,
    pu: u64,
    // Next edge time (fs) and elapsed cycles per domain.
    next_b: u64,
    next_l: u64,
    next_u: u64,
    cyc_b: u64,
    cyc_l: u64,
    cyc_u: u64,
    big_active: bool,
    little_active: bool,
    pub(crate) skip_stats: SkipStats,
    // Hoisted scratch for the skip planner (at most one entry per little);
    // valid only within one `step`, so never checkpointed.
    little_accts: Vec<Option<StallKind>>,
    big_acct: Option<StallKind>,
    plan_cooldown: u32,
    plan_streak: u32,
}

impl<'w> System<'w> {
    /// Builds the system `kind` with `workload` loaded and entry points
    /// assigned, ready for its first [`step`](Self::step).
    pub(crate) fn new(
        kind: SystemKind,
        workload: &'w Workload,
        params: &SimParams,
    ) -> Result<Self, String> {
        let mode = pick_mode(kind, workload);
        // In vector mode the 1b-4VL cluster is the VLITTLE engine: one L1
        // bank per lane, so the engine's geometry sizes the cluster.
        let vector_mode_banks = kind == SystemKind::B4Vl && mode == ExecMode::Vector;
        if vector_mode_banks {
            check_regmap(&params.engine.regmap)?;
        }
        let shared = SharedMem::new(workload.mem.fork());
        let program = Arc::clone(&workload.program);

        // ---- memory hierarchy
        let mut hier_cfg = HierConfig::with_little(if vector_mode_banks {
            usize::from(params.engine.regmap.cores)
        } else {
            kind.num_little()
        });
        hier_cfg.has_big = kind.has_big();
        hier_cfg.has_dve = kind == SystemKind::BDv;
        let mut hier = MemHierarchy::new(hier_cfg);
        hier.set_vector_mode(vector_mode_banks);

        // ---- vector engine
        let line_bytes = hier.line_bytes();
        let engine: Option<Box<dyn VectorEngine>> = match (kind, mode) {
            (SystemKind::BIv | SystemKind::BIv4L, _) => {
                Some(Box::new(SimpleVecMachine::new(ivu_params(), line_bytes)))
            }
            (SystemKind::BDv, _) => Some(Box::new(SimpleVecMachine::new(dve_params(), line_bytes))),
            (SystemKind::B4Vl, ExecMode::Vector) => {
                Some(Box::new(VLittleEngine::new(params.engine, line_bytes)))
            }
            _ => None,
        };

        // ---- cores
        let mut big = kind.has_big().then(|| {
            BigCore::new(
                shared.clone(),
                Arc::clone(&program),
                TEXT_BASE,
                hier.line_bytes(),
                engine_vlen(engine.as_deref()),
                BigParams::default(),
            )
        });
        // Little cores exist as *cores* except when they are VLITTLE lanes.
        let n_little_cores = if vector_mode_banks {
            0
        } else {
            kind.num_little()
        };
        let mut littles: Vec<LittleCore> = (0..n_little_cores)
            .map(|c| {
                LittleCore::new(
                    c as u8,
                    shared.clone(),
                    Arc::clone(&program),
                    TEXT_BASE,
                    hier.line_bytes(),
                    LittleParams::default(),
                )
            })
            .collect();

        // ---- execution-mode setup
        // Workers: index 0 = big (if present), then littles.
        let big_worker_exists = big.is_some() && mode == ExecMode::Tasks;
        let n_workers = usize::from(big_worker_exists)
            + if mode == ExecMode::Tasks {
                littles.len()
            } else {
                0
            };
        let mut runtime = (mode == ExecMode::Tasks)
            .then(|| WorkStealing::new(n_workers, RuntimeParams::default()));
        let worker_state = vec![WorkerState::NeedWork; n_workers];

        match mode {
            ExecMode::Serial => {
                if let Some(b) = big.as_mut() {
                    b.assign(workload.serial_entry);
                } else {
                    littles[0].assign(workload.serial_entry);
                }
            }
            ExecMode::Vector => {
                let entry = workload
                    .vector_entry
                    .ok_or_else(|| format!("{} has no vectorized variant", workload.name))?;
                big.as_mut()
                    .expect("vector mode needs a big core")
                    .assign(entry);
            }
            ExecMode::Tasks => {
                let rt = runtime.as_mut().expect("task mode");
                rt.seed_tasks(workload.phases[0].tasks.clone());
            }
        }

        // ---- clock domains
        let pb = ClockConfig::period_fs(params.clocks.big_ghz);
        let pl = ClockConfig::period_fs(params.clocks.little_ghz);
        let pu = ClockConfig::period_fs(params.clocks.uncore_ghz);
        let big_active = big.is_some();
        let little_active = !littles.is_empty()
            || engine
                .as_ref()
                .is_some_and(|e| e.clock_domain() == ClockDomain::Little);
        let n_littles = littles.len();

        Ok(System {
            kind,
            workload,
            params: params.clone(),
            mode,
            shared,
            hier,
            engine,
            big,
            littles,
            big_worker_exists,
            runtime,
            worker_state,
            phase_idx: 0,
            pb,
            pl,
            pu,
            next_b: pb,
            next_l: pl,
            next_u: pu,
            cyc_b: 0,
            cyc_l: 0,
            cyc_u: 0,
            big_active,
            little_active,
            skip_stats: SkipStats::default(),
            little_accts: Vec::with_capacity(n_littles),
            big_acct: None,
            plan_cooldown: 0,
            plan_streak: 0,
        })
    }

    /// Runs one iteration of the tick loop: the completion check, then
    /// either a quiescence batch-skip or one naive multi-domain edge.
    /// Returns `Ok(true)` when the run has completed.
    ///
    /// # Errors
    ///
    /// Fails when the run exceeds the configured cycle budget.
    pub(crate) fn step(&mut self) -> Result<bool, String> {
        // Completion check.
        let cores_done = self.big.as_ref().is_none_or(BigCore::done)
            && self.littles.iter().all(LittleCore::done);
        let done = match self.mode {
            ExecMode::Serial | ExecMode::Vector => cores_done && self.engine_idle(),
            ExecMode::Tasks => {
                let rt = self.runtime.as_ref().expect("task mode");
                let workers_idle = self
                    .worker_state
                    .iter()
                    .all(|s| matches!(s, WorkerState::Parked));
                if rt.drained() && workers_idle && cores_done && self.engine_idle() {
                    self.phase_idx += 1;
                    if self.phase_idx >= self.workload.phases.len() {
                        true
                    } else {
                        trace::emit(self.cyc_u, "sim", 0, "phase", self.phase_idx as u64);
                        let rt = self.runtime.as_mut().expect("task mode");
                        rt.seed_tasks(self.workload.phases[self.phase_idx].tasks.clone());
                        for s in self.worker_state.iter_mut() {
                            *s = WorkerState::NeedWork;
                        }
                        false
                    }
                } else {
                    false
                }
            }
        };
        if done {
            return Ok(true);
        }
        if self.cyc_u >= self.params.max_uncore_cycles {
            return Err(format!(
                "{} on {} exceeded {} uncore cycles",
                self.workload.name,
                self.kind.label(),
                self.params.max_uncore_cycles
            ));
        }

        // ---- quiescence-aware tick skipping --------------------------
        // Every component certifies, via its `quiescence`/`next_event`
        // method, the earliest future cycle at which ticking it could do
        // more than repeat one constant stall accounting. When all
        // components across all live clock domains are quiescent *now*,
        // jump every domain straight to the earliest such event edge,
        // batch-applying exactly the accounting the skipped naive ticks
        // would have produced. Reported cycle counts and all statistics
        // are bit-identical to the naive loop (see the skip-equivalence
        // suite in `tests/`).
        // Planning costs a sweep over every component even when a busy
        // component vetoes it; during long active stretches that cost is
        // pure overhead. Back off exponentially after failed attempts
        // (results are unaffected — an unplanned edge is simply ticked
        // naively; only the entry into an idle window is delayed by at
        // most the cooldown).
        let attempt = !self.params.no_skip && self.plan_cooldown == 0;
        self.plan_cooldown = self.plan_cooldown.saturating_sub(1);
        let t_star: Option<u64> = 'plan: {
            if !attempt {
                break 'plan None;
            }
            self.big_acct = None;
            self.little_accts.clear();
            let fold = |t: Option<u64>, fs: u64| Some(t.map_or(fs, |x: u64| x.min(fs)));
            // fs time of the edge that processes cycle `e` of a domain.
            let edge_fs = |e: u64, cyc: u64, next: u64, period: u64| next + (e - cyc) * period;
            let mut t: Option<u64> = None;

            // Uncore: the hierarchy's own event horizon.
            match self.hier.next_event(self.cyc_u) {
                Some(e) if e <= self.cyc_u => break 'plan None,
                Some(e) => t = fold(t, edge_fs(e, self.cyc_u, self.next_u, self.pu)),
                None => {}
            }

            // Big domain: core, worker 0.
            if let Some(b) = self.big.as_ref() {
                if self.hier.response_pending(PortId::BigFetch)
                    || self.hier.response_pending(PortId::BigData)
                {
                    break 'plan None;
                }
                let (eca, esp, emd) = self.engine.as_ref().map_or((false, false, true), |e| {
                    (e.can_accept(), e.scalar_pending(), e.mem_drained())
                });
                match b.quiescence(self.cyc_b, eca, esp, emd) {
                    Quiescence::Active => break 'plan None,
                    Quiescence::Idle { until, account } => {
                        self.big_acct = account;
                        if let Some(u) = until {
                            t = fold(t, edge_fs(u, self.cyc_b, self.next_b, self.pb));
                        }
                    }
                }
                if self.big_worker_exists {
                    match worker_event(self.worker_state[0], self.cyc_b, b.done()) {
                        Err(()) => break 'plan None,
                        Ok(Some(u)) => t = fold(t, edge_fs(u, self.cyc_b, self.next_b, self.pb)),
                        Ok(None) => {}
                    }
                }
            }

            // The engine, on its cluster's clock.
            if let Some(e) = self.engine.as_deref() {
                if self.hier.response_pending(e.port()) {
                    break 'plan None;
                }
                let (cyc, next, period) = match e.clock_domain() {
                    ClockDomain::Big => (self.cyc_b, self.next_b, self.pb),
                    ClockDomain::Little => (self.cyc_l, self.next_l, self.pl),
                };
                match e.quiescence(cyc) {
                    Quiescence::Active => break 'plan None,
                    Quiescence::Idle { until, .. } => {
                        if let Some(u) = until {
                            t = fold(t, edge_fs(u, cyc, next, period));
                        }
                    }
                }
            }

            // Little domain: cores and their workers.
            for (i, lc) in self.littles.iter().enumerate() {
                if self.hier.response_pending(PortId::LittleFetch(i as u8))
                    || self.hier.response_pending(PortId::LittleData(i as u8))
                {
                    break 'plan None;
                }
                match lc.quiescence(self.cyc_l) {
                    Quiescence::Active => break 'plan None,
                    Quiescence::Idle { until, account } => {
                        self.little_accts.push(account);
                        if let Some(u) = until {
                            t = fold(t, edge_fs(u, self.cyc_l, self.next_l, self.pl));
                        }
                    }
                }
                if self.mode == ExecMode::Tasks {
                    let w = usize::from(self.big_worker_exists) + i;
                    match worker_event(self.worker_state[w], self.cyc_l, lc.done()) {
                        Err(()) => break 'plan None,
                        Ok(Some(u)) => t = fold(t, edge_fs(u, self.cyc_l, self.next_l, self.pl)),
                        Ok(None) => {}
                    }
                }
            }

            // No pending event at all means the system is wedged waiting
            // for something that will never come — fall back to naive
            // stepping so the cycle budget aborts exactly as it would
            // have.
            t
        };
        if attempt {
            if t_star.is_some() {
                self.plan_streak = 0;
            } else {
                self.plan_cooldown = 1u32 << self.plan_streak.min(PLAN_BACKOFF_LOG_CAP);
                self.plan_streak += 1;
            }
        }

        if let Some(t_star) = t_star {
            // Skip every edge strictly before the earliest event edge.
            let mut skipped = 0u64;
            if self.next_u < t_star {
                let n = (t_star - self.next_u).div_ceil(self.pu);
                self.cyc_u += n;
                self.next_u += n * self.pu;
                skipped += n;
                // Re-sync any lazily advanced hierarchy bookkeeping by
                // replaying the last skipped (no-op) tick.
                self.hier.tick(self.cyc_u - 1);
            }
            if self.big_active && self.next_b < t_star {
                let n = (t_star - self.next_b).div_ceil(self.pb);
                if let Some(b) = self.big.as_mut() {
                    b.skip_idle(n, self.big_acct);
                }
                if let Some(e) = engine_on(&mut self.engine, ClockDomain::Big) {
                    e.skip_idle(self.cyc_b, n);
                }
                self.cyc_b += n;
                self.next_b += n * self.pb;
                skipped += n;
            }
            if self.little_active && self.next_l < t_star {
                let n = (t_star - self.next_l).div_ceil(self.pl);
                if let Some(e) = engine_on(&mut self.engine, ClockDomain::Little) {
                    e.skip_idle(self.cyc_l, n);
                }
                for (i, lc) in self.littles.iter_mut().enumerate() {
                    lc.skip_idle(n, self.little_accts[i]);
                }
                self.cyc_l += n;
                self.next_l += n * self.pl;
                skipped += n;
            }
            if skipped > 0 {
                self.skip_stats.edges_skipped += skipped;
                self.skip_stats.windows += 1;
                trace::emit(self.cyc_u, "sim", 0, "skip", skipped);
                return Ok(false);
            }
            // The next event sits on the very next edge: process it
            // naively below.
        }

        // Advance to the earliest pending clock edge.
        let mut t_fs = self.next_u;
        if self.big_active {
            t_fs = t_fs.min(self.next_b);
        }
        if self.little_active {
            t_fs = t_fs.min(self.next_l);
        }

        if t_fs == self.next_u {
            self.hier.tick(self.cyc_u);
            self.cyc_u += 1;
            self.next_u += self.pu;
            self.skip_stats.edges_run += 1;
        }
        let little_edge = self.little_active && t_fs == self.next_l;
        let big_edge = self.big_active && t_fs == self.next_b;

        // Engines tick on their cluster's edge, before the cores that feed
        // them.
        if big_edge {
            if let Some(e) = engine_on(&mut self.engine, ClockDomain::Big) {
                e.tick(self.cyc_b, &mut self.hier);
            }
        }
        if little_edge {
            if let Some(e) = engine_on(&mut self.engine, ClockDomain::Little) {
                e.tick(self.cyc_l, &mut self.hier);
            }
        }

        if big_edge {
            if let Some(b) = self.big.as_mut() {
                // The cast narrows the boxed engine's `'static` bound to
                // this borrow, which `BigCore::tick`'s parameter asks for.
                let engine = self.engine.as_deref_mut().map(|e| e as _);
                b.tick(self.cyc_b, &mut self.hier, engine);
                if self.mode == ExecMode::Tasks && self.big_worker_exists {
                    let vector_capable = self.engine.is_some();
                    service_worker(
                        0,
                        self.cyc_b,
                        &mut self.worker_state[0],
                        self.runtime.as_mut().expect("task mode"),
                        &mut WorkerCore::Big(b),
                        vector_capable,
                    );
                }
            }
            self.cyc_b += 1;
            self.next_b += self.pb;
            self.skip_stats.edges_run += 1;
        }

        if little_edge {
            for (i, lc) in self.littles.iter_mut().enumerate() {
                lc.tick(self.cyc_l, &mut self.hier);
                if self.mode == ExecMode::Tasks {
                    let w = usize::from(self.big_worker_exists) + i;
                    service_worker(
                        w,
                        self.cyc_l,
                        &mut self.worker_state[w],
                        self.runtime.as_mut().expect("task mode"),
                        &mut WorkerCore::Little(lc),
                        false,
                    );
                }
            }
            self.cyc_l += 1;
            self.next_l += self.pl;
            self.skip_stats.edges_run += 1;
        }

        Ok(false)
    }

    /// Verifies the workload's reference output and assembles the run's
    /// results — call only after [`step`](Self::step) returned `Ok(true)`.
    ///
    /// # Errors
    ///
    /// [`SimError::Run`] if the final memory image does not match the
    /// workload's reference or the run broke the skip law or a
    /// conservation law.
    fn finish(&self, want_state: bool) -> Result<(RunResult, Option<FinalState>), SimError> {
        // ---- verification
        self.shared
            .with(|m| (self.workload.check)(m))
            .and_then(|()| self.check_skip_law())
            .map_err(SimError::Run)?;
        let result = self.collect_result();
        self.check_conservation(&result).map_err(SimError::Run)?;

        // ---- final-state extraction. The completion condition already
        // required every core done and the engine idle, so the state is
        // settled.
        let final_state = want_state.then(|| FinalState {
            mode: self.mode,
            engine_drained: self.engine_idle(),
            big: self.big.as_ref().map(BigCore::arch_snapshot),
            littles: self.littles.iter().map(LittleCore::arch_snapshot).collect(),
            mem: self.shared.with(MemImage::capture),
        });

        Ok((result, final_state))
    }

    /// Total instructions retired across every core so far — the
    /// instruction clock that sampled windows measure against. Vector
    /// instructions count once at the issuing core, exactly as the
    /// functional executor's `ExecCounters::instrs` counts them.
    pub(crate) fn retired_total(&self) -> u64 {
        self.big.as_ref().map_or(0, |b| b.stats().retired)
            + self.littles.iter().map(|l| l.stats().retired).sum::<u64>()
    }

    /// The hardware vector length the active cores' functional machines
    /// were built with — a fast-forwarding `Machine` must match it for
    /// its architectural state to be restorable into a core.
    pub(crate) fn machine_vlen(&self) -> u32 {
        engine_vlen(self.engine.as_deref())
    }

    /// True when the attached vector engine (if any) has no in-flight
    /// work. Sampled windows end on this condition so each measurement
    /// is a quiescent-to-quiescent cut: a window started from a freshly
    /// built (empty) engine must not stop while queued vector work is
    /// still outstanding, or that work's cycles would be lost.
    pub(crate) fn engine_idle(&self) -> bool {
        self.engine.as_ref().is_none_or(|e| e.idle())
    }

    /// The skip law: every clock edge was either processed naively or
    /// batch-skipped, so `edges_run + edges_skipped` equals the cycles of
    /// the live domains. (`SkipStats` is deliberately not part of the
    /// result, so skip-on and skip-off results stay byte-identical. A
    /// restored run satisfies the law because the checkpoint carries the
    /// counters alongside the cycle state.) Checked in every build: it is
    /// O(1), and `sim.mcycles_per_s` counts edges by it.
    ///
    /// # Errors
    ///
    /// Names the law and both of its sides when they differ.
    pub(crate) fn check_skip_law(&self) -> Result<(), String> {
        let SkipStats {
            edges_run,
            edges_skipped,
            ..
        } = self.skip_stats;
        let cycles = self.cyc_u
            + if self.big_active { self.cyc_b } else { 0 }
            + if self.little_active { self.cyc_l } else { 0 };
        if edges_run + edges_skipped == cycles {
            return Ok(());
        }
        Err(format!(
            "skip law violated for {} on {}: edges_run + edges_skipped = {edges_run} + \
             {edges_skipped} = {}, but the clock domains ran {cycles} cycles",
            self.workload.name,
            self.kind.label(),
            edges_run + edges_skipped
        ))
    }

    /// The conservation laws ([`crate::verify_conservation`], DESIGN.md
    /// §4.10) over `result`'s stats snapshot. Checked in every build,
    /// like the skip law: the artifacts come from release builds.
    ///
    /// # Errors
    ///
    /// Names every law the snapshot breaks, with both of its sides.
    pub(crate) fn check_conservation(&self, result: &RunResult) -> Result<(), String> {
        let violations = crate::verify_conservation(result);
        if violations.is_empty() {
            return Ok(());
        }
        Err(format!(
            "conservation laws violated for {} on {}:\n{}",
            self.workload.name,
            self.kind.label(),
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        ))
    }

    /// Assembles the run's measured results from the current state —
    /// shared by [`finish`](Self::finish) (end of an exact run) and the
    /// sampled-window runner (which stops at an instruction boundary and
    /// must not run the end-of-run workload check).
    pub(crate) fn collect_result(&self) -> RunResult {
        // ---- result assembly
        let wall_fs = [
            self.cyc_u.saturating_mul(self.pu),
            if self.big_active {
                self.cyc_b.saturating_mul(self.pb)
            } else {
                0
            },
            if self.little_active {
                self.cyc_l.saturating_mul(self.pl)
            } else {
                0
            },
        ]
        .into_iter()
        .max()
        .expect("non-empty");

        let fetch_groups = self.big.as_ref().map_or(0, |b| b.fetch_groups())
            + self.littles.iter().map(|l| l.fetch_groups()).sum::<u64>();

        // ---- unified stats registry: every component's counters under one
        // hierarchical path schema (DESIGN.md §4.10). This snapshot is the
        // result's only copy of them: what figure modules read and what the
        // conservation checker audits.
        let mut reg = StatsRegistry::new();
        {
            let mut sys = reg.scope("sys");
            let mut clock = sys.scope("clock");
            clock.set("uncore", self.cyc_u);
            if self.big_active {
                clock.set("big", self.cyc_b);
            }
            if self.little_active {
                clock.set("little", self.cyc_l);
            }
            sys.set("fetch_groups", fetch_groups);
            if let Some(b) = self.big.as_ref() {
                b.stats().register(&mut sys.scope("big"));
            }
            for (i, lc) in self.littles.iter().enumerate() {
                lc.stats().register(&mut sys.scope(&format!("little{i}")));
            }
            if let Some(e) = self.engine.as_ref() {
                e.register_stats(&mut sys);
            }
            if let Some(rt) = self.runtime.as_ref() {
                rt.stats().register(&mut sys.scope("runtime"));
            }
            self.hier.register_stats(&mut sys);
        }

        RunResult {
            wall_ns: wall_fs as f64 / 1.0e6,
            stats: reg.snapshot(),
            sampling: None,
        }
    }

    /// Serializes every field that evolves during a run, in a fixed order
    /// (shared memory, hierarchy, engine, cores, runtime, loop control).
    /// Derived constants (periods, activity flags, worker topology) are
    /// rebuilt by [`System::new`] and deliberately not written.
    fn save_state(&self, w: &mut SnapWriter) {
        self.shared.with(|m| m.save(w));
        self.hier.save_state(w);
        w.u8(engine_tag(self.engine.as_deref()));
        if let Some(e) = self.engine.as_ref() {
            e.save_state(w);
        }
        if let Some(b) = self.big.as_ref() {
            b.save_state(w);
        }
        for lc in &self.littles {
            lc.save_state(w);
        }
        if let Some(rt) = self.runtime.as_ref() {
            rt.save_state(w);
        }
        self.worker_state.save(w);
        self.phase_idx.save(w);
        self.cyc_b.save(w);
        self.cyc_l.save(w);
        self.cyc_u.save(w);
        self.next_b.save(w);
        self.next_l.save(w);
        self.next_u.save(w);
        self.skip_stats.save(w);
        self.plan_cooldown.save(w);
        self.plan_streak.save(w);
    }

    /// Restores a [`save_state`](Self::save_state) payload into this
    /// freshly built system, overwriting mutable state in place.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mem = SimMemory::load(r)?;
        self.shared.with_mut(|m| *m = mem);
        self.hier.restore_state(r)?;
        let tag = r.u8()?;
        if tag != engine_tag(self.engine.as_deref()) {
            return Err(SnapError::Corrupt {
                what: format!("engine variant tag {tag} does not match the rebuilt system"),
            });
        }
        if let Some(e) = self.engine.as_mut() {
            e.restore_state(r)?;
        }
        if let Some(b) = self.big.as_mut() {
            b.restore_state(r)?;
        }
        for lc in &mut self.littles {
            lc.restore_state(r)?;
        }
        if let Some(rt) = self.runtime.as_mut() {
            rt.restore_state(r)?;
        }
        let worker_state = Vec::<WorkerState>::load(r)?;
        if worker_state.len() != self.worker_state.len() {
            return Err(SnapError::Corrupt {
                what: format!(
                    "checkpoint has {} worker states, system has {}",
                    worker_state.len(),
                    self.worker_state.len()
                ),
            });
        }
        self.worker_state = worker_state;
        self.phase_idx = usize::load(r)?;
        self.cyc_b = u64::load(r)?;
        self.cyc_l = u64::load(r)?;
        self.cyc_u = u64::load(r)?;
        self.next_b = u64::load(r)?;
        self.next_l = u64::load(r)?;
        self.next_u = u64::load(r)?;
        self.skip_stats = SkipStats::load(r)?;
        self.plan_cooldown = u32::load(r)?;
        self.plan_streak = u32::load(r)?;
        Ok(())
    }

    /// Captures the whole-system checkpoint at the current loop boundary.
    pub(crate) fn snapshot(&self) -> SysState {
        let mut w = SnapWriter::new();
        self.save_state(&mut w);
        SysState::new(
            self.kind,
            params_fingerprint(&self.params),
            workload_fingerprint(self.workload),
            self.cyc_u,
            w.into_bytes(),
        )
    }

    /// Restores `state` into this freshly built system after checking it
    /// was taken on the same kind/params/workload.
    pub(crate) fn restore_from(&mut self, state: &SysState) -> Result<(), String> {
        if state.kind() != self.kind {
            return Err(format!(
                "checkpoint was taken on {}, not {}",
                state.kind().label(),
                self.kind.label()
            ));
        }
        if state.params_fp() != params_fingerprint(&self.params) {
            return Err("checkpoint was taken under different simulation parameters".into());
        }
        if state.workload_fp() != workload_fingerprint(self.workload) {
            return Err(format!(
                "checkpoint was taken on a different workload than {}",
                self.workload.name
            ));
        }
        let mut r = SnapReader::new(state.body());
        self.restore_state(&mut r)
            .and_then(|()| r.finish())
            .map_err(|e| format!("checkpoint restore failed: {e}"))
    }
}

/// Optional behavior of one [`simulate_with`] run. `Hooks::default()`
/// runs from cycle 0 to completion and extracts nothing extra.
#[derive(Default)]
pub struct Hooks<'a> {
    /// Start from this checkpoint instead of cycle 0. It must have been
    /// taken on the same system kind, simulation parameters and workload
    /// (fingerprint-checked).
    pub resume: Option<&'a SysState>,
    /// Called with a fresh checkpoint each time the uncore clock crosses a
    /// multiple of `params.checkpoint_every`, always at a loop boundary.
    /// Answering [`CkptControl::Yield`] stops the run at that checkpoint.
    pub on_checkpoint: Option<&'a mut dyn FnMut(&SysState) -> CkptControl>,
    /// Extract the run's [`FinalState`].
    pub want_state: bool,
}

/// The checkpoint callback's verdict at a checkpoint boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CkptControl {
    /// Keep simulating.
    Continue,
    /// Stop here: the run returns [`SimOutcome::Yielded`] carrying this
    /// very checkpoint, to be resumed later (possibly elsewhere).
    Yield,
}

/// A run that reached completion and passed its output check.
#[derive(Debug)]
pub struct FinishedRun {
    /// The measured result.
    pub result: RunResult,
    /// Cumulative tick-skip counters, including those a resumed
    /// checkpoint carried in (so they match a straight-through run).
    pub skip: SkipStats,
    /// The counters the resumed checkpoint carried in (zero on a run from
    /// cycle 0): `skip.since(&skip_resumed)` is what this call processed.
    pub skip_resumed: SkipStats,
    /// The final architectural state, when [`Hooks::want_state`] asked.
    pub final_state: Option<FinalState>,
    /// The event trace, when `params.trace` is set (render with
    /// `to_chrome_json` for Perfetto, or `to_text` for a byte-stable dump).
    pub trace: Option<TraceLog>,
}

/// What a [`simulate_with`] run produced.
#[derive(Debug)]
pub enum SimOutcome {
    /// The run completed.
    Finished(Box<FinishedRun>),
    /// The checkpoint callback ordered a yield at this checkpoint; resume
    /// from it to continue.
    Yielded(SysState),
}

impl SimOutcome {
    /// The finished run, or `None` when the run yielded.
    pub fn finished(self) -> Option<FinishedRun> {
        match self {
            SimOutcome::Finished(run) => Some(*run),
            SimOutcome::Yielded(_) => None,
        }
    }
}

/// Why a [`simulate_with`] run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The `resume` checkpoint does not match this system, parameters or
    /// workload, or its body does not decode. A run from cycle 0 may
    /// still succeed.
    Restore(String),
    /// The run itself failed: the system could not be built, the cycle
    /// budget ran out, or the output check failed. Running again from
    /// cycle 0 fails the same way.
    Run(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Restore(e) | SimError::Run(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for SimError {}

/// Runs `workload` on `kind` and returns the measured result.
///
/// # Errors
///
/// Fails if the run exceeds the configured cycle budget or the final
/// memory image does not match the workload's reference.
pub fn simulate(
    kind: SystemKind,
    workload: &Workload,
    params: &SimParams,
) -> Result<RunResult, String> {
    simulate_with_stats(kind, workload, params).map(|(r, _)| r)
}

/// Like [`simulate`], additionally returning tick-skip counters.
///
/// # Errors
///
/// Fails if the run exceeds the configured cycle budget or the final
/// memory image does not match the workload's reference.
pub fn simulate_with_stats(
    kind: SystemKind,
    workload: &Workload,
    params: &SimParams,
) -> Result<(RunResult, SkipStats), String> {
    let run = simulate_with(kind, workload, params, Hooks::default())
        .map_err(|e| e.to_string())?
        .finished()
        .expect("no checkpoint callback to yield");
    Ok((run.result, run.skip))
}

/// Runs `workload` on `kind` with the given [`Hooks`]: resume from a
/// checkpoint, take (and possibly yield at) checkpoints on the
/// `params.checkpoint_every` cadence, and extract the final state. The
/// event trace is recorded when `params.trace` is set.
///
/// The checkpoint contract (`DESIGN.md` §4.11, enforced by the
/// `restore_equivalence` suite) is that resuming any checkpoint reproduces
/// the straight-through run's result, final state and stats snapshot
/// byte-identically — which is what lets the sweep fabric yield a point
/// at a checkpoint and resume it on another worker.
///
/// # Errors
///
/// [`SimError::Restore`] when `hooks.resume` does not fit this run;
/// [`SimError::Run`] when the run exceeds the cycle budget or the final
/// memory image does not match the workload's reference.
pub fn simulate_with(
    kind: SystemKind,
    workload: &Workload,
    params: &SimParams,
    hooks: Hooks<'_>,
) -> Result<SimOutcome, SimError> {
    // Arm the thread-local trace sink around the run so it is disarmed
    // (and drained) on every exit path, including errors.
    if params.trace {
        trace::start(TRACE_CAPACITY);
    }
    let out = run_system(kind, workload, params, hooks);
    let log = params.trace.then(trace::finish);
    out.map(|out| match out {
        SimOutcome::Finished(mut run) => {
            run.trace = log;
            SimOutcome::Finished(run)
        }
        yielded => yielded,
    })
}

fn run_system(
    kind: SystemKind,
    workload: &Workload,
    params: &SimParams,
    hooks: Hooks<'_>,
) -> Result<SimOutcome, SimError> {
    let Hooks {
        resume,
        mut on_checkpoint,
        want_state,
    } = hooks;
    let mut sys = System::new(kind, workload, params).map_err(SimError::Run)?;
    if let Some(state) = resume {
        sys.restore_from(state).map_err(SimError::Restore)?;
    }
    let skip_resumed = sys.skip_stats;
    // Checkpoints fire at loop boundaries when the uncore clock crosses a
    // multiple of the cadence. The next threshold is derived from the
    // current cycle, so a resumed run re-synchronizes onto the same grid
    // the straight-through run uses.
    let every = params.checkpoint_every;
    let grid_after = |cyc: u64| cyc.checked_div(every).map_or(u64::MAX, |q| (q + 1) * every);
    let mut next_ckpt = grid_after(sys.cyc_u);
    loop {
        if sys.cyc_u >= next_ckpt {
            if let Some(cb) = on_checkpoint.as_mut() {
                let snap = sys.snapshot();
                if cb(&snap) == CkptControl::Yield {
                    return Ok(SimOutcome::Yielded(snap));
                }
            }
            next_ckpt = grid_after(sys.cyc_u);
        }
        if sys.step().map_err(SimError::Run)? {
            break;
        }
    }
    let (result, final_state) = sys.finish(want_state)?;
    Ok(SimOutcome::Finished(Box::new(FinishedRun {
        result,
        skip: sys.skip_stats,
        skip_resumed,
        final_state,
        trace: None,
    })))
}

/// The attached engine, if it ticks on `domain`'s clock.
fn engine_on(
    engine: &mut Option<Box<dyn VectorEngine>>,
    domain: ClockDomain,
) -> Option<&mut (dyn VectorEngine + 'static)> {
    engine.as_deref_mut().filter(|e| e.clock_domain() == domain)
}

/// Checks the VLITTLE geometry `regmap` before a system is built from it,
/// so a bad point (which may arrive over the fabric's wire) fails with an
/// error naming the field, not a panic in the hierarchy or the big core.
fn check_regmap(regmap: &RegMap) -> Result<(), String> {
    let RegMap { cores, chimes, .. } = *regmap;
    if !(1..=MAX_LITTLE).contains(&usize::from(cores)) {
        return Err(format!(
            "regmap.cores = {cores} is outside 1..={MAX_LITTLE}: each lane is an L1 bank, \
             numbered below the big core's caches in a {MAX_CACHES}-cache directory"
        ));
    }
    if !(1..=2).contains(&chimes) {
        return Err(format!(
            "regmap.chimes = {chimes} is outside 1..=2: a lane keeps chime 0 in its \
             integer registers and chime 1 in its floating-point registers"
        ));
    }
    let vlen = regmap.vlen_bits();
    if !vlen.is_multiple_of(64) {
        return Err(format!(
            "regmap.cores = {cores} and regmap.chimes = {chimes} unpacked give a {vlen}-bit \
             vector length; the big core needs a multiple of 64 bits, so unpacked, \
             cores × chimes must be even"
        ));
    }
    Ok(())
}

/// The vector length the cores' functional machines are built with: the
/// engine's, or 64 bits when no engine is attached.
fn engine_vlen(engine: Option<&dyn VectorEngine>) -> u32 {
    engine.map_or(64, |e| e.vlen_bits())
}

/// The checkpoint tag of the attached engine; 0 when there is none.
fn engine_tag(engine: Option<&dyn VectorEngine>) -> u8 {
    engine.map_or(0, |e| e.checkpoint_tag())
}

/// The cycle a worker's scheduling state machine next acts, if any.
/// `Err(())` means it may act this very cycle (so no skipping).
fn worker_event(state: WorkerState, now: u64, core_done: bool) -> Result<Option<u64>, ()> {
    match state {
        WorkerState::Parked => Ok(None),
        // Both states transition the moment the core drains; while it is
        // busy the core's own quiescence bounds the window.
        WorkerState::Running | WorkerState::NeedWork => {
            if core_done {
                Err(())
            } else {
                Ok(None)
            }
        }
        WorkerState::Overhead(until, _) => {
            if until <= now {
                Err(())
            } else {
                Ok(Some(until))
            }
        }
    }
}

/// A worker's core, unified for task servicing.
enum WorkerCore<'a> {
    Big(&'a mut BigCore),
    Little(&'a mut LittleCore),
}

impl WorkerCore<'_> {
    fn done(&self) -> bool {
        match self {
            WorkerCore::Big(b) => b.done(),
            WorkerCore::Little(l) => l.done(),
        }
    }

    fn start(&mut self, entry: u32, args: &[(bvl_isa::reg::XReg, u64)]) {
        match self {
            WorkerCore::Big(b) => {
                for &(r, v) in args {
                    b.machine_mut().set_xreg(r, v);
                }
                b.assign(entry);
            }
            WorkerCore::Little(l) => {
                for &(r, v) in args {
                    l.machine_mut().set_xreg(r, v);
                }
                l.assign(entry);
            }
        }
    }
}

/// Drives one worker's scheduling state machine after its core ticked.
fn service_worker(
    worker: usize,
    now: u64,
    state: &mut WorkerState,
    runtime: &mut WorkStealing,
    core: &mut WorkerCore<'_>,
    vector_capable: bool,
) {
    match *state {
        WorkerState::Parked => {}
        WorkerState::Running => {
            if core.done() {
                *state = WorkerState::NeedWork;
            }
        }
        WorkerState::NeedWork => {
            if !core.done() {
                return; // pipeline still draining
            }
            match runtime.fetch(worker) {
                Fetched::Task { index, overhead } => {
                    *state = WorkerState::Overhead(now + overhead, Some(index));
                }
                Fetched::Empty { backoff } => {
                    *state = WorkerState::Overhead(now + backoff, None);
                }
                Fetched::Finished => {
                    trace::emit(now, "worker", worker as u16, "park", 0);
                    *state = WorkerState::Parked;
                }
            }
        }
        WorkerState::Overhead(until, task) => {
            if now < until {
                return;
            }
            match task {
                Some(index) => {
                    trace::emit(now, "worker", worker as u16, "task_start", index as u64);
                    let t = runtime.task(index).clone();
                    core.start(t.entry(vector_capable), &t.args);
                    *state = WorkerState::Running;
                }
                None => *state = WorkerState::NeedWork,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_workloads::kernels::{saxpy, vvadd};
    use bvl_workloads::Scale;

    fn run(kind: SystemKind, w: &Workload) -> RunResult {
        simulate(kind, w, &SimParams::default()).unwrap_or_else(|e| panic!("{kind}: {e}"))
    }

    #[test]
    fn vvadd_runs_on_every_system() {
        let w = vvadd::build(Scale::tiny());
        for kind in SystemKind::ALL {
            let r = run(kind, &w);
            assert!(r.wall_ns > 0.0, "{kind} reported zero time");
        }
    }

    #[test]
    fn figure4_orderings_hold_for_saxpy() {
        let w = saxpy::build(Scale::tiny());
        let t = |k| run(k, &w).wall_ns;
        let (l1, b1, biv, bdv, b4vl) = (
            t(SystemKind::L1),
            t(SystemKind::B1),
            t(SystemKind::BIv),
            t(SystemKind::BDv),
            t(SystemKind::B4Vl),
        );
        // Big beats little; vector units beat plain big; the DVE is the
        // fastest data-parallel machine.
        assert!(b1 < l1, "1b ({b1}) !< 1L ({l1})");
        assert!(biv < b1, "1bIV ({biv}) !< 1b ({b1})");
        assert!(bdv < biv, "1bDV ({bdv}) !< 1bIV ({biv})");
        // big.VLITTLE lands between the integrated unit and the DVE.
        assert!(b4vl < biv, "1b-4VL ({b4vl}) !< 1bIV ({biv})");
        assert!(bdv < b4vl, "1bDV ({bdv}) !< 1b-4VL ({b4vl})");
    }

    #[test]
    fn task_systems_complete_data_parallel_workloads() {
        let w = vvadd::build(Scale::tiny());
        for kind in [SystemKind::B4L, SystemKind::BIv4L] {
            let r = run(kind, &w);
            assert!(r.stat("sys.runtime.tasks_run") > 0);
            assert!(r.stats.get("sys.little0.cycles").is_some());
        }
    }

    #[test]
    fn vlittle_reports_lane_breakdowns() {
        let w = saxpy::build(Scale::tiny());
        let r = run(SystemKind::B4Vl, &w);
        let lane_cycles = r.stats.paths_matching("sys.lane", ".cycles");
        assert_eq!(lane_cycles.len(), 4);
        assert!(lane_cycles.iter().all(|p| r.stat(p) > 0));
        // In vector mode the little cores are lanes, not cores.
        assert!(r.stats.get("sys.little0.cycles").is_none());
    }

    /// `w` on `1b-4VL` with the VLITTLE geometry `cores` × `chimes`.
    fn vlittle(w: &Workload, cores: u8, chimes: u8, packed: bool) -> Result<RunResult, String> {
        let mut params = SimParams::default();
        params.engine.regmap = RegMap {
            cores,
            chimes,
            packed,
        };
        simulate(SystemKind::B4Vl, w, &params)
    }

    #[test]
    fn vlittle_geometry_is_checked_on_both_sides_of_each_bound() {
        let w = vvadd::build(Scale::tiny());
        let runs = |cores, chimes, packed| {
            vlittle(&w, cores, chimes, packed)
                .unwrap_or_else(|e| panic!("{cores} lanes x {chimes} chimes: {e}"));
        };
        let fails = |cores, chimes, packed, says: &str| {
            let err = vlittle(&w, cores, chimes, packed)
                .expect_err("a geometry outside the bounds must not build");
            assert!(err.contains(says), "{cores} x {chimes}: {err}");
        };
        // The big core's caches take the directory id after the lanes'.
        let max = MAX_LITTLE as u8;
        runs(1, 2, true);
        runs(max, 2, true);
        fails(0, 2, true, "regmap.cores = 0 is outside 1..=31");
        fails(max + 1, 2, true, "regmap.cores = 32 is outside 1..=31");
        // One chime per register file.
        runs(4, 1, true);
        runs(4, 2, true);
        fails(4, 0, true, "regmap.chimes = 0 is outside 1..=2");
        fails(4, 3, true, "regmap.chimes = 3 is outside 1..=2");
        // Unpacked, a register holds one 32-bit element.
        runs(4, 1, false);
        fails(3, 1, false, "96-bit vector length");
    }

    #[test]
    fn dvfs_changes_wall_time() {
        let w = vvadd::build(Scale::tiny());
        let mut slow = SimParams::default();
        slow.clocks.little_ghz = 0.5;
        let base = simulate(SystemKind::L1, &w, &SimParams::default()).expect("base");
        let half = simulate(SystemKind::L1, &w, &slow).expect("half");
        let ratio = half.wall_ns / base.wall_ns;
        // vvadd is memory-bound and the uncore keeps its 1 GHz clock, so
        // the slowdown is well under 2x — but it must be a slowdown.
        assert!(
            ratio > 1.08,
            "halving the little clock sped things up? ratio {ratio}"
        );
    }

    /// A run with `hooks`, which must finish.
    fn finish(kind: SystemKind, w: &Workload, params: &SimParams, hooks: Hooks<'_>) -> FinishedRun {
        simulate_with(kind, w, params, hooks)
            .unwrap_or_else(|e| panic!("{kind}: {e}"))
            .finished()
            .expect("no yield ordered")
    }

    #[test]
    fn checkpointing_does_not_change_results() {
        let w = vvadd::build(Scale::tiny());
        let state = Hooks {
            want_state: true,
            ..Hooks::default()
        };
        let base = finish(SystemKind::B4Vl, &w, &SimParams::default(), state);
        let params = SimParams {
            checkpoint_every: 500,
            ..SimParams::default()
        };
        let mut taken = 0usize;
        let ckpt = finish(
            SystemKind::B4Vl,
            &w,
            &params,
            Hooks {
                on_checkpoint: Some(&mut |_| {
                    taken += 1;
                    CkptControl::Continue
                }),
                want_state: true,
                ..Hooks::default()
            },
        );
        assert!(taken > 0, "expected at least one checkpoint");
        assert_eq!(
            (base.result, base.skip, base.final_state),
            (ckpt.result, ckpt.skip, ckpt.final_state)
        );
    }

    /// The skip law is checked in every build: a run whose edge counters
    /// do not add up to its domain cycles ends in `SimError::Run`, naming
    /// the law and both sides.
    #[test]
    fn a_broken_skip_law_is_a_run_error() {
        let w = vvadd::build(Scale::tiny());
        let mut sys = System::new(SystemKind::B4Vl, &w, &SimParams::default()).expect("build");
        while !sys.step().expect("step") {}
        assert!(sys.finish(false).is_ok());
        let SkipStats {
            edges_run,
            edges_skipped,
            ..
        } = sys.skip_stats;
        let cycles = edges_run + edges_skipped;
        sys.skip_stats.edges_run += 1;
        match sys.finish(false) {
            Err(SimError::Run(e)) => {
                let sides = format!(
                    "{} + {edges_skipped} = {}, but the clock domains ran {cycles} cycles",
                    edges_run + 1,
                    cycles + 1
                );
                assert!(e.contains("skip law violated"), "{e}");
                assert!(e.contains(&sides), "{e}");
            }
            other => panic!("expected SimError::Run, got {other:?}"),
        }
    }

    /// An engine wound back to an early cut of its run reports fewer VMU
    /// line requests than the hierarchy accepted, which breaks the
    /// `vmu-flow` law. A release build ends such a run with a run error
    /// naming the law, as a debug build does.
    #[test]
    fn a_broken_conservation_law_is_a_run_error() {
        let w = vvadd::build(Scale::tiny());
        let mut sys = System::new(SystemKind::B4Vl, &w, &SimParams::default()).expect("build");
        let mut early = SnapWriter::new();
        for _ in 0..100 {
            assert!(
                !sys.step().expect("step"),
                "vvadd finished within 100 steps"
            );
        }
        sys.engine
            .as_ref()
            .expect("an engine")
            .save_state(&mut early);
        while !sys.step().expect("step") {}
        assert!(sys.finish(false).is_ok());
        let early = early.into_bytes();
        sys.engine
            .as_mut()
            .expect("an engine")
            .restore_state(&mut SnapReader::new(&early))
            .expect("restore the early engine");
        match sys.finish(false) {
            Err(SimError::Run(e)) => {
                assert!(
                    e.starts_with("conservation laws violated for vvadd on 1b-4VL"),
                    "{e}"
                );
                assert!(e.contains("[vmu-flow]"), "{e}");
            }
            other => panic!("expected SimError::Run, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_mismatched_checkpoints() {
        let w = vvadd::build(Scale::tiny());
        let params = SimParams {
            checkpoint_every: 500,
            ..SimParams::default()
        };
        let first = match simulate_with(
            SystemKind::B4Vl,
            &w,
            &params,
            Hooks {
                on_checkpoint: Some(&mut |_| CkptControl::Yield),
                ..Hooks::default()
            },
        ) {
            Ok(SimOutcome::Yielded(state)) => state,
            other => panic!("expected a yield, got {other:?}"),
        };
        let resume = |kind, w, params| {
            let hooks = Hooks {
                resume: Some(&first),
                ..Hooks::default()
            };
            match simulate_with(kind, w, params, hooks) {
                Err(SimError::Restore(e)) => e,
                other => panic!("expected a restore error, got {other:?}"),
            }
        };

        // Wrong system kind.
        let err = resume(SystemKind::BDv, &w, &params);
        assert!(err.contains("taken on"), "unexpected error: {err}");

        // Behaviorally different parameters.
        let mut other = params.clone();
        other.no_skip = true;
        let err = resume(SystemKind::B4Vl, &w, &other);
        assert!(err.contains("parameters"), "unexpected error: {err}");

        // Different workload.
        let saxpy = saxpy::build(Scale::tiny());
        let err = resume(SystemKind::B4Vl, &saxpy, &params);
        assert!(err.contains("workload"), "unexpected error: {err}");
    }
}

#[cfg(test)]
mod switch_cost_tests {
    use super::*;
    use bvl_workloads::kernels::vvadd;
    use bvl_workloads::Scale;

    /// The paper charges ~500 cycles at each vector-region entry; zeroing
    /// the penalty must recover roughly that many little-cluster cycles.
    #[test]
    fn mode_switch_penalty_is_observable() {
        let w = vvadd::build(Scale::tiny());
        let with = simulate(SystemKind::B4Vl, &w, &SimParams::default()).expect("with penalty");
        let mut params = SimParams::default();
        params.engine.switch_penalty = 0;
        let without = simulate(SystemKind::B4Vl, &w, &params).expect("without penalty");
        let saved_ns = with.wall_ns - without.wall_ns;
        // One region entry at 1 GHz little clock = ~500 ns.
        assert!(
            (400.0..=700.0).contains(&saved_ns),
            "expected ~500 ns savings, got {saved_ns}"
        );
    }
}
