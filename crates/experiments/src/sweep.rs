//! The parallel sweep engine: every figure/table experiment's matrix of
//! points, run on the scheduler core the fabric daemon uses.
//!
//! Every paper artifact is a (system × workload × params) matrix of
//! independent [`bvl_sim::simulate`] calls. [`run_sweep`] submits each
//! point to a [`bvl_serve::Sched`], the daemon's core driven through
//! threads and no sockets: `--jobs N` workers (default = available
//! parallelism) loop dispatch → run → complete, each reply goes down one
//! channel per sweep, and results come back in matrix order, so the JSON
//! an experiment writes is byte-identical at any worker count.
//!
//! Every memo, coalescing, disk and store decision is the core's, keyed
//! by `(system, workload-key, params-hash)` (DESIGN.md §4.13): repeated
//! points simulate once, within a matrix and across every sweep through
//! clones of one [`ExpOpts`] (`run_all`'s figures share fig04's points);
//! `--persist-cache` stores each result under `<out>/cache/` as its point
//! completes, except runs resumed from a checkpoint (`--checkpoint-every
//! N`, `--resume`); `--no-cache` gives the sweep a core of its own that
//! persists nothing. A point that fails, by an error or a panic, fails
//! alone: the others finish and are stored, then [`run_sweep`] panics
//! once, naming every failed key with its error. Under `--serve`, points
//! with a wire spec go to the daemon instead, whose core decides the same
//! way; a daemon that cannot be reached, or breaks mid-sweep, fails each
//! of them with its error.
//!
//! Each worker runs the points it dispatches whole, through
//! [`bvl_serve::worker::run_point`] as every fabric worker does. With
//! `--sampled` (DESIGN.md §4.12) that is [`bvl_sim::simulate_sampled`],
//! which measures each window as the fast-forward reaches it. Estimates
//! carry [`bvl_sim::SamplingMeta`] and their own cache keys. Exact
//! fallbacks and truncated windows are reported, in-process and served
//! alike.
//!
//! The workload key must identify the workload *instance*, not just its
//! kernel: the same name built at a different scale (or, for synthetic
//! microbenchmarks, with different generation knobs) is a different point.
//! [`SweepJob::new`] derives `"{name}@{scale}"`; [`SweepJob::keyed`]
//! accepts an explicit key for custom-built workloads.

use crate::ExpOpts;
use bvl_serve::spec::{PointSpec, WorkloadSpec};
use bvl_serve::store::ResultStore;
use bvl_serve::worker::{caught, run_point, PointRun};
use bvl_serve::{Client, DaemonConfig, FabricReport, Msg, Sched, ServedResult};
use bvl_sim::{simulate_with, Hooks, RunResult, SamplingMeta, SimParams, SystemKind};
use bvl_workloads::Workload;
use serde::Serialize;
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

/// One point of a sweep matrix: run `workload` on `system` under `params`.
#[derive(Clone)]
pub struct SweepJob {
    /// System composition to simulate.
    pub system: SystemKind,
    /// Prebuilt workload, shared across jobs and worker threads.
    pub workload: Arc<Workload>,
    /// Cache identity of the workload instance (name plus everything that
    /// went into building it — scale, generation knobs).
    pub workload_key: String,
    /// Simulation parameters for this point.
    pub params: SimParams,
    /// How a fabric worker process rebuilds this workload
    /// ([`SweepJob::with_spec`]). Standard suite jobs don't need one —
    /// `--serve` derives a [`WorkloadSpec::Named`] from the workload key —
    /// but custom-built workloads (synthetic microbenchmarks, non-preset
    /// scales) stay local to this process unless they carry a spec.
    pub spec: Option<WorkloadSpec>,
}

impl SweepJob {
    /// A job for a standard suite workload built at the named scale.
    pub fn new(
        system: SystemKind,
        workload: &Arc<Workload>,
        scale_name: &str,
        params: SimParams,
    ) -> Self {
        let workload_key = format!("{}@{}", workload.name, scale_name);
        SweepJob::keyed(system, workload, workload_key, params)
    }

    /// A job with an explicit workload key, for workloads built outside
    /// the standard suites (custom scales, synthetic microbenchmarks).
    pub fn keyed(
        system: SystemKind,
        workload: &Arc<Workload>,
        workload_key: impl Into<String>,
        params: SimParams,
    ) -> Self {
        SweepJob {
            system,
            workload: Arc::clone(workload),
            workload_key: workload_key.into(),
            params,
            spec: None,
        }
    }

    /// Attaches a wire-transportable rebuild recipe, making this job
    /// servable by fabric worker processes even though its workload was
    /// built outside the named-suite registry. The spec must rebuild the
    /// *same* instance the job carries (seeded generators make that a
    /// determinism fact, and the fabric equivalence test audits it).
    pub fn with_spec(mut self, spec: WorkloadSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// The memo/disk cache key of this point:
    /// `"{system}__{workload_key}__{params-hash}"`. The params hash is
    /// [`bvl_sim::params_fingerprint`], FNV-1a over the exhaustive `Debug`
    /// rendering of [`SimParams`], which covers every knob the figures
    /// sweep (clocks, engine geometry, queue depths, cycle caps).
    pub fn cache_key(&self) -> String {
        cache_key_for(self.system, &self.workload_key, &self.params)
    }
}

/// The cache key for a (system, workload-instance, params) point; see
/// [`SweepJob::cache_key`]. Re-exported from [`bvl_serve::store`], which
/// owns the definition — the fabric daemon and the in-process sweep
/// share one key function *by construction*, so a served run hits
/// exactly the disk-cache entries a serverless run writes.
pub use bvl_serve::store::cache_key_for;

/// The scheduler core every sweep run through one [`ExpOpts`] submits its
/// points to. Clones share it, so its memo answers any point an earlier
/// sweep (of any figure) ran.
#[derive(Clone)]
pub struct SweepSched(Arc<Mutex<Sched<Sender<Msg>, Arc<SweepJob>>>>);

impl Default for SweepSched {
    fn default() -> Self {
        SweepSched(Arc::new(Mutex::new(Sched::new(&DaemonConfig::default()))))
    }
}

impl SweepSched {
    /// The core's counters and occupancy. Its memo holds `executed +
    /// disk_hits` points.
    pub fn report(&self) -> FabricReport {
        self.lock().report()
    }

    fn lock(&self) -> MutexGuard<'_, Sched<Sender<Msg>, Arc<SweepJob>>> {
        self.0
            .lock()
            .expect("a sweep worker panicked holding the scheduler")
    }
}

/// Aggregate simulator-throughput counters for the `simulate` calls a
/// process has actually executed (cache hits cost no simulation and are
/// not counted).
///
/// "Cycles" here are clock-domain *edges*: every uncore/big/little cycle
/// the naive loop would process counts once, whether the skip engine ran
/// it or batch-skipped it — so Mcycles/s is comparable across skip-on and
/// `--no-skip` runs of the same points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct Throughput {
    /// Number of `simulate` calls executed.
    pub runs: u64,
    /// Clock-domain edges processed cycle-by-cycle.
    pub edges_run: u64,
    /// Clock-domain edges batch-skipped by the quiescence engine.
    pub edges_skipped: u64,
    /// Host seconds spent inside `simulate`, summed over worker threads.
    pub sim_thread_secs: f64,
}

impl Throughput {
    /// Total simulated clock-domain edges (run + skipped).
    pub fn sim_cycles(&self) -> u64 {
        self.edges_run + self.edges_skipped
    }

    /// Fraction of edges the skip engine batch-advanced over, in percent.
    pub fn skipped_pct(&self) -> f64 {
        if self.sim_cycles() == 0 {
            0.0
        } else {
            100.0 * self.edges_skipped as f64 / self.sim_cycles() as f64
        }
    }

    /// Simulated Mcycles per host second of `secs` (callers pass wall
    /// time for aggregate throughput, or [`Throughput::sim_thread_secs`]
    /// for per-worker throughput).
    pub fn mcycles_per_sec(&self, secs: f64) -> f64 {
        if secs <= 0.0 {
            0.0
        } else {
            self.sim_cycles() as f64 / 1e6 / secs
        }
    }

    /// The counters accumulated since `earlier` (a prior snapshot).
    pub fn since(&self, earlier: &Throughput) -> Throughput {
        Throughput {
            runs: self.runs - earlier.runs,
            edges_run: self.edges_run - earlier.edges_run,
            edges_skipped: self.edges_skipped - earlier.edges_skipped,
            sim_thread_secs: self.sim_thread_secs - earlier.sim_thread_secs,
        }
    }
}

/// Shared [`Throughput`] accumulator; clones share the counters, so every
/// sweep run through one [`ExpOpts`] reports into the same totals.
#[derive(Clone, Default)]
pub struct ThroughputTracker {
    inner: Arc<Mutex<Throughput>>,
}

impl ThroughputTracker {
    /// The counters so far.
    pub fn snapshot(&self) -> Throughput {
        *self.inner.lock().expect("throughput lock")
    }

    fn record(&self, run: &ServedResult) {
        let mut t = self.inner.lock().expect("throughput lock");
        t.runs += 1;
        t.edges_run += run.edges_run;
        t.edges_skipped += run.edges_skipped;
        t.sim_thread_secs += run.host_secs;
    }
}

/// The number of worker threads to default `--jobs` to.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` over `items` on `jobs` scoped worker threads sharing one work
/// queue, returning results in item order regardless of completion order.
/// With `jobs <= 1` (or one item) this degrades to a plain serial loop.
/// A panic inside `f` propagates to the caller when the scope joins.
///
/// Work whose unit is not a sweep point fans out through this instead of
/// [`run_sweep`]: Tables IV–V's golden-model characterization, the
/// `difftest` binary and the benchmark's traced run.
pub fn run_parallel<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Executes a sweep matrix and returns one checked [`RunResult`] per job,
/// in job order.
///
/// Duplicate points (same cache key) simulate once; cached points (from
/// earlier sweeps through the same [`ExpOpts`], or from `<out>/cache/`
/// when persistence is on) do not simulate at all. The cache settings
/// are read as the sweep starts.
///
/// # Panics
///
/// Once every point has finished or failed, when any failed: the message
/// names every failed key with its error.
pub fn run_sweep(jobs: &[SweepJob], opts: &ExpOpts) -> Vec<RunResult> {
    let points: Vec<Arc<SweepJob>> = jobs
        .iter()
        .map(|j| {
            let mut p = j.params.clone();
            // `--no-skip` applies to every point of every sweep. It
            // changes the cache key (the params hash covers `no_skip`), so
            // naive-loop runs never reuse — or pollute — skip-on cache
            // entries, even though the results are identical by the
            // skip-equivalence contract.
            p.no_skip |= opts.no_skip;
            // `--checkpoint-every` arms every point; the cadence is
            // excluded from the cache key (see `cache_key_for`), so this
            // cannot fork or miss existing cache entries.
            if opts.checkpoint_every > 0 {
                p.checkpoint_every = opts.checkpoint_every;
            }
            // `--sampled` overlays the sampling configuration onto every
            // point. It is part of the params hash (unlike the two
            // observability knobs above), so sampled estimates fork their
            // own memo/disk cache entries and never alias exact results.
            if let Some(sp) = opts.sampling_params() {
                p.sampling = Some(sp);
            }
            Arc::new(SweepJob {
                params: p,
                ..j.clone()
            })
        })
        .collect();
    let keys: Vec<String> = points.iter().map(|p| p.cache_key()).collect();

    // Points with a wire spec go to the daemon under `--serve`; the rest
    // go to this process's core.
    let (mut served, mut specs) = (Vec::new(), Vec::new());
    let sched = if opts.use_cache {
        opts.sched.clone()
    } else {
        SweepSched::default()
    };
    let (tx, rx) = mpsc::channel();
    {
        let mut core = sched.lock();
        core.set_store(&opts.cache_dir, opts.use_cache && opts.persist_cache);
        let client = core.connect();
        for (i, point) in points.iter().enumerate() {
            if let Some(spec) = wire_spec(point, opts) {
                served.push(i);
                specs.push(spec);
                continue;
            }
            let (key, to) = (keys[i].clone(), tx.clone());
            for (to, msg) in
                core.submit(client, to, i as u64, opts.priority, key, Arc::clone(point))
            {
                let _ = to.send(msg);
            }
        }
    }
    drop(tx);
    let local = points.len() - served.len();
    if opts.serve_addr.is_some() && local > 0 {
        eprintln!("--serve: {local} point(s) have no wire spec and run in-process");
    }
    run_pool(opts, &sched);

    let mut replies: Vec<Option<Result<ServedResult, String>>> = vec![None; points.len()];
    for msg in rx.iter().take(local) {
        match msg {
            Msg::Done { id, served } => replies[id as usize] = Some(Ok(served)),
            Msg::Failed { id, error } => replies[id as usize] = Some(Err(error)),
            other => unreachable!("the core replied {other:?}"),
        }
    }
    if let Some(addr) = opts.serve_addr.as_deref().filter(|_| !specs.is_empty()) {
        let out = Client::connect(addr)
            .map_err(|e| format!("--serve: connect to fabric at {addr}: {e}"))
            .and_then(|mut client| {
                client.set_priority(opts.priority);
                client.run_each(&specs).map_err(|e| format!("--serve: {e}"))
            })
            .unwrap_or_else(|e| vec![Err(e); specs.len()]);
        for (i, reply) in served.into_iter().zip(out) {
            replies[i] = Some(reply);
        }
    }

    // Every reply that ran something counts its simulation and says how a
    // sampled estimate was made; coalesced and cached replies ran nothing.
    let mut results = Vec::with_capacity(points.len());
    let mut failed = Vec::new();
    for (key, reply) in keys.iter().zip(replies) {
        match reply.expect("every point is answered") {
            Ok(r) => {
                if !r.cache_hit {
                    opts.throughput.record(&r);
                    report_sampling(key, r.result.sampling.as_ref());
                }
                results.push(r.result);
            }
            Err(e) => failed.push(format!("  {key}: {e}")),
        }
    }
    if !failed.is_empty() {
        failed.sort();
        failed.dedup();
        panic!(
            "{} sweep point(s) failed:\n{}",
            failed.len(),
            failed.join("\n")
        );
    }

    // `--trace-out`: re-run the first point of the first sweep with event
    // tracing on and write the Chrome trace_event JSON. Tracing does not
    // perturb results (the traced RunResult is discarded; the
    // skip-equivalence/determinism contracts make it identical anyway),
    // so this rides outside the cache entirely.
    if let (Some(path), Some(job)) = (opts.take_trace_out(), points.first()) {
        let traced = SimParams {
            trace: true,
            ..job.params.clone()
        };
        let log = simulate_with(job.system, &job.workload, &traced, Hooks::default())
            .unwrap_or_else(|e| panic!("{} on {}: {e}", job.workload_key, job.system.label()))
            .finished()
            .and_then(|run| run.trace)
            .expect("a traced run with no checkpoint callback finishes with a log");
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir).expect("create trace-out dir");
        }
        fs::write(&path, log.to_chrome_json())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!(
            "wrote {} ({} events, {} dropped) — load in chrome://tracing or Perfetto",
            path.display(),
            log.len(),
            log.dropped()
        );
    }
    results
}

/// Runs `--jobs` workers, the calling thread among them, that loop
/// dispatch → run → settle until the core has nothing left to dispatch.
/// Every point is submitted before the pool starts, so none comes later.
fn run_pool(opts: &ExpOpts, sched: &SweepSched) {
    let store = ResultStore::new(&opts.cache_dir);
    let work = |worker: u64| loop {
        // Bound first, so that the core's lock is released before the
        // point runs and settles.
        let Some((key, job)) = sched.lock().dispatch(worker) else {
            return;
        };
        let out = caught(|| {
            let run = run_point(
                job.system,
                &job.workload,
                &job.params,
                &key,
                &store,
                opts.resume,
                &mut |_| false,
            )?;
            match run {
                PointRun::Finished(out) => Ok(*out),
                PointRun::Yielded { .. } => unreachable!("nothing orders a yield"),
            }
        });
        let replies = match out {
            Ok(out) => sched.lock().complete(&key, out),
            Err(e) => sched.lock().fail(&key, &e),
        };
        for (to, msg) in replies {
            let _ = to.send(msg);
        }
    };
    std::thread::scope(|s| {
        for worker in 1..opts.jobs {
            s.spawn(move || work(worker as u64));
        }
        work(0);
    });
}

/// The point as the fabric takes it under `--serve`, if its workload's
/// wire spec can be stated: either the job carries one explicitly
/// ([`SweepJob::with_spec`]), or it is a standard suite job — its key is
/// `"{name}@{scale_name}"` for the preset scale the sweep runs at, and the
/// name is in the [`bvl_workloads::by_name`] registry (which rebuilds the
/// byte-identical instance; [`bvl_workloads::is_registered`] asks without
/// building one).
fn wire_spec(job: &SweepJob, opts: &ExpOpts) -> Option<PointSpec> {
    opts.serve_addr.as_ref()?;
    let named = || {
        let standard = job.workload_key == format!("{}@{}", job.workload.name, opts.scale_name)
            && bvl_workloads::Scale::by_name(&opts.scale_name) == Some(opts.scale)
            && bvl_workloads::is_registered(job.workload.name);
        let name = job.workload.name.to_string();
        standard.then_some(WorkloadSpec::Named {
            name,
            scale: opts.scale,
        })
    };
    let workload = job.spec.clone().or_else(named)?;
    Some(PointSpec {
        system: job.system,
        workload_key: job.workload_key.clone(),
        workload,
        params: job.params.clone(),
    })
}

/// The "no silent caps" half of sampled mode: a point that fell back to
/// exact simulation says so, and one whose estimate stands on fewer or
/// shorter windows than planned says how many were dropped or truncated,
/// which would otherwise read as full coverage. The lines come from the
/// estimate's own metadata, the same here and on the fabric.
fn report_sampling(key: &str, meta: Option<&SamplingMeta>) {
    let Some(meta) = meta else { return };
    if meta.exact_fallback {
        eprintln!(
            "{key}: sampled mode fell back to exact simulation \
             (work-stealing task execution cannot be fast-forwarded)"
        );
    }
    if meta.windows_truncated > 0 {
        eprintln!(
            "{key}: sampled estimate from {} measured windows; {} truncated or empty \
             (program or final stratum shorter than the {}-instr window); \
             wall ±{:.0} ns (95% CI)",
            meta.windows_measured, meta.windows_truncated, meta.window_instrs, meta.ci_halfwidth_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = run_parallel(&items, 8, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_serial_matches_parallel() {
        let items: Vec<u64> = (0..37).collect();
        assert_eq!(
            run_parallel(&items, 1, |&x| x * x),
            run_parallel(&items, 6, |&x| x * x)
        );
    }

    #[test]
    fn no_skip_opt_rekeys_but_results_match() {
        let w = Arc::new(bvl_workloads::kernels::vvadd::build(
            bvl_workloads::Scale::tiny(),
        ));
        let jobs = [SweepJob::new(
            SystemKind::L1,
            &w,
            "tiny",
            SimParams::default(),
        )];
        let mut opts = ExpOpts::for_scale("tiny", std::env::temp_dir()).with_jobs(1);
        let skip_on = run_sweep(&jobs, &opts);
        opts.no_skip = true;
        // The flag changes the cache key, so this re-simulates naively
        // rather than replaying the memoized skip-on result.
        let naive = run_sweep(&jobs, &opts);
        assert_eq!(skip_on, naive);
        let t = opts.throughput.snapshot();
        assert_eq!(t.runs, 2);
        assert!(t.edges_skipped > 0, "skip-on run never skipped");
        assert!(t.edges_run > t.edges_skipped);
        assert_eq!(t.since(&t), Throughput::default());
    }

    #[test]
    fn cache_key_ignores_observability_knobs() {
        let w = Arc::new(bvl_workloads::kernels::vvadd::build(
            bvl_workloads::Scale::tiny(),
        ));
        let plain = SweepJob::new(SystemKind::B4Vl, &w, "tiny", SimParams::default());
        let observed = SimParams {
            checkpoint_every: 512,
            trace: true,
            ..SimParams::default()
        };
        let armed = SweepJob::new(SystemKind::B4Vl, &w, "tiny", observed);
        assert_eq!(
            plain.cache_key(),
            armed.cache_key(),
            "checkpoint cadence and tracing leave results byte-identical, \
             so they must not fork the cache"
        );
    }

    #[test]
    fn cache_keys_distinguish_sampled_runs() {
        let w = Arc::new(bvl_workloads::kernels::vvadd::build(
            bvl_workloads::Scale::tiny(),
        ));
        let exact = SweepJob::new(SystemKind::B4Vl, &w, "tiny", SimParams::default());
        let sampled = SweepJob::new(
            SystemKind::B4Vl,
            &w,
            "tiny",
            SimParams {
                sampling: Some(bvl_sim::SamplingParams::default()),
                ..SimParams::default()
            },
        );
        let sampled_fine = SweepJob::new(
            SystemKind::B4Vl,
            &w,
            "tiny",
            SimParams {
                sampling: Some(bvl_sim::SamplingParams {
                    period_instrs: 512,
                    window_instrs: 128,
                }),
                ..SimParams::default()
            },
        );
        assert_ne!(
            exact.cache_key(),
            sampled.cache_key(),
            "a sampled estimate must never alias an exact result"
        );
        assert_ne!(sampled.cache_key(), sampled_fine.cache_key());
    }

    #[test]
    fn sampled_sweep_estimates_memoize_and_fall_back() {
        let w = Arc::new(bvl_workloads::kernels::vvadd::build(
            bvl_workloads::Scale::tiny(),
        ));
        // 1L fast-forwards (serial mode); 1b-4L runs work-stealing tasks
        // and must fall back to exact simulation.
        let jobs = [
            SweepJob::new(SystemKind::L1, &w, "tiny", SimParams::default()),
            SweepJob::new(SystemKind::B4L, &w, "tiny", SimParams::default()),
        ];
        let mut opts = ExpOpts::for_scale("tiny", std::env::temp_dir()).with_jobs(2);
        opts.sampled = true;
        opts.sample_period = Some(512);
        opts.sample_window = Some(128);
        let rs = run_sweep(&jobs, &opts);
        let meta = rs[0].sampling.as_ref().expect("sampled point carries meta");
        assert!(!meta.exact_fallback);
        assert!(meta.windows_measured >= 1);
        assert_eq!(meta.period_instrs, 512);
        assert!(rs[0].wall_ns > 0.0);
        let fb = rs[1].sampling.as_ref().expect("fallback carries meta");
        assert!(fb.exact_fallback);
        assert_eq!(fb.ci_halfwidth_ns, 0.0);
        // A second sweep replays both points from the memo cache: no new
        // simulate calls are recorded.
        let runs_before = opts.throughput.snapshot().runs;
        let rs2 = run_sweep(&jobs, &opts);
        assert_eq!(rs, rs2);
        assert_eq!(opts.throughput.snapshot().runs, runs_before);
    }

    #[test]
    fn cache_keys_distinguish_params() {
        let w = Arc::new(bvl_workloads::kernels::vvadd::build(
            bvl_workloads::Scale::tiny(),
        ));
        let a = SweepJob::new(SystemKind::B4Vl, &w, "tiny", SimParams::default());
        let mut fast = SimParams::default();
        fast.clocks.big_ghz = 2.0;
        let b = SweepJob::new(SystemKind::B4Vl, &w, "tiny", fast);
        assert_ne!(a.cache_key(), b.cache_key());
        let c = SweepJob::new(SystemKind::BDv, &w, "tiny", SimParams::default());
        assert_ne!(a.cache_key(), c.cache_key());
    }
}
