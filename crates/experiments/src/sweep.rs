//! The parallel sweep engine: thread-scoped fan-out plus a memoized run
//! cache for every figure/table experiment.
//!
//! Every paper artifact is a (system × workload × params) matrix of
//! independent [`bvl_sim::simulate`] calls. This module executes such a
//! matrix on `std::thread::scope` workers pulling from a shared work queue
//! (`--jobs N`, default = available parallelism) and returns results in
//! deterministic matrix order regardless of completion order, so the JSON
//! an experiment writes is byte-identical at any worker count.
//!
//! Layered on top is a memoized run cache keyed by
//! `(system, workload-key, params-hash)`:
//!
//! * points repeated inside one matrix simulate once (first occurrence
//!   wins; later ones clone the result);
//! * points shared *between* figures (fig04/05/06 all measure the same
//!   `1L`/`1bIV-4L`/`1bDV`/`1b-4VL` runs) simulate once per process when
//!   the binaries share an [`ExpOpts`] — which is exactly what the
//!   `run_all` binary does;
//! * with `--persist-cache`, results are also written under
//!   `<out>/cache/` as JSON and reused by later invocations;
//! * `--no-cache` forces a cold run: every unique point simulates fresh
//!   and nothing is read from or written to either cache layer;
//! * with `--checkpoint-every N`, every in-flight point periodically
//!   writes a whole-system checkpoint under `<cache_dir>/ckpt/` (deleted
//!   when the point completes), and `--resume` restarts interrupted
//!   points from their last checkpoint instead of cycle 0 — both through
//!   [`bvl_serve::worker::run_exact_point`], the exact-point runner
//!   every fabric worker uses too. Resumed results are byte-identical
//!   by the restore-equivalence contract but are deliberately *not*
//!   persisted to the disk cache — only straight-through runs populate
//!   it;
//! * with `--sampled`, every point runs *sampled* simulation
//!   (DESIGN.md §4.12): a functional fast-forward plans one detailed
//!   window per sampling period, the windows of **all** missed points fan
//!   out over the same worker pool (a long point's windows never
//!   serialize behind a per-point barrier), and each point's estimate is
//!   combined by stratified extrapolation. Sampled estimates carry
//!   [`bvl_sim::SamplingMeta`] and use distinct cache keys (the sampling
//!   config is in the params hash), so they never alias exact results.
//!   Points whose execution mode cannot be fast-forwarded (work-stealing
//!   tasks) fall back to exact simulation; fallbacks, dropped windows and
//!   truncated windows are always reported in the run summary, never
//!   silently absorbed.
//!
//! The workload key must identify the workload *instance*, not just its
//! kernel: the same name built at a different scale (or, for synthetic
//! microbenchmarks, with different generation knobs) is a different point.
//! [`SweepJob::new`] derives `"{name}@{scale}"`; [`SweepJob::keyed`]
//! accepts an explicit key for custom-built workloads.

use crate::ExpOpts;
use bvl_serve::spec::{PointSpec, WorkloadSpec};
use bvl_serve::store::ResultStore;
use bvl_serve::worker::{run_exact_point, PointRun};
use bvl_serve::Client;
use bvl_sim::{
    combine_sampled, plan_sampled, run_sample_window, simulate_with, Hooks, RunResult, SamplePlan,
    SamplingMeta, SimParams, SkipStats, SystemKind, WindowMeasurement,
};
use bvl_workloads::Workload;
use serde::Serialize;
use std::collections::HashMap;
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One point of a sweep matrix: run `workload` on `system` under `params`.
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

/// The in-memory memo layer: completed runs keyed by
/// [`SweepJob::cache_key`]. Cloning shares the underlying map, so every
/// experiment run from one [`ExpOpts`] (e.g. all figures under `run_all`)
/// sees every other experiment's results.
#[derive(Clone, Default)]
pub struct SweepCache {
    inner: Arc<Mutex<HashMap<String, RunResult>>>,
}

impl SweepCache {
    /// An empty cache.
    pub fn new() -> Self {
        SweepCache::default()
    }

    /// Number of memoized runs.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").len()
    }

    /// Whether the cache holds no runs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, key: &str) -> Option<RunResult> {
        self.inner.lock().expect("cache lock").get(key).cloned()
    }

    fn insert(&self, key: String, result: RunResult) {
        self.inner.lock().expect("cache lock").insert(key, result);
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
    /// A zeroed tracker.
    pub fn new() -> Self {
        ThroughputTracker::default()
    }

    /// The counters so far.
    pub fn snapshot(&self) -> Throughput {
        *self.inner.lock().expect("throughput lock")
    }

    fn record(&self, stats: SkipStats, secs: f64) {
        let mut t = self.inner.lock().expect("throughput lock");
        t.runs += 1;
        t.edges_run += stats.edges_run;
        t.edges_skipped += stats.edges_skipped;
        t.sim_thread_secs += secs;
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
/// This is the generic fan-out under [`run_sweep`]; experiments whose unit
/// of work is not a `simulate` call (golden-model characterization,
/// custom-geometry engine runs) use it directly.
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
/// when persistence is on) do not simulate at all. Simulation failures
/// panic with the workload/system context, matching
/// [`run_checked`](crate::run_checked).
pub fn run_sweep(jobs: &[SweepJob], opts: &ExpOpts) -> Vec<RunResult> {
    // `--no-skip` applies to every point of every sweep. It changes the
    // cache key (the params hash covers `no_skip`), so naive-loop runs
    // never reuse — or pollute — skip-on cache entries, even though the
    // results are identical by the skip-equivalence contract.
    let params: Vec<SimParams> = jobs
        .iter()
        .map(|j| {
            let mut p = j.params.clone();
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
            p
        })
        .collect();
    let keys: Vec<String> = jobs
        .iter()
        .zip(&params)
        .map(|(j, p)| cache_key_for(j.system, &j.workload_key, p))
        .collect();

    // Dedup to first occurrences: `unique[slot]` is a job index, and every
    // job maps to the slot that computes (or fetched) its result.
    let mut key_to_slot: HashMap<&str, usize> = HashMap::new();
    let mut unique: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        key_to_slot.entry(key).or_insert_with(|| {
            unique.push(i);
            unique.len() - 1
        });
    }

    // Resolve what the cache layers already know.
    let store = ResultStore::new(&opts.cache_dir);
    let mut slot_results: Vec<Option<RunResult>> = Vec::with_capacity(unique.len());
    for &ji in &unique {
        let mut hit = None;
        if opts.use_cache {
            hit = opts.cache.get(&keys[ji]);
            if hit.is_none() && opts.persist_cache {
                hit = store.load(&keys[ji]);
                if let Some(ref r) = hit {
                    opts.cache.insert(keys[ji].clone(), r.clone());
                }
            }
        }
        slot_results.push(hit);
    }

    // Fan the misses out: across this process's workers, or — when a
    // fabric daemon is attached — across its workers.
    let misses: Vec<usize> = (0..unique.len())
        .filter(|&s| slot_results[s].is_none())
        .collect();
    let computed = match opts.serve_addr.as_deref() {
        Some(addr) => run_misses_served(jobs, &params, &keys, &unique, &misses, opts, addr),
        None => run_misses(jobs, &params, &keys, &unique, &misses, opts),
    };
    for (&slot, (result, resumed)) in misses.iter().zip(computed) {
        let key = &keys[unique[slot]];
        if opts.use_cache {
            opts.cache.insert(key.clone(), result.clone());
            // A checkpoint-restored run is byte-identical by contract,
            // but the persisted cache stays a record of straight-through
            // runs only — the conservative half of that contract. The
            // point simulates in full on the next cold invocation.
            if opts.persist_cache && !resumed {
                if let Err(e) = store.store(key, &result) {
                    eprintln!("{key}: result not stored in the disk cache: {e}");
                }
            }
        }
        slot_results[slot] = Some(result);
    }

    // `--trace-out`: re-run the first point of the first sweep with event
    // tracing on and write the Chrome trace_event JSON. Tracing does not
    // perturb results (the traced RunResult is discarded; the
    // skip-equivalence/determinism contracts make it identical anyway),
    // so this rides outside the cache entirely.
    if let Some(path) = opts.take_trace_out() {
        if let Some(job) = jobs.first() {
            let traced = SimParams {
                trace: true,
                ..params[0].clone()
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
    }

    // Reassemble in matrix order.
    keys.iter()
        .map(|key| {
            slot_results[key_to_slot[key.as_str()]]
                .clone()
                .expect("every slot resolved")
        })
        .collect()
}

/// Executes the missed sweep points and returns `(result, resumed)` per
/// miss, in miss order, recording throughput along the way.
///
/// Exact points are one work item each. Sampled points (those whose
/// params carry a sampling config) first *plan* in parallel — a
/// functional fast-forward that materializes one warm checkpoint per
/// detailed window — and then expand into one work item per window, so
/// the windows of **every** sampled point share one worker pool: a point
/// with many windows interleaves with everything else instead of
/// serializing behind a per-point barrier. Sampled points whose execution
/// mode cannot be fast-forwarded (work-stealing tasks) collapse back to a
/// single exact work item, tagged as a fallback.
fn run_misses(
    jobs: &[SweepJob],
    params: &[SimParams],
    keys: &[String],
    unique: &[usize],
    misses: &[usize],
    opts: &ExpOpts,
) -> Vec<(RunResult, bool)> {
    // Phase 1: plan the sampled points (parallel over points; exact
    // points plan nothing). Planning is the functional fast-forward —
    // cheap next to the detailed windows, but worth fanning out.
    let plans: Vec<Option<(SamplePlan, f64)>> = run_parallel(misses, opts.jobs, |&slot| {
        let ji = unique[slot];
        params[ji].sampling?;
        let start = Instant::now();
        let plan =
            plan_sampled(jobs[ji].system, &jobs[ji].workload, &params[ji]).unwrap_or_else(|e| {
                panic!(
                    "{} on {}: {e}",
                    jobs[ji].workload_key,
                    jobs[ji].system.label()
                )
            });
        Some((plan, start.elapsed().as_secs_f64()))
    });

    // Phase 2: one flat work list across all misses — `(miss index,
    // window index)` for sampled windows, `(miss index, None)` for exact
    // points and exact fallbacks.
    let mut items: Vec<(usize, Option<usize>)> = Vec::new();
    for (mi, plan) in plans.iter().enumerate() {
        match plan {
            Some((p, _)) if !p.exact_fallback => {
                items.extend((0..p.windows.len()).map(|wi| (mi, Some(wi))));
            }
            _ => items.push((mi, None)),
        }
    }

    enum ItemOut {
        Point(RunResult, SkipStats, bool, f64),
        Window(WindowMeasurement, f64),
    }
    let store = ResultStore::new(&opts.cache_dir);
    let outs = run_parallel(&items, opts.jobs, |&(mi, wi)| {
        let ji = unique[misses[mi]];
        let job = &jobs[ji];
        let start = Instant::now();
        match wi {
            Some(wi) => {
                let (plan, _) = plans[mi].as_ref().expect("window item has a plan");
                let m =
                    run_sample_window(job.system, &job.workload, &params[ji], &plan.windows[wi])
                        .unwrap_or_else(|e| {
                            panic!(
                                "{} on {} (window {wi}): {e}",
                                job.workload_key,
                                job.system.label()
                            )
                        });
                ItemOut::Window(m, start.elapsed().as_secs_f64())
            }
            // A sampled point that cannot fast-forward: `combine_sampled`
            // runs the exact simulator and tags the result as a fallback.
            None => match &plans[mi] {
                Some((plan, _)) => {
                    let (r, s) = combine_sampled(job.system, &job.workload, &params[ji], plan, &[])
                        .unwrap_or_else(|e| {
                            panic!("{} on {}: {e}", job.workload_key, job.system.label())
                        });
                    ItemOut::Point(r, s, false, start.elapsed().as_secs_f64())
                }
                // An exact point: checkpointed when the cadence is armed,
                // resumed from a leftover checkpoint under `--resume`.
                None => match run_exact_point(
                    job.system,
                    &job.workload,
                    &params[ji],
                    &keys[ji],
                    &store,
                    opts.resume,
                    &mut |_| false,
                ) {
                    Ok(PointRun::Finished(out)) => {
                        let skip = SkipStats {
                            edges_run: out.edges_run,
                            edges_skipped: out.edges_skipped,
                            windows: 0,
                        };
                        let secs = start.elapsed().as_secs_f64();
                        ItemOut::Point(out.result, skip, out.resumed, secs)
                    }
                    Ok(PointRun::Yielded { .. }) => unreachable!("nothing orders a yield"),
                    Err(e) => panic!("{} on {}: {e}", job.workload_key, job.system.label()),
                },
            },
        }
    });

    // Phase 3: regroup window measurements per point (items were emitted
    // in window order and `run_parallel` preserves item order) and
    // combine each sampled point's estimate.
    let mut measurements: Vec<Vec<WindowMeasurement>> =
        (0..misses.len()).map(|_| Vec::new()).collect();
    let mut window_secs = vec![0.0f64; misses.len()];
    let mut finished: Vec<Option<(RunResult, bool)>> = (0..misses.len()).map(|_| None).collect();
    for (&(mi, _), out) in items.iter().zip(outs) {
        match out {
            ItemOut::Point(r, s, resumed, secs) => {
                opts.throughput.record(s, secs);
                finished[mi] = Some((r, resumed));
            }
            ItemOut::Window(m, secs) => {
                window_secs[mi] += secs;
                measurements[mi].push(m);
            }
        }
    }
    for (mi, plan) in plans.iter().enumerate() {
        let Some((plan, plan_secs)) = plan else {
            continue;
        };
        let ji = unique[misses[mi]];
        if plan.exact_fallback {
            // Already finished above as a single exact item; say so.
            eprintln!(
                "{}: sampled mode fell back to exact simulation \
                 (work-stealing task execution cannot be fast-forwarded)",
                keys[ji]
            );
            continue;
        }
        let job = &jobs[ji];
        let (result, skip) = combine_sampled(
            job.system,
            &job.workload,
            &params[ji],
            plan,
            &measurements[mi],
        )
        .unwrap_or_else(|e| panic!("{} on {}: {e}", job.workload_key, job.system.label()));
        opts.throughput.record(skip, plan_secs + window_secs[mi]);
        report_sampling(&keys[ji], result.sampling.as_ref());
        finished[mi] = Some((result, false));
    }
    finished
        .into_iter()
        .map(|r| r.expect("every miss resolved"))
        .collect()
}

/// The wire spec for a job, if one can be stated: either the job carries
/// one explicitly ([`SweepJob::with_spec`]), or it is a standard suite
/// job — its key is `"{name}@{scale_name}"` for the preset scale the
/// sweep runs at, and the name is in the [`bvl_workloads::by_name`]
/// registry (which rebuilds the byte-identical instance).
fn derive_spec(job: &SweepJob, opts: &ExpOpts) -> Option<WorkloadSpec> {
    if let Some(spec) = &job.spec {
        return Some(spec.clone());
    }
    let standard_key = format!("{}@{}", job.workload.name, opts.scale_name);
    if job.workload_key == standard_key
        && bvl_workloads::Scale::by_name(&opts.scale_name) == Some(opts.scale)
        && bvl_workloads::by_name(job.workload.name, opts.scale).is_some()
    {
        Some(WorkloadSpec::Named {
            name: job.workload.name.to_string(),
            scale: opts.scale,
        })
    } else {
        None
    }
}

/// The `--serve` twin of [`run_misses`]: sends every spec-able miss to
/// the fabric daemon at `addr` (one pipelined batch; the daemon fans out
/// across its workers and dedupes against its own memo/store) and
/// runs the rest — custom-built workloads with no wire spec — through
/// the in-process pool. Results come back `(result, resumed)` per miss
/// in miss order, exactly like `run_misses`, so the caller cannot tell
/// the difference; the byte-identity of served artifacts rests on that.
fn run_misses_served(
    jobs: &[SweepJob],
    params: &[SimParams],
    keys: &[String],
    unique: &[usize],
    misses: &[usize],
    opts: &ExpOpts,
    addr: &str,
) -> Vec<(RunResult, bool)> {
    let mut served: Vec<(usize, PointSpec)> = Vec::new();
    let mut local: Vec<usize> = Vec::new();
    for (mi, &slot) in misses.iter().enumerate() {
        let ji = unique[slot];
        match derive_spec(&jobs[ji], opts) {
            Some(workload) => served.push((
                mi,
                PointSpec {
                    system: jobs[ji].system,
                    workload_key: jobs[ji].workload_key.clone(),
                    workload,
                    params: params[ji].clone(),
                },
            )),
            None => local.push(slot),
        }
    }
    if !local.is_empty() {
        eprintln!(
            "--serve: {} point(s) have no wire spec and run in-process",
            local.len()
        );
    }
    let local_results = run_misses(jobs, params, keys, unique, &local, opts);

    let specs: Vec<PointSpec> = served.iter().map(|(_, s)| s.clone()).collect();
    let fabric_results = if specs.is_empty() {
        Vec::new()
    } else {
        let mut client = Client::connect(addr)
            .unwrap_or_else(|e| panic!("--serve: connect to fabric at {addr}: {e}"));
        client.set_priority(opts.priority);
        client
            .run_points(&specs)
            .unwrap_or_else(|e| panic!("--serve: {e}"))
    };

    let mut out: Vec<Option<(RunResult, bool)>> = (0..misses.len()).map(|_| None).collect();
    for (&slot, r) in local.iter().zip(local_results) {
        let mi = misses.iter().position(|&s| s == slot).expect("local slot");
        out[mi] = Some(r);
    }
    for ((mi, _), r) in served.into_iter().zip(fabric_results) {
        if !r.cache_hit {
            // Each fabric execution reports to exactly one submission
            // (coalesced twins come back as cache hits), so client-side
            // throughput counts each simulation once — same as local.
            opts.throughput.record(
                SkipStats {
                    edges_run: r.edges_run,
                    edges_skipped: r.edges_skipped,
                    windows: 0,
                },
                r.host_secs,
            );
            report_sampling(&keys[unique[misses[mi]]], r.result.sampling.as_ref());
        }
        out[mi] = Some((r.result, r.resumed));
    }
    out.into_iter()
        .map(|r| r.expect("every miss resolved"))
        .collect()
}

/// The "no silent caps" half of sampled mode: whenever a point's estimate
/// stands on fewer or shorter windows than planned, the run summary says
/// exactly how many were dropped or truncated — a short program (or final
/// stratum) quietly shrinking the sample would otherwise read as full
/// coverage. The line is built from the estimate's own metadata, so a
/// point prints the same line whether it ran here or on the fabric.
fn report_sampling(key: &str, meta: Option<&SamplingMeta>) {
    let Some(meta) = meta else { return };
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
    use bvl_core::types::CoreStats;
    use bvl_mem::MemStats;
    use bvl_obs::StatsSnapshot;
    use bvl_runtime::RuntimeStats;
    use bvl_serve::store::{run_result_from_value, run_result_to_value};
    use serde_json::Value;

    fn sample_result() -> RunResult {
        RunResult {
            wall_ns: 1234.5,
            uncore_cycles: 42,
            big: Some(CoreStats {
                cycles: 10,
                retired: 9,
                fetch_groups: 3,
                breakdown: [1, 2, 3, 4, 0, 0, 0],
                branches: 2,
                mispredicts: 1,
            }),
            littles: vec![CoreStats::default(); 2],
            lanes: vec![],
            fetch_groups: 7,
            mem: MemStats {
                ifetch_reqs: 1,
                data_reqs: 2,
                l2_reqs: 3,
                dve_reqs: 6,
                vmu_reqs: 7,
                coherence_msgs: 4,
                line_migrations: 5,
            },
            runtime: Some(RuntimeStats {
                tasks_run: 8,
                steals: 1,
                failed_steals: 0,
                overhead_cycles: 99,
            }),
            stats: StatsSnapshot::from_entries(vec![
                ("sys.clock.uncore".into(), 42),
                ("sys.big.l1d.misses".into(), 11),
            ]),
            sampling: None,
        }
    }

    #[test]
    fn run_result_round_trips_through_json() {
        let r = sample_result();
        let text = serde_json::to_string_pretty(&run_result_to_value(&r)).unwrap();
        let back = run_result_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn run_result_none_fields_round_trip() {
        let r = RunResult::default();
        let text = serde_json::to_string_pretty(&run_result_to_value(&r)).unwrap();
        let back = run_result_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

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
    fn run_result_sampling_meta_round_trips() {
        let mut r = sample_result();
        r.sampling = Some(SamplingMeta {
            period_instrs: 4096,
            window_instrs: 1024,
            total_instrs: 123_456,
            windows_measured: 30,
            windows_truncated: 1,
            ci_halfwidth_ns: 345.5,
            exact_fallback: false,
        });
        let text = serde_json::to_string_pretty(&run_result_to_value(&r)).unwrap();
        let back = run_result_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn legacy_cache_entry_without_sampling_is_a_miss() {
        // A cache file written before sampled simulation existed has no
        // `sampling` entry at all; it must decode as a miss (re-simulate),
        // not silently as an exact result.
        let mut v = run_result_to_value(&sample_result());
        if let Value::Map(entries) = &mut v {
            entries.retain(|(k, _)| k != "sampling");
        }
        assert!(run_result_from_value(&v).is_none());
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
