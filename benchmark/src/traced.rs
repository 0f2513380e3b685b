//! The traced run (`--trace 1`): one round of the workload's points
//! re-run through each layer's public entry point with a span around
//! every call. Spans stay in memory and are written when the run ends,
//! as a Chrome `trace_event` file (`<out>/trace.<workload>.json`,
//! loadable in Perfetto next to a `--trace-out` simulator trace), and as
//! a self-time table per layer on stderr.

use crate::matrix::Matrix;
use crate::measure::{
    check_committed, on_lanes, round_order, serve_lane, start_fabric, timed, Metric, Reference,
    RunArgs, Tally, CHECKPOINT_EVERY, JOBS,
};
use crate::stats::{median, quantile};
use bvl_experiments::sweep::run_parallel;
use bvl_isa::exec::{ArchSnapshot, Machine};
use bvl_serve::{run_one_point, PointRun, ResultStore};
use bvl_sim::{
    combine_sampled, plan_sampled, run_sample_window, simulate_with_stats, SamplingParams,
    SysState, SystemKind,
};
use bvl_workloads::Workload;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fresh points executed in-process through the fabric's point runner,
/// to price the fabric's per-point work against a plain `simulate`.
const RUNNER_POINTS: usize = 133;

/// One recorded span.
struct Span {
    id: usize,
    parent: Option<usize>,
    layer: &'static str,
    name: &'static str,
    /// The point the span worked on: its trace id.
    point: Option<usize>,
    tid: usize,
    start_s: f64,
    dur_s: f64,
}

/// In-memory span store. It times its own bookkeeping, so the run can
/// report what recording cost.
struct Recorder {
    t0: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    cost_ns: AtomicU64,
}

static NEXT_TID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    static TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            cost_ns: AtomicU64::new(0),
        }
    }

    /// Runs `f` inside a span and returns its value and duration in
    /// seconds; `f` receives the span's id to parent its children.
    fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        point: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let value = f(id);
        let end = Instant::now();
        let dur_s = (end - start).as_secs_f64();
        self.push(Span {
            id,
            parent,
            layer,
            name,
            point,
            tid: TID.with(|t| *t),
            start_s: (start - self.t0).as_secs_f64(),
            dur_s,
        });
        self.cost_ns
            .fetch_add(end.elapsed().as_nanos() as u64, Ordering::Relaxed);
        (value, dur_s)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store lock").push(span);
    }
}

/// What one point's trip through the layers measured.
#[derive(Default)]
struct PointLayers {
    sim_s: f64,
    edges: u64,
    skipped: u64,
    fallback: bool,
    fallback_s: f64,
    plan_s: f64,
    windows_ms: Vec<f64>,
    combine_s: f64,
    total_instrs: u64,
    window_instrs: u64,
    ci_covered: bool,
    ckpt_bytes: u64,
    encode_s: f64,
    decode_s: f64,
    isa_instrs: u64,
    isa_s: f64,
}

/// The functional core alone: `Machine::step_into` from `entry` to halt
/// (bounded by `limit` steps), returning the steps and final state.
fn step_loop(
    w: &Workload,
    entry: u32,
    vlen: u32,
    limit: u64,
) -> Result<(u64, ArchSnapshot), String> {
    let mut m = Machine::new(w.mem.fork(), vlen);
    m.set_pc(entry);
    let mut info = m.step(&w.program).map_err(|e| e.to_string())?;
    let mut n = 1;
    while !m.halted() && n <= limit {
        m.step_into(&w.program, &mut info)
            .map_err(|e| e.to_string())?;
        n += 1;
    }
    Ok((n, m.snapshot()))
}

/// Point `i` through the simulator, the sampling pipeline (its planned
/// checkpoints also through the snap codec) and the functional core.
/// Every result must equal the reference sweeps' result for the point.
fn trace_point(
    rec: &Recorder,
    m: &Matrix,
    i: usize,
    reference: &Reference,
) -> (PointLayers, Tally) {
    let p = &m.points[i];
    let (kind, w) = (p.system, &*p.workload);
    let mut out = PointLayers::default();
    let mut tally = Tally::default();
    tally.attempted += 1;
    let (res, _) = rec.span(
        "bench",
        "point",
        Some(i),
        None,
        |root| -> Result<(), String> {
            let at = Some(i);
            let parent = Some(root);
            let (r, sim_s) = rec.span("sim", "simulate_with_stats", at, parent, |_| {
                simulate_with_stats(kind, w, &p.params)
            });
            let (exact, skip) = r?;
            out.sim_s = sim_s;
            out.edges = skip.edges_run + skip.edges_skipped;
            out.skipped = skip.edges_skipped;
            tally.expect_eq(
                || format!("{}: traced exact run differs from the sweep's", p.label),
                &exact,
                reference.exact.get(i),
            );

            let mut ps = p.params.clone();
            ps.sampling = Some(SamplingParams::default());
            let (plan, plan_s) = rec.span("sampling", "plan_sampled", at, parent, |_| {
                plan_sampled(kind, w, &ps)
            });
            let plan = plan?;
            out.plan_s = plan_s;
            let estimate = if plan.exact_fallback {
                out.fallback = true;
                let (r, s) = rec.span(
                    "sampling",
                    "combine_sampled (exact fallback)",
                    at,
                    parent,
                    |_| combine_sampled(kind, w, &ps, &plan, &[]),
                );
                out.fallback_s = s;
                r?.0
            } else {
                let mut measured = Vec::with_capacity(plan.windows.len());
                for win in &plan.windows {
                    let (bytes, enc_s) = rec.span("snap", "SysState::to_bytes", at, parent, |_| {
                        win.state.to_bytes()
                    });
                    let (decoded, dec_s) =
                        rec.span("snap", "SysState::from_bytes", at, parent, |_| {
                            SysState::from_bytes(&bytes)
                        });
                    decoded.map_err(|e| format!("planned checkpoint does not decode: {e}"))?;
                    out.ckpt_bytes += bytes.len() as u64;
                    out.encode_s += enc_s;
                    out.decode_s += dec_s;
                    let (meas, s) = rec.span("sampling", "run_sample_window", at, parent, |_| {
                        run_sample_window(kind, w, &ps, win)
                    });
                    let meas = meas?;
                    out.windows_ms.push(s * 1e3);
                    out.window_instrs += meas.instrs;
                    measured.push(meas);
                }
                let (r, s) = rec.span("sampling", "combine_sampled", at, parent, |_| {
                    combine_sampled(kind, w, &ps, &plan, &measured)
                });
                out.combine_s = s;
                out.total_instrs = plan.total_instrs;
                let estimate = r?.0;
                let ci = estimate
                    .sampling
                    .as_ref()
                    .map_or(0.0, |s| s.ci_halfwidth_ns);
                out.ci_covered = (estimate.wall_ns - exact.wall_ns).abs() <= ci;

                // The fast-forward's entry, as the simulator picks its mode:
                // vector-capable systems run the vectorized variant.
                let final_arch = plan
                    .final_arch
                    .as_ref()
                    .ok_or("plan without a final state")?;
                let vector = matches!(kind, SystemKind::BIv | SystemKind::BDv | SystemKind::B4Vl)
                    && w.vector_entry.is_some();
                let entry = w.vector_entry.filter(|_| vector).unwrap_or(w.serial_entry);
                let (r, isa_s) = rec.span("isa", "Machine::step_into loop", at, parent, |_| {
                    step_loop(w, entry, final_arch.vlen_bits, plan.total_instrs)
                });
                let (instrs, arch) = r?;
                if instrs != plan.total_instrs || arch != *final_arch {
                    tally.mismatch(format!(
                        "{}: functional core ran {instrs} instructions to a different state than \
                     the fast-forward's {}",
                        p.label, plan.total_instrs
                    ));
                }
                out.isa_instrs = instrs;
                out.isa_s = isa_s;
                estimate
            };
            tally.expect_eq(
                || {
                    format!(
                        "{}: traced sampled estimate differs from the sweep's",
                        p.label
                    )
                },
                &estimate,
                reference.sampled.get(i),
            );
            Ok(())
        },
    );
    if let Err(e) = res {
        tally.failed += 1;
        tally.mismatch(format!("{}: {e}", p.label));
    }
    (out, tally)
}

/// The fabric's point runner in-process on the first points of `order`:
/// `(point, runner seconds, checkpoint callbacks)`.
fn trace_runner(
    rec: &Recorder,
    m: &Matrix,
    order: &[usize],
    reference: &Reference,
    store_dir: &std::path::Path,
    tally: &mut Tally,
) -> Vec<(usize, f64, u64)> {
    let _ = std::fs::remove_dir_all(store_dir);
    let store = ResultStore::new(store_dir);
    let points = &order[..order.len().min(RUNNER_POINTS)];
    let runs = run_parallel(points, JOBS, |&i| {
        let mut spec = m.spec(i);
        spec.params.checkpoint_every = CHECKPOINT_EVERY;
        let mut ckpts = 0u64;
        let (r, s) = rec.span("serve", "run_one_point", Some(i), None, |_| {
            run_one_point(&spec, &store, &mut |_| {
                ckpts += 1;
                false
            })
        });
        (i, r, s, ckpts)
    });
    let _ = std::fs::remove_dir_all(store_dir);
    let mut out = Vec::with_capacity(runs.len());
    for (i, r, s, ckpts) in runs {
        tally.attempted += 1;
        match r {
            Ok(PointRun::Finished(o)) => {
                tally.expect_eq(
                    || {
                        format!(
                            "{}: run_one_point differs from the exact sweep",
                            m.points[i].label
                        )
                    },
                    &o.result,
                    reference.exact.get(i),
                );
                out.push((i, s, ckpts));
            }
            Ok(PointRun::Yielded { cycle }) => {
                tally.failed += 1;
                tally.mismatch(format!(
                    "{}: runner yielded at cycle {cycle}",
                    m.points[i].label
                ));
            }
            Err(e) => {
                tally.failed += 1;
                tally.mismatch(format!("{}: run_one_point: {e}", m.points[i].label));
            }
        }
    }
    out
}

/// Per-layer self time: a span's duration minus its children's.
fn self_time_table(spans: &[Span]) -> String {
    let mut child_s: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_s.entry(p).or_default() += s.dur_s;
        }
    }
    let mut by_layer: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = by_layer.entry(s.layer).or_default();
        e.0 += 1;
        e.1 += s.dur_s;
        e.2 += s.dur_s - child_s.get(&s.id).copied().unwrap_or(0.0);
    }
    let mut t = format!(
        "{:<10} {:>8} {:>10} {:>10}\n",
        "layer", "spans", "total_s", "self_s"
    );
    for (layer, (n, total, own)) in by_layer {
        t += &format!("{layer:<10} {n:>8} {total:>10.3} {own:>10.3}\n");
    }
    t
}

/// Spans as a Chrome `trace_event` document.
fn chrome_trace(spans: &[Span], m: &Matrix) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            let label = s
                .point
                .map_or(Value::Null, |i| Value::Str(m.points[i].label.clone()));
            Value::Map(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str(s.layer.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::F64(s.start_s * 1e6)),
                ("dur".into(), Value::F64(s.dur_s * 1e6)),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(s.tid as u64)),
                (
                    "args".into(),
                    Value::Map(vec![
                        ("id".into(), Value::U64(s.id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("point".into(), label),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Map(vec![
        ("traceEvents".into(), Value::Seq(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
}

/// Simulator throughput per system kind over the traced `points`, for
/// the stderr report.
fn kind_table(m: &Matrix, points: &[usize], layers: &[PointLayers]) -> String {
    let mut t = format!(
        "{:<9} {:>6} {:>14} {:>12} {:>9}\n",
        "system", "points", "sim Mcycles/s", "skipped", "fallback"
    );
    for kind in SystemKind::ALL {
        let ls: Vec<&PointLayers> = points
            .iter()
            .filter(|&&i| m.points[i].system == kind)
            .map(|&i| &layers[i])
            .collect();
        if ls.is_empty() {
            continue;
        }
        let edges: u64 = ls.iter().map(|l| l.edges).sum();
        let skipped: u64 = ls.iter().map(|l| l.skipped).sum();
        let secs: f64 = ls.iter().map(|l| l.sim_s).sum();
        t += &format!(
            "{:<9} {:>6} {:>14.3} {:>12.3} {:>9}\n",
            kind.label(),
            ls.len(),
            edges as f64 / 1e6 / secs,
            skipped as f64 / edges as f64,
            ls.iter().filter(|l| l.fallback).count()
        );
    }
    t
}

/// The traced run; returns every per-layer metric.
pub fn run(args: &RunArgs, tally: &mut Tally) -> Vec<Metric> {
    let rec = Recorder::new();
    let m = args.def.build(args.seed, args.smoke);
    let jobs = m.sweep_jobs();

    // workloads: rebuilding each of the matrix's inputs by name, as a
    // fabric worker does for every point.
    let mut names: Vec<&'static str> = m.points.iter().map(|p| p.workload.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut build_s = 0.0;
    for name in names {
        let (w, s) = rec.span("workloads", "by_name", None, None, |_| {
            bvl_workloads::by_name(name, m.scale)
        });
        if w.is_none() {
            tally.mismatch(format!("by_name does not know `{name}`"));
        }
        build_s += s;
    }

    // sweep: the reference sweeps, untraced inside.
    let (reference, sweeps_s) = rec.span(
        "sweep",
        "run_sweep (sampled, then exact)",
        None,
        None,
        |_| Reference::compute(&m, &jobs, &args.out, tally),
    );
    let Some(reference) = reference else {
        return Vec::new();
    };
    check_committed(&m, args.def, &reference.exact, tally);

    let points: Vec<usize> = round_order(m.points.len(), args.seed, args.smoke);
    let (traced, trace_wall_s) =
        timed(|| run_parallel(&points, JOBS, |&i| trace_point(&rec, &m, i, &reference)));
    let mut layers: Vec<PointLayers> = (0..m.points.len())
        .map(|_| PointLayers::default())
        .collect();
    for (&i, (l, t)) in points.iter().zip(traced) {
        tally.merge(t);
        layers[i] = l;
    }
    let traced_layers: Vec<&PointLayers> = points.iter().map(|&i| &layers[i]).collect();

    let store = args.out.join(format!("trace-store-{}", args.def.name));
    let runner = trace_runner(&rec, &m, &points, &reference, &store, tally);
    let runner_s: f64 = runner.iter().map(|r| r.1).sum();
    let runner_sim_s: f64 = runner.iter().map(|r| layers[r.0].sim_s).sum();
    let runner_ckpts: u64 = runner.iter().map(|r| r.2).sum();

    // serve: the fabric round trips of one untraced round's lanes.
    let store = args.out.join(format!("serve-{}", args.def.name));
    let mut requests = Vec::new();
    let (mut served_wall_s, mut report) = (f64::NAN, None);
    match start_fabric(&store) {
        Ok(daemon) => {
            let addr = daemon.addr();
            let (lanes, wall) =
                timed(|| on_lanes(&points, |mine| serve_lane(&m, mine, &reference.exact, addr)));
            served_wall_s = wall;
            report = Some(daemon.report());
            daemon.shutdown();
            for (l, (t, lane)) in lanes.into_iter().enumerate() {
                tally.merge(t);
                let Some(f) = lane else { continue };
                let lane_start = (f.t0 - rec.t0).as_secs_f64();
                for r in &f.requests {
                    rec.push(Span {
                        id: rec.next_id.fetch_add(1, Ordering::Relaxed),
                        parent: None,
                        layer: "serve",
                        name: "fresh request",
                        point: Some(r.point),
                        tid: 1000 + l,
                        start_s: lane_start + r.start_s,
                        dur_s: r.ms / 1e3,
                    });
                }
                requests.extend(f.requests);
            }
        }
        Err(e) => tally.mismatch(e),
    }
    let _ = std::fs::remove_dir_all(&store);

    let record_ms = rec.cost_ns.load(Ordering::Relaxed) as f64 / 1e6;
    let spans = rec.spans.into_inner().expect("span store lock");
    let trace_path = args.out.join(format!("trace.{}.json", args.def.name));
    let written = serde_json::to_string(&chrome_trace(&spans, &m))
        .map_err(|e| e.to_string())
        .and_then(|t| std::fs::write(&trace_path, t).map_err(|e| e.to_string()));
    match written {
        Ok(()) => eprintln!("wrote {} ({} spans)", trace_path.display(), spans.len()),
        Err(e) => tally.mismatch(format!("write {}: {e}", trace_path.display())),
    }
    eprint!(
        "\n{}\n{}",
        self_time_table(&spans),
        kind_table(&m, &points, &layers)
    );
    let fallback: Vec<&&PointLayers> = traced_layers.iter().filter(|l| l.fallback).collect();
    eprintln!(
        "exact fallback: {} of {} points, {:.3} s; traced round {:.3} s next to {:.3} s of \
         untraced sweeps",
        fallback.len(),
        traced_layers.len(),
        fallback.iter().fold(0.0, |s, l| s + l.fallback_s),
        trace_wall_s,
        sweeps_s
    );

    let sum = |f: fn(&PointLayers) -> f64| traced_layers.iter().map(|l| f(l)).sum::<f64>();
    let sampled: Vec<&&PointLayers> = traced_layers.iter().filter(|l| !l.fallback).collect();
    let windows_ms: Vec<f64> = sampled
        .iter()
        .flat_map(|l| l.windows_ms.iter().copied())
        .collect();
    let ckpt_mb = sum(|l| l.ckpt_bytes as f64) / (1u64 << 20) as f64;
    let miss_ms: Vec<f64> = requests.iter().map(|r| r.ms).collect();
    let miss_wait_ms: Vec<f64> = requests.iter().map(|r| r.ms - r.host_secs * 1e3).collect();
    let host_secs: f64 = requests.iter().map(|r| r.host_secs).sum();
    let t = reference.exact_throughput;
    let errors = reference.errors_pct();
    if let Some(r) = report {
        if r.stats.executed != requests.len() as u64 {
            tally.mismatch(format!(
                "the fabric executed {} points for {} fresh requests",
                r.stats.executed,
                requests.len()
            ));
        }
    }
    let with = |name, unit, value, samples: Vec<f64>| Metric {
        name,
        unit,
        value,
        samples,
    };
    vec![
        Metric::one(
            "sweep.busy_frac",
            "fraction",
            t.sim_thread_secs / (reference.exact_wall_s * JOBS as f64),
        ),
        Metric::one(
            "sweep.mcycles_per_s",
            "Mcycles/s",
            t.mcycles_per_sec(reference.exact_wall_s),
        ),
        Metric::one(
            "sim.mcycles_per_s",
            "Mcycles/s",
            sum(|l| l.edges as f64) / 1e6 / sum(|l| l.sim_s),
        ),
        Metric::one(
            "sim.skipped_frac",
            "fraction",
            sum(|l| l.skipped as f64) / sum(|l| l.edges as f64),
        ),
        Metric::one("sampling.plan_s", "s", sum(|l| l.plan_s)),
        Metric::one("sampling.windows", "count", windows_ms.len() as f64),
        Metric::one(
            "sampling.windows_s",
            "s",
            windows_ms.iter().sum::<f64>() / 1e3,
        ),
        with(
            "sampling.window_ms_p50",
            "ms",
            median(&windows_ms),
            windows_ms.clone(),
        ),
        Metric::one("sampling.combine_s", "s", sum(|l| l.combine_s)),
        with(
            "sampling.err_max_pct",
            "%",
            errors.iter().copied().fold(f64::NAN, f64::max),
            errors.clone(),
        ),
        Metric::one("sampling.ckpt_mb", "MiB", ckpt_mb),
        Metric::one(
            "sampling.detailed_frac",
            "fraction",
            sampled.iter().map(|l| l.window_instrs as f64).sum::<f64>()
                / sampled.iter().map(|l| l.total_instrs as f64).sum::<f64>(),
        ),
        Metric::one(
            "sampling.ci_cover_frac",
            "fraction",
            sampled.iter().filter(|l| l.ci_covered).count() as f64 / sampled.len() as f64,
        ),
        Metric::one(
            "isa.minstr_per_s",
            "Minstr/s",
            sum(|l| l.isa_instrs as f64) / 1e6 / sum(|l| l.isa_s),
        ),
        Metric::one(
            "snap.encode_mb_per_s",
            "MiB/s",
            ckpt_mb / sum(|l| l.encode_s),
        ),
        Metric::one(
            "snap.decode_mb_per_s",
            "MiB/s",
            ckpt_mb / sum(|l| l.decode_s),
        ),
        Metric::one("workloads.build_ms", "ms", build_s * 1e3),
        with("serve.miss_ms_p50", "ms", median(&miss_ms), miss_ms.clone()),
        with("serve.miss_ms_p90", "ms", quantile(&miss_ms, 0.9), miss_ms),
        with(
            "serve.miss_wait_ms_p50",
            "ms",
            median(&miss_wait_ms),
            miss_wait_ms,
        ),
        Metric::one(
            "serve.worker_busy_frac",
            "fraction",
            host_secs / (served_wall_s * JOBS as f64),
        ),
        Metric::one(
            "serve.ckpt_per_point",
            "count",
            runner_ckpts as f64 / runner.len() as f64,
        ),
        Metric::one("serve.point_over_sim", "ratio", runner_s / runner_sim_s),
        Metric::one("trace.record_ms", "ms", record_ms),
        Metric::one("trace.wall_s", "s", trace_wall_s),
    ]
}
