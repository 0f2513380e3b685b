//! The measured run. A reference phase sweeps the whole matrix exactly
//! and in sampled mode, as `--jobs 2` would; then a fixed number of
//! rounds, set by `--seconds` alone, each timing every point three ways:
//! a fabric request from one of two lanes, an exact sweep alone on one
//! thread, and a sampled sweep alone on the shared two-thread pool. Every
//! result is checked against the reference phase's.

use crate::matrix::{Matrix, WorkloadDef};
use crate::stats::{self, SplitMix};
use bvl_experiments::sweep::{run_sweep, SweepJob, Throughput};
use bvl_experiments::{ExpOpts, SERVE_WORKER_SENTINEL};
use bvl_serve::{Client, Daemon, DaemonConfig, WorkerCmd};
use bvl_sim::RunResult;
use bvl_workloads::Scale;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Sweep worker threads, fabric worker processes and measuring lanes
/// (each lane with its own fabric connection). A constant, so runs on
/// different hosts load the program alike; the record carries the host's
/// `nproc` beside it.
pub const JOBS: usize = 2;
/// Checkpoint cadence the fabric overlays on points, as `run_all --serve`.
pub const CHECKPOINT_EVERY: u64 = 4096;
/// Input sets the sampled error is measured over: the run's own and
/// more drawn from its seed. One graph input moves a point's error a
/// lot, so a single set would make `err_*` spread widely across seeds.
const ERR_INPUTS: usize = 4;
/// Timed set-ups per round (see [`run`]).
const SETUPS_PER_ROUND: usize = 4;
/// Points a round times under `--smoke`.
const SMOKE_POINTS: usize = 10;
/// The calibration loop's duration on the nominal host that timings are
/// scaled to (see [`run`]).
const NOMINAL_CAL_S: f64 = 1e-3;
/// How long the fabric's worker processes get to register.
const WORKER_REGISTER_TIMEOUT: Duration = Duration::from_secs(30);

/// What the run was asked to do.
pub struct RunArgs {
    pub def: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub smoke: bool,
}

/// One reported metric with the samples it summarizes.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            samples: vec![value],
        }
    }
}

/// Attempts, failures and failed correctness checks of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub mismatches: Vec<String>,
}

impl Tally {
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches);
    }

    /// Runs `f`, counting `points` attempts; a panic (how the sweep
    /// engine reports a failed point) counts them all as failed.
    pub fn attempt<T>(&mut self, points: usize, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += points as u64;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += points as u64;
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.mismatch(format!("{what} panicked: {msg}"));
                None
            }
        }
    }

    /// Records a check that `got` equals `want`.
    pub fn expect_eq(
        &mut self,
        what: impl FnOnce() -> String,
        got: &RunResult,
        want: Option<&RunResult>,
    ) {
        if want != Some(got) {
            self.mismatch(what());
        }
    }
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Runs `jobs` through the in-process sweep engine with a fresh memo and
/// no disk cache, as `--jobs N --no-cache [--sampled]` would.
pub fn sweep(
    m: &Matrix,
    jobs: &[SweepJob],
    threads: usize,
    sampled: bool,
    out: &Path,
) -> (Vec<RunResult>, Throughput) {
    let mut opts = ExpOpts::for_scale(m.preset, out.to_path_buf()).with_jobs(threads);
    opts.scale = m.scale;
    opts.scale_name = m.scale_name.clone();
    opts.sampled = sampled;
    let results = run_sweep(jobs, &opts);
    (results, opts.throughput.snapshot())
}

/// The whole matrix swept exactly and in sampled mode: the results every
/// timed sample is checked against.
pub struct Reference {
    pub exact: Vec<RunResult>,
    pub sampled: Vec<RunResult>,
    pub exact_wall_s: f64,
    pub exact_throughput: Throughput,
    /// Peak RSS right after the sampled sweep, which holds every point's
    /// planned checkpoints at once.
    pub peak_rss_mib: f64,
}

impl Reference {
    pub fn compute(m: &Matrix, jobs: &[SweepJob], out: &Path, tally: &mut Tally) -> Option<Self> {
        let n = jobs.len();
        let sampled = tally.attempt(n, "sampled sweep", || sweep(m, jobs, JOBS, true, out))?;
        let peak_rss_mib = stats::peak_rss_mib().unwrap_or(f64::NAN);
        let (exact, exact_wall_s) =
            timed(|| tally.attempt(n, "exact sweep", || sweep(m, jobs, JOBS, false, out)));
        let (exact, exact_throughput) = exact?;
        if exact_throughput.runs != n as u64 {
            tally.mismatch(format!(
                "exact sweep of {n} distinct points simulated {} times",
                exact_throughput.runs
            ));
        }
        Some(Reference {
            exact,
            sampled: sampled.0,
            exact_wall_s,
            exact_throughput,
            peak_rss_mib,
        })
    }

    /// Per-point relative error of the sampled estimate's wall time, in %.
    pub fn errors_pct(&self) -> Vec<f64> {
        self.exact
            .iter()
            .zip(&self.sampled)
            .map(|(e, s)| (s.wall_ns - e.wall_ns).abs() / e.wall_ns * 100.0)
            .collect()
    }
}

/// Per-point sampled errors, in %, over [`ERR_INPUTS`] input sets: the
/// reference's, then sets whose seeds are drawn from the run's seed, each
/// swept like the reference. The same seed gives the same values.
pub fn sampled_errors(args: &RunArgs, reference: &Reference, tally: &mut Tally) -> Vec<f64> {
    let mut errors = reference.errors_pct();
    let mut seeds = SplitMix::new(args.seed);
    for _ in 1..ERR_INPUTS {
        let m = args.def.build(seeds.next_u64(), args.smoke);
        if let Some(r) = Reference::compute(&m, &m.sweep_jobs(), &args.out, tally) {
            errors.extend(r.errors_pct());
        }
    }
    errors
}

/// At the default seed the exact results must reproduce the committed
/// artifact's value for every point, matched by row label.
pub fn check_committed(m: &Matrix, def: &WorkloadDef, exact: &[RunResult], tally: &mut Tally) {
    let Some((file, field)) = def.reference else {
        return;
    };
    if m.scale != Scale::default_eval() {
        return;
    }
    let path = Path::new("results").join(file);
    let rows = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => return tally.mismatch(format!("committed {}: {e}", path.display())),
    };
    let rows = rows.as_array().unwrap_or_default();
    for (p, r) in m.points.iter().zip(exact) {
        let committed = rows
            .iter()
            .find(|row| row.get("label").and_then(|l| l.as_str()) == Some(p.label.as_str()))
            .and_then(|row| row.get(field))
            .and_then(|v| v.as_f64());
        if committed != Some(r.wall_ns) {
            tally.mismatch(format!(
                "{}: exact {} ns, committed {} has {:?}",
                p.label,
                r.wall_ns,
                path.display(),
                committed
            ));
        }
    }
}

/// Starts a fabric daemon configured like `run_all --serve` over a fresh
/// store, and waits until its worker processes have registered.
pub fn start_fabric(store: &Path) -> Result<Daemon, String> {
    // A store left by an earlier round would turn fresh points into disk hits.
    let _ = std::fs::remove_dir_all(store);
    let program = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let daemon = Daemon::start(DaemonConfig {
        threads: 0,
        procs: JOBS,
        worker_cmd: Some(WorkerCmd {
            program,
            args: vec![SERVE_WORKER_SENTINEL.to_string()],
        }),
        store_dir: store.to_path_buf(),
        persist: true,
        checkpoint_every: CHECKPOINT_EVERY,
        max_queue: 4096,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("start fabric daemon: {e}"))?;
    let deadline = Instant::now() + WORKER_REGISTER_TIMEOUT;
    while daemon.report().total_workers < JOBS as u64 {
        if Instant::now() > deadline {
            daemon.shutdown();
            return Err("fabric worker processes did not register".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(daemon)
}

/// The points a round times, in the seeded order the lanes take them.
pub fn round_order(n: usize, seed: u64, smoke: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SplitMix::new(seed).shuffle(&mut order);
    if smoke {
        order.truncate(SMOKE_POINTS);
    }
    order
}

/// Deals `order` round-robin onto `JOBS` lanes and runs `f(points)` for
/// each on a thread of its own.
pub fn on_lanes<T: Send>(order: &[usize], f: impl Fn(&[usize]) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..JOBS)
            .map(|l| {
                let mine: Vec<usize> = order.iter().copied().skip(l).step_by(JOBS).collect();
                let f = &f;
                s.spawn(move || f(&mine))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lanes catch point panics"))
            .collect()
    })
}

/// One fabric round trip.
pub struct Request {
    pub point: usize,
    /// Seconds since the lane started.
    pub start_s: f64,
    pub ms: f64,
    /// Simulation seconds the worker reported.
    pub host_secs: f64,
}

/// A lane's fabric connection: closed loop, one request in flight. It
/// sends what a `--serve` sweep sends the daemon: points its own memo
/// does not hold, each once.
pub struct FabricLane {
    client: Client,
    /// When the lane connected; request start times count from here.
    pub t0: Instant,
    pub requests: Vec<Request>,
}

impl FabricLane {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        Ok(FabricLane {
            client: Client::connect(addr).map_err(|e| format!("fabric connect: {e}"))?,
            t0: Instant::now(),
            requests: Vec::new(),
        })
    }

    /// Requests point `i`, which the fabric has not seen, and records the
    /// round trip. The reply must be a fresh execution equal to the
    /// reference's exact result.
    pub fn request(&mut self, m: &Matrix, i: usize, exact: &[RunResult], tally: &mut Tally) {
        tally.attempted += 1;
        let spec = m.spec(i);
        let start = Instant::now();
        let reply = self.client.run_points(std::slice::from_ref(&spec));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let r = match reply {
            Ok(mut rs) if rs.len() == 1 => rs.remove(0),
            Ok(rs) => {
                tally.failed += 1;
                tally.mismatch(format!(
                    "served {}: {} replies to one request",
                    spec.key(),
                    rs.len()
                ));
                return;
            }
            Err(e) => {
                tally.failed += 1;
                tally.mismatch(format!("served {}: {e}", spec.key()));
                return;
            }
        };
        if r.cache_hit {
            tally.mismatch(format!(
                "served {}: a fresh point hit the cache",
                spec.key()
            ));
        }
        tally.expect_eq(
            || {
                format!(
                    "served {} differs from the exact sweep's result",
                    spec.key()
                )
            },
            &r.result,
            exact.get(i),
        );
        self.requests.push(Request {
            point: i,
            start_s: (start - self.t0).as_secs_f64(),
            ms,
            host_secs: r.host_secs,
        });
    }
}

/// Seconds per point and mode measured in one round (`NaN` where the
/// sample failed).
struct RoundTimes {
    exact: Vec<f64>,
    sampled: Vec<f64>,
    served: Vec<f64>,
}

/// Times point `i` as a one-point sweep on `threads` threads; its result
/// must equal `want[i]`. Returns the seconds, or `NaN` if it failed.
#[allow(clippy::too_many_arguments)]
fn time_point_sweep(
    m: &Matrix,
    jobs: &[SweepJob],
    i: usize,
    threads: usize,
    sampled: bool,
    want: &[RunResult],
    out: &Path,
    tally: &mut Tally,
) -> f64 {
    let job = std::slice::from_ref(&jobs[i]);
    let (r, s) = timed(|| tally.attempt(1, "point sweep", || sweep(m, job, threads, sampled, out)));
    let Some((rs, _)) = r else {
        return f64::NAN;
    };
    tally.expect_eq(
        || {
            let mode = if sampled { "sampled" } else { "exact" };
            format!("{}: {mode} sweep differs between runs", m.points[i].label)
        },
        &rs[0],
        want.get(i),
    );
    s
}

/// One fabric lane of a round: requests each of `mine` in turn, a
/// closed loop with one request in flight. Without a connection every
/// point counts as failed.
pub fn serve_lane(
    m: &Matrix,
    mine: &[usize],
    exact: &[RunResult],
    addr: SocketAddr,
) -> (Tally, Option<FabricLane>) {
    let mut tally = Tally::default();
    match FabricLane::connect(addr) {
        Ok(mut f) => {
            for &i in mine {
                f.request(m, i, exact, &mut tally);
            }
            (tally, Some(f))
        }
        Err(e) => {
            tally.attempted += mine.len() as u64;
            tally.failed += mine.len() as u64;
            tally.mismatch(e);
            (tally, None)
        }
    }
}

/// The untraced run: the reference phase, then the workload's fixed
/// number of rounds for `--seconds`, then the end-to-end metrics.
pub fn run(args: &RunArgs, tally: &mut Tally) -> Vec<Metric> {
    let m = args.def.build(args.seed, args.smoke);
    let jobs = m.sweep_jobs();
    let n = jobs.len();
    let (reference, reference_s) = timed(|| Reference::compute(&m, &jobs, &args.out, tally));
    let Some(reference) = reference else {
        return Vec::new();
    };
    check_committed(&m, args.def, &reference.exact, tally);
    let (errors, errors_s) = timed(|| sampled_errors(args, &reference, tally));
    eprintln!(
        "reference sweeps {reference_s:.3} s; sampled errors over {ERR_INPUTS} input sets \
         {:.3} s more",
        errors_s
    );

    let order = round_order(n, args.seed, args.smoke);
    let store = args.out.join(format!("serve-{}", args.def.name));
    let mut setup = Vec::new();
    let mut calibration = Vec::new();
    let mut rounds: Vec<RoundTimes> = Vec::new();
    for r in 0..args.def.rounds(args.seconds) {
        let round_start = Instant::now();
        // Set-up is what a fresh invocation pays before its first point:
        // building the inputs and bringing up the fabric. It takes a few
        // milliseconds, so a round sets up several times and keeps the
        // last.
        let mut fabric: Option<(Matrix, Daemon)> = None;
        for _ in 0..SETUPS_PER_ROUND {
            if let Some((_, d)) = fabric.take() {
                d.shutdown();
            }
            let ((m, daemon), setup_s) = timed(|| {
                let m = args.def.build(args.seed, args.smoke);
                (m, start_fabric(&store))
            });
            match daemon {
                Ok(d) => {
                    setup.push(setup_s);
                    fabric = Some((m, d));
                }
                Err(e) => {
                    tally.attempted += 1;
                    tally.failed += 1;
                    tally.mismatch(e);
                    break;
                }
            }
        }
        let Some((m, daemon)) = fabric else {
            break;
        };
        // Calibration runs before each of the round's three phases, while
        // nothing else does (the fabric's workers are still idle).
        calibration.extend(stats::calibrate(JOBS));
        let jobs = m.sweep_jobs();
        let nan = vec![f64::NAN; n];
        let mut round = RoundTimes {
            exact: nan.clone(),
            sampled: nan.clone(),
            served: nan,
        };
        // Fabric requests: two lanes, the closed loop of two clients.
        let addr = daemon.addr();
        let lanes = on_lanes(&order, |mine| serve_lane(&m, mine, &reference.exact, addr));
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&store);
        for (lane_tally, lane) in lanes {
            tally.merge(lane_tally);
            for q in lane.iter().flat_map(|f| &f.requests) {
                round.served[q.point] = q.ms / 1e3;
            }
        }
        // Sweeps, one point at a time with nothing else running: exact on
        // one thread, then sampled on the shared pool, so a point's
        // windows spread over its threads as in a user's sweep.
        for (threads, sampled) in [(1, false), (JOBS, true)] {
            calibration.extend(stats::calibrate(JOBS));
            let (times, want) = if sampled {
                (&mut round.sampled, &reference.sampled)
            } else {
                (&mut round.exact, &reference.exact)
            };
            for &i in &order {
                times[i] = time_point_sweep(&m, &jobs, i, threads, sampled, want, &args.out, tally);
            }
        }
        let total = |v: &[f64]| v.iter().filter(|t| !t.is_nan()).sum::<f64>();
        eprintln!(
            "round {r}: {:.3} s; exact {:.3} s, sampled {:.3} s, served {:.3} s over {} points",
            round_start.elapsed().as_secs_f64(),
            total(&round.exact),
            total(&round.sampled),
            total(&round.served),
            order.len()
        );
        rounds.push(round);
        if !tally.correct() {
            break;
        }
    }

    // Each point's fastest round, summed over the points a round times.
    // The host falls into slow phases lasting seconds; a point's fastest
    // of several rounds seconds apart filters them out. Its speed also
    // drifts over minutes, by 15% to 1.6x, for every process alike; the
    // sums are scaled by the calibration loop's median against its
    // nominal duration, so runs at different times compare.
    let cal_median = stats::median(&calibration);
    let scale = NOMINAL_CAL_S / cal_median;
    eprintln!(
        "calibration loop: median {:.4} ms over {} loops; timings scaled by {scale:.4}",
        cal_median * 1e3,
        calibration.len()
    );
    let fastest_sum = |f: fn(&RoundTimes) -> &Vec<f64>| -> (f64, Vec<f64>) {
        let per_point: Vec<f64> = order
            .iter()
            .map(|&i| rounds.iter().map(|r| f(r)[i]).fold(f64::NAN, f64::min))
            .collect();
        (per_point.iter().sum::<f64>() * scale, per_point)
    };
    let timing = |name, (value, samples): (f64, Vec<f64>)| Metric {
        name,
        unit: "s",
        value,
        samples,
    };
    let gt2 = errors.iter().filter(|&&e| e > 2.0).count() as f64;
    vec![
        timing("exact_s", fastest_sum(|r| &r.exact)),
        timing("sampled_s", fastest_sum(|r| &r.sampled)),
        timing("served_s", fastest_sum(|r| &r.served)),
        Metric {
            name: "err_mean_pct",
            unit: "%",
            value: errors.iter().sum::<f64>() / errors.len() as f64,
            samples: errors.clone(),
        },
        Metric::one("err_gt2_frac", "fraction", gt2 / errors.len() as f64),
        Metric {
            name: "setup_s",
            unit: "s",
            value: stats::median(&setup),
            samples: setup,
        },
        Metric::one("peak_rss_mb", "MiB", reference.peak_rss_mib),
    ]
}
