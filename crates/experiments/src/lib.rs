#![warn(missing_docs)]
//! # bvl-experiments — regenerating the paper's figures and tables
//!
//! One binary per evaluation artifact (DESIGN.md's per-experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig04_speedup` | Figure 4 — speedup over 1L, all systems |
//! | `fig05_ifetch` | Figure 5 — instruction-fetch requests, normalized to 1bDV |
//! | `fig06_dreq` | Figure 6 — data requests, normalized to 1bDV |
//! | `fig07_breakdown` | Figure 7 — 1b-4VL lane execution-time breakdown (1c / 1c+sw / 2c+sw) |
//! | `fig08_lsq_sweep` | Figure 8 — VMU load/store data-queue size sweep |
//! | `fig09_vf_heatmap` | Figure 9 — V/F-level performance heatmaps |
//! | `fig10_perf_power` | Figure 10 — 1b-4VL time/power scatter |
//! | `fig11_pareto` | Figure 11 — time/power Pareto frontiers, all designs |
//! | `tab45_workloads` | Tables IV & V — workload characterization |
//! | `tab06_area` | Table VI — area model |
//! | `tab07_power_levels` | Table VII — V/F levels |
//! | `abl_vxu_topology` | Ablation — VXU ring vs idealized crossbar |
//! | `abl_vmu_coalesce` | Ablation — VMIU index coalescing on/off |
//! | `difftest` | Differential fuzzing — random RVV programs vs the architectural oracle on all systems |
//!
//! Every binary accepts `--scale tiny|default|large` and `--out <dir>`
//! (default `results/`), prints the figure's rows as a markdown table, and
//! writes the raw numbers as JSON so EXPERIMENTS.md is regenerable.

pub mod figs;
pub mod sweep;

use bvl_sim::{RunResult, SystemKind};
use bvl_workloads::Scale;
use serde::Serialize;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The self-exec sentinel: `run_all --serve` spawns fabric worker
/// processes by re-executing its own binary with this as the first
/// argument. [`ExpOpts::from_args`] intercepts it before normal flag
/// parsing, so every experiment binary is also a capable fabric worker.
pub const SERVE_WORKER_SENTINEL: &str = "__bvl-serve-worker";

/// The flags of a self-exec fabric worker, after the sentinel.
const WORKER_USAGE: &str = "__bvl-serve-worker --connect HOST:PORT --token N --store DIR";

/// Runs the fabric worker loop named by `--connect ADDR --token N
/// --store DIR` (the arguments a daemon appends when spawning), then
/// exits the process. A bad flag exits 2, as on every command line.
fn run_serve_worker() -> ! {
    fn fail(flag: &str, reason: &str) -> ! {
        let (flag, reason) = (flag.into(), reason.into());
        exit_usage(&CliError { flag, reason }, WORKER_USAGE)
    }
    let [mut connect, mut token, mut store] = [None, None, None];
    let mut args = std::env::args().skip(2);
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--connect" => &mut connect,
            "--token" => &mut token,
            "--store" => &mut store,
            _ => fail(&flag, "unknown argument"),
        };
        *slot = Some(args.next().unwrap_or_else(|| fail(&flag, "needs a value")));
    }
    let token = token.map_or(0, |v: String| {
        let reason = format!("needs a non-negative integer, got `{v}`");
        v.parse().unwrap_or_else(|_| fail("--token", &reason))
    });
    let addr = connect.unwrap_or_else(|| fail("--connect", "is required"));
    let store = store.unwrap_or_else(|| fail("--store", "is required"));
    match bvl_serve::worker_main(&addr, token, &store) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("fabric worker: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints `error: <flag>: <reason>` and the program's `usage` line, then
/// exits with code 2.
fn exit_usage(e: &CliError, usage: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let program = argv0.rsplit(std::path::MAIN_SEPARATOR).next().unwrap_or("");
    eprintln!("error: {e}");
    eprintln!("usage: {program} {usage}");
    std::process::exit(2)
}

/// Every flag [`ExpOpts::from_args`] takes, printed after the program
/// name on a command-line error.
const USAGE: &str = "[--scale tiny|default|large] [--out DIR] [--jobs N] \
[--persist-cache] [--cache-dir DIR] [--no-skip] [--checkpoint-every N] [--resume] \
[--sampled] [--sample-period N] [--sample-window N] [--serve] [--serve-addr HOST:PORT] \
[--trace-out PATH]";

/// A command-line argument [`ExpOpts::parse_args`] rejects: the flag at
/// fault (or the unknown argument itself) and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError {
    /// The flag, or the unknown argument, as given.
    pub flag: String,
    /// What is wrong with it.
    pub reason: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.flag, self.reason)
    }
}

impl std::error::Error for CliError {}

/// Command-line options shared by all experiment binaries.
#[derive(Clone)]
pub struct ExpOpts {
    /// Input-size scale.
    pub scale: Scale,
    /// Scale name (for output labelling).
    pub scale_name: String,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
    /// Worker threads for [`sweep::run_sweep`]/[`sweep::run_parallel`]
    /// (`--jobs N`; default = available parallelism; 1 = serial).
    pub jobs: usize,
    /// Whether results are also stored, as their points complete, in (and
    /// reloaded from) [`ExpOpts::cache_dir`], one snap frame per point
    /// (`--persist-cache`).
    pub persist_cache: bool,
    /// On-disk cache location (default `<out>/cache`, `--cache-dir DIR`).
    pub cache_dir: PathBuf,
    /// Force the naive cycle-by-cycle simulation loop for every run
    /// (`--no-skip`): sets [`bvl_sim::SimParams::no_skip`] on each sweep
    /// point. Results are bit-identical either way; this exists for A/B
    /// timing and for auditing the quiescence-skip engine in the field.
    pub no_skip: bool,
    /// Emit a whole-system checkpoint every this-many uncore cycles on
    /// every sweep point (`--checkpoint-every N`; 0 disables). Checkpoints
    /// are persisted under `<cache_dir>/ckpt/` and deleted once their
    /// point completes, so after an interrupt only in-flight points have
    /// one on disk. Taking checkpoints never changes results (the
    /// restore-equivalence contract) and never changes cache keys.
    pub checkpoint_every: u64,
    /// Resume an interrupted invocation (`--resume`): completed points
    /// replay from the persisted cache (0 simulate calls), and points
    /// with a leftover checkpoint under `<cache_dir>/ckpt/` restart from
    /// it instead of cycle 0. Implies `persist_cache`.
    /// Under `--serve` this is also how a sweep recovers from a crashed
    /// daemon: fabric workers always resume from a leftover blob.
    pub resume: bool,
    /// Run every sweep point with *sampled* simulation (`--sampled`,
    /// DESIGN.md §4.12). Estimates carry [`bvl_sim::SamplingMeta`] and
    /// their own cache keys, so they never alias exact results; points
    /// that cannot be fast-forwarded fall back to exact simulation and
    /// say so in the run summary.
    pub sampled: bool,
    /// Override the sampling period in instructions
    /// (`--sample-period N`; implies `--sampled`). `None` uses
    /// [`bvl_sim::SamplingParams::default`].
    pub sample_period: Option<u64>,
    /// Override the detailed-window length in instructions
    /// (`--sample-window N`; implies `--sampled`). `None` uses
    /// [`bvl_sim::SamplingParams::default`].
    pub sample_window: Option<u64>,
    /// Route sweep execution through an embedded sweep-fabric daemon
    /// (`--serve`, `run_all` only): the daemon spawns `--jobs` worker
    /// *processes* and every servable sweep point goes over the wire
    /// instead of running in this process. Artifacts are byte-identical
    /// either way — that is the fabric's acceptance contract.
    pub serve: bool,
    /// Address of a running sweep-fabric daemon on this host
    /// (`--serve-addr HOST:PORT`, or filled in by `run_all --serve` once
    /// its embedded daemon is listening). `None` means all simulation is
    /// in-process.
    pub serve_addr: Option<String>,
    /// Where to write a Chrome `trace_event` JSON of one traced run
    /// (`--trace-out PATH`): the first sweep through this `ExpOpts`
    /// re-runs its first point with event tracing on and writes the log
    /// there (loadable in `chrome://tracing` / Perfetto). Consumed
    /// once — clones share the slot, so exactly one trace is written per
    /// process however many sweeps run.
    pub trace_out: Arc<Mutex<Option<PathBuf>>>,
    /// The scheduler core every sweep run through this `ExpOpts` submits
    /// to (clones share it): memo, coalescing, disk hits and stores.
    pub sched: sweep::SweepSched,
    /// Simulator-throughput counters (runs, simulated edges, skip rate,
    /// host seconds), accumulated by every sweep run through this
    /// `ExpOpts` — clones share the same counters.
    pub throughput: sweep::ThroughputTracker,
}

impl ExpOpts {
    /// Options for the named scale with everything else defaulted — the
    /// programmatic entry point used by tests, benches and `run_all`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown scale name (command lines are checked by
    /// [`ExpOpts::parse_args`] first).
    pub fn for_scale(scale_name: &str, out_dir: PathBuf) -> Self {
        let scale =
            Scale::by_name(scale_name).unwrap_or_else(|| panic!("unknown scale `{scale_name}`"));
        ExpOpts {
            scale,
            scale_name: scale_name.to_string(),
            cache_dir: out_dir.join("cache"),
            out_dir,
            jobs: sweep::default_jobs(),
            persist_cache: false,
            no_skip: false,
            checkpoint_every: 0,
            resume: false,
            sampled: false,
            sample_period: None,
            sample_window: None,
            serve: false,
            serve_addr: None,
            trace_out: Arc::new(Mutex::new(None)),
            sched: sweep::SweepSched::default(),
            throughput: sweep::ThroughputTracker::default(),
        }
    }

    /// The effective sampling configuration, `None` unless `--sampled`
    /// (or one of its parameter overrides) was given. This is what the
    /// sweep harness overlays onto every point's
    /// [`bvl_sim::SimParams::sampling`].
    pub fn sampling_params(&self) -> Option<bvl_sim::SamplingParams> {
        if !self.sampled {
            return None;
        }
        let mut sp = bvl_sim::SamplingParams::default();
        if let Some(p) = self.sample_period {
            sp.period_instrs = p;
        }
        if let Some(w) = self.sample_window {
            sp.window_instrs = w;
        }
        Some(sp)
    }

    /// Takes the pending `--trace-out` destination, if any (consuming it
    /// so only the first sweep of the process writes a trace).
    pub fn take_trace_out(&self) -> Option<PathBuf> {
        self.trace_out.lock().expect("trace_out lock").take()
    }

    /// Returns `self` with the worker count replaced (builder-style, for
    /// tests and benches).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Parses `--scale`, `--out`, `--jobs`, `--persist-cache`,
    /// `--cache-dir`, `--no-skip`, `--checkpoint-every`, `--resume`,
    /// `--sampled`, `--sample-period`, `--sample-window`, `--serve`,
    /// `--serve-addr` and `--trace-out` from `std::env::args` (see
    /// [`ExpOpts::parse_args`]).
    ///
    /// When the process was launched as a fabric worker (first argument
    /// `__bvl-serve-worker`, which is how `run_all --serve` re-executes
    /// itself), this never returns: it runs the worker loop against the
    /// daemon named on the command line and exits.
    ///
    /// On a bad argument it prints `error: <flag>: <reason>` and a usage
    /// line listing every flag to stderr, then exits with code 2. When a
    /// `--serve-addr` daemon does not answer a stats query, it prints
    /// `error: --serve-addr: <addr>: <reason>` and exits with code 1.
    pub fn from_args() -> Self {
        if std::env::args().nth(1).as_deref() == Some(SERVE_WORKER_SENTINEL) {
            run_serve_worker();
        }
        let opts =
            ExpOpts::parse_args(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage(&e, USAGE));
        // Ask the daemon for its stats before any work: an address with
        // nothing behind it, or a peer whose reply is not a fabric frame,
        // ends here in one line rather than in a panic in the first sweep.
        if let Some(addr) = &opts.serve_addr {
            let answer = bvl_serve::Client::connect(addr)
                .map_err(bvl_serve::ProtoError::Io)
                .and_then(|mut daemon| daemon.stats());
            if let Err(e) = answer {
                eprintln!("error: --serve-addr: {addr}: {e}");
                std::process::exit(1);
            }
        }
        opts
    }

    /// Parses the flags [`ExpOpts::from_args`] takes from `args` (without
    /// the program name).
    ///
    /// # Errors
    ///
    /// A [`CliError`] naming the flag on an unknown argument, a flag
    /// missing its value, a value that does not parse, or an unknown
    /// `--scale`.
    pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        fn error(flag: &str, reason: String) -> CliError {
            let flag = flag.into();
            CliError { flag, reason }
        }
        fn number<T: std::str::FromStr>(flag: &str, v: String, what: &str) -> Result<T, CliError> {
            v.parse()
                .map_err(|_| error(flag, format!("needs {what}, got `{v}`")))
        }
        let mut opts = ExpOpts::for_scale("default", PathBuf::from("results"));
        let mut cache_dir = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            let mut value = || {
                args.next()
                    .ok_or_else(|| error(flag, "needs a value".into()))
            };
            let count = "an instruction count";
            match flag {
                "--scale" => {
                    let name = value()?;
                    let reason = format!("unknown scale `{name}` (use tiny, default or large)");
                    opts.scale = Scale::by_name(&name).ok_or_else(|| error(flag, reason))?;
                    opts.scale_name = name;
                }
                "--out" => opts.out_dir = PathBuf::from(value()?),
                "--jobs" => {
                    opts.jobs = number::<usize>(flag, value()?, "a positive integer")?.max(1)
                }
                "--persist-cache" => opts.persist_cache = true,
                "--no-skip" => opts.no_skip = true,
                "--checkpoint-every" => {
                    opts.checkpoint_every = number(flag, value()?, "an uncore-cycle count")?;
                }
                "--resume" => opts.resume = true,
                "--sampled" => opts.sampled = true,
                "--sample-period" => opts.sample_period = Some(number(flag, value()?, count)?),
                "--sample-window" => opts.sample_window = Some(number(flag, value()?, count)?),
                "--serve" => opts.serve = true,
                "--serve-addr" => opts.serve_addr = Some(value()?),
                "--cache-dir" => cache_dir = Some(PathBuf::from(value()?)),
                "--trace-out" => opts.trace_out = Arc::new(Mutex::new(Some(value()?.into()))),
                other => return Err(error(other, "unknown argument".into())),
            }
        }
        // An explicit period or window means sampling is wanted even
        // without a bare `--sampled`, and an address means serving.
        opts.sampled |= opts.sample_period.is_some() || opts.sample_window.is_some();
        opts.serve |= opts.serve_addr.is_some();
        // Resuming is meaningless without the persisted cache.
        opts.persist_cache |= opts.resume;
        opts.cache_dir = cache_dir.unwrap_or_else(|| opts.out_dir.join("cache"));
        Ok(opts)
    }

    /// Writes `value` as pretty JSON to `<out>/<name>.<scale>.json`.
    ///
    /// The scale is part of the filename so `--scale tiny` runs do not
    /// clobber default-scale results.
    pub fn save_json<T: Serialize>(&self, name: &str, value: &T) {
        fs::create_dir_all(&self.out_dir).expect("create output dir");
        let path = self
            .out_dir
            .join(format!("{name}.{}.json", self.scale_name));
        fs::write(
            &path,
            serde_json::to_string_pretty(value).expect("serialize"),
        )
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

/// A named experiment entry point, as listed in [`ARTIFACTS`].
pub type Artifact = (&'static str, fn(&ExpOpts));

/// Every evaluation artifact, in EXPERIMENTS.md order — the worklist the
/// `run_all` binary iterates over. Public so the resume integration test
/// can drive prefixes of the same list an interrupted invocation ran.
pub const ARTIFACTS: [Artifact; 15] = [
    ("fig04_speedup", figs::fig04_speedup::run),
    ("fig05_ifetch", figs::fig05_ifetch::run),
    ("fig06_dreq", figs::fig06_dreq::run),
    ("fig07_breakdown", figs::fig07_breakdown::run),
    ("fig08_lsq_sweep", figs::fig08_lsq_sweep::run),
    ("fig09_vf_heatmap", figs::fig09_vf_heatmap::run),
    ("fig10_perf_power", figs::fig10_perf_power::run),
    ("fig11_pareto", figs::fig11_pareto::run),
    ("tab45_workloads", figs::tab45_workloads::run),
    ("tab06_area", figs::tab06_area::run),
    ("tab07_power_levels", figs::tab07_power_levels::run),
    ("abl_vxu_topology", figs::abl_vxu_topology::run),
    ("abl_vmu_coalesce", figs::abl_vmu_coalesce::run),
    ("abl_mode_switch", figs::abl_mode_switch::run),
    ("abl_scaling", figs::abl_scaling::run),
];

/// Prints a markdown table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats a ratio to two decimals.
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One (workload, system) measurement for JSON output.
#[derive(Clone, Debug, Serialize)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// System label.
    pub system: String,
    /// Wall time, ns.
    pub wall_ns: f64,
    /// Fetch groups (L1I reads).
    pub fetch_groups: u64,
    /// Data requests into the L1 level.
    pub data_reqs: u64,
}

impl Measurement {
    /// Captures the interesting fields of a run, reading from the unified
    /// stats snapshot (`sys.fetch_groups`, `sys.mem.data_reqs`).
    pub fn of(workload: &str, system: SystemKind, r: &RunResult) -> Self {
        Measurement {
            workload: workload.to_string(),
            system: system.label().to_string(),
            wall_ns: r.wall_ns,
            fetch_groups: r.stat("sys.fetch_groups"),
            data_reqs: r.stat("sys.mem.data_reqs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpOpts, CliError> {
        ExpOpts::parse_args(args.iter().map(|a| a.to_string()))
    }

    fn rejects(args: &[&str], flag: &str, reason: &str) {
        let err = parse(args)
            .err()
            .unwrap_or_else(|| panic!("{args:?} parsed"));
        assert_eq!(err.flag, flag, "{args:?}");
        assert!(
            err.reason.contains(reason),
            "{args:?}: `{}` lacks `{reason}`",
            err.reason
        );
    }

    #[test]
    fn parse_args_reads_every_flag() {
        let o = parse(&[
            "--scale",
            "tiny",
            "--out",
            "o",
            "--jobs",
            "0",
            "--no-skip",
            "--checkpoint-every",
            "200",
            "--sample-period",
            "4096",
            "--sample-window",
            "512",
            "--serve-addr",
            "127.0.0.1:9",
            "--cache-dir",
            "c",
            "--trace-out",
            "t.json",
            "--resume",
        ])
        .expect("valid arguments");
        assert_eq!(o.scale_name, "tiny");
        assert_eq!(o.scale, Scale::tiny());
        assert_eq!(o.out_dir, PathBuf::from("o"));
        assert_eq!(o.jobs, 1, "--jobs 0 runs serially");
        assert!(o.no_skip && o.resume && o.sampled && o.serve);
        // --resume turns the persisted cache layer on.
        assert!(o.persist_cache);
        assert_eq!(o.checkpoint_every, 200);
        assert_eq!((o.sample_period, o.sample_window), (Some(4096), Some(512)));
        assert_eq!(o.serve_addr.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(o.cache_dir, PathBuf::from("c"));
        assert_eq!(o.take_trace_out(), Some(PathBuf::from("t.json")));

        let o = parse(&[]).expect("no arguments");
        assert_eq!(o.scale_name, "default");
        assert_eq!(o.out_dir, PathBuf::from("results"));
        assert_eq!(o.cache_dir, PathBuf::from("results/cache"));
        assert!(!o.sampled && !o.serve && !o.persist_cache);
    }

    #[test]
    fn parse_args_names_the_flag_at_fault() {
        rejects(&["--bogus"], "--bogus", "unknown argument");
        rejects(&["--no-cache"], "--no-cache", "unknown argument");
        rejects(&["--priority", "low"], "--priority", "unknown argument");
        rejects(&["--scale", "tiny", "extra"], "extra", "unknown argument");
        rejects(&["--scale", "huge"], "--scale", "unknown scale `huge`");
        for flag in [
            "--scale",
            "--out",
            "--jobs",
            "--checkpoint-every",
            "--sample-period",
            "--sample-window",
            "--serve-addr",
            "--cache-dir",
            "--trace-out",
        ] {
            rejects(&[flag], flag, "needs a value");
        }
        rejects(
            &["--jobs", "two"],
            "--jobs",
            "a positive integer, got `two`",
        );
        rejects(&["--jobs", "-1"], "--jobs", "a positive integer");
        rejects(
            &["--checkpoint-every", "1e3"],
            "--checkpoint-every",
            "cycle count",
        );
        rejects(
            &["--sample-period", "x"],
            "--sample-period",
            "instruction count",
        );
        rejects(
            &["--sample-window", ""],
            "--sample-window",
            "instruction count",
        );
        let e = parse(&["--jobs", "x"]).err().expect("rejected");
        assert_eq!(e.to_string(), "--jobs: needs a positive integer, got `x`");
    }

    #[test]
    fn geomean_of_identity() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn fmt2_rounds() {
        assert_eq!(fmt2(1.234), "1.23");
    }
}
