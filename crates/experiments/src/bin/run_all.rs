//! Regenerates every figure, table and ablation with one command, then
//! prints a per-artifact timing/throughput summary — host wall seconds,
//! simulate calls executed (cache hits excluded), simulated clock-domain
//! cycles, Mcycles/s and the % of cycles the quiescence engine skipped —
//! and writes it next to the results, one file per mode:
//! `run_all_timing.<scale>.exact.json` or `.sampled.json`. Under
//! `--sampled` it adds a *speedup-vs-exact* column against the exact
//! summary of the same scale, empty (`-` / JSON `null`) without one.
//!
//! ```sh
//! cargo run --release -p bvl-experiments --bin run_all -- --scale tiny --jobs 8
//! ```
//!
//! Every artifact submits its points to one scheduler core — the one all
//! clones of the options share, or under `--serve` the embedded daemon's —
//! so points common to several figures simulate once, and the run ends
//! with that core's utilization line. An interrupted run resumes with
//! `--resume` (after `--persist-cache --checkpoint-every N`; with
//! `--serve` too, when the embedded daemon died with it): finished points
//! replay from disk and interrupted ones restart from their checkpoint.

use bvl_experiments::sweep::Throughput;
use bvl_experiments::{print_table, ExpOpts, ARTIFACTS, SERVE_WORKER_SENTINEL};
use bvl_serve::{Client, Daemon, DaemonConfig, ProtoError, WorkerCmd};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// One artifact's timing/throughput record (JSON row).
#[derive(Serialize)]
struct ArtifactTiming {
    artifact: String,
    /// Wall-clock seconds for the whole artifact (including cache hits,
    /// table printing and JSON writes).
    host_secs: f64,
    /// Simulate calls actually executed for this artifact.
    sim_runs: u64,
    /// Simulated clock-domain cycles (run + skipped edges).
    sim_cycles: u64,
    /// Cycles batch-skipped by the quiescence engine.
    cycles_skipped: u64,
    /// `cycles_skipped` as a percentage of `sim_cycles`.
    skipped_pct: f64,
    /// Aggregate simulated Mcycles per wall second.
    mcycles_per_sec: f64,
    /// Seconds inside `simulate`, summed over worker threads.
    sim_thread_secs: f64,
    /// Host-time speedup over the prior exact run of the same scale
    /// (`exact host_secs / this host_secs`). Present only under
    /// `--sampled` with an exact baseline summary on disk.
    speedup_vs_exact: Option<f64>,
}

impl ArtifactTiming {
    fn of(name: &str, host_secs: f64, t: Throughput) -> Self {
        ArtifactTiming {
            artifact: name.to_string(),
            host_secs,
            sim_runs: t.runs,
            sim_cycles: t.sim_cycles(),
            cycles_skipped: t.edges_skipped,
            skipped_pct: t.skipped_pct(),
            mcycles_per_sec: t.mcycles_per_sec(host_secs),
            sim_thread_secs: t.sim_thread_secs,
            speedup_vs_exact: None,
        }
    }

    fn row(&self, show_speedup: bool) -> Vec<String> {
        let mut row = vec![
            self.artifact.clone(),
            format!("{:.2}", self.host_secs),
            self.sim_runs.to_string(),
            format!("{:.1}", self.sim_cycles as f64 / 1e6),
            format!("{:.1}", self.mcycles_per_sec),
            format!("{:.1}", self.skipped_pct),
        ];
        if show_speedup {
            row.push(match self.speedup_vs_exact {
                Some(s) => format!("{s:.2}x"),
                None => "-".to_string(),
            });
        }
        row
    }
}

/// The whole summary, persisted at [`summary_path`].
#[derive(Serialize)]
struct TimingSummary {
    scale: String,
    jobs: usize,
    no_skip: bool,
    /// True when this summary came from a `--sampled` invocation.
    sampled: bool,
    artifacts: Vec<ArtifactTiming>,
    total: ArtifactTiming,
    memoized_points: u64,
}

/// `<out>/run_all_timing.<scale>.<exact|sampled>.json`: one summary per
/// mode, so a sampled run's baseline is always an exact run.
fn summary_path(opts: &ExpOpts, sampled: bool) -> PathBuf {
    let mode = if sampled { "sampled" } else { "exact" };
    opts.out_dir
        .join(format!("run_all_timing.{}.{mode}.json", opts.scale_name))
}

/// The exact run's per-artifact (and `TOTAL`) host seconds, loaded from
/// its summary.
fn load_exact_baseline(opts: &ExpOpts) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(summary_path(opts, false)).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    let mut secs: Vec<(String, f64)> = v
        .get("artifacts")?
        .as_array()?
        .iter()
        .map(|a| {
            Some((
                a.get("artifact")?.as_str()?.to_string(),
                a.get("host_secs")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()?;
    secs.push((
        "TOTAL".to_string(),
        v.get("total")?.get("host_secs")?.as_f64()?,
    ));
    Some(secs)
}

fn main() {
    let mut opts = ExpOpts::from_args();
    // `--serve`: embed a fabric daemon with `--jobs` worker *processes*
    // (spawned by re-executing this binary with the worker sentinel) and
    // point every sweep at it. `--serve-addr` skips the embedding and
    // talks to an external daemon instead.
    let daemon = if opts.serve && opts.serve_addr.is_none() {
        let d = Daemon::start(DaemonConfig {
            procs: opts.jobs,
            worker_cmd: Some(WorkerCmd {
                program: std::env::current_exe().expect("current_exe"),
                args: vec![SERVE_WORKER_SENTINEL.to_string()],
            }),
            store_dir: opts.cache_dir.clone(),
            persist: opts.persist_cache,
            // The default cadence arms points without `--checkpoint-every`.
            max_queue: 4096,
            ..DaemonConfig::default()
        })
        .expect("start fabric daemon");
        eprintln!(
            "fabric daemon on {} with {} worker process(es)",
            d.addr(),
            opts.jobs
        );
        opts.serve_addr = Some(d.addr().to_string());
        Some(d)
    } else {
        None
    };
    let baseline = opts.sampled.then(|| load_exact_baseline(&opts)).flatten();
    let total_start = Instant::now();
    let mut artifacts = Vec::new();
    for (name, run) in ARTIFACTS {
        let before = opts.throughput.snapshot();
        let start = Instant::now();
        run(&opts);
        let secs = start.elapsed().as_secs_f64();
        artifacts.push(ArtifactTiming::of(
            name,
            secs,
            opts.throughput.snapshot().since(&before),
        ));
    }
    let mut total = ArtifactTiming::of(
        "TOTAL",
        total_start.elapsed().as_secs_f64(),
        opts.throughput.snapshot(),
    );

    if let Some(baseline) = &baseline {
        let exact_secs = |name: &str| {
            baseline
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, secs)| secs)
        };
        for a in artifacts.iter_mut().chain(std::iter::once(&mut total)) {
            a.speedup_vs_exact = exact_secs(&a.artifact).map(|exact| exact / a.host_secs.max(1e-9));
        }
    }

    println!(
        "\n## run_all timing summary (scale = {}, jobs = {}{}{})\n",
        opts.scale_name,
        opts.jobs,
        if opts.no_skip { ", no-skip" } else { "" },
        if opts.sampled { ", sampled" } else { "" }
    );
    let rows: Vec<Vec<String>> = artifacts
        .iter()
        .chain(std::iter::once(&total))
        .map(|a| a.row(opts.sampled))
        .collect();
    let mut headers = vec![
        "artifact",
        "seconds",
        "runs",
        "Mcycles",
        "Mcyc/s",
        "% skipped",
    ];
    if opts.sampled {
        headers.push("vs exact");
    }
    print_table(&headers, &rows);
    // The core every sweep submitted to: the daemon's under `--serve`,
    // embedded or not, and this process's otherwise.
    let report = match opts.serve_addr.as_deref() {
        Some(addr) => Client::connect(addr)
            .map_err(ProtoError::Io)
            .and_then(|mut daemon| daemon.stats())
            .unwrap_or_else(|e| panic!("--serve: stats from {addr}: {e}")),
        None => opts.sched.report(),
    };
    let memoized_points = report.stats.executed + report.stats.disk_hits;
    println!("\n{memoized_points} simulation points memoized across artifacts");
    if opts.sampled && baseline.is_none() {
        eprintln!(
            "no exact baseline summary found — run `run_all` without --sampled \
             first to populate the speedup-vs-exact column"
        );
    }

    let summary = TimingSummary {
        scale: opts.scale_name.clone(),
        jobs: opts.jobs,
        no_skip: opts.no_skip,
        sampled: opts.sampled,
        artifacts,
        total,
        memoized_points,
    };
    let path = summary_path(&opts, opts.sampled);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&summary).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());

    println!("\n{}", report.utilization_line());
    if let Some(daemon) = daemon {
        daemon.shutdown();
    }
}
