//! Regenerates every figure, table and ablation with one command,
//! printing a per-artifact timing/throughput summary at the end and
//! persisting it as JSON next to the results, one file per mode:
//! `run_all_timing.<scale>.exact.json` or
//! `run_all_timing.<scale>.sampled.json`.
//!
//! All artifacts run in-process through one shared
//! [`bvl_experiments::sweep::SweepCache`], so simulation points common to
//! several figures (fig04/05/06 share the `1L`/`1bIV-4L`/`1bDV`/`1b-4VL`
//! default-parameter runs) simulate exactly once.
//!
//! ```sh
//! cargo run --release -p bvl-experiments --bin run_all -- --scale tiny --jobs 8
//! ```
//!
//! An interrupted invocation is resumable: `--persist-cache
//! --checkpoint-every N` makes every point write its result (and, while
//! in flight, a periodic whole-system checkpoint) under `<out>/cache/`;
//! re-running with `--resume` replays completed points from disk with 0
//! simulate calls and restarts interrupted points from their last
//! checkpoint instead of cycle 0. The same command recovers a `--serve`
//! run whose embedded daemon died with it: `--serve --resume` resubmits
//! only the points the disk cache lacks, and the fabric's workers resume
//! each one from its leftover checkpoint.
//!
//! The summary reports, per artifact: host wall seconds, simulate calls
//! executed (cache hits excluded), simulated clock-domain cycles,
//! aggregate Mcycles/s, and the fraction of cycles the quiescence engine
//! batch-skipped (zero under `--no-skip`).
//!
//! Under `--sampled` every artifact runs in sampled mode (DESIGN.md
//! §4.12) and the summary grows a *speedup-vs-exact* column: each
//! artifact's host seconds compared against the exact summary of the
//! same scale. Without an exact summary on disk the column is empty
//! (`-` / JSON `null`), never fabricated.

use bvl_experiments::sweep::Throughput;
use bvl_experiments::{print_table, ExpOpts, ARTIFACTS, SERVE_WORKER_SENTINEL};
use bvl_serve::{Daemon, DaemonConfig, FaultPlan, WorkerCmd};
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
    memoized_points: usize,
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
            threads: 0,
            procs: opts.jobs,
            worker_cmd: Some(WorkerCmd {
                program: std::env::current_exe().expect("current_exe"),
                args: vec![SERVE_WORKER_SENTINEL.to_string()],
            }),
            store_dir: opts.cache_dir.clone(),
            persist: opts.persist_cache,
            checkpoint_every: if opts.checkpoint_every > 0 {
                opts.checkpoint_every
            } else {
                4096
            },
            fault_plan: FaultPlan::default(),
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
    let baseline = if opts.sampled {
        load_exact_baseline(&opts)
    } else {
        None
    };
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
    println!(
        "\n{} simulation points memoized across artifacts",
        opts.cache.len()
    );
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
        memoized_points: opts.cache.len(),
    };
    let path = summary_path(&opts, opts.sampled);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&summary).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());

    if let Some(daemon) = daemon {
        println!("\n{}", daemon.report().utilization_line());
        daemon.shutdown();
    }
}
