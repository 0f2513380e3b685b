//! The fabric acceptance contract: `run_all --serve` artifacts are
//! byte-identical to a serverless in-process run.
//!
//! The served side here is the real thing, not a mock: an embedded
//! daemon with **two spawned worker processes** (the `run_all` binary
//! re-executed through its worker sentinel, exactly as `--serve` does),
//! every spec-able point travelling over the wire protocol, workloads
//! rebuilt from wire specs on the worker side. If workload rebuilding,
//! the protocol codec, the result store codec, or the scheduler's
//! dedupe/ordering ever diverged from the in-process path, the byte
//! comparison at the end would catch it.

use bvl_experiments::{ExpOpts, ARTIFACTS, SERVE_WORKER_SENTINEL};
use bvl_serve::{Daemon, DaemonConfig, FaultPlan, WorkerCmd};
use std::fs;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-serve-eq-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn served_fig04_is_byte_identical_to_the_serverless_run() {
    assert_served_fig04_equals_serverless("exact", false);
}

/// Under `--sampled` the in-process sweep spreads each point's windows
/// over its worker pool, while a fabric worker measures them one after
/// another: the estimates must not depend on that.
#[test]
fn served_sampled_fig04_is_byte_identical_to_the_serverless_run() {
    assert_served_fig04_equals_serverless("sampled", true);
}

fn assert_served_fig04_equals_serverless(tag: &str, sampled: bool) {
    let (name, run) = &ARTIFACTS[0]; // fig04: both suites on all systems
    let serverless_dir = scratch(&format!("{tag}-serverless"));
    let served_dir = scratch(&format!("{tag}-served"));

    // Reference: the plain in-process run, on two workers.
    {
        let mut opts = ExpOpts::for_scale("tiny", serverless_dir.clone()).with_jobs(2);
        opts.sampled = sampled;
        run(&opts);
    }

    // Served: an embedded daemon with two worker *processes*, exactly
    // the topology `run_all --serve --jobs 2` builds.
    let stats = {
        let mut opts = ExpOpts::for_scale("tiny", served_dir.clone());
        opts.sampled = sampled;
        let daemon = Daemon::start(DaemonConfig {
            threads: 0,
            procs: 2,
            worker_cmd: Some(WorkerCmd {
                program: PathBuf::from(env!("CARGO_BIN_EXE_run_all")),
                args: vec![SERVE_WORKER_SENTINEL.to_string()],
            }),
            store_dir: opts.cache_dir.clone(),
            persist: false,
            checkpoint_every: 4096,
            fault_plan: FaultPlan::default(),
            ..DaemonConfig::default()
        })
        .expect("start fabric daemon");
        opts.serve = true;
        opts.serve_addr = Some(daemon.addr().to_string());
        run(&opts);
        let stats = daemon.stats();
        daemon.shutdown();
        stats
    };

    // The artifact really went through the fabric...
    assert!(
        stats.executed > 0,
        "no point executed on the fabric — the sweep never used the daemon: {stats:?}"
    );
    assert_eq!(stats.failed, 0, "{stats:?}");

    // ...and is byte-identical to the serverless artifact.
    let file = format!("{name}.tiny.json");
    let serverless = fs::read(serverless_dir.join(&file))
        .unwrap_or_else(|e| panic!("serverless artifact {file}: {e}"));
    let served =
        fs::read(served_dir.join(&file)).unwrap_or_else(|e| panic!("served artifact {file}: {e}"));
    assert_eq!(
        serverless, served,
        "{tag} {file} differs between the served and the serverless run"
    );

    fs::remove_dir_all(&serverless_dir).expect("cleanup");
    fs::remove_dir_all(&served_dir).expect("cleanup");
}
