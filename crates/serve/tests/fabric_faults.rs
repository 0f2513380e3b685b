//! Fault-injection suite for the sweep fabric.
//!
//! Every recovery path the daemon advertises is exercised with a
//! deterministic [`FaultPlan`] and asserted through [`FabricStats`] plus
//! result equality against a straight-through reference run:
//!
//! * a worker *process* SIGKILLed mid-point loses at most one checkpoint
//!   interval — the point completes on the replacement worker, resumed
//!   from the last persisted blob, with a byte-identical result;
//! * an eviction order preempts the point at its next checkpoint and it
//!   resumes (byte-identically) on the next assignment;
//! * a garbage/truncated checkpoint blob is a *miss* (the PR-5
//!   `SnapError` path): the point silently restarts from cycle 0;
//! * a decodable blob for the wrong parameters is rejected by the
//!   fingerprint check and counted as a restart-from-zero.

use bvl_serve::{
    run_one_point, Client, Daemon, DaemonConfig, FaultPlan, PointRun, PointSpec, ResultStore,
    WorkerCmd, WorkloadSpec,
};
use bvl_sim::{simulate_with, CkptControl, Hooks, RunResult, SimParams, SysState, SystemKind};
use bvl_workloads::Scale;
use std::fs;
use std::path::PathBuf;

/// Fresh per-test scratch dir (removed on entry so reruns start cold).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-fabric-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The point all fault tests run: mmult@tiny on the paper system. Long
/// enough to cross several checkpoint boundaries at the test cadence.
fn the_point() -> PointSpec {
    PointSpec {
        system: SystemKind::B4Vl,
        workload_key: "mmult@tiny".into(),
        workload: WorkloadSpec::Named {
            name: "mmult".into(),
            scale: Scale::tiny(),
        },
        params: SimParams::default(),
    }
}

/// The straight-through reference result, computed without any fabric.
fn reference(spec: &PointSpec, dir: &std::path::Path) -> RunResult {
    let store = ResultStore::new(dir.join("reference"));
    match run_one_point(spec, &store, &mut |_| false).expect("reference run") {
        PointRun::Finished(out) => {
            assert!(!out.resumed, "reference must run from cycle 0");
            out.result
        }
        PointRun::Yielded { .. } => unreachable!("nothing orders a yield"),
    }
}

/// A proc-tier daemon config over `dir`, spawning `bvl-serve --worker`
/// processes. `persist: false` forces every submission to execute.
fn proc_config(dir: &std::path::Path, procs: usize, fault_plan: FaultPlan) -> DaemonConfig {
    DaemonConfig {
        threads: 0,
        procs,
        worker_cmd: Some(WorkerCmd {
            program: PathBuf::from(env!("CARGO_BIN_EXE_bvl-serve")),
            args: vec!["--worker".into()],
        }),
        store_dir: dir.join("cache"),
        persist: false,
        checkpoint_every: 100,
        fault_plan,
        ..DaemonConfig::default()
    }
}

#[test]
fn sigkilled_worker_loses_at_most_one_interval_and_the_point_completes_byte_identically() {
    let dir = scratch("kill");
    let spec = the_point();
    let expected = reference(&spec, &dir);

    // One worker process (token 1), SIGKILLed on its first progress
    // report — i.e. right after its first checkpoint blob hits the disk.
    // The daemon must requeue the point, spawn a replacement (token 2),
    // and the replacement must finish the run from that blob.
    let daemon = Daemon::start(proc_config(
        &dir,
        1,
        FaultPlan {
            kill_on_progress: vec![(1, 1)],
            ..FaultPlan::default()
        },
    ))
    .expect("daemon");

    let mut client = Client::connect(daemon.addr()).expect("connect");
    let results = client.run_points(&[spec]).expect("served point");
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].result, expected,
        "result after a mid-point SIGKILL diverged from the straight-through run"
    );
    assert!(
        results[0].resumed,
        "the completing execution must have resumed from the dead worker's checkpoint"
    );
    assert!(!results[0].cache_hit);

    let s = daemon.stats();
    assert_eq!(s.submitted, 1);
    assert_eq!(s.worker_deaths, 1, "exactly one worker died: {s:?}");
    assert_eq!(s.executed, 1, "the point completes exactly once: {s:?}");
    assert_eq!(s.resumed, 1, "the completion resumed from a blob: {s:?}");
    assert_eq!(s.failed, 0, "{s:?}");

    daemon.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn evicted_point_yields_at_a_checkpoint_and_resumes_byte_identically() {
    let dir = scratch("evict");
    let spec = the_point();
    let expected = reference(&spec, &dir);

    // One worker, ordered to evict its point at the first progress
    // report. The point yields at that checkpoint, is requeued, and the
    // same worker resumes it on the next assignment (the fault is
    // one-shot, so it does not re-fire).
    let daemon = Daemon::start(proc_config(
        &dir,
        1,
        FaultPlan {
            evict_on_progress: vec![(1, 1)],
            ..FaultPlan::default()
        },
    ))
    .expect("daemon");

    let mut client = Client::connect(daemon.addr()).expect("connect");
    let results = client.run_points(&[spec]).expect("served point");
    assert_eq!(
        results[0].result, expected,
        "result after an eviction diverged from the straight-through run"
    );
    assert!(results[0].resumed);

    let s = daemon.stats();
    assert_eq!(s.evictions, 1, "{s:?}");
    assert_eq!(s.executed, 1, "{s:?}");
    assert_eq!(s.resumed, 1, "{s:?}");
    assert_eq!(s.worker_deaths, 0, "{s:?}");

    daemon.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn garbage_checkpoint_blob_is_a_miss_and_the_point_restarts_cleanly() {
    let dir = scratch("garbage-ckpt");
    let spec = the_point();
    let expected = reference(&spec, &dir);

    // Plant unframeable garbage (and, on a second run, a truncated real
    // blob) where the worker looks for a resume checkpoint. Both fail
    // `SysState::from_bytes` with a typed SnapError and must be treated
    // as "no checkpoint": a clean run from cycle 0, not a failure.
    let store_dir = dir.join("cache");
    let store = ResultStore::new(&store_dir);
    let key = spec.key();
    fs::create_dir_all(store.ckpt_path(&key).parent().unwrap()).unwrap();
    fs::write(store.ckpt_path(&key), b"BVLSnot-a-checkpoint").unwrap();

    let cfg = DaemonConfig {
        persist: false,
        ..DaemonConfig::threads_only(1, &store_dir)
    };
    let daemon = Daemon::start(cfg).expect("daemon");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let results = client
        .run_points(std::slice::from_ref(&spec))
        .expect("served point");
    assert_eq!(results[0].result, expected);
    assert!(
        !results[0].resumed,
        "an undecodable blob must not count as a resume"
    );
    let s = daemon.stats();
    assert_eq!(s.executed, 1, "{s:?}");
    assert_eq!(
        s.failed, 0,
        "a garbage checkpoint must never fail the point: {s:?}"
    );
    daemon.shutdown();

    // Truncated-real-blob flavor: capture a genuine checkpoint, cut it.
    let workload = spec.workload.build().unwrap();
    let cadenced = SimParams {
        checkpoint_every: 100,
        ..SimParams::default()
    };
    let mut blob: Option<Vec<u8>> = None;
    let hooks = Hooks {
        on_checkpoint: Some(&mut |s: &SysState| {
            blob = Some(s.to_bytes());
            CkptControl::Continue
        }),
        ..Hooks::default()
    };
    simulate_with(spec.system, &workload, &cadenced, hooks).expect("capture run");
    let mut cut = blob.expect("run crossed no checkpoint — lower the cadence");
    cut.truncate(cut.len() / 2);
    fs::write(store.ckpt_path(&key), &cut).unwrap();

    let cfg = DaemonConfig {
        persist: false,
        ..DaemonConfig::threads_only(1, &store_dir)
    };
    let daemon = Daemon::start(cfg).expect("daemon");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let results = client.run_points(&[spec]).expect("served point");
    assert_eq!(results[0].result, expected);
    assert!(!results[0].resumed);
    assert_eq!(daemon.stats().failed, 0);
    daemon.shutdown();

    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn wrong_params_checkpoint_is_rejected_and_counted_as_a_restart_from_zero() {
    let dir = scratch("wrong-ckpt");
    let spec = the_point();
    let expected = reference(&spec, &dir);

    // A perfectly decodable checkpoint — but taken under *different*
    // simulation parameters (`no_skip` flips the params fingerprint).
    // The restore must reject it and the worker must restart from
    // cycle 0, surfacing the event in `restarts_from_zero`.
    let workload = spec.workload.build().unwrap();
    let mismatched = SimParams {
        no_skip: true,
        checkpoint_every: 100,
        ..SimParams::default()
    };
    let mut planted: Option<SysState> = None;
    let hooks = Hooks {
        on_checkpoint: Some(&mut |s: &SysState| {
            planted = Some(s.clone());
            CkptControl::Continue
        }),
        ..Hooks::default()
    };
    simulate_with(spec.system, &workload, &mismatched, hooks).expect("capture run");
    let planted = planted.expect("run crossed no checkpoint — lower the cadence");

    let store_dir = dir.join("cache");
    let store = ResultStore::new(&store_dir);
    let key = spec.key();
    store.store_checkpoint(&key, &planted);

    let cfg = DaemonConfig {
        persist: false,
        ..DaemonConfig::threads_only(1, &store_dir)
    };
    let daemon = Daemon::start(cfg).expect("daemon");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let results = client.run_points(&[spec]).expect("served point");
    assert_eq!(
        results[0].result, expected,
        "restart-from-0 after a rejected checkpoint diverged"
    );
    assert!(!results[0].resumed);

    let s = daemon.stats();
    assert_eq!(s.restarts_from_zero, 1, "{s:?}");
    assert_eq!(s.executed, 1, "{s:?}");
    assert_eq!(s.failed, 0, "{s:?}");

    daemon.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}
