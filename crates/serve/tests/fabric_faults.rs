//! Fault-injection suite for the sweep fabric.
//!
//! Every recovery path the daemon advertises is exercised with a
//! deterministic [`FaultPlan`] and asserted through [`FabricStats`] plus
//! result equality against a straight-through reference run:
//!
//! * a worker *process* SIGKILLed mid-point loses at most one checkpoint
//!   interval — the point completes on the replacement worker, resumed
//!   from the last persisted blob, with a byte-identical result;
//! * a garbage/truncated checkpoint blob is a *miss* (the PR-5
//!   `SnapError` path): the point silently restarts from cycle 0;
//! * a decodable blob for the wrong parameters is rejected by the
//!   fingerprint check and counted as a restart-from-zero;
//! * a checkpoint that cannot be written fails its point with an error
//!   naming the key — it does not kill the worker;
//! * a result that cannot be stored is still served, and the daemon
//!   keeps answering;
//! * a client whose batch failed gets its next batch's own results, not
//!   the failed batch's late replies.
//!
//! The restart count and the unwritable checkpoint run once on an
//! in-process worker and once on a `bvl-serve --worker` process: both
//! kinds of worker take the same path through the daemon.

use bvl_serve::{
    run_one_point, Client, Daemon, DaemonConfig, FaultPlan, Msg, PointRun, PointSpec, ResultStore,
    WorkerCmd, WorkloadSpec,
};
use bvl_sim::{simulate_with, CkptControl, Hooks, RunResult, SimParams, SysState, SystemKind};
use bvl_workloads::Scale;
use std::fs;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Fresh per-test scratch dir (removed on entry so reruns start cold).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-fabric-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The point the fault tests run, bar the worker kill's
/// [`long_point`]: mmult@tiny on the paper system. Long
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

/// A point that runs long past its first checkpoint: sw@tiny crosses
/// about a thousand boundaries at the test cadence. A worker killed at
/// its first progress report must still be running its point when the
/// kill lands, and mmult@tiny, done a few milliseconds later, can finish
/// first and leave no blob to resume.
fn long_point() -> PointSpec {
    PointSpec {
        workload_key: "sw@tiny".into(),
        workload: WorkloadSpec::Named {
            name: "sw".into(),
            scale: Scale::tiny(),
        },
        ..the_point()
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

/// Runs `f` on a thread of its own and fails the test if it has not
/// returned within two minutes: a wedged daemon must fail the test, not
/// hang it.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel::<()>();
    let handle = std::thread::spawn(move || {
        // Dropped when `f` returns or panics, which ends the wait below.
        let _done = done;
        f()
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(120)) {
        panic!("{what}: no answer within the deadline");
    }
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Where a daemon's one worker runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Worker {
    InProcess,
    Process,
}

/// A one-worker daemon config over `dir`; a process worker is a spawned
/// `bvl-serve --worker`. Either way the worker holds token 1.
/// `persist: false` forces every submission to execute.
fn one_worker(dir: &std::path::Path, worker: Worker, fault_plan: FaultPlan) -> DaemonConfig {
    let process = worker == Worker::Process;
    DaemonConfig {
        threads: usize::from(!process),
        procs: usize::from(process),
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
    let spec = long_point();
    let expected = reference(&spec, &dir);

    // One worker process (token 1), SIGKILLed on its first progress
    // report — i.e. right after its first checkpoint blob hits the disk.
    // The daemon must requeue the point, spawn a replacement (token 2),
    // and the replacement must finish the run from that blob.
    let daemon = Daemon::start(one_worker(
        &dir,
        Worker::Process,
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
    let [slot0, _] = store.ckpt_paths(&key);
    fs::create_dir_all(slot0.parent().unwrap()).unwrap();
    fs::write(&slot0, b"BVLSnot-a-checkpoint").unwrap();

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
    fs::write(&slot0, &cut).unwrap();

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

    let store = ResultStore::new(dir.join("cache"));
    let key = spec.key();
    for worker in [Worker::InProcess, Worker::Process] {
        store
            .checkpoint_slots(&key, None)
            .write(&planted)
            .expect("plant blob");
        let daemon = Daemon::start(one_worker(&dir, worker, FaultPlan::default())).expect("daemon");
        let mut client = Client::connect(daemon.addr()).expect("connect");
        let results = client
            .run_points(std::slice::from_ref(&spec))
            .expect("served point");
        assert_eq!(
            results[0].result, expected,
            "{worker:?}: restart-from-0 after a rejected checkpoint diverged"
        );
        assert!(!results[0].resumed, "{worker:?}");

        let s = daemon.stats();
        assert_eq!(s.restarts_from_zero, 1, "{worker:?}: {s:?}");
        assert_eq!(s.executed, 1, "{worker:?}: {s:?}");
        assert_eq!(s.failed, 0, "{worker:?}: {s:?}");

        daemon.shutdown();
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn an_unwritable_checkpoint_fails_the_point_naming_its_key_and_the_worker_lives() {
    let dir = scratch("ckpt-unwritable");
    let spec = the_point();
    let key = spec.key();

    for worker in [Worker::InProcess, Worker::Process] {
        // `ckpt` is a regular file, so no blob can be written under it.
        let cfg = one_worker(&dir, worker, FaultPlan::default());
        fs::create_dir_all(&cfg.store_dir).unwrap();
        fs::write(cfg.store_dir.join("ckpt"), b"not a directory").unwrap();
        let daemon = Daemon::start(cfg).expect("daemon");
        let addr = daemon.addr();
        let point = spec.clone();
        let reply = within_deadline("submission with an unwritable checkpoint", move || {
            let mut client = Client::connect(addr).expect("connect");
            client.submit(&point).expect("submit");
            client.recv().expect("reply")
        });
        match reply {
            Msg::Failed { error, .. } => {
                assert!(
                    error.contains(&key),
                    "{worker:?}: error names no key: {error}"
                )
            }
            other => panic!("{worker:?}: expected Failed, got {other:?}"),
        }

        let s = daemon.stats();
        assert_eq!(s.failed, 1, "{worker:?}: {s:?}");
        assert_eq!(s.executed, 0, "{worker:?}: {s:?}");
        assert_eq!(s.worker_deaths, 0, "{worker:?}: {s:?}");
        daemon.shutdown();
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn an_unwritable_result_is_still_served_and_the_daemon_keeps_answering() {
    let dir = scratch("store-unwritable");
    let spec = the_point();
    let expected = reference(&spec, &dir);

    // The store directory is a regular file: no result can be stored.
    let store_file = dir.join("store");
    fs::create_dir_all(&dir).unwrap();
    fs::write(&store_file, b"not a directory").unwrap();
    let daemon = Daemon::start(DaemonConfig {
        checkpoint_every: 0,
        ..DaemonConfig::threads_only(1, &store_file)
    })
    .expect("daemon");
    let (served, report) = within_deadline("submission with an unwritable store", move || {
        let mut client = Client::connect(daemon.addr()).expect("connect");
        let served = client.run_points(&[spec]).expect("served point");
        let report = client.stats().expect("stats");
        client.shutdown().expect("shutdown");
        daemon.wait();
        (served, report)
    });
    assert_eq!(served[0].result, expected);
    assert!(!served[0].cache_hit);
    let s = report.stats;
    assert_eq!(s.executed, 1, "{s:?}");
    assert_eq!(s.failed, 0, "{s:?}");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_client_survives_a_failed_batch_and_gets_its_next_batch_s_own_results() {
    let dir = scratch("failed-batch");
    let named = |name: &str| PointSpec {
        workload_key: format!("{name}@tiny"),
        workload: WorkloadSpec::Named {
            name: name.into(),
            scale: Scale::tiny(),
        },
        ..the_point()
    };
    let doomed = PointSpec {
        params: SimParams {
            max_uncore_cycles: 1000,
            ..SimParams::default()
        },
        ..the_point()
    };
    let doomed_key = doomed.key();
    let (good, next) = (named("vvadd"), named("saxpy"));
    let expected = reference(&next, &dir);

    // One worker runs the first batch in order: the doomed point fails,
    // and the good point's reply is still due when `run_points` returns.
    let daemon = Daemon::start(DaemonConfig::threads_only(1, dir.join("cache"))).expect("daemon");
    let addr = daemon.addr();
    let (first, second) = within_deadline("two batches on one client", move || {
        let mut client = Client::connect(addr).expect("connect");
        let first = client.run_points(&[doomed, good]);
        (first, client.run_points(&[next]))
    });
    let err = first.expect_err("a batch with a failing point fails");
    assert!(err.contains(&doomed_key), "error names no key: {err}");
    let served = second.expect("the next batch is served");
    assert_eq!(served.len(), 1);
    assert_eq!(
        served[0].result, expected,
        "the next batch got a reply meant for the failed one"
    );
    daemon.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}
