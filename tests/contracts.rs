//! Contracts that guard the runs that make artifacts, one tiny instance
//! each, so that the root package's tests exercise them.

use big_vlittle::experiments::sweep::{run_sweep, SweepJob};
use big_vlittle::experiments::ExpOpts;
use big_vlittle::sim::{
    simulate, simulate_sampled, simulate_with, simulate_with_stats, CkptControl, FinishedRun,
    Hooks, SamplingParams, SimParams, SysState, SystemKind,
};
use big_vlittle::workloads::{kernels, Scale, Workload};
use bvl_serve::{Client, Daemon, DaemonConfig, PointSpec, ResultStore, WorkloadSpec};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// `name@tiny` on `system` with default parameters.
fn tiny_point(system: SystemKind, name: &str) -> PointSpec {
    PointSpec {
        system,
        workload_key: format!("{name}@tiny"),
        workload: WorkloadSpec::Named {
            name: name.into(),
            scale: Scale::tiny(),
        },
        params: SimParams::default(),
    }
}

/// The two shapes of the big core's ROB the tick loop runs: scalar code
/// on `1b`, and vector code on `1b-4VL`, whose ROB waits on the VLITTLE
/// engine.
fn tick_loop_points() -> [PointSpec; 2] {
    [
        tiny_point(SystemKind::B1, "saxpy"),
        tiny_point(SystemKind::B4Vl, "vvadd"),
    ]
}

/// A run of `spec` that takes a checkpoint every 100 uncore cycles and
/// extracts its final state, and the middle one of its checkpoints.
fn run_to_middle_checkpoint(spec: &PointSpec, workload: &Workload) -> (FinishedRun, SysState) {
    let (run, mut checkpoints) = run_with_checkpoints(spec, workload);
    let middle = checkpoints.swap_remove(checkpoints.len() / 2);
    (run, middle)
}

/// A run of `spec` that takes a checkpoint every 100 uncore cycles and
/// extracts its final state, and all of its checkpoints.
fn run_with_checkpoints(spec: &PointSpec, workload: &Workload) -> (FinishedRun, Vec<SysState>) {
    let params = SimParams {
        checkpoint_every: 100,
        ..spec.params.clone()
    };
    let mut checkpoints = Vec::new();
    let hooks = Hooks {
        on_checkpoint: Some(&mut |state: &SysState| {
            checkpoints.push(state.clone());
            CkptControl::Continue
        }),
        want_state: true,
        ..Hooks::default()
    };
    let run = simulate_with(spec.system, workload, &params, hooks)
        .expect("checkpointed run")
        .finished()
        .expect("no yield ordered");
    assert!(
        checkpoints.len() > 1,
        "{}: too few checkpoints at cadence 100",
        spec.key()
    );
    (run, checkpoints)
}

/// Skip equivalence: tick skipping changes no result. Each point gives an
/// equal `RunResult` with skipping on and with `no_skip`, and every edge
/// the naive loop runs, the skipping loop runs or skips.
#[test]
fn skipping_changes_no_result_and_conserves_edges() {
    for spec in tick_loop_points() {
        let key = spec.key();
        let workload = spec.workload.build().expect("build workload");
        let run = |no_skip| {
            let params = SimParams {
                no_skip,
                ..spec.params.clone()
            };
            simulate_with_stats(spec.system, &workload, &params).expect("simulate")
        };
        let (naive, naive_edges) = run(true);
        let (skipped, edges) = run(false);
        assert_eq!(skipped, naive, "{key}: skipping changed the result");
        assert_eq!(naive_edges.edges_skipped, 0, "{key}: no_skip skipped");
        assert!(edges.edges_skipped > 0, "{key}: nothing was skipped");
        assert_eq!(
            edges.edges_run + edges.edges_skipped,
            naive_edges.edges_run,
            "{key}: edges not conserved"
        );
    }
}

/// Restore equivalence: resuming the middle cadence-100 checkpoint of each
/// point gives the straight-through run's result, final state and
/// cumulative skip counters.
#[test]
fn a_resumed_checkpoint_gives_the_straight_through_result_and_state() {
    for spec in tick_loop_points() {
        let key = spec.key();
        let workload = spec.workload.build().expect("build workload");
        let (straight, middle) = run_to_middle_checkpoint(&spec, &workload);
        let hooks = Hooks {
            resume: Some(&middle),
            want_state: true,
            ..Hooks::default()
        };
        let resumed = simulate_with(spec.system, &workload, &spec.params, hooks)
            .expect("resumed run")
            .finished()
            .expect("no yield ordered");
        assert_eq!(
            resumed.result, straight.result,
            "{key}: resumed result diverged"
        );
        assert_eq!(
            resumed.final_state, straight.final_state,
            "{key}: resumed final state diverged"
        );
        assert_eq!(resumed.skip, straight.skip, "{key}: skip counters diverged");
    }
}

/// Served output matches serverless output: a daemon with one
/// in-process worker serves `vvadd` and `mmult` with the results
/// `simulate` gives, then serves both again from its memo without
/// running them.
#[test]
fn served_points_equal_simulate_and_resubmissions_hit_the_memo() {
    let dir = std::env::temp_dir().join(format!("bvl-contracts-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = ["vvadd", "mmult"].map(|name| tiny_point(SystemKind::B4Vl, name));

    let daemon = Daemon::start(DaemonConfig {
        persist: false,
        ..DaemonConfig::threads_only(1, &dir)
    })
    .expect("daemon");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let served = client.run_points(&specs).expect("served points");
    for (spec, got) in specs.iter().zip(&served) {
        let workload = spec.workload.build().expect("build workload");
        let expected = simulate(spec.system, &workload, &spec.params).expect("simulate");
        assert_eq!(
            got.result,
            expected,
            "{}: served result diverged",
            spec.key()
        );
        assert!(!got.cache_hit, "{}: the first submission runs", spec.key());
    }

    let again = client.run_points(&specs).expect("resubmitted points");
    for ((spec, first), second) in specs.iter().zip(&served).zip(&again) {
        assert!(second.cache_hit, "{}: a resubmission is a hit", spec.key());
        assert_eq!(second.result, first.result, "{}", spec.key());
    }
    let stats = daemon.stats();
    assert_eq!(
        stats.executed, 2,
        "resubmissions must not re-run: {stats:?}"
    );
    assert_eq!(stats.memo_hits, 2, "{stats:?}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The in-process sweep drives the same scheduler core: at two workers,
/// `vvadd` on `1b-4VL` submitted twice runs once (the twin coalesces),
/// `saxpy` measures its sampled windows across the pool, and both equal
/// what `simulate` and `simulate_sampled` give. A second sweep through a
/// clone of the options is answered from the shared memo.
#[test]
fn an_in_process_sweep_equals_simulate_and_runs_each_point_once() {
    let dir = std::env::temp_dir().join(format!("bvl-contracts-sweep-{}", std::process::id()));
    let vvadd = Arc::new(kernels::vvadd::build(Scale::tiny()));
    let saxpy = Arc::new(kernels::saxpy::build(Scale::tiny()));
    let exact = SimParams::default();
    let sampled = SimParams {
        sampling: Some(SamplingParams {
            period_instrs: 64,
            window_instrs: 16,
        }),
        ..SimParams::default()
    };
    let jobs = [
        SweepJob::new(SystemKind::B4Vl, &vvadd, "tiny", exact.clone()),
        SweepJob::new(SystemKind::B4Vl, &vvadd, "tiny", exact.clone()),
        SweepJob::new(SystemKind::B4Vl, &saxpy, "tiny", sampled.clone()),
    ];
    let opts = ExpOpts::for_scale("tiny", dir.clone()).with_jobs(2);
    let results = run_sweep(&jobs, &opts);

    let expected = simulate(SystemKind::B4Vl, &vvadd, &exact).expect("simulate");
    assert_eq!(results[0], expected, "swept vvadd diverged");
    assert_eq!(results[1], expected, "the coalesced twin diverged");
    let (estimate, _) = simulate_sampled(SystemKind::B4Vl, &saxpy, &sampled).expect("sampled");
    let windows = estimate.sampling.as_ref().map(|m| m.windows_measured);
    assert!(windows > Some(1), "too few windows to share: {windows:?}");
    assert_eq!(results[2], estimate, "swept saxpy estimate diverged");
    assert_eq!(opts.throughput.snapshot().runs, 2, "the twin ran again");

    assert_eq!(run_sweep(&jobs, &opts.clone()), results);
    assert_eq!(
        opts.throughput.snapshot().runs,
        2,
        "a clone's sweep must hit the shared memo"
    );
    assert!(!dir.exists(), "a sweep without --persist-cache wrote files");
}

/// One composition for every VLITTLE geometry: the engine's lane count
/// (`regmap.cores`) also sizes the cluster's L1 banks, so `vvadd` on
/// `1b-4VL` at 2, 4 and 8 lanes runs as ordinary sweep points, as the
/// cluster-scaling ablation runs them. The 4-lane point is the default
/// one, and the 8-lane point gives its straight result when resumed from
/// its middle checkpoint and when run under `no_skip`.
#[test]
fn vlittle_points_of_every_lane_count_are_ordinary_sweep_points() {
    let dir = std::env::temp_dir().join(format!("bvl-contracts-lanes-{}", std::process::id()));
    let vvadd = Arc::new(kernels::vvadd::build(Scale::tiny()));
    let with_lanes = |cores| {
        let mut params = SimParams::default();
        params.engine.regmap.cores = cores;
        params
    };
    let jobs =
        [2, 4, 8].map(|cores| SweepJob::new(SystemKind::B4Vl, &vvadd, "tiny", with_lanes(cores)));
    let results = run_sweep(&jobs, &ExpOpts::for_scale("tiny", dir).with_jobs(2));
    let default = simulate(SystemKind::B4Vl, &vvadd, &SimParams::default()).expect("simulate");
    assert_eq!(
        results[1], default,
        "the 4-lane point is not the default one"
    );
    assert!(
        results[2].stat("sys.lane7.cycles") > 0,
        "the 8-lane point has no eighth lane"
    );

    let spec = PointSpec {
        params: with_lanes(8),
        ..tiny_point(SystemKind::B4Vl, "vvadd")
    };
    let (straight, middle) = run_to_middle_checkpoint(&spec, &vvadd);
    assert_eq!(
        straight.result, results[2],
        "8 lanes: checkpointing changed the result"
    );
    let hooks = Hooks {
        resume: Some(&middle),
        ..Hooks::default()
    };
    let resumed = simulate_with(spec.system, &vvadd, &spec.params, hooks)
        .expect("resumed run")
        .finished()
        .expect("no yield ordered");
    assert_eq!(
        resumed.result, results[2],
        "8 lanes: the resumed result diverged"
    );
    let naive = SimParams {
        no_skip: true,
        ..spec.params.clone()
    };
    let naive = simulate(spec.system, &vvadd, &naive).expect("no_skip run");
    assert_eq!(naive, results[2], "8 lanes: no_skip changed the result");
}

/// `f`'s value, computed on a thread of its own; the test fails when none
/// arrives within `secs` seconds.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || tx.send(f()).expect("the test is waiting"));
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => {
            thread.join().expect("the value was sent");
            value
        }
        // A hung fabric leaves the thread behind.
        Err(e) => panic!("no value within {secs} s ({e})"),
    }
}

/// A bad point fails alone, with a typed error: a daemon with one
/// in-process worker answers a `1b-4VL` point with no lanes and a gather
/// whose runs overrun its table with `Failed` replies naming the field,
/// then serves `vvadd` on the same worker, which never died.
#[test]
fn bad_point_specs_fail_with_named_errors_and_the_worker_serves_on() {
    let dir = std::env::temp_dir().join(format!("bvl-contracts-bad-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let vvadd = tiny_point(SystemKind::B4Vl, "vvadd");
    let mut no_lanes = vvadd.clone();
    no_lanes.params.engine.regmap.cores = 0;
    let overrun = PointSpec {
        workload_key: "gather-loc1024@tiny".into(),
        workload: WorkloadSpec::Gather {
            locality: 1024,
            scale: Scale::tiny(),
        },
        ..vvadd.clone()
    };

    let daemon = Daemon::start(DaemonConfig {
        persist: false,
        ..DaemonConfig::threads_only(1, &dir)
    })
    .expect("daemon");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let (mut client, replies) = within(30, move || {
        let replies = client.run_each(&[no_lanes, overrun]);
        (client, replies)
    });
    let replies = replies.expect("fabric replies");
    for (reply, field) in replies.iter().zip(["regmap.cores = 0", "locality = 1024"]) {
        match reply {
            Err(error) => assert!(error.contains(field), "{field}: {error}"),
            Ok(_) => panic!("{field}: a bad point was served"),
        }
    }
    let served = within(30, move || client.run_points(std::slice::from_ref(&vvadd)));
    assert!(served.is_ok(), "vvadd after the bad points: {served:?}");
    let stats = daemon.stats();
    assert_eq!(
        (stats.executed, stats.failed, stats.worker_deaths),
        (1, 2, 0),
        "{stats:?}"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serves `spec`, whose store at `dir` holds planted checkpoint slots, on
/// a daemon with one in-process worker. The point must resume, not
/// restart, to the result `simulate` gives; the daemon must not persist
/// the resumed completion, and must delete both slots.
fn assert_resumes_on_a_daemon(dir: &std::path::Path, spec: &PointSpec, workload: &Workload) {
    let key = spec.key();
    let expected = simulate(spec.system, workload, &spec.params).expect("simulate");
    let daemon = Daemon::start(DaemonConfig::threads_only(1, dir)).expect("daemon");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let served = client
        .run_points(std::slice::from_ref(spec))
        .expect("served point");
    assert!(served[0].resumed, "{key}: the point did not resume");
    assert_eq!(served[0].result, expected, "{key}: resumed result diverged");
    let stats = daemon.stats();
    assert_eq!(stats.resumed, 1, "{stats:?}");
    assert_eq!(stats.restarts_from_zero, 0, "{stats:?}");
    daemon.shutdown();

    let store = ResultStore::new(dir);
    assert!(
        !store.result_path(&key).exists(),
        "a resumed completion must not be persisted"
    );
    assert!(
        store.ckpt_paths(&key).iter().all(|path| !path.exists()),
        "both checkpoint slots must be deleted"
    );
}

/// The one crash-recovery path: a point that was in flight when its
/// daemon died resumes on the next daemon from the checkpoint blob the
/// dead one left in the store. Here that blob is the middle cadence-100
/// checkpoint of `mmult`; a daemon with one in-process worker resumes
/// it to the result `simulate` gives, does not persist the resumed
/// completion, and deletes the blob.
#[test]
fn a_dead_daemons_checkpoint_resumes_to_the_simulated_result() {
    let dir = std::env::temp_dir().join(format!("bvl-contracts-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = tiny_point(SystemKind::B4Vl, "mmult");
    let workload = spec.workload.build().expect("build workload");
    let (_, middle) = run_to_middle_checkpoint(&spec, &workload);
    ResultStore::new(&dir)
        .checkpoint_slots(&spec.key(), None)
        .write(&middle)
        .expect("plant checkpoint");
    assert_resumes_on_a_daemon(&dir, &spec, &workload);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A point keeps two checkpoint slots, and a writer killed mid-write
/// leaves only the slot it was writing torn. Here the newer of two
/// planted `mmult` blobs is cut short: the daemon resumes the point from
/// the older blob, not from cycle 0.
#[test]
fn a_torn_newest_checkpoint_slot_resumes_from_the_older_one() {
    let dir = std::env::temp_dir().join(format!("bvl-contracts-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = tiny_point(SystemKind::B4Vl, "mmult");
    let workload = spec.workload.build().expect("build workload");
    let (_, checkpoints) = run_with_checkpoints(&spec, &workload);
    let middle = checkpoints.len() / 2;
    let store = ResultStore::new(&dir);
    let mut slots = store.checkpoint_slots(&spec.key(), None);
    for state in &checkpoints[middle - 1..=middle] {
        slots.write(state).expect("plant checkpoint");
    }
    let newest = &store.ckpt_paths(&spec.key())[1];
    let blob = std::fs::read(newest).expect("read the newest slot");
    std::fs::write(newest, &blob[..blob.len() / 2]).expect("tear the newest slot");
    assert_resumes_on_a_daemon(&dir, &spec, &workload);
    let _ = std::fs::remove_dir_all(&dir);
}
