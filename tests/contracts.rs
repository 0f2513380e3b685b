//! Contracts that guard the runs that make artifacts, one tiny instance
//! each, so that the root package's tests exercise them.

use big_vlittle::sim::{
    simulate, simulate_with, simulate_with_stats, CkptControl, FinishedRun, Hooks, SimParams,
    SysState, SystemKind,
};
use big_vlittle::workloads::{Scale, Workload};
use bvl_serve::{Client, Daemon, DaemonConfig, PointSpec, ResultStore, WorkloadSpec};

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
