//! Contracts that guard the runs that make artifacts, one tiny instance
//! each, so that the root package's tests exercise them.

use big_vlittle::sim::{
    simulate, simulate_with, CkptControl, Hooks, SimParams, SysState, SystemKind,
};
use big_vlittle::workloads::Scale;
use bvl_serve::{Client, Daemon, DaemonConfig, PointSpec, ResultStore, WorkloadSpec};

/// `name@tiny` on `1b-4VL` with default parameters.
fn tiny_point(name: &str) -> PointSpec {
    PointSpec {
        system: SystemKind::B4Vl,
        workload_key: format!("{name}@tiny"),
        workload: WorkloadSpec::Named {
            name: name.into(),
            scale: Scale::tiny(),
        },
        params: SimParams::default(),
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
    let specs = ["vvadd", "mmult"].map(tiny_point);

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
    let spec = tiny_point("mmult");
    let key = spec.key();
    let workload = spec.workload.build().expect("build workload");
    let expected = simulate(spec.system, &workload, &spec.params).expect("simulate");

    let cadenced = SimParams {
        checkpoint_every: 100,
        ..SimParams::default()
    };
    let mut checkpoints = Vec::new();
    let hooks = Hooks {
        on_checkpoint: Some(&mut |state: &SysState| {
            checkpoints.push(state.clone());
            CkptControl::Continue
        }),
        ..Hooks::default()
    };
    simulate_with(spec.system, &workload, &cadenced, hooks).expect("checkpointed run");
    assert!(
        !checkpoints.is_empty(),
        "{key}: no checkpoint at cadence 100"
    );
    let store = ResultStore::new(&dir);
    store
        .store_checkpoint(&key, &checkpoints[checkpoints.len() / 2])
        .expect("plant checkpoint");

    let daemon = Daemon::start(DaemonConfig::threads_only(1, &dir)).expect("daemon");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let served = client
        .run_points(std::slice::from_ref(&spec))
        .expect("served point");
    assert!(served[0].resumed, "{key}: the point did not resume");
    assert_eq!(served[0].result, expected, "{key}: resumed result diverged");
    let stats = daemon.stats();
    assert_eq!(stats.resumed, 1, "{stats:?}");
    assert_eq!(stats.restarts_from_zero, 0, "{stats:?}");
    daemon.shutdown();

    assert!(
        !store.result_path(&key).exists(),
        "a resumed completion must not be persisted"
    );
    assert!(!store.ckpt_path(&key).exists(), "the blob must be deleted");
    let _ = std::fs::remove_dir_all(&dir);
}
