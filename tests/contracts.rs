//! Contracts that guard the runs that make artifacts, one tiny instance
//! each, so that the root package's tests exercise them.

use big_vlittle::sim::{simulate, SimParams, SystemKind};
use big_vlittle::workloads::Scale;
use bvl_serve::{Client, Daemon, DaemonConfig, PointSpec, WorkloadSpec};

/// Served output matches serverless output: a daemon with one
/// in-process worker serves `vvadd` and `mmult` with the results
/// `simulate` gives, then serves both again from its memo without
/// running them.
#[test]
fn served_points_equal_simulate_and_resubmissions_hit_the_memo() {
    let dir = std::env::temp_dir().join(format!("bvl-contracts-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = ["vvadd", "mmult"].map(|name| PointSpec {
        system: SystemKind::B4Vl,
        workload_key: format!("{name}@tiny"),
        workload: WorkloadSpec::Named {
            name: name.into(),
            scale: Scale::tiny(),
        },
        params: SimParams::default(),
    });

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
