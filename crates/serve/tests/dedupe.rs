//! In-flight dedupe and key-aliasing contracts.
//!
//! N clients racing the *same* experiment point must cost exactly one
//! simulation: the first submission executes, the rest coalesce onto it
//! (or hit the memo if they arrive after completion), and every client
//! receives an identical result. Exactly one response carries
//! `cache_hit: false`, so client-side throughput accounting counts each
//! execution once no matter how many submitters shared it.
//!
//! The same holds under `--sampled` — and a sampled point's cache key
//! must never alias its exact twin's (a sampled estimate served where an
//! exact result was requested would be silent corruption).

use bvl_serve::{
    cache_key_for, worker_main, Client, Daemon, DaemonConfig, Msg, PointSpec, ResultStore,
    WorkloadSpec,
};
use bvl_sim::{SamplingParams, SimParams, SystemKind};
use bvl_workloads::Scale;
use std::fs;
use std::path::PathBuf;
use std::sync::Barrier;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-dedupe-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn vvadd_point(sampled: bool) -> PointSpec {
    PointSpec {
        system: SystemKind::B4Vl,
        workload_key: "vvadd@tiny".into(),
        workload: WorkloadSpec::Named {
            name: "vvadd".into(),
            scale: Scale::tiny(),
        },
        params: SimParams {
            sampling: sampled.then(SamplingParams::default),
            ..SimParams::default()
        },
    }
}

/// Races `n` clients at one daemon over the same point and checks the
/// exactly-one-execution contract.
fn race_identical_submissions(tag: &str, spec: &PointSpec, n: usize) {
    let dir = scratch(tag);
    // persist: false removes the disk layer, so the only ways a
    // submission avoids executing are the memo and in-flight coalescing
    // — the two layers under test.
    let cfg = DaemonConfig {
        persist: false,
        ..DaemonConfig::threads_only(3, dir.join("cache"))
    };
    let daemon = Daemon::start(cfg).expect("daemon");
    let addr = daemon.addr();

    let barrier = Barrier::new(n);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let barrier = &barrier;
                let spec = spec.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    let mut served = client.run_points(&[spec]).expect("served point");
                    served.pop().expect("one result")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    for r in &results[1..] {
        assert_eq!(
            r.result, results[0].result,
            "clients racing one point saw different results"
        );
    }
    let fresh = results.iter().filter(|r| !r.cache_hit).count();
    assert_eq!(
        fresh, 1,
        "exactly one response may carry cache_hit: false, got {fresh} of {n}"
    );

    let s = daemon.stats();
    assert_eq!(s.executed, 1, "one simulation for {n} submissions: {s:?}");
    assert_eq!(s.submitted, n as u64, "{s:?}");
    assert_eq!(
        s.coalesced + s.memo_hits,
        n as u64 - 1,
        "every other submission coalesced or hit the memo: {s:?}"
    );
    assert_eq!(s.disk_hits, 0, "{s:?}");
    assert_eq!(s.failed, 0, "{s:?}");

    daemon.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn n_clients_racing_one_exact_point_cost_one_simulation() {
    race_identical_submissions("exact", &vvadd_point(false), 6);
}

#[test]
fn n_clients_racing_one_sampled_point_cost_one_simulation() {
    race_identical_submissions("sampled", &vvadd_point(true), 6);
}

#[test]
fn sampled_and_exact_keys_never_alias() {
    // Directly, over the whole system matrix and several sampling
    // configurations...
    for system in SystemKind::ALL {
        let exact = SimParams::default();
        for sampling in [
            SamplingParams::default(),
            SamplingParams {
                period_instrs: 1 << 14,
                window_instrs: 1 << 10,
            },
        ] {
            let sampled = SimParams {
                sampling: Some(sampling),
                ..SimParams::default()
            };
            assert_ne!(
                cache_key_for(system, "vvadd@tiny", &exact),
                cache_key_for(system, "vvadd@tiny", &sampled),
                "{system}: sampled key aliases the exact key"
            );
        }
    }

    // ...and end-to-end: one daemon fed both twins executes both.
    let dir = scratch("alias");
    let cfg = DaemonConfig {
        persist: false,
        ..DaemonConfig::threads_only(2, dir.join("cache"))
    };
    let daemon = Daemon::start(cfg).expect("daemon");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let served = client
        .run_points(&[vvadd_point(false), vvadd_point(true)])
        .expect("served points");
    assert_eq!(served.len(), 2);
    assert!(served.iter().all(|r| !r.cache_hit));
    assert!(
        served[0].result.sampling.is_none(),
        "exact submission came back with sampling metadata"
    );
    assert!(
        served[1].result.sampling.is_some(),
        "sampled submission came back without sampling metadata"
    );
    let s = daemon.stats();
    assert_eq!(
        s.executed, 2,
        "the twins must not dedupe onto each other: {s:?}"
    );
    assert_eq!(s.coalesced + s.memo_hits + s.disk_hits, 0, "{s:?}");
    daemon.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The coalesced-failure contract: when a shared execution fails,
/// *every* waiter — the original submitter and each coalescer — gets
/// the failure; the key is fully retired (no negative cache, no
/// poisoned checkpoint) so a resubmission genuinely re-runs it.
#[test]
fn a_coalesced_failure_reaches_every_waiter_and_is_not_negatively_cached() {
    let dir = scratch("failure");
    let store_dir = dir.join("cache");
    let daemon = Daemon::start(DaemonConfig {
        persist: false,
        ..DaemonConfig::threads_only(0, store_dir.clone())
    })
    .expect("daemon");
    let addr = daemon.addr();

    // A spec that fails at workload build time, deterministically.
    let bad = PointSpec {
        system: SystemKind::B4Vl,
        workload_key: "no-such-kernel@tiny".into(),
        workload: WorkloadSpec::Named {
            name: "no-such-kernel".into(),
            scale: Scale::tiny(),
        },
        params: SimParams::default(),
    };
    let key = bad.key();

    // Plant a stale checkpoint blob under the key: the failure path must
    // clear it, or a later resubmission would resume from poison.
    let store = ResultStore::new(&store_dir);
    fs::create_dir_all(store.ckpt_path(&key).parent().unwrap()).unwrap();
    fs::write(store.ckpt_path(&key), b"stale blob").unwrap();

    // No worker yet: c1's submission queues, c2's coalesces onto it, and
    // only once a worker joins does the execution (and its failure)
    // happen.
    let mut c1 = Client::connect(addr).expect("c1");
    let id1 = c1.submit(&bad).expect("submit");
    c1.stats().expect("admission barrier");
    let mut c2 = Client::connect(addr).expect("c2");
    let id2 = c2.submit(&bad).expect("submit twin");
    let report = c2.stats().expect("coalesce barrier");
    assert_eq!(report.stats.coalesced, 1, "{report:?}");

    let worker = {
        let addr = addr.to_string();
        std::thread::spawn(move || worker_main(&addr, 1, store_dir))
    };
    for (client, id) in [(&mut c1, id1), (&mut c2, id2)] {
        match client.recv().expect("failure reply") {
            Msg::Failed { id: got, error } => {
                assert_eq!(got, id, "failure correlated to the wrong submission");
                assert!(!error.is_empty());
            }
            other => panic!("every waiter must see the failure, got {other:?}"),
        }
    }

    let s = daemon.stats();
    assert_eq!(s.failed, 1, "one shared execution failed once: {s:?}");
    assert_eq!(s.executed, 0, "{s:?}");
    assert!(
        !store.ckpt_path(&key).exists(),
        "the failure must clear the checkpoint blob"
    );

    // No negative cache: the resubmission re-runs (and re-fails) rather
    // than replaying a memoized failure or hanging.
    let id3 = c1.submit(&bad).expect("resubmit");
    match c1.recv().expect("second failure") {
        Msg::Failed { id, .. } => assert_eq!(id, id3),
        other => panic!("resubmission must re-run and re-fail, got {other:?}"),
    }
    let s = daemon.stats();
    assert_eq!(
        s.failed, 2,
        "the key must be re-runnable after failure: {s:?}"
    );
    assert_eq!(s.memo_hits, 0, "a failure must never be memoized: {s:?}");

    daemon.shutdown();
    worker
        .join()
        .expect("worker thread")
        .expect("worker exits cleanly");
    let _ = fs::remove_dir_all(&dir);
}
