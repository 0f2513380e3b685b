//! The bounded admission queue under load, over real sockets.
//!
//! 4 clients × 400 submissions over 16 unique points
//! against a daemon with an 8-deep admission bound and two workers that
//! join only once the bound has shed a submission. Every submission
//! completes with the right result, each unique point executes exactly
//! once, every `Busy` rejection is retried to completion, and the queue's
//! high-water mark respects the bound (the memory guarantee: queued state
//! is capped). Dispatch order itself is pinned against the scheduler core
//! in `sched_core.rs`.

use bvl_serve::{worker_main, Client, Daemon, DaemonConfig, PointSpec, WorkloadSpec};
use bvl_sim::{RunResult, SimParams, SystemKind};
use bvl_workloads::Scale;
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-soak-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Distinct tiny vvadd points: one unique cache key per `tag`.
fn point(tag: u64) -> PointSpec {
    let n = 64 + tag;
    PointSpec {
        system: SystemKind::B4Vl,
        workload_key: format!("vvadd-n{n}@tiny"),
        workload: WorkloadSpec::Named {
            name: "vvadd".into(),
            scale: Scale { n, ..Scale::tiny() },
        },
        params: SimParams::default(),
    }
}

#[test]
fn soak_against_a_bounded_queue_completes_exactly_once() {
    const CLIENTS: usize = 4;
    const CHUNKS: usize = 8;
    const CHUNK: usize = 50;
    const UNIQUE: u64 = 16;
    const MAX_QUEUE: usize = 8;

    let dir = scratch("soak");
    let store = dir.join("cache");
    let daemon = Daemon::start(DaemonConfig {
        persist: false,
        max_queue: MAX_QUEUE,
        ..DaemonConfig::threads_only(0, &store)
    })
    .expect("daemon");
    let addr = daemon.addr();

    // With no worker yet nothing drains, so the first chunk (16 unique
    // keys against an 8-deep bound) deterministically draws `Busy`
    // rejections; the clients must ride them out.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut results: HashMap<String, RunResult> = HashMap::new();
                for chunk in 0..CHUNKS {
                    let specs: Vec<PointSpec> = (0..CHUNK)
                        .map(|i| point(((chunk * CHUNK + i) as u64) % UNIQUE))
                        .collect();
                    let served = client.run_points(&specs).expect("served chunk");
                    for (spec, r) in specs.iter().zip(served) {
                        if let Some(prev) = results.insert(spec.key(), r.result) {
                            assert_eq!(
                                prev,
                                results[&spec.key()],
                                "{}: one submission saw a different result",
                                spec.key()
                            );
                        }
                    }
                }
                (client.busy_retries(), results)
            })
        })
        .collect();

    // Let the clients pile into the bounded queue until it sheds, then
    // attach the workers.
    while daemon.stats().busy_rejections == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let workers: Vec<_> = (1..=2)
        .map(|token| {
            let (addr, store) = (addr.to_string(), store.clone());
            std::thread::spawn(move || worker_main(&addr, token, store))
        })
        .collect();

    let mut total_retries = 0u64;
    let mut per_client: Vec<HashMap<String, RunResult>> = Vec::new();
    for h in handles {
        let (retries, results) = h.join().expect("client thread");
        assert_eq!(results.len(), UNIQUE as usize);
        total_retries += retries;
        per_client.push(results);
    }

    // Every client saw the same result for every key.
    let first = &per_client[0];
    for other in &per_client[1..] {
        for (key, result) in first {
            assert_eq!(
                other.get(key),
                Some(result),
                "{key}: clients disagree on the result"
            );
        }
    }

    let report = daemon.report();
    let s = report.stats;
    assert_eq!(
        s.executed, UNIQUE,
        "each unique point executes exactly once: {s:?}"
    );
    assert_eq!(s.failed, 0, "{s:?}");
    assert!(s.busy_rejections > 0, "the bound never engaged: {s:?}");
    assert_eq!(
        s.busy_rejections, total_retries,
        "every Busy the daemon sent must have been retried by a client: {s:?}"
    );
    assert!(
        s.max_queue_depth <= MAX_QUEUE as u64,
        "admission bound breached: {s:?}"
    );
    assert_eq!(report.queue_depth, 0, "{report:?}");
    assert_eq!(report.busy_workers, 0, "{report:?}");
    assert!(
        report
            .shares
            .iter()
            .all(|(client, _)| (1..=4).contains(client)),
        "only the four clients were served: {report:?}"
    );
    assert_eq!(
        report.shares.iter().map(|(_, n)| n).sum::<u64>(),
        UNIQUE,
        "no point dispatched twice: {report:?}"
    );

    daemon.shutdown();
    for w in workers {
        w.join()
            .expect("worker thread")
            .expect("worker exits cleanly");
    }
    let _ = fs::remove_dir_all(&dir);
}
