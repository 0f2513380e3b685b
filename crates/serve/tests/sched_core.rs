//! The scheduler core, driven directly: every event is a method call and
//! every reply a returned value, so these contracts hold without sockets,
//! threads or timing.
//!
//! 1. **Dispatch order**: unit-quantum round-robin across clients, each
//!    client's points in submission order, with per-client shares. A
//!    one-point client waits at most one dispatch per other client with
//!    queued work, however deep their backlogs.
//! 2. **Coalescing**: a submission landing on a queued twin joins its
//!    execution instead of executing twice.
//! 3. **Shared failure**: a failed execution reaches every waiter and
//!    retires its key — no memo entry, no checkpoint blob.
//! 4. **Backpressure**: past `max_queue` a fresh admission is `Busy`;
//!    coalesces and requeues are exempt, and the high-water mark holds.
//! 5. **Requeue**: a dead worker's point resumes before fresh work.

use bvl_serve::{DaemonConfig, Msg, PointSpec, ResultStore, Sched, ServedResult, WorkloadSpec};
use bvl_sim::{RunResult, SimParams, SystemKind};
use bvl_workloads::Scale;
use std::fs;
use std::path::{Path, PathBuf};

/// The one worker every test dispatches to.
const WORKER: u64 = 1;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-sched-{tag}-{}", std::process::id()));
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

/// A core over `dir` that persists no results. Replies go to a `u64`:
/// each test addresses them to the submitting client's id.
fn core(dir: &Path, max_queue: usize) -> Sched<u64> {
    Sched::new(&DaemonConfig {
        persist: false,
        max_queue,
        ..DaemonConfig::threads_only(0, dir)
    })
}

fn finished(result: RunResult) -> ServedResult {
    ServedResult {
        result,
        ..ServedResult::default()
    }
}

/// Submits `spec` from `client` as request `id`, expecting it to queue
/// or coalesce (no reply yet).
fn submit(s: &mut Sched<u64>, client: u64, id: u64, spec: &PointSpec) {
    let replies = s.submit(client, client, id, spec.key(), spec.clone());
    assert!(replies.is_empty(), "{}: {replies:?}", spec.key());
}

/// Dispatches the next point, returning its key and the client whose
/// share it counted against.
fn dispatch(s: &mut Sched<u64>) -> Option<(String, u64)> {
    let before = s.report();
    let (key, _) = s.dispatch(WORKER)?;
    let after = s.report();
    let client = after
        .shares
        .iter()
        .find(|share| !before.shares.contains(share))
        .expect("a dispatch grows one client's share")
        .0;
    assert_eq!(after.queue_depth + 1, before.queue_depth, "{after:?}");
    Some((key, client))
}

fn keys(dispatched: &[(String, u64)]) -> Vec<&str> {
    dispatched.iter().map(|(key, ..)| key.as_str()).collect()
}

#[test]
fn dispatch_is_round_robin_across_clients() {
    let dir = scratch("fair");
    let mut s = core(&dir, 0);
    let clients: Vec<u64> = (0..4).map(|_| s.connect()).collect();
    assert_eq!(clients, [1, 2, 3, 4], "client ids count from 1");

    // Client 1 queues a backlog of 20 points, clients 2 and 4 two each,
    // and client 3 one point, submitted last.
    let a: Vec<PointSpec> = (0..20).map(point).collect();
    let b = [point(20), point(21)];
    let c = [point(22), point(23)];
    let one = point(24);
    for (client, points) in [(1, &a[..]), (2, &b[..]), (4, &c[..])] {
        for (i, p) in points.iter().enumerate() {
            submit(&mut s, client, i as u64, p);
        }
    }
    submit(&mut s, 3, 0, &one);
    let report = s.report();
    assert_eq!(
        report.queue_depth, 25,
        "all submissions admitted: {report:?}"
    );

    // The backlog does not hold back the late one-point client: it waits
    // one dispatch per other client, then each client's second point
    // follows, and the backlog drains alone.
    let order: Vec<_> = std::iter::from_fn(|| dispatch(&mut s)).collect();
    let mut expected = vec![a[0].key(), b[0].key(), c[0].key(), one.key()];
    expected.extend([a[1].key(), b[1].key(), c[1].key()]);
    expected.extend(a[2..].iter().map(PointSpec::key));
    assert_eq!(keys(&order), expected, "dispatch order diverged: {order:?}");
    let first_round: Vec<u64> = order[..4].iter().map(|d| d.1).collect();
    assert_eq!(first_round, [1, 2, 4, 3], "one point per client per round");

    // Fair share: every client got exactly its own points.
    assert_eq!(
        s.report().shares,
        vec![(1, 20), (2, 2), (3, 1), (4, 2)],
        "each dispatch counts against the client that queued it"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_coalesced_submission_shares_its_queued_twins_execution() {
    let dir = scratch("coalesce");
    let mut s = core(&dir, 0);
    let (c1, c2) = (s.connect(), s.connect());
    let x = point(10);
    let y = point(11);
    submit(&mut s, c1, 1, &x);
    submit(&mut s, c1, 2, &y);

    // Client 2 submits the same point `y` while it is still queued: it
    // must join the queued job (not run twice) and still get its reply.
    submit(&mut s, c2, 1, &y);
    let report = s.report();
    assert_eq!(report.stats.coalesced, 1, "{report:?}");
    assert_eq!(
        report.queue_depth, 2,
        "a coalesce queues nothing: {report:?}"
    );

    let order: Vec<_> = std::iter::from_fn(|| dispatch(&mut s)).collect();
    assert_eq!(keys(&order), [x.key(), y.key()], "{order:?}");
    assert_eq!(
        order[1].1, c1,
        "the coalesced job still belongs to its original submitter"
    );

    let replies = s.complete(&y.key(), finished(RunResult::default()));
    let to: Vec<(u64, u64, bool)> = replies
        .iter()
        .map(|(to, msg)| match msg {
            Msg::Done { id, served } => (*to, *id, served.cache_hit),
            other => panic!("expected Done, got {other:?}"),
        })
        .collect();
    assert_eq!(
        to,
        [(c1, 2, false), (c2, 1, true)],
        "one execution answers both submissions, the coalescer as a hit"
    );
    s.complete(&x.key(), finished(RunResult::default()));
    let report = s.report();
    assert_eq!(report.stats.executed, 2, "{report:?}");
    assert_eq!(report.stats.coalesced, 1, "{report:?}");
    assert_eq!(report.shares, vec![(c1, 2)], "{report:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_shared_failure_reaches_every_waiter_and_leaves_no_memo_entry_or_checkpoint() {
    let dir = scratch("failure");
    let bad = point(20);
    let key = bad.key();
    // A stale checkpoint blob under the key: the failure must clear it,
    // or a later resubmission would resume from poison.
    let store = ResultStore::new(&dir);
    for path in store.ckpt_paths(&key) {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, b"stale blob").unwrap();
    }

    let mut s = core(&dir, 0);
    let (c1, c2) = (s.connect(), s.connect());
    submit(&mut s, c1, 7, &bad);
    submit(&mut s, c2, 9, &bad);
    assert_eq!(s.report().stats.coalesced, 1);
    assert_eq!(dispatch(&mut s).map(|d| d.0), Some(key.clone()));

    let replies = s.fail(&key, "boom");
    let failed = |id| Msg::Failed {
        id,
        error: "boom".into(),
    };
    assert_eq!(
        replies,
        vec![(c1, failed(7)), (c2, failed(9))],
        "every waiter must see the failure, correlated to its own request"
    );
    let stats = s.report().stats;
    assert_eq!(
        stats.failed, 1,
        "one shared execution failed once: {stats:?}"
    );
    assert_eq!(stats.executed, 0, "{stats:?}");
    assert!(
        store.ckpt_paths(&key).iter().all(|path| !path.exists()),
        "the failure must clear both checkpoint slots"
    );

    // No negative cache: the resubmission queues to run again rather
    // than replaying a memoized failure.
    submit(&mut s, c1, 8, &bad);
    let report = s.report();
    assert_eq!(report.queue_depth, 1, "{report:?}");
    assert_eq!(
        report.stats.memo_hits, 0,
        "a failure must never be memoized: {report:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn admission_past_max_queue_is_busy_and_the_high_water_mark_holds() {
    let dir = scratch("busy");
    let mut s = core(&dir, 2);
    let c = s.connect();
    submit(&mut s, c, 1, &point(30));
    submit(&mut s, c, 2, &point(31));
    let busy = |id| Msg::Busy {
        id,
        retry_after_ms: 25,
    };
    assert_eq!(
        s.submit(c, c, 3, point(32).key(), point(32)),
        vec![(c, busy(3))],
        "a third fresh admission overflows a 2-deep queue"
    );
    // A coalesce adds no queue state, so it is exempt.
    submit(&mut s, c, 4, &point(30));

    // A dispatch frees a slot; the next fresh admission takes it and the
    // one after is shed again.
    let (running, ..) = dispatch(&mut s).expect("a queued point");
    submit(&mut s, c, 5, &point(32));
    assert_eq!(
        s.submit(c, c, 6, point(33).key(), point(33)),
        vec![(c, busy(6))]
    );
    // A requeue is exempt too: a dead worker's point returns to a full
    // queue.
    s.join();
    s.worker_died(&running);
    let report = s.report();
    assert_eq!(report.queue_depth, 3, "{report:?}");
    let stats = report.stats;
    assert_eq!(stats.busy_rejections, 2, "{stats:?}");
    assert_eq!(stats.coalesced, 1, "{stats:?}");
    assert_eq!(
        stats.max_queue_depth, 2,
        "admissions never exceeded the bound: {stats:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_requeued_point_goes_to_the_front_of_the_queue() {
    let dir = scratch("requeue");
    let mut s = core(&dir, 0);
    let (c1, c2) = (s.connect(), s.connect());
    let a = [point(40), point(41)];
    let b = point(42);
    submit(&mut s, c1, 1, &a[0]);
    submit(&mut s, c1, 2, &a[1]);
    submit(&mut s, c2, 1, &b);
    s.join();

    // Orphaned: a[0]'s worker dies mid-point, and a[0] goes back ahead
    // of b, the next client in the ring.
    assert_eq!(dispatch(&mut s).unwrap().0, a[0].key());
    s.worker_died(&a[0].key());

    let order: Vec<_> = std::iter::from_fn(|| dispatch(&mut s)).collect();
    assert_eq!(
        keys(&order),
        [a[0].key(), b.key(), a[1].key()],
        "requeued work resumes before fresh work, then round-robin goes on"
    );
    let report = s.report();
    assert_eq!(report.stats.worker_deaths, 1, "{report:?}");
    assert_eq!(report.total_workers, 0, "the dead worker is deregistered");
    assert_eq!(
        report.shares,
        vec![(c1, 3), (c2, 1)],
        "every dispatch counts, requeued ones included"
    );
    let _ = fs::remove_dir_all(&dir);
}
