//! The scheduler core, driven directly: every event is a method call and
//! every reply a returned value, so these contracts hold without sockets,
//! threads or timing.
//!
//! 1. **Dispatch order**: strictly by priority class, then unit-quantum
//!    round-robin across clients within a class, with per-client shares.
//! 2. **Coalesce upgrades**: a High submission landing on a queued Low
//!    twin re-classes the queued job instead of executing twice.
//! 3. **Shared failure**: a failed execution reaches every waiter and
//!    retires its key — no memo entry, no checkpoint blob.
//! 4. **Backpressure**: past `max_queue` a fresh admission is `Busy`;
//!    coalesces and requeues are exempt, and the high-water mark holds.
//! 5. **Requeue**: a dead worker's point resumes before fresh work of
//!    its class.

use bvl_serve::{
    DaemonConfig, Msg, PointSpec, Priority, ResultStore, Sched, ServedResult, WorkloadSpec,
};
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
fn submit(s: &mut Sched<u64>, client: u64, id: u64, priority: Priority, spec: &PointSpec) {
    let replies = s.submit(client, client, id, priority, spec.key(), spec.clone());
    assert!(replies.is_empty(), "{}: {replies:?}", spec.key());
}

/// Dispatches the next point, returning its key, the client whose share
/// it counted against, and the class it left.
fn dispatch(s: &mut Sched<u64>) -> Option<(String, u64, Priority)> {
    let before = s.report();
    let (key, _) = s.dispatch(WORKER)?;
    let after = s.report();
    let client = after
        .shares
        .iter()
        .find(|share| !before.shares.contains(share))
        .expect("a dispatch grows one client's share")
        .0;
    let class = (0..3)
        .find(|&c| after.queue_by_class[c] < before.queue_by_class[c])
        .expect("a dispatch shrinks one class");
    Some((key, client, Priority::ALL[class]))
}

fn keys(dispatched: &[(String, u64, Priority)]) -> Vec<&str> {
    dispatched.iter().map(|(key, ..)| key.as_str()).collect()
}

#[test]
fn dispatch_is_strict_priority_then_round_robin_across_clients() {
    let dir = scratch("fair");
    let mut s = core(&dir, 0);
    let clients: Vec<u64> = (0..4).map(|_| s.connect()).collect();
    assert_eq!(clients, [1, 2, 3, 4], "client ids count from 1");

    // Client 1: two Normal points; client 2: two Normal; client 3: one
    // High and one Low; client 4: two Normal.
    let a = [point(0), point(1)];
    let b = [point(2), point(3)];
    let high = point(4);
    let low = point(5);
    let c = [point(6), point(7)];
    for (i, p) in a.iter().enumerate() {
        submit(&mut s, 1, i as u64, Priority::Normal, p);
    }
    for (i, p) in b.iter().enumerate() {
        submit(&mut s, 2, i as u64, Priority::Normal, p);
    }
    submit(&mut s, 3, 0, Priority::High, &high);
    submit(&mut s, 3, 1, Priority::Low, &low);
    for (i, p) in c.iter().enumerate() {
        submit(&mut s, 4, i as u64, Priority::Normal, p);
    }
    let report = s.report();
    assert_eq!(
        report.queue_depth, 8,
        "all submissions admitted: {report:?}"
    );
    assert_eq!(report.queue_by_class, [1, 6, 1], "{report:?}");

    let order: Vec<_> = std::iter::from_fn(|| dispatch(&mut s)).collect();
    let expected = vec![
        high.key(), // the one High point, before any Normal work
        a[0].key(), // Normal: one point per client per round...
        b[0].key(),
        c[0].key(),
        a[1].key(), // ...then each client's second point
        b[1].key(),
        c[1].key(),
        low.key(), // the one Low point, after everything else
    ];
    assert_eq!(keys(&order), expected, "dispatch order diverged: {order:?}");
    assert_eq!((order[0].1, order[0].2), (3, Priority::High));
    assert_eq!((order[7].1, order[7].2), (3, Priority::Low));
    assert!(order[1..7].iter().all(|d| d.2 == Priority::Normal));

    // Fair share: every client got exactly its own two points.
    assert_eq!(
        s.report().shares,
        vec![(1, 2), (2, 2), (3, 2), (4, 2)],
        "dispatch shares must be even across clients"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_high_submission_upgrades_its_queued_low_twin() {
    let dir = scratch("upgrade");
    let mut s = core(&dir, 0);
    let (c1, c2) = (s.connect(), s.connect());
    let x = point(10);
    let y = point(11);
    submit(&mut s, c1, 1, Priority::Low, &x);
    submit(&mut s, c1, 2, Priority::Low, &y);

    // Client 2 submits the same point `y` at High while it is still
    // queued at Low: the queued job must be re-classed (not run twice),
    // and the coalesced waiter must still get its reply.
    submit(&mut s, c2, 1, Priority::High, &y);
    let report = s.report();
    assert_eq!(report.stats.coalesced, 1, "{report:?}");
    assert_eq!(
        report.queue_by_class,
        [1, 0, 1],
        "y must have moved Low → High: {report:?}"
    );

    let order: Vec<_> = std::iter::from_fn(|| dispatch(&mut s)).collect();
    assert_eq!(
        keys(&order),
        [y.key(), x.key()],
        "the upgraded twin must dispatch first: {order:?}"
    );
    assert_eq!(order[0].2, Priority::High);
    assert_eq!(
        order[0].1, c1,
        "the upgraded job still belongs to its original submitter"
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
    let stats = s.report().stats;
    assert_eq!(stats.executed, 2, "{stats:?}");
    assert_eq!(stats.coalesced, 1, "{stats:?}");
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
    submit(&mut s, c1, 7, Priority::Normal, &bad);
    submit(&mut s, c2, 9, Priority::Normal, &bad);
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
    submit(&mut s, c1, 8, Priority::Normal, &bad);
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
    submit(&mut s, c, 1, Priority::Normal, &point(30));
    submit(&mut s, c, 2, Priority::Normal, &point(31));
    let busy = |id| Msg::Busy {
        id,
        retry_after_ms: 25,
    };
    assert_eq!(
        s.submit(c, c, 3, Priority::High, point(32).key(), point(32)),
        vec![(c, busy(3))],
        "a third fresh admission overflows a 2-deep queue, whatever its class"
    );
    // A coalesce adds no queue state, so it is exempt.
    submit(&mut s, c, 4, Priority::Normal, &point(30));

    // A dispatch frees a slot; the next fresh admission takes it and the
    // one after is shed again.
    let (running, ..) = dispatch(&mut s).expect("a queued point");
    submit(&mut s, c, 5, Priority::Normal, &point(32));
    assert_eq!(
        s.submit(c, c, 6, Priority::Normal, point(33).key(), point(33)),
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
fn a_requeued_point_goes_to_the_front_of_its_class() {
    let dir = scratch("requeue");
    let mut s = core(&dir, 0);
    let (c1, c2) = (s.connect(), s.connect());
    let a = [point(40), point(41)];
    let b = point(42);
    submit(&mut s, c1, 1, Priority::Normal, &a[0]);
    submit(&mut s, c1, 2, Priority::Normal, &a[1]);
    submit(&mut s, c2, 1, Priority::Normal, &b);
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
