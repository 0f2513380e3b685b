//! The scheduler core: every decision made about a sweep point, as a
//! state machine with no sockets, threads, locks or clocks.
//!
//! Its drivers turn events into calls on one [`Sched`] and send the
//! replies each call returns: the daemon ([`crate::daemon`]) over client
//! sockets, the in-process sweep (`bvl_experiments::sweep`) from worker
//! threads down one channel per sweep, tests directly. The point type `P`
//! is what a worker runs: a wire [`PointSpec`] for the daemon, a job with
//! its prebuilt workload in-process. The core decides
//!
//! - **admission**: a memo hit, a coalesce onto a queued or running twin
//!   (priority is not part of the cache key, but a higher-priority
//!   coalescer upgrades a still-queued twin's class), a disk hit, a
//!   [`Msg::Busy`] past the admission bound, or a fresh job;
//! - **dispatch**: three strict priority classes and, within a class,
//!   unit-quantum round-robin across clients (DESIGN.md §4.14);
//! - **settlement**: a finished point is stored as it completes (when it
//!   ran straight-through and results persist), memoized, and answered to
//!   every waiter; a failed point reaches every waiter and leaves no memo
//!   entry and no checkpoint blob behind;
//! - **requeues**: a point whose worker died returns to the front of its
//!   class and resumes from its blob;
//! - the [`FabricStats`] counters and the [`FabricReport`] snapshot.
//!
//! The core keeps no record of its queue on disk: after a crash, clients
//! resubmit, finished points are disk hits and a point that was in
//! flight resumes from its checkpoint blob (DESIGN.md §4.14).

use crate::client::ServedResult;
use crate::daemon::DaemonConfig;
use crate::proto::{Msg, Priority};
use crate::spec::PointSpec;
use crate::store::ResultStore;
use bvl_sim::RunResult;
use bvl_snap::snap_struct;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;

/// Suggested client backoff after a [`Msg::Busy`] rejection.
const BUSY_RETRY_MS: u64 = 25;

/// Scheduler counters, all monotonic (except `max_queue_depth`, a
/// high-water mark). The fault-injection suite asserts recovery paths
/// through these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// `Submit` messages received.
    pub submitted: u64,
    /// Points that ran to completion on a worker.
    pub executed: u64,
    /// Submissions coalesced onto an already-queued/in-flight point.
    pub coalesced: u64,
    /// Submissions answered from the in-process memo.
    pub memo_hits: u64,
    /// Submissions answered from the disk store.
    pub disk_hits: u64,
    /// Workers that died (or lost their connection) mid-point.
    pub worker_deaths: u64,
    /// Completed executions that resumed from a checkpoint blob.
    pub resumed: u64,
    /// Executions whose newest decodable checkpoint blob did not restore,
    /// so they restarted from cycle 0 (see
    /// [`ServedResult::restarted_from_zero`]).
    pub restarts_from_zero: u64,
    /// Points whose simulation failed.
    pub failed: u64,
    /// Submissions shed by the bounded admission queue ([`Msg::Busy`]).
    pub busy_rejections: u64,
    /// High-water mark of the admission queue.
    pub max_queue_depth: u64,
}

snap_struct!(FabricStats {
    submitted,
    executed,
    coalesced,
    memo_hits,
    disk_hits,
    worker_deaths,
    resumed,
    restarts_from_zero,
    failed,
    busy_rejections,
    max_queue_depth,
});

/// A point-in-time scheduler snapshot, served over [`Msg::QueryStats`]
/// and logged periodically as [`FabricReport::utilization_line`].
#[derive(Debug, Clone, PartialEq)]
pub struct FabricReport {
    /// The monotonic counters.
    pub stats: FabricStats,
    /// Points queued (admitted, not yet dispatched).
    pub queue_depth: u64,
    /// Queue depth per priority class (high/normal/low).
    pub queue_by_class: [u64; 3],
    /// Workers currently running a point.
    pub busy_workers: u64,
    /// Registered workers: in-process worker threads and worker
    /// processes that have connected and not died.
    pub total_workers: u64,
    /// `(client, points dispatched)` per client, ascending by client.
    pub shares: Vec<(u64, u64)>,
}

snap_struct!(FabricReport {
    stats,
    queue_depth,
    queue_by_class,
    busy_workers,
    total_workers,
    shares,
});

impl FabricReport {
    /// The one-line utilization summary the daemon logs periodically.
    pub fn utilization_line(&self) -> String {
        let shares = self
            .shares
            .iter()
            .map(|(c, n)| format!("{c}:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let s = &self.stats;
        format!(
            "fabric: queue {} (hi {} norm {} low {}, peak {}) | workers {}/{} busy | \
             executed {} failed {} | dedupe memo {} disk {} coalesced {} | \
             resumed {} restarts0 {} deaths {} | busy-shed {} | shares [{shares}]",
            self.queue_depth,
            self.queue_by_class[0],
            self.queue_by_class[1],
            self.queue_by_class[2],
            s.max_queue_depth,
            self.busy_workers,
            self.total_workers,
            s.executed,
            s.failed,
            s.memo_hits,
            s.disk_hits,
            s.coalesced,
            s.resumed,
            s.restarts_from_zero,
            s.worker_deaths,
            s.busy_rejections,
        )
    }
}

/// Messages to send, each with where it goes.
pub type Replies<R> = Vec<(R, Msg)>;

/// A submission waiting on a point: where its reply goes, its request
/// id, and whether it coalesced onto an execution someone else started
/// (those replies carry `cache_hit: true`, so client-side throughput
/// accounting counts each execution exactly once).
struct Waiter<R> {
    to: R,
    id: u64,
    coalesced: bool,
}

struct Job<R, P> {
    point: P,
    waiters: Vec<Waiter<R>>,
    priority: Priority,
    client: u64,
    /// The worker running the point; `None` while it is queued.
    worker: Option<u64>,
}

/// One priority class: a FIFO per client, drained unit-quantum
/// round-robin. The `rr` ring holds exactly the clients with non-empty
/// queues, each once, in service order.
#[derive(Default)]
struct ClassQueue {
    per_client: HashMap<u64, VecDeque<String>>,
    rr: VecDeque<u64>,
}

impl ClassQueue {
    fn push_back(&mut self, client: u64, key: String) {
        let q = self.per_client.entry(client).or_default();
        if q.is_empty() {
            self.rr.push_back(client);
        }
        q.push_back(key);
    }

    /// Front-of-line insertion: the client also moves to the head of
    /// the ring, so an orphaned point resumes before fresh work.
    fn push_front(&mut self, client: u64, key: String) {
        let q = self.per_client.entry(client).or_default();
        if q.is_empty() {
            self.rr.push_front(client);
        } else if let Some(pos) = self.rr.iter().position(|c| *c == client) {
            self.rr.remove(pos);
            self.rr.push_front(client);
        }
        q.push_front(key);
    }

    fn pop(&mut self) -> Option<(u64, String)> {
        let client = self.rr.pop_front()?;
        let q = self
            .per_client
            .get_mut(&client)
            .expect("rr client has a queue");
        let key = q.pop_front().expect("rr client queue is non-empty");
        if q.is_empty() {
            self.per_client.remove(&client);
        } else {
            self.rr.push_back(client);
        }
        Some((client, key))
    }

    /// Removes a specific queued key (priority-upgrade path). Returns
    /// whether it was present.
    fn remove(&mut self, client: u64, key: &str) -> bool {
        let Some(q) = self.per_client.get_mut(&client) else {
            return false;
        };
        let Some(pos) = q.iter().position(|k| k == key) else {
            return false;
        };
        q.remove(pos);
        if q.is_empty() {
            self.per_client.remove(&client);
            if let Some(rpos) = self.rr.iter().position(|c| *c == client) {
                self.rr.remove(rpos);
            }
        }
        true
    }

    fn len(&self) -> usize {
        self.per_client.values().map(VecDeque::len).sum()
    }
}

/// The scheduler core. `R` is where a reply goes: the daemon passes a
/// client's socket, the in-process sweep a channel, tests anything they
/// can compare. `P` is the point a worker is handed at dispatch.
pub struct Sched<R, P = PointSpec> {
    store: ResultStore,
    persist: bool,
    max_queue: usize,
    /// One [`ClassQueue`] per priority class, indexed by
    /// [`Priority::class`]; drained strictly in class order.
    classes: [ClassQueue; 3],
    /// Every admitted point until it completes or fails, queued or
    /// running.
    jobs: HashMap<String, Job<R, P>>,
    memo: HashMap<String, RunResult>,
    /// Points dispatched per client, for the fair-share report.
    shares: BTreeMap<u64, u64>,
    stats: FabricStats,
    workers: u64,
    next_client: u64,
}

impl<R, P: Clone> Sched<R, P> {
    /// An empty core over `cfg`'s store and admission bound.
    pub fn new(cfg: &DaemonConfig) -> Sched<R, P> {
        Sched {
            store: ResultStore::new(&cfg.store_dir),
            persist: cfg.persist,
            max_queue: cfg.max_queue,
            classes: Default::default(),
            jobs: HashMap::new(),
            memo: HashMap::new(),
            shares: BTreeMap::new(),
            stats: FabricStats::default(),
            workers: 0,
            next_client: 1,
        }
    }

    /// Moves the disk layer to `dir`, serving and storing results there
    /// only when `persist`. The memo is kept.
    pub fn set_store(&mut self, dir: &Path, persist: bool) {
        self.store = ResultStore::new(dir);
        self.persist = persist;
    }

    /// A client connected: its id, counting from 1, for fair share.
    pub fn connect(&mut self) -> u64 {
        self.next_client += 1;
        self.next_client - 1
    }

    /// A worker registered.
    pub fn join(&mut self) {
        self.workers += 1;
    }

    /// Submission `id` of `point` under cache `key` from `client`,
    /// answered at `to`: a memo hit, a coalesce onto a twin, a disk hit, a
    /// [`Msg::Busy`] past the admission bound, or a fresh job.
    pub fn submit(
        &mut self,
        client: u64,
        to: R,
        id: u64,
        priority: Priority,
        key: String,
        point: P,
    ) -> Replies<R> {
        self.stats.submitted += 1;
        if let Some(result) = self.memo.get(&key) {
            self.stats.memo_hits += 1;
            return vec![(to, cached(id, result.clone()))];
        }
        if let Some(job) = self.jobs.get_mut(&key) {
            self.stats.coalesced += 1;
            job.waiters.push(Waiter {
                to,
                id,
                coalesced: true,
            });
            let (owner, old) = (job.client, job.priority);
            if priority < old
                && job.worker.is_none()
                && self.classes[old.class()].remove(owner, &key)
            {
                job.priority = priority;
                self.classes[priority.class()].push_back(owner, key);
            }
            return Vec::new();
        }
        if let Some(result) = self.stored(&key) {
            self.stats.disk_hits += 1;
            self.memo.insert(key, result.clone());
            return vec![(to, cached(id, result))];
        }
        if self.max_queue > 0 && self.queued() >= self.max_queue {
            self.stats.busy_rejections += 1;
            let busy = Msg::Busy {
                id,
                retry_after_ms: BUSY_RETRY_MS,
            };
            return vec![(to, busy)];
        }
        self.classes[priority.class()].push_back(client, key.clone());
        let job = Job {
            point,
            waiters: vec![Waiter {
                to,
                id,
                coalesced: false,
            }],
            priority,
            client,
            worker: None,
        };
        self.jobs.insert(key, job);
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queued() as u64);
        Vec::new()
    }

    /// `worker` is free: the next point to run, with its cache key, or
    /// `None` when nothing is queued. Dispatch is strictly by class,
    /// round-robin across clients within a class.
    pub fn dispatch(&mut self, worker: u64) -> Option<(String, P)> {
        let (client, key) = self.classes.iter_mut().find_map(ClassQueue::pop)?;
        *self.shares.entry(client).or_default() += 1;
        let job = self.jobs.get_mut(&key).expect("a queued key has a job");
        job.worker = Some(worker);
        let point = job.point.clone();
        Some((key, point))
    }

    /// The point `key` ran to completion, as its worker reports in `out`:
    /// every waiter gets that report, flagged `cache_hit` when it
    /// coalesced. A result that cannot be stored is reported and served
    /// from the memo all the same.
    pub fn complete(&mut self, key: &str, out: ServedResult) -> Replies<R> {
        let job = self.jobs.remove(key).expect("a completed key has a job");
        if self.persist && !out.resumed {
            if let Err(e) = self.store.store(key, &out.result) {
                eprintln!("{key}: result not stored: {e}");
            }
        }
        self.stats.executed += 1;
        self.stats.resumed += u64::from(out.resumed);
        self.stats.restarts_from_zero += u64::from(out.restarted_from_zero);
        let replies = job
            .waiters
            .into_iter()
            .map(|w| {
                let served = ServedResult {
                    cache_hit: w.coalesced,
                    ..out.clone()
                };
                (w.to, Msg::Done { id: w.id, served })
            })
            .collect();
        self.memo.insert(key.to_string(), out.result);
        replies
    }

    /// The point `key` failed: *every* waiter (original submitter and
    /// coalescers alike) receives the failure, and the key is fully
    /// retired — no memo entry, checkpoint blob removed — so a
    /// resubmission re-runs it from scratch rather than hitting a
    /// negative cache or a poisoned checkpoint.
    pub fn fail(&mut self, key: &str, error: &str) -> Replies<R> {
        let job = self.jobs.remove(key).expect("a failed key has a job");
        self.store.remove_checkpoint(key);
        self.stats.failed += 1;
        job.waiters
            .into_iter()
            .map(|w| {
                let failed = Msg::Failed {
                    id: w.id,
                    error: error.to_string(),
                };
                (w.to, failed)
            })
            .collect()
    }

    /// A registered worker died while running `key`: the point returns
    /// to the *front* of its owner's class, so it resumes promptly from
    /// its persisted checkpoint.
    pub fn worker_died(&mut self, key: &str) {
        let job = self.jobs.get_mut(key).expect("a running key has a job");
        job.worker = None;
        self.classes[job.priority.class()].push_front(job.client, key.to_string());
        self.workers -= 1;
        self.stats.worker_deaths += 1;
    }

    /// Counters plus queue and worker occupancy.
    pub fn report(&self) -> FabricReport {
        let queue_by_class = self.classes.each_ref().map(|c| c.len() as u64);
        FabricReport {
            stats: self.stats,
            queue_depth: queue_by_class.iter().sum(),
            queue_by_class,
            busy_workers: self.jobs.values().filter(|j| j.worker.is_some()).count() as u64,
            total_workers: self.workers,
            shares: self.shares.iter().map(|(&c, &n)| (c, n)).collect(),
        }
    }

    /// Points admitted and not yet dispatched — what `max_queue` bounds.
    fn queued(&self) -> usize {
        self.classes.iter().map(ClassQueue::len).sum()
    }

    fn stored(&self, key: &str) -> Option<RunResult> {
        self.persist.then(|| self.store.load(key)).flatten()
    }
}

/// The reply to a submission served without running anything.
fn cached(id: u64, result: RunResult) -> Msg {
    let served = ServedResult {
        result,
        cache_hit: true,
        ..ServedResult::default()
    };
    Msg::Done { id, served }
}
