//! The fabric's scheduler core: every decision the daemon makes about a
//! point, as a state machine with no sockets, threads, locks or clocks.
//!
//! The daemon ([`crate::daemon`]) turns what happens on its sockets into
//! calls on one [`Sched`] and sends the replies each call returns; tests
//! make the same calls directly. The core decides
//!
//! - **admission**: a submission is answered from the in-process memo or
//!   the disk store, coalesces onto a queued or running twin (priority is
//!   not part of the cache key, but a higher-priority coalescer upgrades a
//!   still-queued twin's class), is shed with [`Msg::Busy`] past the
//!   admission bound, or is queued as a fresh job;
//! - **dispatch**: three strict priority classes and, within a class,
//!   unit-quantum round-robin across clients, so no client starves
//!   another at equal priority (DESIGN.md §4.14);
//! - **settlement**: a finished point is stored (when it ran
//!   straight-through and results persist), memoized, and answered to
//!   every waiter; a failed point reaches every waiter and leaves no memo
//!   entry and no checkpoint blob behind;
//! - **requeues**: a point whose worker died returns to the front of its
//!   class and resumes from its blob;
//! - the [`FabricStats`] counters and the [`FabricReport`] snapshot.
//!
//! The core keeps no record of its queue on disk. When the daemon dies,
//! its clients lose their connections and resubmit to the next one:
//! finished points are disk hits, and a point that was in flight resumes
//! from its checkpoint blob (DESIGN.md §4.14).

use crate::daemon::DaemonConfig;
use crate::proto::{Msg, Priority};
use crate::spec::PointSpec;
use crate::store::ResultStore;
use crate::worker::PointOutcome;
use bvl_sim::RunResult;
use bvl_snap::snap_struct;
use std::collections::{BTreeMap, HashMap, VecDeque};

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
    /// [`PointOutcome::restarted_from_zero`](crate::PointOutcome::restarted_from_zero)).
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

struct Job<R> {
    spec: PointSpec,
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
/// client's socket, tests anything they can compare.
pub struct Sched<R> {
    store: ResultStore,
    persist: bool,
    checkpoint_every: u64,
    max_queue: usize,
    /// One [`ClassQueue`] per priority class, indexed by
    /// [`Priority::class`]; drained strictly in class order.
    classes: [ClassQueue; 3],
    /// Every admitted point until it completes or fails, queued or
    /// running.
    jobs: HashMap<String, Job<R>>,
    memo: HashMap<String, RunResult>,
    /// Points dispatched per client, for the fair-share report.
    shares: BTreeMap<u64, u64>,
    stats: FabricStats,
    workers: u64,
    next_client: u64,
}

impl<R> Sched<R> {
    /// An empty core over `cfg`'s store, admission bound and checkpoint
    /// cadence.
    pub fn new(cfg: &DaemonConfig) -> Sched<R> {
        Sched {
            store: ResultStore::new(&cfg.store_dir),
            persist: cfg.persist,
            checkpoint_every: cfg.checkpoint_every,
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

    /// A client connected: its id, counting from 1, for fair share.
    pub fn connect(&mut self) -> u64 {
        self.next_client += 1;
        self.next_client - 1
    }

    /// A worker registered.
    pub fn join(&mut self) {
        self.workers += 1;
    }

    /// Submission `id` from `client`, answered at `to`: a memo hit, a
    /// coalesce onto a twin, a disk hit, a [`Msg::Busy`] past the
    /// admission bound, or a fresh job. A spec without a checkpoint
    /// cadence gets the daemon's, so that it survives its worker.
    pub fn submit(
        &mut self,
        client: u64,
        to: R,
        id: u64,
        priority: Priority,
        mut spec: PointSpec,
    ) -> Replies<R> {
        let key = spec.key();
        self.stats.submitted += 1;
        if spec.params.checkpoint_every == 0 {
            // Observability-only knob, normalized out of the cache key
            // and proven result-neutral by the restore-equivalence
            // suite — safe to overlay the fabric's recovery cadence.
            spec.params.checkpoint_every = self.checkpoint_every;
        }
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
            spec,
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
    pub fn dispatch(&mut self, worker: u64) -> Option<(String, PointSpec)> {
        let (client, key) = self.classes.iter_mut().find_map(ClassQueue::pop)?;
        *self.shares.entry(client).or_default() += 1;
        let job = self.jobs.get_mut(&key).expect("a queued key has a job");
        job.worker = Some(worker);
        Some((key, job.spec.clone()))
    }

    /// The point `key` ran to completion: every waiter gets the result.
    /// A result that cannot be stored is reported and served from the
    /// memo all the same.
    pub fn complete(&mut self, key: &str, out: PointOutcome) -> Replies<R> {
        let job = self.jobs.remove(key).expect("a completed key has a job");
        if self.persist && !out.resumed {
            if let Err(e) = self.store.store(key, &out.result) {
                eprintln!("bvl-serve: {key}: result not stored: {e}");
            }
        }
        self.stats.executed += 1;
        self.stats.resumed += u64::from(out.resumed);
        self.stats.restarts_from_zero += u64::from(out.restarted_from_zero);
        let replies = job
            .waiters
            .into_iter()
            .map(|w| {
                let done = Msg::Done {
                    id: w.id,
                    result: out.result.clone(),
                    edges_run: out.edges_run,
                    edges_skipped: out.edges_skipped,
                    host_secs: out.host_secs,
                    cache_hit: w.coalesced,
                    resumed: out.resumed,
                };
                (w.to, done)
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
    Msg::Done {
        id,
        result,
        edges_run: 0,
        edges_skipped: 0,
        host_secs: 0.0,
        cache_hit: true,
        resumed: false,
    }
}
