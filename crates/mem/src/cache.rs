//! Set-associative write-back cache timing model with MSHRs.
//!
//! The cache tracks tags, state and timing only — data movement is handled
//! functionally by the golden executor against [`crate::SimMemory`]. Misses
//! allocate an MSHR and surface a line-granular request on the miss port;
//! the owner (the hierarchy) routes it to the next level and calls
//! [`Cache::fill`] when the line returns.

use crate::queue::DelayQueue;
use crate::req::MemReq;
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Configuration of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// Number of miss-status holding registers (outstanding misses).
    pub mshrs: usize,
    /// Requests accepted per cycle.
    pub ports: u32,
}

impl CacheParams {
    /// A 32 KiB two-way L1 with 64 B lines (the paper's little-core L1).
    pub fn little_l1() -> Self {
        CacheParams {
            size_bytes: 32 << 10,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 2,
            mshrs: 8,
            ports: 1,
        }
    }

    /// A 64 KiB four-way L1 for the big core.
    pub fn big_l1() -> Self {
        CacheParams {
            size_bytes: 64 << 10,
            assoc: 4,
            line_bytes: 64,
            hit_latency: 2,
            mshrs: 16,
            ports: 2,
        }
    }

    /// A 1 MiB sixteen-way shared L2.
    pub fn shared_l2() -> Self {
        CacheParams {
            size_bytes: 1 << 20,
            assoc: 16,
            line_bytes: 64,
            hit_latency: 12,
            mshrs: 32,
            ports: 4,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.assoc))
    }
}

/// Per-cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests accepted.
    pub accesses: u64,
    /// Of which stores.
    pub stores: u64,
    /// Hits.
    pub hits: u64,
    /// Misses (primary — each allocates an MSHR).
    pub misses: u64,
    /// Secondary misses merged into an existing MSHR.
    pub mshr_merges: u64,
    /// Requests rejected for port/MSHR backpressure.
    pub rejects: u64,
    /// Dirty lines written back on eviction or invalidation.
    pub writebacks: u64,
    /// External invalidations that hit a resident line.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit rate over accepted accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Registers every counter under `scope` (e.g. `sys.little3.l1d`).
    /// The path schema satisfies the `cache` conservation law:
    /// `hits + misses + mshr_merges == accesses`.
    pub fn register(&self, scope: &mut bvl_obs::Scope<'_>) {
        scope.set("accesses", self.accesses);
        scope.set("stores", self.stores);
        scope.set("hits", self.hits);
        scope.set("misses", self.misses);
        scope.set("mshr_merges", self.mshr_merges);
        scope.set("rejects", self.rejects);
        scope.set("writebacks", self.writebacks);
        scope.set("invalidations", self.invalidations);
    }
}

/// One line slot. An invalid slot is always `Line::default()` — nothing
/// clears `valid` without resetting the whole slot — which is what lets a
/// checkpoint encode resident lines only.
#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    last_used: u64,
}

#[derive(Clone, Debug)]
struct Mshr {
    line_addr: u64,
    reqs: Vec<MemReq>,
    any_store: bool,
}

/// Result of presenting a request to [`Cache::access`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessOutcome {
    /// The request hit and will appear on the response port after the hit
    /// latency.
    Hit,
    /// The request missed; a line request was surfaced on the miss port.
    Miss,
    /// The request merged into an outstanding miss for the same line.
    MergedMiss,
    /// The cache could not accept the request this cycle (ports or MSHRs
    /// exhausted); retry later.
    Rejected,
}

/// A set-associative write-back cache with MSHRs (timing only).
#[derive(Clone, Debug)]
pub struct Cache {
    params: CacheParams,
    /// Every line slot, set-major: set `s` is `lines[s * assoc..][..assoc]`.
    lines: Vec<Line>,
    mshrs: Vec<Mshr>,
    hit_pipe: DelayQueue<MemReq>,
    resp_out: VecDeque<MemReq>,
    miss_out: VecDeque<u64>, // line addresses needing a fill
    wb_out: VecDeque<u64>,   // dirty line addresses written back
    accepts_this_cycle: u32,
    stats: CacheStats,
    /// Max requests merged per MSHR before backpressure.
    mshr_targets: usize,
}

impl Cache {
    /// Creates a cache from its parameters.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets, non-power-of-two
    /// line size, or more ways than a checkpoint's 16-bit way index holds).
    pub fn new(params: CacheParams) -> Self {
        assert!(
            params.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = params.num_sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a positive power of two"
        );
        assert!(
            params.assoc <= 1 << 16,
            "associativity must fit a 16-bit way index"
        );
        Cache {
            params,
            lines: vec![Line::default(); (sets * u64::from(params.assoc)) as usize],
            mshrs: Vec::with_capacity(params.mshrs),
            hit_pipe: DelayQueue::new(params.hit_latency),
            resp_out: VecDeque::new(),
            miss_out: VecDeque::new(),
            wb_out: VecDeque::new(),
            accepts_this_cycle: 0,
            stats: CacheStats::default(),
            mshr_targets: 8,
        }
    }

    /// The cache's configuration.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of MSHRs currently allocated.
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.params.line_bytes - 1)
    }

    /// (set index, tag) for an address. The full line address is used as
    /// the tag so lines are unambiguous regardless of which indexing mode
    /// the owner uses (paper section III-E keeps bank bits in the tag for
    /// exactly this reason).
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = self.line_addr(addr);
        let set = (line / self.params.line_bytes) % self.params.num_sets();
        (set as usize, line)
    }

    /// The ways of one set.
    fn ways(&self, set: usize) -> &[Line] {
        let assoc = self.params.assoc as usize;
        &self.lines[set * assoc..][..assoc]
    }

    /// The ways of one set, mutably.
    fn ways_mut(&mut self, set: usize) -> &mut [Line] {
        let assoc = self.params.assoc as usize;
        &mut self.lines[set * assoc..][..assoc]
    }

    /// Advances the hit pipeline; call once per cycle before accesses.
    pub fn tick(&mut self, now: u64) {
        self.accepts_this_cycle = 0;
        while let Some(req) = self.hit_pipe.pop_ready(now) {
            self.resp_out.push_back(req);
        }
    }

    /// Presents one request. See [`AccessOutcome`] for the verdicts.
    pub fn access(&mut self, now: u64, req: MemReq) -> AccessOutcome {
        if self.accepts_this_cycle >= self.params.ports {
            self.stats.rejects += 1;
            return AccessOutcome::Rejected;
        }
        let (set, tag) = self.locate(req.addr);

        // Hit?
        if let Some(way) = self.ways(set).iter().position(|l| l.valid && l.tag == tag) {
            self.accepts_this_cycle += 1;
            self.stats.accesses += 1;
            self.stats.hits += 1;
            if req.is_store {
                self.stats.stores += 1;
                self.ways_mut(set)[way].dirty = true;
            }
            self.ways_mut(set)[way].last_used = now;
            self.hit_pipe.push(now, req);
            return AccessOutcome::Hit;
        }

        // Merge into an outstanding miss?
        if let Some(m) = self.mshrs.iter_mut().find(|m| m.line_addr == tag) {
            if m.reqs.len() >= self.mshr_targets {
                self.stats.rejects += 1;
                return AccessOutcome::Rejected;
            }
            self.accepts_this_cycle += 1;
            self.stats.accesses += 1;
            self.stats.mshr_merges += 1;
            if req.is_store {
                self.stats.stores += 1;
                m.any_store = true;
            }
            m.reqs.push(req);
            return AccessOutcome::MergedMiss;
        }

        // Primary miss: allocate an MSHR if one is free.
        if self.mshrs.len() >= self.params.mshrs {
            self.stats.rejects += 1;
            return AccessOutcome::Rejected;
        }
        self.accepts_this_cycle += 1;
        self.stats.accesses += 1;
        self.stats.misses += 1;
        if req.is_store {
            self.stats.stores += 1;
        }
        self.mshrs.push(Mshr {
            line_addr: tag,
            reqs: vec![req],
            any_store: req.is_store,
        });
        self.miss_out.push_back(tag);
        AccessOutcome::Miss
    }

    /// Installs a returned line, completing its MSHR. Merged requests
    /// appear on the response port after the hit latency.
    ///
    /// Unsolicited fills (no matching MSHR) install the line silently —
    /// used for coherence-driven line migration.
    pub fn fill(&mut self, now: u64, line_addr: u64) {
        let (set, tag) = self.locate(line_addr);
        debug_assert_eq!(tag, line_addr, "fill address must be line-aligned");

        let mshr_idx = self.mshrs.iter().position(|m| m.line_addr == tag);
        let any_store = mshr_idx.map(|i| self.mshrs[i].any_store).unwrap_or(false);

        // Victim selection: invalid way first, else LRU.
        let assoc = self.params.assoc as usize;
        let ways = &mut self.lines[set * assoc..][..assoc];
        let way = ways.iter().position(|l| !l.valid).unwrap_or_else(|| {
            ways.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_used)
                .map(|(i, _)| i)
                .expect("associativity is positive")
        });
        if ways[way].valid && ways[way].dirty {
            self.stats.writebacks += 1;
            self.wb_out.push_back(ways[way].tag);
        }
        ways[way] = Line {
            valid: true,
            dirty: any_store,
            tag,
            last_used: now,
        };

        if let Some(i) = mshr_idx {
            let m = self.mshrs.swap_remove(i);
            for req in m.reqs {
                self.hit_pipe.push(now, req);
            }
        }
    }

    /// Installs a line *silently* for functional warm-up: no statistics
    /// are counted, no MSHR is completed, and a displaced dirty victim is
    /// discarded rather than written back (warm state predates the
    /// measured window, so phantom writeback traffic must not appear on
    /// the ports). `stamp` orders warmed lines for LRU replacement —
    /// callers replay recency traces with monotonically increasing
    /// stamps so the replacement order inside the warmed set matches the
    /// functional access order. Re-warming a resident line just
    /// refreshes its recency and ORs in dirtiness.
    pub fn warm(&mut self, stamp: u64, line_addr: u64, dirty: bool) {
        let (set, tag) = self.locate(line_addr);
        debug_assert_eq!(tag, line_addr, "warm address must be line-aligned");
        let ways = self.ways_mut(set);
        if let Some(way) = ways.iter().position(|l| l.valid && l.tag == tag) {
            ways[way].last_used = stamp;
            ways[way].dirty |= dirty;
            return;
        }
        let way = ways.iter().position(|l| !l.valid).unwrap_or_else(|| {
            ways.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_used)
                .map(|(i, _)| i)
                .expect("associativity is positive")
        });
        ways[way] = Line {
            valid: true,
            dirty,
            tag,
            last_used: stamp,
        };
    }

    /// All resident line addresses with their dirtiness, in no particular
    /// order — used by the warm-state injection tests to compare a warmed
    /// cache against one reached by detailed simulation.
    pub fn resident_lines(&self) -> Vec<(u64, bool)> {
        self.lines
            .iter()
            .filter(|l| l.valid)
            .map(|l| (l.tag, l.dirty))
            .collect()
    }

    /// Total lines the cache can hold (capacity / line size).
    pub fn line_capacity(&self) -> usize {
        (self.params.size_bytes / self.params.line_bytes) as usize
    }

    /// Invalidates a line if present; returns `Some(was_dirty)`.
    ///
    /// Dirty invalidations also surface a writeback on the writeback port.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let (set, tag) = self.locate(line_addr);
        let ways = self.ways_mut(set);
        let way = ways.iter().position(|l| l.valid && l.tag == tag)?;
        let dirty = ways[way].dirty;
        ways[way] = Line::default();
        self.stats.invalidations += 1;
        if dirty {
            self.stats.writebacks += 1;
            self.wb_out.push_back(tag);
        }
        Some(dirty)
    }

    /// True if the line is resident.
    pub fn probe(&self, line_addr: u64) -> bool {
        let (set, tag) = self.locate(line_addr);
        self.ways(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Undelivered entries on the miss port — misses already counted in
    /// [`CacheStats::misses`] whose next-level access has not happened yet
    /// (the conservation checker's in-flight term).
    pub fn pending_miss_out(&self) -> u64 {
        self.miss_out.len() as u64
    }

    /// Undelivered entries on the writeback port (see
    /// [`Cache::pending_miss_out`]).
    pub fn pending_wb_out(&self) -> u64 {
        self.wb_out.len() as u64
    }

    /// True if a miss for this line is outstanding.
    pub fn miss_pending(&self, line_addr: u64) -> bool {
        let tag = self.line_addr(line_addr);
        self.mshrs.iter().any(|m| m.line_addr == tag)
    }

    /// The first cycle at which ticking the cache does anything: the hit
    /// pipe's head maturing, or `Some(now)` while undelivered output sits
    /// on the response/miss/writeback ports. `None` means ticking is a
    /// no-op until some external `access`/`fill` arrives.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if !self.resp_out.is_empty() || !self.miss_out.is_empty() || !self.wb_out.is_empty() {
            return Some(now);
        }
        self.hit_pipe.next_ready().map(|t| t.max(now))
    }

    /// Pops a completed request (hit or fill completion).
    pub fn pop_response(&mut self) -> Option<MemReq> {
        self.resp_out.pop_front()
    }

    /// Pops a line address that needs fetching from the next level.
    pub fn pop_miss(&mut self) -> Option<u64> {
        self.miss_out.pop_front()
    }

    /// Pops a dirty line address written back toward the next level.
    pub fn pop_writeback(&mut self) -> Option<u64> {
        self.wb_out.pop_front()
    }

    /// Appends this cache's mutable state (everything but the
    /// configuration) to a checkpoint. Only resident lines are written,
    /// each as its way, dirtiness, tag and recency; the set follows from
    /// the tag, and every other slot is `Line::default()`. A checkpoint's
    /// size therefore follows what the run touched, not the capacity.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let assoc = self.params.assoc as usize;
        w.usize(self.lines.iter().filter(|l| l.valid).count());
        for (slot, l) in self.lines.iter().enumerate().filter(|(_, l)| l.valid) {
            w.u16((slot % assoc) as u16);
            w.bool(l.dirty);
            w.u64(l.tag);
            w.u64(l.last_used);
        }
        self.mshrs.save(w);
        self.hit_pipe.save(w);
        self.resp_out.save(w);
        self.miss_out.save(w);
        self.wb_out.save(w);
        self.accepts_this_cycle.save(w);
        self.stats.save(w);
    }

    /// Restores state written by [`Cache::save_state`] into this cache.
    /// The configuration (`params`, `mshr_targets`) is kept — the caller
    /// rebuilds it from the run parameters — and every restored line must
    /// fit it: a way inside the set, a line-aligned tag, and no slot or
    /// tag claimed twice.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        // Way (2) + dirty (1) + tag (8) + recency (8) bytes per line.
        let resident = r.len(19)?;
        if resident > self.lines.len() {
            return Err(SnapError::Corrupt {
                what: format!(
                    "{resident} resident lines restored into a cache of {}",
                    self.lines.len()
                ),
            });
        }
        self.lines.fill(Line::default());
        for _ in 0..resident {
            let way = usize::from(r.u16()?);
            let dirty = r.bool()?;
            let tag = r.u64()?;
            let last_used = r.u64()?;
            let (set, line) = self.locate(tag);
            if way >= self.params.assoc as usize || line != tag {
                return Err(SnapError::Corrupt {
                    what: format!("cache line {tag:#x} restored into way {way}"),
                });
            }
            let ways = self.ways_mut(set);
            if ways[way].valid || ways.iter().any(|l| l.valid && l.tag == tag) {
                return Err(SnapError::Corrupt {
                    what: format!("cache line {tag:#x} or its slot restored twice"),
                });
            }
            ways[way] = Line {
                valid: true,
                dirty,
                tag,
                last_used,
            };
        }
        let mshrs: Vec<Mshr> = Snap::load(r)?;
        if mshrs.len() > self.params.mshrs {
            return Err(SnapError::Corrupt {
                what: format!(
                    "{} MSHRs restored into a cache with {}",
                    mshrs.len(),
                    self.params.mshrs
                ),
            });
        }
        let hit_pipe: DelayQueue<MemReq> = Snap::load(r)?;
        if hit_pipe.latency() != self.params.hit_latency {
            return Err(SnapError::Corrupt {
                what: "cache hit-pipe latency mismatch".into(),
            });
        }
        self.mshrs = mshrs;
        self.hit_pipe = hit_pipe;
        self.resp_out = Snap::load(r)?;
        self.miss_out = Snap::load(r)?;
        self.wb_out = Snap::load(r)?;
        self.accepts_this_cycle = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        Ok(())
    }
}

snap_struct!(Mshr {
    line_addr,
    reqs,
    any_store,
});
snap_struct!(CacheStats {
    accesses,
    stores,
    hits,
    misses,
    mshr_merges,
    rejects,
    writebacks,
    invalidations,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::{AccessKind, PortId};

    fn req(id: u64, addr: u64, is_store: bool) -> MemReq {
        MemReq {
            id,
            addr,
            size: 4,
            is_store,
            kind: AccessKind::Data,
            port: PortId::BigData,
        }
    }

    fn small_cache() -> Cache {
        Cache::new(CacheParams {
            size_bytes: 1024,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 2,
            mshrs: 2,
            ports: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache();
        c.tick(0);
        assert_eq!(c.access(0, req(1, 0x100, false)), AccessOutcome::Miss);
        assert_eq!(c.pop_miss(), Some(0x100));
        c.fill(5, 0x100);
        c.tick(8);
        assert_eq!(c.pop_response().unwrap().id, 1);
        c.tick(9);
        assert_eq!(c.access(9, req(2, 0x104, false)), AccessOutcome::Hit);
        c.tick(11);
        assert_eq!(c.pop_response().unwrap().id, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn secondary_miss_merges() {
        let mut c = small_cache();
        c.tick(0);
        assert_eq!(c.access(0, req(1, 0x100, false)), AccessOutcome::Miss);
        c.tick(1);
        assert_eq!(c.access(1, req(2, 0x108, false)), AccessOutcome::MergedMiss);
        // Only one line request surfaced.
        assert_eq!(c.pop_miss(), Some(0x100));
        assert_eq!(c.pop_miss(), None);
        c.fill(5, 0x100);
        c.tick(7);
        let ids: Vec<u64> = std::iter::from_fn(|| c.pop_response())
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn port_limit_rejects() {
        let mut c = small_cache();
        c.tick(0);
        assert_eq!(c.access(0, req(1, 0x100, false)), AccessOutcome::Miss);
        assert_eq!(c.access(0, req(2, 0x200, false)), AccessOutcome::Rejected);
        c.tick(1);
        assert_eq!(c.access(1, req(2, 0x200, false)), AccessOutcome::Miss);
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let mut c = small_cache(); // 2 MSHRs, 1 port
        c.tick(0);
        assert_eq!(c.access(0, req(1, 0x1000, false)), AccessOutcome::Miss);
        c.tick(1);
        assert_eq!(c.access(1, req(2, 0x2000, false)), AccessOutcome::Miss);
        c.tick(2);
        assert_eq!(c.access(2, req(3, 0x3000, false)), AccessOutcome::Rejected);
        assert_eq!(c.stats().rejects, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = small_cache(); // 8 sets, 2 ways
                                   // Three lines mapping to the same set: stride = sets*line = 512.
        for (i, addr) in [0x0u64, 0x200, 0x400].iter().enumerate() {
            c.tick(i as u64 * 10);
            let is_store = i == 0;
            c.access(i as u64 * 10, req(i as u64, *addr, is_store));
            c.fill(i as u64 * 10 + 3, *addr);
        }
        // Filling the third line evicts the LRU (the dirty first line).
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.pop_writeback(), Some(0x0));
    }

    #[test]
    fn lru_prefers_recently_used() {
        let mut c = small_cache();
        c.tick(0);
        c.access(0, req(1, 0x0, false));
        c.fill(0, 0x0);
        c.tick(1);
        c.access(1, req(2, 0x200, false));
        c.fill(1, 0x200);
        // Touch 0x0 so 0x200 is LRU.
        c.tick(10);
        c.access(10, req(3, 0x0, false));
        c.tick(11);
        c.access(11, req(4, 0x400, false));
        c.fill(11, 0x400);
        assert!(c.probe(0x0));
        assert!(!c.probe(0x200));
    }

    #[test]
    fn invalidation_reports_dirtiness() {
        let mut c = small_cache();
        c.tick(0);
        c.access(0, req(1, 0x100, true));
        c.fill(0, 0x100);
        assert_eq!(c.invalidate(0x100), Some(true));
        assert!(!c.probe(0x100));
        assert_eq!(c.invalidate(0x100), None);
        assert_eq!(c.pop_writeback(), Some(0x100));
    }

    #[test]
    fn next_event_tracks_hit_pipe_and_output_ports() {
        let mut c = small_cache();
        c.tick(0);
        assert_eq!(c.next_event(0), None);
        // A miss leaves the line request on the miss port: event now.
        assert_eq!(c.access(0, req(1, 0x100, false)), AccessOutcome::Miss);
        assert_eq!(c.next_event(0), Some(0));
        assert_eq!(c.pop_miss(), Some(0x100));
        assert_eq!(c.next_event(0), None);
        // A fill at cycle 5 matures through the 2-cycle hit pipe at 7.
        c.fill(5, 0x100);
        assert_eq!(c.next_event(5), Some(7));
        c.tick(6);
        assert!(c.pop_response().is_none());
        c.tick(7);
        assert_eq!(c.next_event(7), Some(7));
        assert_eq!(c.pop_response().unwrap().id, 1);
        assert_eq!(c.next_event(7), None);
    }

    fn encoded(c: &Cache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        w.into_bytes()
    }

    fn restored(bytes: &[u8]) -> Result<Cache, SnapError> {
        let mut c = small_cache();
        let mut r = SnapReader::new(bytes);
        c.restore_state(&mut r)?;
        r.finish()?;
        Ok(c)
    }

    #[test]
    fn checkpoint_grows_with_resident_lines_not_capacity() {
        let cold = encoded(&small_cache());
        let mut big = Cache::new(CacheParams::shared_l2());
        assert_eq!(encoded(&big).len(), cold.len(), "capacity costs nothing");

        let mut c = small_cache();
        for (i, line) in [0x0u64, 0x200, 0x440].into_iter().enumerate() {
            c.warm(i as u64, line, i == 1);
            big.warm(i as u64, line, i == 1);
        }
        assert_eq!(encoded(&c).len(), cold.len() + 3 * 19);
        assert_eq!(encoded(&big).len(), encoded(&c).len());
    }

    #[test]
    fn resident_lines_restore_into_their_slots() {
        let mut c = small_cache(); // 8 sets, 2 ways
        c.warm(1, 0x0, false);
        c.warm(2, 0x200, true); // same set, second way
        c.warm(3, 0x440, false);
        c.invalidate(0x0); // leaves a hole in way 0
        let bytes = encoded(&c);
        let mut back = restored(&bytes).expect("restore");
        assert_eq!(encoded(&back), bytes, "re-encoding is stable");
        let mut lines = back.resident_lines();
        lines.sort_unstable();
        assert_eq!(lines, vec![(0x200, true), (0x440, false)]);
        // The hole is still way 0 and 0x200 still way 1: the next two
        // fills of that set take the hole, then evict the LRU line.
        for cache in [&mut c, &mut back] {
            cache.fill(10, 0x400);
            cache.fill(11, 0x600);
            assert!(!cache.probe(0x200), "LRU victim after restore");
            assert_eq!(cache.pop_writeback(), Some(0x200));
        }
        assert_eq!(encoded(&back), encoded(&c));
    }

    #[test]
    fn misplaced_or_repeated_lines_are_typed_errors() {
        let line = |way: u16, tag: u64| {
            let mut w = SnapWriter::new();
            w.u16(way);
            w.bool(false);
            w.u64(tag);
            w.u64(0);
            w.into_bytes()
        };
        let cold = encoded(&small_cache());
        let with = |lines: &[Vec<u8>]| {
            let mut w = SnapWriter::new();
            w.usize(lines.len());
            let mut bytes = w.into_bytes();
            for l in lines {
                bytes.extend_from_slice(l);
            }
            bytes.extend_from_slice(&cold[8..]); // the rest of the state
            bytes
        };
        assert!(restored(&with(&[line(1, 0x40)])).is_ok());
        for bad in [
            with(&[line(2, 0x40)]),                 // way beyond the set
            with(&[line(0, 0x41)]),                 // unaligned tag
            with(&[line(0, 0x40), line(0, 0x240)]), // one slot twice
            with(&[line(0, 0x40), line(1, 0x40)]),  // one line twice
        ] {
            assert!(
                matches!(restored(&bad), Err(SnapError::Corrupt { .. })),
                "accepted a corrupt line table"
            );
        }
    }

    #[test]
    fn hit_rate_stat() {
        let mut c = small_cache();
        c.tick(0);
        c.access(0, req(1, 0x100, false));
        c.fill(1, 0x100);
        c.tick(2);
        c.access(2, req(2, 0x100, false));
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
    }
}
