//! The composed, reconfigurable memory hierarchy.
//!
//! Structure (matching the paper's Table II system):
//!
//! ```text
//!  little0..n: L1I + L1D   big: L1I + L1D   DVE (1bDV only)
//!        \        |            |             /
//!         +-------+---- NoC ---+------------+
//!                       |
//!                  shared L2 (+ MSI directory)
//!                       |
//!                     DRAM
//! ```
//!
//! Two modes:
//!
//! * **Scalar mode** — every little core accesses its private L1D through
//!   [`PortId::LittleData`]; coherence is maintained by the directory.
//! * **Vector mode** — the VLITTLE engine's VMU accesses the little L1Ds
//!   as address-interleaved banks through [`PortId::Vmu`]; the *bank bits
//!   sit between the block offset and the index* and the full line address
//!   remains the tag, so no flush is needed on a mode switch. A line still
//!   cached in the "wrong" bank from scalar mode is migrated on first
//!   touch by the ordinary directory actions (counted in
//!   [`MemStats::line_migrations`]).

use crate::cache::{AccessOutcome, Cache, CacheParams, CacheStats};
use crate::coherence::{Directory, MAX_CACHES};
use crate::dram::{Dram, DramParams};
use crate::queue::DelayQueue;
use crate::req::{AccessKind, MemReq, MemResp, PortId};
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Sentinel id marking internal writeback traffic (responses discarded).
const WB_ID: u64 = u64::MAX;

/// The most little cores (or VLITTLE lanes, one L1 bank each) a hierarchy
/// holds: the coherence directory numbers the littles' caches `0..n` and
/// the big core's `n`, and tracks at most [`MAX_CACHES`] caches.
pub const MAX_LITTLE: usize = MAX_CACHES - 1;

/// Configuration of the whole hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct HierConfig {
    /// Number of little cores (0 for the `1b`/`1bIV`/`1bDV` systems).
    pub num_little: usize,
    /// Whether a big core (with its own L1s) is present.
    pub has_big: bool,
    /// Whether the decoupled vector engine's L2 port is present.
    pub has_dve: bool,
    /// Little-core L1I parameters.
    pub little_l1i: CacheParams,
    /// Little-core L1D parameters.
    pub little_l1d: CacheParams,
    /// Big-core L1I parameters.
    pub big_l1i: CacheParams,
    /// Big-core L1D parameters.
    pub big_l1d: CacheParams,
    /// Shared L2 parameters.
    pub l2: CacheParams,
    /// DRAM parameters.
    pub dram: DramParams,
    /// One-way NoC latency between L1s and L2, cycles.
    pub noc_latency: u64,
    /// Extra latency per coherence action (invalidate / dirty fetch).
    pub coherence_latency: u64,
    /// Line requests the DVE may inject per cycle (its high-bandwidth
    /// port; the paper gives the decoupled engine more L2 bandwidth than
    /// an L1 port).
    pub dve_l2_ports: u32,
}

impl HierConfig {
    /// The default big.LITTLE-style hierarchy with `n` little cores.
    pub fn with_little(n: usize) -> Self {
        HierConfig {
            num_little: n,
            has_big: true,
            has_dve: false,
            little_l1i: CacheParams::little_l1(),
            little_l1d: CacheParams::little_l1(),
            big_l1i: CacheParams::big_l1(),
            big_l1d: CacheParams::big_l1(),
            l2: CacheParams::shared_l2(),
            dram: DramParams::default(),
            noc_latency: 3,
            coherence_latency: 8,
            dve_l2_ports: 4,
        }
    }
}

/// Aggregated hierarchy statistics (inputs to Figures 5, 6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Instruction-fetch requests entering the L1 level.
    pub ifetch_reqs: u64,
    /// Data requests entering the L1 level (scalar ports, VMU banks and
    /// the DVE's L2 port).
    pub data_reqs: u64,
    /// Requests reaching the shared L2.
    pub l2_reqs: u64,
    /// Of the data requests, those arriving on the DVE's direct L2 port
    /// (they bypass every L1 — `data_reqs - dve_reqs` equals the sum of
    /// L1D accepts).
    pub dve_reqs: u64,
    /// Of the data requests, those arriving on VMU bank ports — each is
    /// one accepted VMU line request (conservation law `vmu-flow`).
    pub vmu_reqs: u64,
    /// Coherence messages issued by the directory.
    pub coherence_msgs: u64,
    /// Vector-mode accesses that found their line dirty in another bank
    /// and migrated it.
    pub line_migrations: u64,
}

impl MemStats {
    /// Registers every counter under `scope` (conventionally `sys.mem`).
    pub fn register(&self, scope: &mut bvl_obs::Scope<'_>) {
        scope.set("ifetch_reqs", self.ifetch_reqs);
        scope.set("data_reqs", self.data_reqs);
        scope.set("l2_reqs", self.l2_reqs);
        scope.set("dve_reqs", self.dve_reqs);
        scope.set("vmu_reqs", self.vmu_reqs);
        scope.set("coherence_msgs", self.coherence_msgs);
        scope.set("line_migrations", self.line_migrations);
    }
}

#[derive(Clone, Copy, Debug)]
struct L2Entry {
    req: MemReq,
    /// Extra coherence delay already charged to this entry.
    extra: u64,
}

/// Which L1-level structure a functionally-warmed line is installed into
/// (see [`MemHierarchy::warm_line`]). The shared L2 is warmed inclusively
/// for every target, so `L2Only` exists for agents without an L1 in the
/// path (the decoupled vector engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WarmTarget {
    /// A little core's (or VMU bank's) L1I.
    LittleI(usize),
    /// A little core's (or VMU bank's) L1D.
    LittleD(usize),
    /// The big core's L1I.
    BigI,
    /// The big core's L1D (also the IVU's data path).
    BigD,
    /// Only the shared L2 (the DVE bypasses every L1).
    L2Only,
}

/// The memory hierarchy timing model.
#[derive(Clone, Debug)]
pub struct MemHierarchy {
    cfg: HierConfig,
    little_l1i: Vec<Cache>,
    little_l1d: Vec<Cache>,
    big_l1i: Option<Cache>,
    big_l1d: Option<Cache>,
    l2: Cache,
    dram: Dram<(u64, bool)>, // (line, is_write)
    dir: Directory,
    to_l2: DelayQueue<L2Entry>,
    pending_l2: VecDeque<L2Entry>,
    from_l2: DelayQueue<MemReq>,
    pending_dram: VecDeque<(u64, bool)>,
    resp_little_d: Vec<VecDeque<MemResp>>,
    resp_little_i: Vec<VecDeque<MemResp>>,
    resp_big_d: VecDeque<MemResp>,
    resp_big_i: VecDeque<MemResp>,
    resp_ivu: VecDeque<MemResp>,
    resp_vmu: VecDeque<MemResp>,
    resp_dve: VecDeque<MemResp>,
    dve_accepts_this_cycle: u32,
    vector_mode: bool,
    now: u64,
    next_internal_id: u64,
    stats: MemStats,
}

impl MemHierarchy {
    /// Builds the hierarchy from its configuration.
    pub fn new(cfg: HierConfig) -> Self {
        MemHierarchy {
            little_l1i: (0..cfg.num_little)
                .map(|_| Cache::new(cfg.little_l1i))
                .collect(),
            little_l1d: (0..cfg.num_little)
                .map(|_| Cache::new(cfg.little_l1d))
                .collect(),
            big_l1i: cfg.has_big.then(|| Cache::new(cfg.big_l1i)),
            big_l1d: cfg.has_big.then(|| Cache::new(cfg.big_l1d)),
            l2: Cache::new(cfg.l2),
            dram: Dram::new(cfg.dram),
            dir: Directory::new(),
            to_l2: DelayQueue::new(cfg.noc_latency),
            pending_l2: VecDeque::new(),
            from_l2: DelayQueue::new(cfg.noc_latency),
            pending_dram: VecDeque::new(),
            resp_little_d: (0..cfg.num_little).map(|_| VecDeque::new()).collect(),
            resp_little_i: (0..cfg.num_little).map(|_| VecDeque::new()).collect(),
            resp_big_d: VecDeque::new(),
            resp_big_i: VecDeque::new(),
            resp_ivu: VecDeque::new(),
            resp_vmu: VecDeque::new(),
            resp_dve: VecDeque::new(),
            dve_accepts_this_cycle: 0,
            vector_mode: false,
            now: 0,
            next_internal_id: 0,
            stats: MemStats::default(),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HierConfig {
        &self.cfg
    }

    /// Line size in bytes (uniform across the hierarchy).
    pub fn line_bytes(&self) -> u64 {
        self.cfg.l2.line_bytes
    }

    /// Switches between scalar and vector mode (paper section III-E). No
    /// flush: lines migrate lazily via the coherence protocol.
    pub fn set_vector_mode(&mut self, on: bool) {
        self.vector_mode = on;
    }

    /// True while in vector mode.
    pub fn vector_mode(&self) -> bool {
        self.vector_mode
    }

    /// The bank (little L1D index) owning `addr` in vector mode: bank bits
    /// sit directly above the block offset.
    pub fn bank_of(&self, addr: u64) -> u8 {
        let banks = self.cfg.num_little.max(1) as u64;
        ((addr / self.line_bytes()) % banks) as u8
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats;
        s.coherence_msgs = self.dir.messages();
        s
    }

    /// A little core's L1D statistics.
    pub fn little_l1d_stats(&self, c: usize) -> &CacheStats {
        self.little_l1d[c].stats()
    }

    /// Shared L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> &crate::dram::DramStats {
        self.dram.stats()
    }

    /// Requests already counted at the L1 level (misses, writebacks, DVE
    /// injections) that have not yet been presented to the L2: undelivered
    /// L1 miss/writeback ports, NoC flight, and the L2's reject-retry
    /// queue. Simulation ends when cores and engines are done, not when
    /// the hierarchy is fully drained — e.g. a speculative ifetch miss
    /// issued right before a core halts — so the `l2-flow` conservation
    /// law carries this as its in-flight term.
    pub fn l2_inflight(&self) -> u64 {
        let l1_ports: u64 = self
            .little_l1i
            .iter()
            .chain(&self.little_l1d)
            .chain(&self.big_l1i)
            .chain(&self.big_l1d)
            .map(|c| c.pending_miss_out() + c.pending_wb_out())
            .sum();
        l1_ports + self.to_l2.len() as u64 + self.pending_l2.len() as u64
    }

    /// L2 misses / writebacks already counted but not yet accepted by
    /// DRAM, as `(reads, writes)` — the `dram-flow` law's in-flight term
    /// (see [`MemHierarchy::l2_inflight`]).
    pub fn dram_inflight(&self) -> (u64, u64) {
        let rd = self.pending_dram.iter().filter(|&&(_, w)| !w).count() as u64
            + self.l2.pending_miss_out();
        let wr =
            self.pending_dram.iter().filter(|&&(_, w)| w).count() as u64 + self.l2.pending_wb_out();
        (rd, wr)
    }

    /// Registers every cache, the DRAM and the hierarchy's front-door
    /// counters under `sys` — `sys.little{i}.l1{i,d}.*`, `sys.big.l1{i,d}.*`,
    /// `sys.l2.*`, `sys.dram.*`, `sys.mem.*`. In vector mode the little
    /// L1Ds double as VMU banks, but they are the same physical caches, so
    /// the paths stay `little{i}.l1d` regardless of the final mode.
    pub fn register_stats(&self, sys: &mut bvl_obs::Scope<'_>) {
        for c in 0..self.cfg.num_little {
            let mut core = sys.scope(&format!("little{c}"));
            self.little_l1i[c].stats().register(&mut core.scope("l1i"));
            self.little_l1d[c].stats().register(&mut core.scope("l1d"));
        }
        if let (Some(l1i), Some(l1d)) = (&self.big_l1i, &self.big_l1d) {
            let mut big = sys.scope("big");
            l1i.stats().register(&mut big.scope("l1i"));
            l1d.stats().register(&mut big.scope("l1d"));
        }
        self.l2.stats().register(&mut sys.scope("l2"));
        self.dram.stats().register(&mut sys.scope("dram"));
        let mut mem = sys.scope("mem");
        self.stats().register(&mut mem);
        mem.set("l2_inflight", self.l2_inflight());
        let (rd, wr) = self.dram_inflight();
        mem.set("dram_inflight_rd", rd);
        mem.set("dram_inflight_wr", wr);
    }

    fn internal_id(&mut self) -> u64 {
        self.next_internal_id += 1;
        self.next_internal_id
    }

    /// Advances the hierarchy by one uncore cycle. Call once per cycle
    /// *before* cores issue their requests for that cycle.
    pub fn tick(&mut self, now: u64) {
        self.now = now;
        self.dve_accepts_this_cycle = 0;

        // 1. DRAM completions fill the L2.
        self.dram.tick(now);
        while let Some((line, is_write)) = self.dram.pop_done() {
            if !is_write {
                self.l2.fill(now, line);
            }
        }

        // 2. L2 completions travel back across the NoC.
        self.l2.tick(now);
        while let Some(req) = self.l2.pop_response() {
            if req.id != WB_ID {
                self.from_l2.push(now, req);
            }
        }
        while let Some(line) = self.l2.pop_miss() {
            self.pending_dram.push_back((line, false));
        }
        while let Some(line) = self.l2.pop_writeback() {
            self.pending_dram.push_back((line, true));
        }
        while let Some(&(line, w)) = self.pending_dram.front() {
            if self.dram.try_request(now, w, (line, w)) {
                bvl_obs::trace::emit(now, "dram", 0, if w { "wr" } else { "rd" }, line);
                self.pending_dram.pop_front();
            } else {
                break;
            }
        }

        // 3. L2 fills reach the L1s (or the DVE).
        while let Some(req) = self.from_l2.pop_ready(now) {
            self.deliver_l2_fill(req);
        }

        // 4. L1 caches advance; their completions, misses and writebacks
        //    are drained.
        for c in 0..self.cfg.num_little {
            self.little_l1i[c].tick(now);
            self.little_l1d[c].tick(now);
        }
        if let Some(c) = self.big_l1i.as_mut() {
            c.tick(now);
        }
        if let Some(c) = self.big_l1d.as_mut() {
            c.tick(now);
        }
        self.drain_l1s();

        // 5. NoC-delayed L1 miss traffic reaches the L2.
        while let Some(e) = self.to_l2.pop_ready(now) {
            self.pending_l2.push_back(e);
        }
        while let Some(&front) = self.pending_l2.front() {
            if front.extra > 0 {
                // Charge remaining coherence latency one cycle at a time.
                self.pending_l2.front_mut().expect("front checked").extra -= 1;
                break;
            }
            match self.l2.access(now, front.req) {
                AccessOutcome::Rejected => break,
                _ => {
                    self.stats.l2_reqs += 1;
                    self.pending_l2.pop_front();
                }
            }
        }
    }

    fn deliver_l2_fill(&mut self, req: MemReq) {
        let line = req.addr;
        match req.port {
            PortId::LittleFetch(c) => self.little_l1i[c as usize].fill(self.now, line),
            PortId::LittleData(c) | PortId::Vmu(c) => {
                self.little_l1d[c as usize].fill(self.now, line)
            }
            PortId::BigFetch => {
                if let Some(c) = self.big_l1i.as_mut() {
                    c.fill(self.now, line)
                }
            }
            PortId::BigData | PortId::Ivu => {
                if let Some(c) = self.big_l1d.as_mut() {
                    c.fill(self.now, line)
                }
            }
            PortId::DveL2 => self.resp_dve.push_back(req.response()),
        }
    }

    fn drain_l1s(&mut self) {
        // Completions to per-port response queues.
        for c in 0..self.cfg.num_little {
            while let Some(req) = self.little_l1i[c].pop_response() {
                self.resp_little_i[c].push_back(req.response());
            }
            while let Some(req) = self.little_l1d[c].pop_response() {
                match req.port {
                    PortId::Vmu(_) => self.resp_vmu.push_back(req.response()),
                    _ => self.resp_little_d[c].push_back(req.response()),
                }
            }
        }
        if let Some(cache) = self.big_l1i.as_mut() {
            while let Some(req) = cache.pop_response() {
                self.resp_big_i.push_back(req.response());
            }
        }
        if let Some(cache) = self.big_l1d.as_mut() {
            while let Some(req) = cache.pop_response() {
                match req.port {
                    PortId::Ivu => self.resp_ivu.push_back(req.response()),
                    _ => self.resp_big_d.push_back(req.response()),
                }
            }
        }

        // Misses become NoC traffic toward the L2, passing the directory.
        for c in 0..self.cfg.num_little {
            while let Some(line) = self.little_l1i[c].pop_miss() {
                let req = self.line_req(
                    line,
                    false,
                    AccessKind::IFetch,
                    PortId::LittleFetch(c as u8),
                );
                self.to_l2.push(self.now, L2Entry { req, extra: 0 });
            }
            while let Some(line) = self.little_l1d[c].pop_miss() {
                self.data_miss_to_l2(line, c as u8);
            }
            while let Some(line) = self.little_l1d[c].pop_writeback() {
                self.dir.on_evict(line, c as u8);
                self.writeback_to_l2(line, PortId::LittleData(c as u8));
            }
            while let Some(_line) = self.little_l1i[c].pop_writeback() {
                // Instruction lines are never dirty; nothing to do.
            }
        }
        let big_agent = self.cfg.num_little as u8;
        if self.big_l1i.is_some() {
            while let Some(line) = self.big_l1i.as_mut().expect("checked").pop_miss() {
                let req = self.line_req(line, false, AccessKind::IFetch, PortId::BigFetch);
                self.to_l2.push(self.now, L2Entry { req, extra: 0 });
            }
        }
        if self.big_l1d.is_some() {
            while let Some(line) = self.big_l1d.as_mut().expect("checked").pop_miss() {
                self.data_miss_big(line, big_agent);
            }
            while let Some(line) = self.big_l1d.as_mut().expect("checked").pop_writeback() {
                self.dir.on_evict(line, big_agent);
                self.writeback_to_l2(line, PortId::BigData);
            }
        }
    }

    fn line_req(&mut self, line: u64, is_store: bool, kind: AccessKind, port: PortId) -> MemReq {
        MemReq {
            id: self.internal_id(),
            addr: line,
            size: self.line_bytes(),
            is_store,
            kind,
            port,
        }
    }

    /// Routes a little-L1D miss (scalar or VMU-bank) through the directory.
    fn data_miss_to_l2(&mut self, line: u64, cache_id: u8) {
        // Intent: conservatively read; stores mark the filled line dirty
        // and the directory is fixed up at store time (see `request`).
        let actions = self.dir.on_read(line, cache_id);
        let extra = self.apply_actions(line, &actions, cache_id);
        let port = if self.vector_mode {
            PortId::Vmu(cache_id)
        } else {
            PortId::LittleData(cache_id)
        };
        if self.vector_mode && actions.fetch_dirty_from.is_some() {
            self.stats.line_migrations += 1;
            bvl_obs::trace::emit(self.now, "mem", cache_id as u16, "migrate", line);
        }
        let req = self.line_req(line, false, AccessKind::Data, port);
        self.to_l2.push(self.now, L2Entry { req, extra });
    }

    fn data_miss_big(&mut self, line: u64, agent: u8) {
        let actions = self.dir.on_read(line, agent);
        let extra = self.apply_actions(line, &actions, agent);
        let req = self.line_req(line, false, AccessKind::Data, PortId::BigData);
        self.to_l2.push(self.now, L2Entry { req, extra });
    }

    /// Invalidates / collects copies per the directory's actions; returns
    /// the extra latency charged to the triggering request.
    fn apply_actions(
        &mut self,
        line: u64,
        actions: &crate::coherence::CoherenceActions,
        _requester: u8,
    ) -> u64 {
        let mut extra = 0;
        let n = self.cfg.num_little as u8;
        for &target in actions
            .invalidate
            .iter()
            .chain(actions.fetch_dirty_from.iter())
        {
            extra += self.cfg.coherence_latency;
            if target < n {
                self.little_l1d[target as usize].invalidate(line);
            } else if target == n {
                if let Some(c) = self.big_l1d.as_mut() {
                    c.invalidate(line);
                }
            }
            // DVE (agent n+1) holds no cache; nothing to invalidate.
            self.dir.on_evict(line, target);
        }
        extra
    }

    fn writeback_to_l2(&mut self, line: u64, port: PortId) {
        let req = MemReq {
            id: WB_ID,
            addr: line,
            size: self.line_bytes(),
            is_store: true,
            kind: AccessKind::Data,
            port,
        };
        self.to_l2.push(self.now, L2Entry { req, extra: 0 });
    }

    /// Presents a request from a core or engine. Returns `false` when the
    /// target cannot accept it this cycle (retry next cycle).
    ///
    /// # Panics
    ///
    /// Panics (debug) if a port inconsistent with the current mode is used
    /// — e.g. [`PortId::LittleData`] while in vector mode.
    pub fn request(&mut self, req: MemReq) -> bool {
        debug_assert_ne!(req.id, WB_ID, "WB_ID is reserved for internal traffic");
        match req.port {
            PortId::LittleFetch(c) => {
                let outcome = self.little_l1i[c as usize].access(self.now, req);
                if outcome != AccessOutcome::Rejected {
                    self.stats.ifetch_reqs += 1;
                }
                outcome != AccessOutcome::Rejected
            }
            PortId::BigFetch => {
                let cache = self.big_l1i.as_mut().expect("no big core");
                let outcome = cache.access(self.now, req);
                if outcome != AccessOutcome::Rejected {
                    self.stats.ifetch_reqs += 1;
                }
                outcome != AccessOutcome::Rejected
            }
            PortId::LittleData(c) => {
                debug_assert!(
                    !self.vector_mode,
                    "little cores do not access L1D directly in vector mode"
                );
                self.data_access(req, c)
            }
            PortId::Vmu(bank) => {
                debug_assert!(self.vector_mode, "VMU ports exist only in vector mode");
                debug_assert_eq!(
                    self.bank_of(req.addr),
                    bank,
                    "VMU request routed to the wrong bank"
                );
                let accepted = self.data_access(req, bank);
                if accepted {
                    self.stats.vmu_reqs += 1;
                }
                accepted
            }
            PortId::BigData | PortId::Ivu => {
                let agent = self.cfg.num_little as u8;
                let line = req.line_addr(self.line_bytes());
                let cache = self.big_l1d.as_mut().expect("no big core");
                let outcome = cache.access(self.now, req);
                if outcome == AccessOutcome::Rejected {
                    return false;
                }
                self.stats.data_reqs += 1;
                if req.is_store {
                    self.store_ownership(line, agent);
                }
                true
            }
            PortId::DveL2 => {
                assert!(self.cfg.has_dve, "system has no decoupled vector engine");
                if self.dve_accepts_this_cycle >= self.cfg.dve_l2_ports {
                    return false;
                }
                self.dve_accepts_this_cycle += 1;
                self.stats.data_reqs += 1;
                self.stats.dve_reqs += 1;
                let agent = self.cfg.num_little as u8 + 1;
                let line = req.line_addr(self.line_bytes());
                let actions = if req.is_store {
                    self.dir.on_write(line, agent)
                } else {
                    self.dir.on_read(line, agent)
                };
                let extra = self.apply_actions(line, &actions, agent);
                self.to_l2.push(self.now, L2Entry { req, extra });
                true
            }
        }
    }

    fn data_access(&mut self, req: MemReq, cache_id: u8) -> bool {
        let line = req.line_addr(self.line_bytes());
        let outcome = self.little_l1d[cache_id as usize].access(self.now, req);
        if outcome == AccessOutcome::Rejected {
            return false;
        }
        self.stats.data_reqs += 1;
        if req.is_store {
            self.store_ownership(line, cache_id);
        }
        true
    }

    /// Ensures the directory records `agent` as exclusive owner for a
    /// store, invalidating other copies. Charged without extra latency to
    /// the storing agent (documented simplification: the cost lands on the
    /// caches that lose the line).
    fn store_ownership(&mut self, line: u64, agent: u8) {
        if self.dir.entry(line).owner == Some(agent) {
            return;
        }
        let actions = self.dir.on_write(line, agent);
        self.apply_actions(line, &actions, agent);
        // apply_actions evicted every other copy; re-record the writer.
        let refreshed = self.dir.on_write(line, agent);
        debug_assert!(refreshed.is_empty());
    }

    /// Installs one functionally-observed line for sample-window warm-up:
    /// the target L1 (if any) gets the line with the given dirtiness, the
    /// shared L2 is warmed inclusively with a clean copy, and the
    /// directory records residency — all *silently*, with no statistics,
    /// MSHRs, writebacks or coherence messages (warm state predates the
    /// measured window). `stamp` orders lines for LRU replacement; replay
    /// recency traces oldest-to-newest with increasing stamps.
    ///
    /// Instruction lines skip the directory (L1I misses never consult
    /// it), and DVE lines (`L2Only`) are tracked under the DVE's agent id
    /// exactly as [`MemHierarchy::request`] would.
    ///
    /// # Panics
    ///
    /// Panics if the target cache does not exist in this configuration.
    pub fn warm_line(&mut self, stamp: u64, target: WarmTarget, line: u64, dirty: bool) {
        debug_assert_eq!(line & (self.line_bytes() - 1), 0, "line-aligned");
        let big_agent = self.cfg.num_little as u8;
        match target {
            WarmTarget::LittleI(c) => self.little_l1i[c].warm(stamp, line, false),
            WarmTarget::LittleD(c) => {
                self.little_l1d[c].warm(stamp, line, dirty);
                self.dir.warm_record(line, c as u8, dirty);
            }
            WarmTarget::BigI => self
                .big_l1i
                .as_mut()
                .expect("no big core")
                .warm(stamp, line, false),
            WarmTarget::BigD => {
                self.big_l1d
                    .as_mut()
                    .expect("no big core")
                    .warm(stamp, line, dirty);
                self.dir.warm_record(line, big_agent, dirty);
            }
            WarmTarget::L2Only => {
                self.dir.warm_record(line, big_agent + 1, dirty);
            }
        }
        // Inclusive L2 warm-up: every line an L1 holds also sits (clean)
        // in the L2, exactly as the exact miss path would leave it. The
        // L2 copy carries the dirty bit only for the L1-less DVE path.
        self.l2
            .warm(stamp, line, dirty && target == WarmTarget::L2Only);
    }

    /// Resident lines (with dirtiness) of the cache a [`WarmTarget`]
    /// names, for the warm-state injection tests.
    ///
    /// # Panics
    ///
    /// Panics if the target cache does not exist in this configuration.
    pub fn resident_lines(&self, target: WarmTarget) -> Vec<(u64, bool)> {
        match target {
            WarmTarget::LittleI(c) => self.little_l1i[c].resident_lines(),
            WarmTarget::LittleD(c) => self.little_l1d[c].resident_lines(),
            WarmTarget::BigI => self.big_l1i.as_ref().expect("no big core").resident_lines(),
            WarmTarget::BigD => self.big_l1d.as_ref().expect("no big core").resident_lines(),
            WarmTarget::L2Only => self.l2.resident_lines(),
        }
    }

    /// Line capacity of the cache a [`WarmTarget`] names (callers cap
    /// warm-trace replay at this depth — older lines would only be
    /// evicted again).
    ///
    /// # Panics
    ///
    /// Panics if the target cache does not exist in this configuration.
    pub fn warm_capacity(&self, target: WarmTarget) -> usize {
        match target {
            WarmTarget::LittleI(c) => self.little_l1i[c].line_capacity(),
            WarmTarget::LittleD(c) => self.little_l1d[c].line_capacity(),
            WarmTarget::BigI => self.big_l1i.as_ref().expect("no big core").line_capacity(),
            WarmTarget::BigD => self.big_l1d.as_ref().expect("no big core").line_capacity(),
            WarmTarget::L2Only => self.l2.line_capacity(),
        }
    }

    /// The first uncore cycle at which [`MemHierarchy::tick`] would do
    /// observable work: queue entries maturing, DRAM returns, or
    /// one-per-cycle backpressure processing. While `now` is strictly
    /// before the reported cycle, a tick only refreshes `self.now` and the
    /// per-cycle port counters — state the tick at the event cycle
    /// re-establishes identically.
    ///
    /// `None` means the hierarchy is fully drained: ticking stays a no-op
    /// until a core or engine injects a new request.
    ///
    /// Per-port response queues are deliberately *not* considered — they
    /// are consumed by core ticks, not hierarchy ticks; callers must gate
    /// skipping on [`MemHierarchy::response_pending`] for every live port.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        // One-per-cycle processing queues advance every tick.
        if !self.pending_l2.is_empty() || !self.pending_dram.is_empty() {
            return Some(now);
        }
        let mut ev: Option<u64> = None;
        let mut fold = |c: Option<u64>| {
            ev = match (ev, c) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
        };
        fold(self.dram.next_event(now));
        fold(self.to_l2.next_ready().map(|t| t.max(now)));
        fold(self.from_l2.next_ready().map(|t| t.max(now)));
        fold(self.l2.next_event(now));
        for c in self.little_l1i.iter().chain(self.little_l1d.iter()) {
            fold(c.next_event(now));
        }
        if let Some(c) = self.big_l1i.as_ref() {
            fold(c.next_event(now));
        }
        if let Some(c) = self.big_l1d.as_ref() {
            fold(c.next_event(now));
        }
        ev
    }

    /// True while an undelivered response sits in `port`'s queue (the
    /// consuming core/engine must tick to drain it).
    pub fn response_pending(&self, port: PortId) -> bool {
        match port {
            PortId::LittleData(c) => !self.resp_little_d[c as usize].is_empty(),
            PortId::LittleFetch(c) => !self.resp_little_i[c as usize].is_empty(),
            PortId::BigData => !self.resp_big_d.is_empty(),
            PortId::BigFetch => !self.resp_big_i.is_empty(),
            PortId::Ivu => !self.resp_ivu.is_empty(),
            PortId::Vmu(_) => !self.resp_vmu.is_empty(),
            PortId::DveL2 => !self.resp_dve.is_empty(),
        }
    }

    /// Pops a completed response for the given port.
    pub fn pop_response(&mut self, port: PortId) -> Option<MemResp> {
        match port {
            PortId::LittleData(c) => self.resp_little_d[c as usize].pop_front(),
            PortId::LittleFetch(c) => self.resp_little_i[c as usize].pop_front(),
            PortId::BigData => self.resp_big_d.pop_front(),
            PortId::BigFetch => self.resp_big_i.pop_front(),
            PortId::Ivu => self.resp_ivu.pop_front(),
            PortId::Vmu(_) => self.resp_vmu.pop_front(),
            PortId::DveL2 => self.resp_dve.pop_front(),
        }
    }

    /// Appends the whole hierarchy's mutable state to a checkpoint. The
    /// configuration is not encoded — a restore target is built from the
    /// same [`HierConfig`] and [`MemHierarchy::restore_state`] validates
    /// the shapes line up.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.little_l1i.len());
        for c in self.little_l1i.iter().chain(self.little_l1d.iter()) {
            c.save_state(w);
        }
        w.bool(self.big_l1i.is_some());
        if let Some(c) = self.big_l1i.as_ref() {
            c.save_state(w);
        }
        w.bool(self.big_l1d.is_some());
        if let Some(c) = self.big_l1d.as_ref() {
            c.save_state(w);
        }
        self.l2.save_state(w);
        self.dram.save_state(w);
        self.dir.save(w);
        self.to_l2.save(w);
        self.pending_l2.save(w);
        self.from_l2.save(w);
        self.pending_dram.save(w);
        self.resp_little_d.save(w);
        self.resp_little_i.save(w);
        self.resp_big_d.save(w);
        self.resp_big_i.save(w);
        self.resp_ivu.save(w);
        self.resp_vmu.save(w);
        self.resp_dve.save(w);
        self.dve_accepts_this_cycle.save(w);
        self.vector_mode.save(w);
        self.now.save(w);
        self.next_internal_id.save(w);
        self.stats.save(w);
    }

    /// Restores state written by [`MemHierarchy::save_state`] into a
    /// hierarchy freshly built from the same configuration.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n_little: usize = r.usize()?;
        if n_little != self.cfg.num_little {
            return Err(SnapError::Corrupt {
                what: format!(
                    "checkpoint has {n_little} little L1 pairs, system has {}",
                    self.cfg.num_little
                ),
            });
        }
        for c in self.little_l1i.iter_mut().chain(self.little_l1d.iter_mut()) {
            c.restore_state(r)?;
        }
        // Each presence flag is interleaved with its cache payload, so the
        // flags must be read one at a time, not hoisted together.
        for cache in [&mut self.big_l1i, &mut self.big_l1d] {
            match (r.bool()?, cache.as_mut()) {
                (true, Some(c)) => c.restore_state(r)?,
                (false, None) => {}
                _ => {
                    return Err(SnapError::Corrupt {
                        what: "big-core L1 presence mismatch".into(),
                    })
                }
            }
        }
        self.l2.restore_state(r)?;
        self.dram.restore_state(r)?;
        self.dir = Snap::load(r)?;
        self.to_l2 = Snap::load(r)?;
        self.pending_l2 = Snap::load(r)?;
        self.from_l2 = Snap::load(r)?;
        self.pending_dram = Snap::load(r)?;
        let resp_little_d: Vec<VecDeque<MemResp>> = Snap::load(r)?;
        let resp_little_i: Vec<VecDeque<MemResp>> = Snap::load(r)?;
        if resp_little_d.len() != self.cfg.num_little || resp_little_i.len() != self.cfg.num_little
        {
            return Err(SnapError::Corrupt {
                what: "little-core response queue count mismatch".into(),
            });
        }
        self.resp_little_d = resp_little_d;
        self.resp_little_i = resp_little_i;
        self.resp_big_d = Snap::load(r)?;
        self.resp_big_i = Snap::load(r)?;
        self.resp_ivu = Snap::load(r)?;
        self.resp_vmu = Snap::load(r)?;
        self.resp_dve = Snap::load(r)?;
        self.dve_accepts_this_cycle = Snap::load(r)?;
        self.vector_mode = Snap::load(r)?;
        self.now = Snap::load(r)?;
        self.next_internal_id = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        Ok(())
    }
}

snap_struct!(L2Entry { req, extra });
snap_struct!(MemStats {
    ifetch_reqs,
    data_reqs,
    l2_reqs,
    dve_reqs,
    vmu_reqs,
    coherence_msgs,
    line_migrations,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, addr: u64, is_store: bool, port: PortId) -> MemReq {
        MemReq {
            id,
            addr,
            size: 4,
            is_store,
            kind: AccessKind::Data,
            port,
        }
    }

    fn run_until_response(
        h: &mut MemHierarchy,
        port: PortId,
        start: u64,
        limit: u64,
    ) -> (u64, MemResp) {
        for t in start..start + limit {
            h.tick(t);
            if let Some(r) = h.pop_response(port) {
                return (t, r);
            }
        }
        panic!("no response within {limit} cycles");
    }

    #[test]
    fn little_load_misses_all_the_way_to_dram() {
        let mut h = MemHierarchy::new(HierConfig::with_little(4));
        h.tick(0);
        assert!(h.request(req(1, 0x4000, false, PortId::LittleData(0))));
        let (t, r) = run_until_response(&mut h, PortId::LittleData(0), 1, 400);
        assert_eq!(r.id, 1);
        // Must include L1 miss + NoC + L2 miss + DRAM latency.
        assert!(t > 100, "completed suspiciously fast at cycle {t}");
        assert_eq!(h.dram_stats().accesses, 1);
        // Second access to the same line is an L1 hit — fast.
        let t0 = t + 1;
        h.tick(t0);
        assert!(h.request(req(2, 0x4004, false, PortId::LittleData(0))));
        let (t2, _) = run_until_response(&mut h, PortId::LittleData(0), t0 + 1, 10);
        assert!(t2 - t0 <= 4, "hit took {} cycles", t2 - t0);
    }

    #[test]
    fn l2_hit_is_faster_than_dram() {
        let mut h = MemHierarchy::new(HierConfig::with_little(2));
        // Core 0 warms the L2.
        h.tick(0);
        assert!(h.request(req(1, 0x8000, false, PortId::LittleData(0))));
        let (t_warm, _) = run_until_response(&mut h, PortId::LittleData(0), 1, 400);
        // Core 1 misses L1 but hits L2.
        let t0 = t_warm + 1;
        h.tick(t0);
        assert!(h.request(req(2, 0x8000, false, PortId::LittleData(1))));
        let (t1, _) = run_until_response(&mut h, PortId::LittleData(1), t0 + 1, 400);
        assert!(
            t1 - t0 < t_warm,
            "L2 hit ({}) not faster than DRAM path ({})",
            t1 - t0,
            t_warm
        );
        assert_eq!(h.dram_stats().accesses, 1);
    }

    #[test]
    fn store_invalidates_other_sharers() {
        let mut h = MemHierarchy::new(HierConfig::with_little(2));
        // Both cores read the line.
        h.tick(0);
        assert!(h.request(req(1, 0x9000, false, PortId::LittleData(0))));
        run_until_response(&mut h, PortId::LittleData(0), 1, 400);
        h.tick(500);
        assert!(h.request(req(2, 0x9000, false, PortId::LittleData(1))));
        run_until_response(&mut h, PortId::LittleData(1), 501, 400);
        // Core 0 stores: core 1's copy must disappear.
        h.tick(1000);
        assert!(h.request(req(3, 0x9000, true, PortId::LittleData(0))));
        run_until_response(&mut h, PortId::LittleData(0), 1001, 400);
        assert!(h.little_l1d_stats(1).invalidations >= 1);
    }

    #[test]
    fn vector_mode_banks_by_line() {
        let h = MemHierarchy::new(HierConfig::with_little(4));
        assert_eq!(h.bank_of(0x0000), 0);
        assert_eq!(h.bank_of(0x0040), 1);
        assert_eq!(h.bank_of(0x0080), 2);
        assert_eq!(h.bank_of(0x00C0), 3);
        assert_eq!(h.bank_of(0x0100), 0);
        // Bank bits are above the 64 B offset: same line, same bank.
        assert_eq!(h.bank_of(0x0041), 1);
    }

    #[test]
    fn vmu_access_migrates_wrong_bank_line() {
        let mut h = MemHierarchy::new(HierConfig::with_little(4));
        // In scalar mode core 3 dirties line 0x0 (home bank 0).
        h.tick(0);
        assert!(h.request(req(1, 0x0, true, PortId::LittleData(3))));
        run_until_response(&mut h, PortId::LittleData(3), 1, 400);
        // Switch to vector mode; VMU touches the line via bank 0.
        h.set_vector_mode(true);
        h.tick(1000);
        let mut r = req(2, 0x0, false, PortId::Vmu(0));
        r.size = 64;
        assert!(h.request(r));
        run_until_response(&mut h, PortId::Vmu(0), 1001, 600);
        assert_eq!(h.stats().line_migrations, 1);
        assert!(h.little_l1d_stats(3).invalidations >= 1);
    }

    #[test]
    fn ifetch_counts_separately_from_data() {
        let mut h = MemHierarchy::new(HierConfig::with_little(1));
        h.tick(0);
        assert!(h.request(MemReq {
            id: 1,
            addr: 0x100,
            size: 64,
            is_store: false,
            kind: AccessKind::IFetch,
            port: PortId::LittleFetch(0),
        }));
        assert!(h.request(req(2, 0x4000, false, PortId::LittleData(0))));
        let s = h.stats();
        assert_eq!(s.ifetch_reqs, 1);
        assert_eq!(s.data_reqs, 1);
    }

    #[test]
    fn dve_port_has_line_bandwidth() {
        let mut cfg = HierConfig::with_little(0);
        cfg.has_dve = true;
        let mut h = MemHierarchy::new(cfg);
        h.tick(0);
        // Four line requests accepted in one cycle, fifth rejected.
        for i in 0..4 {
            let mut r = req(i, 0x1000 + i * 64, false, PortId::DveL2);
            r.size = 64;
            assert!(h.request(r), "request {i} rejected");
        }
        let mut r5 = req(9, 0x9000, false, PortId::DveL2);
        r5.size = 64;
        assert!(!h.request(r5));
        // All four eventually respond.
        let mut got = 0;
        for t in 1..1000 {
            h.tick(t);
            while h.pop_response(PortId::DveL2).is_some() {
                got += 1;
            }
            if got == 4 {
                break;
            }
        }
        assert_eq!(got, 4);
    }

    /// A quiescent hierarchy never does observable work before the cycle
    /// `next_event` reports: skipping straight to the event cycle must
    /// reproduce the naive tick-by-tick run exactly.
    #[test]
    fn next_event_skip_matches_naive_ticking() {
        let mut naive = MemHierarchy::new(HierConfig::with_little(2));
        naive.tick(0);
        assert!(naive.request(req(1, 0x4000, false, PortId::LittleData(0))));
        let mut skippy = naive.clone();

        let mut t_naive = 1;
        let naive_arrival = loop {
            naive.tick(t_naive);
            if naive.pop_response(PortId::LittleData(0)).is_some() {
                break t_naive;
            }
            t_naive += 1;
            assert!(t_naive < 400);
        };

        let mut t = 0u64;
        let skip_arrival = loop {
            let ev = skippy.next_event(t).expect("request in flight");
            assert!(ev >= t, "event {ev} in the past of {t}");
            t = ev.max(t + 1);
            skippy.tick(t);
            if skippy.pop_response(PortId::LittleData(0)).is_some() {
                break t;
            }
            assert!(t < 400);
        };
        assert_eq!(naive_arrival, skip_arrival);
        assert_eq!(naive.stats(), skippy.stats());
        assert_eq!(naive.dram_stats(), skippy.dram_stats());
        assert_eq!(naive.l2_stats(), skippy.l2_stats());
    }

    #[test]
    fn response_pending_reports_per_port() {
        let mut h = MemHierarchy::new(HierConfig::with_little(1));
        h.tick(0);
        assert!(h.request(req(1, 0x4000, false, PortId::LittleData(0))));
        run_until_response_peek(&mut h, PortId::LittleData(0));
        assert!(h.response_pending(PortId::LittleData(0)));
        assert!(!h.response_pending(PortId::LittleFetch(0)));
        h.pop_response(PortId::LittleData(0));
        assert!(!h.response_pending(PortId::LittleData(0)));
    }

    fn run_until_response_peek(h: &mut MemHierarchy, port: PortId) {
        for t in 1..400 {
            h.tick(t);
            if h.response_pending(port) {
                return;
            }
        }
        panic!("no response within 400 cycles");
    }

    #[test]
    fn warming_is_silent_and_makes_lines_resident() {
        let mut h = MemHierarchy::new(HierConfig::with_little(2));
        h.warm_line(0, WarmTarget::LittleD(0), 0x4000, false);
        h.warm_line(1, WarmTarget::LittleD(1), 0x8000, true);
        h.warm_line(2, WarmTarget::BigD, 0xC000, true);
        h.warm_line(3, WarmTarget::BigI, 0x1_0000, false);
        // No statistics of any kind were counted.
        let s = h.stats();
        assert_eq!((s.ifetch_reqs, s.data_reqs, s.l2_reqs), (0, 0, 0));
        assert_eq!(s.coherence_msgs, 0);
        assert_eq!(h.little_l1d_stats(0).accesses, 0);
        assert_eq!(h.l2_stats().accesses, 0);
        assert_eq!(h.l2_stats().writebacks, 0);
        // Lines are resident where expected, dirtiness preserved,
        // inclusively (clean) in the L2.
        assert_eq!(h.resident_lines(WarmTarget::LittleD(0)), [(0x4000, false)]);
        assert_eq!(h.resident_lines(WarmTarget::LittleD(1)), [(0x8000, true)]);
        assert_eq!(h.resident_lines(WarmTarget::BigD), [(0xC000, true)]);
        let mut l2 = h.resident_lines(WarmTarget::L2Only);
        l2.sort_unstable();
        assert_eq!(
            l2,
            [
                (0x4000, false),
                (0x8000, false),
                (0xC000, false),
                (0x1_0000, false)
            ]
        );
        // A warmed line hits: the first access after warming is a hit, not
        // a miss, and a dirty warmed line invalidates coherently.
        h.tick(0);
        assert!(h.request(req(1, 0x4000, false, PortId::LittleData(0))));
        assert_eq!(h.little_l1d_stats(0).hits, 1);
        // A store by core 0 to core 1's warmed-dirty line collects it.
        h.tick(1);
        assert!(h.request(req(2, 0x8000, true, PortId::LittleData(0))));
        for t in 2..400 {
            h.tick(t);
            if h.pop_response(PortId::LittleData(0)).is_some() {
                break;
            }
        }
        assert!(h.little_l1d_stats(1).invalidations >= 1);
    }

    #[test]
    fn warm_replaces_lru_within_capacity() {
        let mut h = MemHierarchy::new(HierConfig::with_little(1));
        let cap = h.warm_capacity(WarmTarget::LittleD(0));
        assert_eq!(cap, 512); // 32 KiB / 64 B
                              // Warm one more line than fits; the oldest stamp is evicted.
        for i in 0..=cap as u64 {
            h.warm_line(i, WarmTarget::LittleD(0), i * 64, false);
        }
        let resident = h.resident_lines(WarmTarget::LittleD(0));
        assert_eq!(resident.len(), cap);
        assert!(!resident.iter().any(|&(l, _)| l == 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "vector mode")]
    fn little_data_port_forbidden_in_vector_mode() {
        let mut h = MemHierarchy::new(HierConfig::with_little(2));
        h.set_vector_mode(true);
        h.tick(0);
        let _ = h.request(req(1, 0x0, false, PortId::LittleData(0)));
    }
}
