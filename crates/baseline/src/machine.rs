//! A parameterized decoupled vector machine used for both baselines.
//!
//! The machine holds a single in-order command queue; memory commands are
//! forwarded to a decoupled memory pipeline as soon as they arrive
//! (bounded by the machine's buffering), while compute commands execute in
//! order against a vector-register scoreboard. Throughput is set by the
//! number of parallel 32-bit operations per cycle; long-latency operations
//! are pipelined at the same rate with their latency added on top.

use bvl_core::types::{ClockDomain, Quiescence, RegList, VecCmd, VectorEngine};
use bvl_isa::instr::{Instr, VMemMode};
use bvl_isa::meta::{vector_op_latency, LAT_ALU};
use bvl_mem::{AccessKind, IdMap, MemHierarchy, MemReq, PortId, WarmTarget};
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Which memory path the machine uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemPath {
    /// Through the big core's L1D (the integrated unit shares the port).
    SharedL1,
    /// Directly into the shared L2 over a wide port (the decoupled
    /// engine's high-bandwidth connection).
    DirectL2,
}

/// Machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimpleVecParams {
    /// Hardware vector length in bits.
    pub vlen_bits: u32,
    /// Parallel 32-bit simple integer operations per cycle.
    pub simple_throughput: u32,
    /// Parallel 32-bit long-latency (FP/mul/div) operations per cycle.
    pub complex_throughput: u32,
    /// Command-queue depth (decoupling depth).
    pub cmdq_depth: usize,
    /// Memory path.
    pub mem_path: MemPath,
    /// Line requests issued per cycle.
    pub line_reqs_per_cycle: u32,
    /// Maximum line requests in flight (data buffering).
    pub max_inflight_lines: usize,
    /// Scalar-response latency (result bus back to the big core).
    pub resp_latency: u64,
}

/// Machine statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimpleVecStats {
    /// Vector instructions processed.
    pub cmds: u64,
    /// Compute micro-passes executed.
    pub compute_passes: u64,
    /// Line requests issued.
    pub line_reqs: u64,
}

impl SimpleVecStats {
    /// Registers every counter under `scope` (conventionally
    /// `sys.engine`).
    pub fn register(&self, scope: &mut bvl_obs::Scope<'_>) {
        scope.set("cmds", self.cmds);
        scope.set("compute_passes", self.compute_passes);
        scope.set("line_reqs", self.line_reqs);
    }
}

#[derive(Clone, Debug)]
struct MemTx {
    /// Remaining line addresses to issue.
    to_issue: VecDeque<u64>,
    /// Responses still outstanding.
    outstanding: usize,
    is_store: bool,
    /// Registers whose readiness gates issue (store data / gather index),
    /// snapshotted with the register's write *epoch* at command arrival —
    /// a younger write to the same register (WAR) must not re-gate an
    /// older command.
    gates: Vec<(u8, u64)>,
    /// Destination register made ready when the last line arrives.
    dest_reg: Option<u8>,
}

snap_struct!(SimpleVecStats {
    cmds,
    compute_passes,
    line_reqs,
});

snap_struct!(MemTx {
    to_issue,
    outstanding,
    is_store,
    gates,
    dest_reg,
});

/// The parameterized baseline vector machine.
#[derive(Debug)]
pub struct SimpleVecMachine {
    params: SimpleVecParams,
    line_bytes: u64,
    cmdq: VecDeque<VecCmd>,
    /// In-order compute pipeline occupancy.
    compute_busy_until: u64,
    /// Vector-register ready times (current epoch).
    vreg_ready: [u64; 32],
    /// Write epoch per vector register (bumped on each new producer).
    vreg_epoch: [u64; 32],
    /// Memory transactions in program order.
    mem_q: VecDeque<u64>, // mem tx ids, issue order
    mem_txs: IdMap<MemTx>,
    next_tx: u64,
    inflight_lines: usize,
    req_to_tx: IdMap<u64>,
    next_req_id: u64,
    /// Un-issued store line addresses (load ordering check).
    pending_store_lines: Vec<u64>,
    scalar_done: VecDeque<(u64, u64)>, // (ready_at, seq)
    stats: SimpleVecStats,
    now: u64,
}

impl SimpleVecMachine {
    /// Creates a machine over caches with `line_bytes` lines.
    pub fn new(params: SimpleVecParams, line_bytes: u64) -> Self {
        SimpleVecMachine {
            params,
            line_bytes,
            cmdq: VecDeque::new(),
            compute_busy_until: 0,
            vreg_ready: [0; 32],
            vreg_epoch: [0; 32],
            mem_q: VecDeque::new(),
            mem_txs: IdMap::starting_at(1),
            next_tx: 0,
            inflight_lines: 0,
            req_to_tx: IdMap::starting_at(1),
            next_req_id: 0,
            pending_store_lines: Vec::new(),
            scalar_done: VecDeque::new(),
            stats: SimpleVecStats::default(),
            now: 0,
        }
    }

    /// The configuration.
    pub fn params(&self) -> &SimpleVecParams {
        &self.params
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimpleVecStats {
        &self.stats
    }

    /// Registers a memory command's lines and gating.
    fn start_mem(&mut self, cmd: &VecCmd) {
        let mut lines: Vec<u64> = Vec::new();
        for a in &cmd.mem {
            let l = a.addr & !(self.line_bytes - 1);
            if lines.last() != Some(&l) {
                lines.push(l);
            }
        }
        if lines.is_empty() {
            // Fully masked-off (or vl=0) access: no memory traffic at
            // all. Retire immediately — a transaction with no lines to
            // issue would otherwise wait forever for a response that
            // never comes. The destination register keeps its old value
            // (and readiness): a masked load writes no elements.
            return;
        }
        let snap = |r: u8, epochs: &[u64; 32]| (r, epochs[r as usize]);
        let (is_store, gates, dest_reg) = match cmd.instr {
            Instr::VLoad { vd, mode, .. } => {
                let gates = match mode {
                    VMemMode::Indexed(v) => {
                        vec![snap(v.index() as u8, &self.vreg_epoch)]
                    }
                    _ => Vec::new(),
                };
                (false, gates, Some(vd.index() as u8))
            }
            Instr::VStore { vs3, mode, .. } => {
                let mut gates = vec![snap(vs3.index() as u8, &self.vreg_epoch)];
                if let VMemMode::Indexed(v) = mode {
                    gates.push(snap(v.index() as u8, &self.vreg_epoch));
                }
                (true, gates, None)
            }
            _ => unreachable!("not a memory instruction"),
        };
        if is_store {
            self.pending_store_lines.extend(&lines);
        }
        self.next_tx += 1;
        self.mem_txs.insert(
            self.next_tx,
            MemTx {
                to_issue: lines.into(),
                outstanding: 0,
                is_store,
                gates,
                dest_reg,
            },
        );
        self.mem_q.push_back(self.next_tx);
        if let Some(d) = dest_reg {
            // Destination becomes ready when the load completes; mark it
            // far-future until then and open a new write epoch.
            self.vreg_ready[d as usize] = u64::MAX;
            self.vreg_epoch[d as usize] += 1;
        }
    }

    fn mem_tick(&mut self, now: u64, hier: &mut MemHierarchy) {
        // Collect responses.
        while let Some(resp) = hier.pop_response(self.port()) {
            let Some(tx_id) = self.req_to_tx.remove(resp.id) else {
                continue;
            };
            self.inflight_lines = self.inflight_lines.saturating_sub(1);
            let done = {
                let tx = self.mem_txs.get_mut(tx_id).expect("live tx");
                tx.outstanding -= 1;
                tx.outstanding == 0 && tx.to_issue.is_empty()
            };
            if done {
                let tx = self.mem_txs.remove(tx_id).expect("live tx");
                if let Some(d) = tx.dest_reg {
                    self.vreg_ready[d as usize] = now + 1;
                }
            }
        }

        // Issue line requests: walk transactions in order; loads may run
        // ahead of un-ready stores unless they touch a pending store line.
        let port = self.port();
        let mut budget = self.params.line_reqs_per_cycle;
        for qi in 0..self.mem_q.len() {
            let tx_id = self.mem_q[qi];
            if budget == 0 || self.inflight_lines >= self.params.max_inflight_lines {
                break;
            }
            let Some(tx) = self.mem_txs.get(tx_id) else {
                continue;
            };
            // A gate holds only while its snapshotted epoch is current; a
            // younger overwrite means the needed value was already
            // produced in program order.
            let gated = tx.gates.iter().any(|&(g, ep)| {
                self.vreg_epoch[g as usize] == ep && self.vreg_ready[g as usize] > now
            });
            if gated {
                continue; // loads behind may still bypass
            }
            let is_store = tx.is_store;
            while budget > 0 && self.inflight_lines < self.params.max_inflight_lines {
                let Some(tx) = self.mem_txs.get_mut(tx_id) else {
                    break;
                };
                let Some(&line) = tx.to_issue.front() else {
                    break;
                };
                if !is_store && self.pending_store_lines.contains(&line) {
                    break; // RAW through memory: wait for the store
                }
                // Spend the id only if the hierarchy takes the request.
                let req_id = self.next_req_id + 1;
                let req = MemReq {
                    id: req_id,
                    addr: line,
                    size: self.line_bytes,
                    is_store,
                    kind: AccessKind::Data,
                    port,
                };
                if !hier.request(req) {
                    budget = 0;
                    break;
                }
                self.next_req_id = req_id;
                tx.to_issue.pop_front();
                tx.outstanding += 1;
                self.stats.line_reqs += 1;
                self.req_to_tx.insert(req_id, tx_id);
                self.inflight_lines += 1;
                budget -= 1;
                if is_store {
                    if let Some(p) = self.pending_store_lines.iter().position(|&l| l == line) {
                        self.pending_store_lines.remove(p);
                    }
                }
            }
        }
        // Drop fully-issued store transactions from the order queue once
        // complete (loads are dropped on completion above).
        self.mem_q.retain(|&id| self.mem_txs.contains(id));
    }

    /// Execution cost of a compute command, in (occupancy, extra latency).
    fn compute_cost(&self, cmd: &VecCmd) -> (u64, u64) {
        let vl = u64::from(cmd.vl.max(1));
        match cmd.instr {
            Instr::VArith { op, .. } => {
                let lat = vector_op_latency(op);
                let tput = if lat > LAT_ALU {
                    self.params.complex_throughput
                } else {
                    self.params.simple_throughput
                };
                (vl.div_ceil(u64::from(tput.max(1))), u64::from(lat))
            }
            Instr::VRed { .. } => {
                // Tree reduction across the lanes plus pipeline latency.
                let lanes = u64::from(self.params.simple_throughput.max(2));
                let tree = (64 - u64::from(cmd.vl.max(2) - 1).leading_zeros()) as u64;
                (vl.div_ceil(lanes) + tree, 4)
            }
            Instr::VRgather { .. } | Instr::VSlideUp { .. } | Instr::VSlideDown { .. } => {
                // Crossbar-style permutation: one pass through the lanes.
                (
                    vl.div_ceil(u64::from(self.params.simple_throughput.max(1))) + 2,
                    2,
                )
            }
            _ => (
                vl.div_ceil(u64::from(self.params.simple_throughput.max(1)))
                    .max(1),
                1,
            ),
        }
    }

    fn compute_srcs(&self, cmd: &VecCmd) -> RegList {
        use Instr::*;
        let r = |v: bvl_isa::reg::VReg| v.index() as u8;
        match cmd.instr {
            VArith {
                src1, vs2, vd, op, ..
            } => {
                let mut v = RegList::of(&[r(vs2)]);
                if let bvl_isa::instr::VSrc::V(s) = src1 {
                    v.push(r(s));
                }
                if op == bvl_isa::instr::VArithOp::FMacc {
                    v.push(r(vd));
                }
                v
            }
            VCmp { vs2, src1, .. } => {
                let mut v = RegList::of(&[r(vs2)]);
                if let bvl_isa::instr::VSrc::V(s) = src1 {
                    v.push(r(s));
                }
                v
            }
            VRed { vs2, vs1, .. } | VRgather { vs2, vs1, .. } => RegList::of(&[r(vs2), r(vs1)]),
            VMask { vs1, vs2, .. } => RegList::of(&[r(vs1), r(vs2)]),
            VSlideUp { vs2, .. }
            | VSlideDown { vs2, .. }
            | VMvVV { vs2, .. }
            | VMvXS { vs2, .. }
            | VFMvFS { vs2, .. }
            | VPopc { vs2, .. }
            | VFirst { vs2, .. } => RegList::of(&[r(vs2)]),
            _ => RegList::default(),
        }
    }

    fn compute_dest(&self, cmd: &VecCmd) -> Option<u8> {
        use Instr::*;
        match cmd.instr {
            VArith { vd, .. }
            | VCmp { vd, .. }
            | VRed { vd, .. }
            | VMask { vd, .. }
            | VRgather { vd, .. }
            | VSlideUp { vd, .. }
            | VSlideDown { vd, .. }
            | VMvVX { vd, .. }
            | VFMvVF { vd, .. }
            | VMvVV { vd, .. }
            | VMvSX { vd, .. }
            | VId { vd, .. } => Some(vd.index() as u8),
            _ => None,
        }
    }
}

impl VectorEngine for SimpleVecMachine {
    fn can_accept(&self) -> bool {
        self.cmdq.len() < self.params.cmdq_depth
    }

    fn dispatch(&mut self, cmd: VecCmd) {
        assert!(self.can_accept(), "vector command queue overflow");
        bvl_obs::trace::emit(self.now, "svec", 0, "cmd", cmd.seq);
        self.stats.cmds += 1;
        self.cmdq.push_back(cmd);
    }

    fn pop_scalar_done(&mut self) -> Option<u64> {
        if self.scalar_pending() {
            self.scalar_done.pop_front().map(|(_, seq)| seq)
        } else {
            None
        }
    }

    fn mem_drained(&self) -> bool {
        self.mem_txs.is_empty() && !self.cmdq.iter().any(|c| c.instr.is_vector_mem())
    }

    fn idle(&self) -> bool {
        self.cmdq.is_empty()
            && self.mem_txs.is_empty()
            && self.scalar_done.is_empty()
            && self.now >= self.compute_busy_until
    }

    fn tick(&mut self, now: u64, hier: &mut MemHierarchy) {
        self.now = now;
        self.mem_tick(now, hier);

        // Process the head command (in-order front end, 1/cycle).
        let Some(cmd) = self.cmdq.front() else {
            return;
        };
        match cmd.instr {
            Instr::VSetVl { .. } => {
                let seq = cmd.seq;
                self.scalar_done
                    .push_back((now + self.params.resp_latency, seq));
                self.cmdq.pop_front();
            }
            Instr::VLoad { .. } | Instr::VStore { .. } => {
                let cmd = self.cmdq.pop_front().expect("front exists");
                self.start_mem(&cmd);
            }
            Instr::VmFence => {
                self.cmdq.pop_front();
            }
            _ => {
                // Compute: wait for the pipe and for sources.
                if now < self.compute_busy_until {
                    return;
                }
                let srcs = self.compute_srcs(cmd);
                if srcs
                    .as_slice()
                    .iter()
                    .any(|&s| self.vreg_ready[s as usize] > now)
                {
                    return;
                }
                let (occ, lat) = self.compute_cost(cmd);
                let needs_resp = cmd.instr.vector_writes_scalar();
                let seq = cmd.seq;
                let dest = self.compute_dest(cmd);
                self.compute_busy_until = now + occ;
                self.stats.compute_passes += 1;
                if let Some(d) = dest {
                    self.vreg_ready[d as usize] = now + occ + lat;
                    self.vreg_epoch[d as usize] += 1;
                }
                if needs_resp {
                    self.scalar_done
                        .push_back((now + occ + lat + self.params.resp_latency, seq));
                }
                self.cmdq.pop_front();
            }
        }
    }

    fn vlen_bits(&self) -> u32 {
        self.params.vlen_bits
    }

    fn clock_domain(&self) -> ClockDomain {
        ClockDomain::Big
    }

    /// The integrated unit shares the big core's L1D port; the decoupled
    /// engine has its own wide port into the L2. Requests leave on the
    /// same port.
    fn port(&self) -> PortId {
        match self.params.mem_path {
            MemPath::SharedL1 => PortId::Ivu,
            MemPath::DirectL2 => PortId::DveL2,
        }
    }

    fn scalar_pending(&self) -> bool {
        self.scalar_done
            .front()
            .is_some_and(|&(at, _)| at <= self.now)
    }

    /// A deliverable scalar response counts as `Active` (the big core
    /// polls it). Idle ticks are pure no-ops: the machine accounts
    /// nothing per cycle, so `account` is always `None`.
    fn quiescence(&self, now: u64) -> Quiescence {
        let mut until: Option<u64> = None;
        let mut fold = |t: u64| until = Some(until.map_or(t, |u| u.min(t)));

        // A deliverable (or maturing) scalar response: the big core
        // polls, so force naive stepping while one is ready.
        if let Some(&(at, _)) = self.scalar_done.front() {
            if at <= now {
                return Quiescence::Active;
            }
            fold(at);
        }

        // Memory pipeline: would any transaction issue a line this cycle?
        if self.inflight_lines < self.params.max_inflight_lines {
            for &tx_id in &self.mem_q {
                let Some(tx) = self.mem_txs.get(tx_id) else {
                    continue;
                };
                // Mirror `mem_tick`'s gate: only a current-epoch,
                // not-yet-ready register holds the transaction.
                let mut gate_at: Option<u64> = None;
                for &(g, ep) in &tx.gates {
                    if self.vreg_epoch[g as usize] == ep && self.vreg_ready[g as usize] > now {
                        let r = self.vreg_ready[g as usize];
                        gate_at = Some(gate_at.map_or(r, |a: u64| a.max(r)));
                    }
                }
                if let Some(at) = gate_at {
                    // Gated. A load-fed gate (u64::MAX) resolves via a
                    // memory response, which the caller watches.
                    if at != u64::MAX {
                        fold(at);
                    }
                    continue;
                }
                match tx.to_issue.front() {
                    Some(&line) if !tx.is_store && self.pending_store_lines.contains(&line) => {
                        // RAW through memory: unblocks when the blocking
                        // store issues — a state change covered by that
                        // store's own Active/fold above (stores precede
                        // their blocked loads in `mem_q`).
                    }
                    Some(_) => return Quiescence::Active,
                    None => {} // fully issued: waits on responses
                }
            }
        }

        // Front end: would the head command process this cycle?
        if let Some(cmd) = self.cmdq.front() {
            match cmd.instr {
                Instr::VSetVl { .. }
                | Instr::VLoad { .. }
                | Instr::VStore { .. }
                | Instr::VmFence => return Quiescence::Active,
                _ => {
                    let mut at = self.compute_busy_until;
                    let mut load_fed = false;
                    for &s in self.compute_srcs(cmd).as_slice() {
                        let r = self.vreg_ready[s as usize];
                        if r == u64::MAX {
                            load_fed = true;
                        } else {
                            at = at.max(r);
                        }
                    }
                    if at <= now && !load_fed {
                        return Quiescence::Active;
                    }
                    if at > now {
                        fold(at);
                    }
                }
            }
        }

        Quiescence::Idle {
            until,
            account: None,
        }
    }

    /// The machine accounts nothing per cycle, so only its internal
    /// clock (which gates [`VectorEngine::pop_scalar_done`]) advances.
    fn skip_idle(&mut self, _now: u64, cycles: u64) {
        self.now += cycles;
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.cmdq.save(w);
        self.compute_busy_until.save(w);
        self.vreg_ready.save(w);
        self.vreg_epoch.save(w);
        self.mem_q.save(w);
        self.mem_txs.save(w);
        self.next_tx.save(w);
        self.inflight_lines.save(w);
        self.req_to_tx.save(w);
        self.next_req_id.save(w);
        self.pending_store_lines.save(w);
        self.scalar_done.save(w);
        self.stats.save(w);
        self.now.save(w);
    }

    /// Also rejects a command queue deeper than this machine's
    /// configuration allows.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let cmdq: VecDeque<VecCmd> = Snap::load(r)?;
        if cmdq.len() > self.params.cmdq_depth {
            return Err(SnapError::Corrupt {
                what: format!(
                    "checkpoint command queue holds {} entries, machine takes {}",
                    cmdq.len(),
                    self.params.cmdq_depth
                ),
            });
        }
        self.cmdq = cmdq;
        self.compute_busy_until = Snap::load(r)?;
        self.vreg_ready = Snap::load(r)?;
        self.vreg_epoch = Snap::load(r)?;
        self.mem_q = Snap::load(r)?;
        self.mem_txs = Snap::load(r)?;
        self.next_tx = Snap::load(r)?;
        self.inflight_lines = Snap::load(r)?;
        self.req_to_tx = Snap::load(r)?;
        self.next_req_id = Snap::load(r)?;
        self.pending_store_lines = Snap::load(r)?;
        self.scalar_done = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        self.now = Snap::load(r)?;
        Ok(())
    }

    fn checkpoint_tag(&self) -> u8 {
        2
    }

    fn warm_target(&self, _line: u64, _hier: &MemHierarchy) -> WarmTarget {
        match self.params.mem_path {
            MemPath::SharedL1 => WarmTarget::BigD,
            MemPath::DirectL2 => WarmTarget::L2Only,
        }
    }

    fn register_stats(&self, sys: &mut bvl_obs::Scope<'_>) {
        self.stats.register(&mut sys.scope("engine"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_isa::exec::MemAccess;
    use bvl_isa::reg::{VReg, XReg};
    use bvl_isa::vcfg::Sew;
    use bvl_mem::HierConfig;

    fn load_cmd(seq: u64, vd: u8, base: u64, n: u32) -> VecCmd {
        VecCmd {
            seq,
            instr: Instr::VLoad {
                vd: VReg::new(vd),
                base: XReg::new(1),
                mode: VMemMode::Unit,
                masked: false,
            },
            vl: n,
            sew: Sew::E32,
            mem: (0..n)
                .map(|i| MemAccess {
                    addr: base + u64::from(i) * 4,
                    size: 4,
                    is_store: false,
                })
                .collect(),
            needs_scalar_response: false,
        }
    }

    fn add_cmd(seq: u64, vd: u8, vs1: u8, vs2: u8, n: u32) -> VecCmd {
        VecCmd {
            seq,
            instr: Instr::VArith {
                op: bvl_isa::instr::VArithOp::Add,
                vd: VReg::new(vd),
                src1: bvl_isa::instr::VSrc::V(VReg::new(vs1)),
                vs2: VReg::new(vs2),
                masked: false,
            },
            vl: n,
            sew: Sew::E32,
            mem: Vec::new(),
            needs_scalar_response: false,
        }
    }

    fn dve_like() -> SimpleVecParams {
        SimpleVecParams {
            vlen_bits: 2048,
            simple_throughput: 16,
            complex_throughput: 16,
            cmdq_depth: 64,
            mem_path: MemPath::DirectL2,
            line_reqs_per_cycle: 4,
            max_inflight_lines: 64,
            resp_latency: 2,
        }
    }

    #[test]
    fn load_then_dependent_add_completes() {
        let mut cfg = HierConfig::with_little(0);
        cfg.has_dve = true;
        let mut hier = MemHierarchy::new(cfg);
        let mut m = SimpleVecMachine::new(dve_like(), hier.line_bytes());
        m.dispatch(load_cmd(1, 1, 0x1000, 64));
        m.dispatch(add_cmd(2, 3, 1, 1, 64));
        for t in 0..100_000 {
            hier.tick(t);
            m.tick(t, &mut hier);
            if m.idle() {
                assert!(m.stats().line_reqs >= 4); // 64 x 4B = 4 lines
                assert_eq!(m.stats().compute_passes, 1);
                return;
            }
        }
        panic!("machine did not drain");
    }

    #[test]
    fn loads_run_ahead_of_unready_stores() {
        let mut cfg = HierConfig::with_little(0);
        cfg.has_dve = true;
        let mut hier = MemHierarchy::new(cfg);
        let mut m = SimpleVecMachine::new(dve_like(), hier.line_bytes());
        // Store of v9 (never written -> ready at 0 actually). Make the
        // store gate on a register that becomes ready late by marking it.
        m.vreg_ready[9] = 50;
        let mut st = load_cmd(1, 0, 0x2000, 16);
        st.instr = Instr::VStore {
            vs3: VReg::new(9),
            base: XReg::new(1),
            mode: VMemMode::Unit,
            masked: false,
        };
        for a in &mut st.mem {
            a.is_store = true;
        }
        m.dispatch(st);
        m.dispatch(load_cmd(2, 1, 0x8000, 16)); // different line
        let mut load_done_at = None;
        for t in 0..100_000 {
            hier.tick(t);
            m.tick(t, &mut hier);
            if load_done_at.is_none() && m.vreg_ready[1] != u64::MAX && m.vreg_ready[1] > 0 {
                load_done_at = Some(t);
            }
            if m.idle() {
                let ld = load_done_at.expect("load completed");
                assert!(ld < 50 + 100, "load waited for the store: {ld}");
                return;
            }
        }
        panic!("did not drain");
    }

    #[test]
    fn scalar_response_for_vsetvl() {
        let mut cfg = HierConfig::with_little(0);
        cfg.has_dve = true;
        let mut hier = MemHierarchy::new(cfg);
        let mut m = SimpleVecMachine::new(dve_like(), hier.line_bytes());
        m.dispatch(VecCmd {
            seq: 42,
            instr: Instr::VSetVl {
                rd: XReg::new(1),
                avl: bvl_isa::instr::AvlSrc::Imm(8),
                sew: Sew::E32,
            },
            vl: 8,
            sew: Sew::E32,
            mem: Vec::new(),
            needs_scalar_response: true,
        });
        let mut got = None;
        for t in 0..100 {
            hier.tick(t);
            m.tick(t, &mut hier);
            if let Some(seq) = m.pop_scalar_done() {
                got = Some((t, seq));
                break;
            }
        }
        let (_, seq) = got.expect("scalar response");
        assert_eq!(seq, 42);
    }

    /// Oracle for the tick-skip contract: whenever `quiescence` reports
    /// `Idle` and no external wake (hierarchy event or pending response)
    /// exists, the naive tick must leave every observable — stats,
    /// scoreboard, queues, pipeline occupancy — untouched.
    #[test]
    fn quiescence_predicts_naive_ticks() {
        fn snapshot(m: &SimpleVecMachine) -> String {
            format!(
                "{:?} {:?} {:?} cq{} mq{} tx{} if{} {:?} cb{} ps{:?} nt{} nr{}",
                m.stats,
                m.vreg_ready,
                m.vreg_epoch,
                m.cmdq.len(),
                m.mem_q.len(),
                m.mem_txs.len(),
                m.inflight_lines,
                m.scalar_done,
                m.compute_busy_until,
                m.pending_store_lines,
                m.next_tx,
                m.next_req_id,
            )
        }

        let mut cfg = HierConfig::with_little(0);
        cfg.has_dve = true;
        let mut hier = MemHierarchy::new(cfg);
        let mut m = SimpleVecMachine::new(dve_like(), hier.line_bytes());
        // Load, dependent compute, dependent store: exercises response
        // waits, scoreboard waits and pipe occupancy.
        m.dispatch(load_cmd(1, 1, 0x1000, 64));
        m.dispatch(add_cmd(2, 3, 1, 1, 64));
        let mut st = load_cmd(3, 0, 0x2000, 64);
        st.instr = Instr::VStore {
            vs3: VReg::new(3),
            base: XReg::new(1),
            mode: VMemMode::Unit,
            masked: false,
        };
        for a in &mut st.mem {
            a.is_store = true;
        }
        m.dispatch(st);

        let mut idle_checked = 0u64;
        for t in 0..100_000 {
            let q = m.quiescence(t);
            let external =
                hier.next_event(t).is_some_and(|e| e <= t) || hier.response_pending(m.port());
            let before = if matches!(q, Quiescence::Idle { .. }) && !external {
                Some(snapshot(&m))
            } else {
                None
            };
            hier.tick(t);
            m.tick(t, &mut hier);
            if let Some(before) = before {
                idle_checked += 1;
                assert_eq!(snapshot(&m), before, "idle tick changed state at t={t}");
            }
            while m.pop_scalar_done().is_some() {}
            if m.idle() {
                assert!(idle_checked > 0, "run never exercised an idle window");
                return;
            }
        }
        panic!("machine did not drain");
    }

    #[test]
    fn wider_machine_finishes_compute_faster() {
        let run = |tput: u32| {
            let mut cfg = HierConfig::with_little(0);
            cfg.has_dve = true;
            let mut hier = MemHierarchy::new(cfg);
            let mut p = dve_like();
            p.simple_throughput = tput;
            let mut m = SimpleVecMachine::new(p, hier.line_bytes());
            for s in 0..16 {
                m.dispatch(add_cmd(s, (s % 8) as u8 + 1, 10, 11, 64));
            }
            for t in 0..100_000 {
                hier.tick(t);
                m.tick(t, &mut hier);
                if m.idle() {
                    return t;
                }
            }
            panic!("did not drain");
        };
        let wide = run(16);
        let narrow = run(4);
        assert!(wide < narrow, "wide {wide} !< narrow {narrow}");
    }
}
