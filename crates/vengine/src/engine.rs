//! The composed VLITTLE engine.
//!
//! [`VLittleEngine`] wires the VCU, the lanes, the VXU and the VMU behind
//! the [`VectorEngine`] interface the big core drives. The paper's
//! mode-switch cost (saving thread contexts and flushing the little-core
//! pipelines, ~500 cycles) is charged to the first dispatched vector
//! instruction of a region.

use crate::lane::{Lane, LaneEnv, LaneEvent, TimedEvent};
use crate::regmap::RegMap;
use crate::vcu::{expand, Expansion, Target, Vcu, VcuParams};
use crate::vmu::{Vmu, VmuParams};
use crate::vxu::{Vxu, VxuParams};
use bvl_core::types::{ClockDomain, Quiescence, VecCmd, VectorEngine};
use bvl_mem::{IdMap, MemHierarchy, PortId, WarmTarget};
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Full engine configuration.
///
/// On `1b-4VL` in vector mode the engine *is* the little cluster, so
/// `regmap.cores` sizes the cluster too: one L1 bank per lane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineParams {
    /// Register-mapping geometry (lanes, chimes, packing).
    pub regmap: RegMap,
    /// VCU queues.
    pub vcu: VcuParams,
    /// VMU queues and coalescing.
    pub vmu: VmuParams,
    /// VXU ring.
    pub vxu: VxuParams,
    /// Per-lane micro-op queue depth.
    pub lane_inq: usize,
    /// One-time vector-region entry penalty, cycles (paper: 500).
    pub switch_penalty: u64,
}

// Engine configuration travels over the sweep-fabric wire protocol
// (bvl-serve): a submitted experiment point carries its full parameter
// set, so every knob the figures sweep must round-trip bit-exactly.
snap_struct!(EngineParams {
    regmap,
    vcu,
    vmu,
    vxu,
    lane_inq,
    switch_penalty,
});

impl EngineParams {
    /// The paper's `1b-4VL` configuration: 4 lanes, 2 chimes, packed
    /// 32-bit elements (512-bit hardware vector length).
    pub fn paper_default() -> Self {
        EngineParams {
            regmap: RegMap::paper_default(),
            vcu: VcuParams::default(),
            vmu: VmuParams::default(),
            vxu: VxuParams::default(),
            lane_inq: 2,
            switch_penalty: 500,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct MemTrack {
    idx_events: u32,
    store_events: u32,
    loadwb_events: u32,
}

#[derive(Clone, Copy, Debug)]
struct VxTrack {
    consumers: u32,
    scalar_seq: Option<u64>,
}

snap_struct!(MemTrack {
    idx_events,
    store_events,
    loadwb_events,
});

snap_struct!(VxTrack {
    consumers,
    scalar_seq,
});

/// The VLITTLE engine: a little-core cluster acting as one decoupled
/// vector engine.
#[derive(Debug)]
pub struct VLittleEngine {
    params: EngineParams,
    lanes: Vec<Lane>,
    vcu: Vcu,
    vmu: Vmu,
    vxu: Vxu,
    mem_track: IdMap<MemTrack>,
    vx_track: IdMap<VxTrack>,
    pending_events: Vec<TimedEvent>,
    scalar_done: VecDeque<u64>,
    next_mem_id: u64,
    next_vx_id: u64,
    now: u64,
    line_bytes: u64,
    first_dispatch_done: bool,
}

impl VLittleEngine {
    /// Builds an engine with the given geometry over `line_bytes` caches.
    pub fn new(params: EngineParams, line_bytes: u64) -> Self {
        let lanes = (0..params.regmap.cores)
            .map(|c| Lane::new(c, params.regmap, params.lane_inq))
            .collect();
        VLittleEngine {
            lanes,
            vcu: Vcu::new(params.vcu),
            vmu: Vmu::new(params.regmap.cores as usize, params.vmu),
            vxu: Vxu::new(params.vxu),
            mem_track: IdMap::starting_at(1),
            vx_track: IdMap::starting_at(1),
            pending_events: Vec::new(),
            scalar_done: VecDeque::new(),
            next_mem_id: 0,
            next_vx_id: 0,
            now: 0,
            line_bytes,
            first_dispatch_done: false,
            params,
        }
    }

    /// The engine's configuration.
    pub fn params(&self) -> &EngineParams {
        &self.params
    }

    /// VMU statistics.
    pub fn vmu_stats(&self) -> &crate::vmu::VmuStats {
        self.vmu.stats()
    }

    /// VXU statistics.
    pub fn vxu_stats(&self) -> &crate::vxu::VxuStats {
        self.vxu.stats()
    }

    fn apply_event(&mut self, ev: LaneEvent, now: u64) {
        match ev {
            LaneEvent::IdxSent { mem_id } => {
                if let Some(t) = self.mem_track.get_mut(mem_id) {
                    t.idx_events = t.idx_events.saturating_sub(1);
                    if t.idx_events == 0 {
                        self.vmu.idx_ready(mem_id);
                    }
                }
            }
            LaneEvent::StoreSent { mem_id } => {
                if let Some(t) = self.mem_track.get_mut(mem_id) {
                    t.store_events = t.store_events.saturating_sub(1);
                    if t.store_events == 0 {
                        self.vmu.store_data_done(mem_id);
                        self.mem_track.remove(mem_id);
                    }
                }
            }
            LaneEvent::LoadWbDone { mem_id } => {
                if let Some(t) = self.mem_track.get_mut(mem_id) {
                    t.loadwb_events = t.loadwb_events.saturating_sub(1);
                    if t.loadwb_events == 0 {
                        self.vmu.retire_load(mem_id);
                        self.mem_track.remove(mem_id);
                    }
                }
            }
            LaneEvent::VxReadDone { vx_id } => {
                self.vxu.read_done(vx_id, now);
            }
            LaneEvent::VxConsumed { vx_id } => {
                if let Some(t) = self.vx_track.get_mut(vx_id) {
                    t.consumers = t.consumers.saturating_sub(1);
                    if t.consumers == 0 {
                        self.vxu.complete(vx_id);
                        self.vx_track.remove(vx_id);
                    }
                }
            }
        }
    }

    fn apply_expansion(&mut self, now: u64, ex: Expansion) {
        if let Some(seq) = ex.immediate_scalar {
            self.vcu.queue_scalar(now, seq);
        }
        if let Some((mc, mb)) = ex.mem {
            let mem_id = mb.mem_id;
            let indexed = mc.indexed;
            let is_store = mc.is_store;
            bvl_obs::trace::emit(now, "vmu", 0, "mem_cmd", mem_id);
            self.vmu.push_cmd(mc);
            if indexed && mb.idx_events == 0 {
                self.vmu.idx_ready(mem_id);
            }
            if is_store && mb.store_events == 0 {
                self.vmu.store_data_done(mem_id);
            }
            if mb.idx_events > 0 || mb.store_events > 0 || mb.loadwb_events > 0 {
                self.mem_track.insert(
                    mem_id,
                    MemTrack {
                        idx_events: mb.idx_events,
                        store_events: mb.store_events,
                        loadwb_events: mb.loadwb_events,
                    },
                );
            } else {
                // A vl = 0 store: no lane reports on it, and its id is the
                // VMU's alone.
                self.mem_track.retire(mem_id);
            }
        }
        if let Some(vx) = ex.vx {
            bvl_obs::trace::emit(now, "vxu", 0, "begin", vx.id);
            self.vxu.begin(vx.id, vx.reads, vx.total_elems);
            self.vx_track.insert(
                vx.id,
                VxTrack {
                    consumers: vx.consumers,
                    scalar_seq: vx.scalar_seq,
                },
            );
        }
    }
}

impl VectorEngine for VLittleEngine {
    fn can_accept(&self) -> bool {
        self.vcu.can_accept()
    }

    fn dispatch(&mut self, cmd: VecCmd) {
        let now = self.now;
        bvl_obs::trace::emit(now, "vengine", 0, "cmd", cmd.seq);
        if !self.first_dispatch_done {
            self.first_dispatch_done = true;
            // Region-entry cost: context save + pipeline flush (paper
            // section IV-A charges 500 cycles per vector region).
            self.vcu
                .dispatch_with_extra(now, self.params.switch_penalty, cmd);
            return;
        }
        self.vcu.dispatch(now, cmd);
    }

    fn pop_scalar_done(&mut self) -> Option<u64> {
        self.scalar_done.pop_front()
    }

    fn mem_drained(&self) -> bool {
        self.vmu.drained() && self.vcu.mem_on_bus() == 0
    }

    fn idle(&self) -> bool {
        !self.vcu.busy()
            && self.lanes.iter().all(Lane::idle)
            && self.vmu.drained()
            && !self.vxu.busy()
            && self.pending_events.is_empty()
            && self.scalar_done.is_empty()
    }

    fn tick(&mut self, now: u64, hier: &mut MemHierarchy) {
        self.now = now;

        // 1. Memory side.
        self.vmu.tick(now, hier);

        // 2. Lane events that mature this cycle, drained in place (their
        //    relative order is immaterial: each only decrements a counter
        //    or timestamps the ring with the same `now`).
        let mut i = 0;
        while i < self.pending_events.len() {
            if self.pending_events[i].at <= now {
                let ev = self.pending_events.swap_remove(i).event;
                self.apply_event(ev, now);
            } else {
                i += 1;
            }
        }

        // 3. Scalar-only ring transactions (vcpop/vfirst/vmv.x.s). The
        //    VXU serializes, so at most one transaction can be ready.
        loop {
            let ready = self.vx_track.iter().find_map(|(id, t)| {
                if t.consumers == 0 {
                    t.scalar_seq
                        .filter(|_| self.vxu.ready(id, now))
                        .map(|seq| (id, seq))
                } else {
                    None
                }
            });
            let Some((id, seq)) = ready else { break };
            self.scalar_done.push_back(seq);
            self.vxu.complete(id);
            self.vx_track.remove(id);
        }

        // 4. Lanes issue, pushing completion events for future cycles.
        let vcu_busy = self.vcu.busy();
        let env = LaneEnv {
            vmu: &self.vmu,
            vxu: &self.vxu,
            vcu_busy,
        };
        for lane in &mut self.lanes {
            lane.tick(now, &env, &mut self.pending_events);
        }

        // 5. VCU-produced scalar responses.
        while let Some(seq) = self.vcu.pop_scalar(now) {
            self.scalar_done.push_back(seq);
        }

        // 6. Accept/expand the next instruction off the command bus.
        let regmap = self.params.regmap;
        let lanes = u32::from(regmap.cores);
        let line_bytes = self.line_bytes;
        let coalesce = self.params.vmu.coalesce;
        let vmu_ok = self.vmu.can_accept();
        let vxu_free = !self.vxu.busy();
        let (next_mem, next_vx) = (&mut self.next_mem_id, &mut self.next_vx_id);
        let ex = self.vcu.pop_cmd_if(now, &regmap, |cmd| {
            if cmd.instr.is_vector_mem() && !vmu_ok {
                return None;
            }
            if cmd.instr.is_cross_element() && !vxu_free {
                return None;
            }
            Some(expand(
                cmd, &regmap, lanes, line_bytes, coalesce, next_mem, next_vx,
            ))
        });
        if let Some(ex) = ex {
            self.apply_expansion(now, ex);
        }

        // 7. Broadcast one micro-op (lock-step: all targets must accept).
        let can_broadcast = match self.vcu.head().map(|q| q.target) {
            Some(Target::All) => self.lanes.iter().all(Lane::can_accept),
            Some(Target::One(c)) => self.lanes[c as usize].can_accept(),
            None => false,
        };
        if can_broadcast {
            let q = self.vcu.pop_head().expect("head checked");
            match q.target {
                Target::All => {
                    for lane in &mut self.lanes {
                        lane.receive(q.uop);
                    }
                }
                Target::One(c) => self.lanes[c as usize].receive(q.uop),
            }
        }
    }

    fn vlen_bits(&self) -> u32 {
        self.params.regmap.vlen_bits()
    }

    fn clock_domain(&self) -> ClockDomain {
        ClockDomain::Little
    }

    /// Every VMU bank's responses return on port 0.
    fn port(&self) -> PortId {
        PortId::Vmu(0)
    }

    fn scalar_pending(&self) -> bool {
        !self.scalar_done.is_empty()
    }

    /// Idle ticks account each lane's constant stall kind (and VMIU
    /// backpressure); the returned `account` is always `None`, because
    /// per-lane attribution does not fit one component-level kind.
    fn quiescence(&self, now: u64) -> Quiescence {
        let mut until: Option<u64> = None;
        let mut fold = |t: u64| until = Some(until.map_or(t, |u| u.min(t)));

        // The VMU acts on its own (VLU delivery, request issue, line
        // generation)?
        if self.vmu.quiescence().is_none() {
            return Quiescence::Active;
        }
        // Command-bus / response-bus transfers complete?
        for t in [self.vcu.bus_next_ready(), self.vcu.resp_next_ready()]
            .into_iter()
            .flatten()
        {
            if t <= now {
                return Quiescence::Active;
            }
            fold(t);
        }
        // A broadcast would go out this cycle?
        let can_broadcast = match self.vcu.head().map(|q| q.target) {
            Some(Target::All) => self.lanes.iter().all(Lane::can_accept),
            Some(Target::One(c)) => self.lanes[c as usize].can_accept(),
            None => false,
        };
        if can_broadcast {
            return Quiescence::Active;
        }
        // Matured (or maturing) lane events?
        for e in &self.pending_events {
            if e.at <= now {
                return Quiescence::Active;
            }
            fold(e.at);
        }
        // A scalar-only ring transaction completing?
        for (id, t) in self.vx_track.iter() {
            if t.consumers == 0 && t.scalar_seq.is_some() {
                match self.vxu.ready_at(id) {
                    Some(r) if r <= now => return Quiescence::Active,
                    Some(r) => fold(r),
                    None => {}
                }
            }
        }
        // The lanes themselves.
        let env = LaneEnv {
            vmu: &self.vmu,
            vxu: &self.vxu,
            vcu_busy: self.vcu.busy(),
        };
        for lane in &self.lanes {
            match lane.quiescence(now, &env) {
                Quiescence::Active => return Quiescence::Active,
                Quiescence::Idle { until: Some(t), .. } => {
                    if t <= now {
                        return Quiescence::Active;
                    }
                    fold(t);
                }
                Quiescence::Idle { until: None, .. } => {}
            }
        }
        Quiescence::Idle {
            until,
            account: None,
        }
    }

    /// Each lane records `cycles` of its current stall kind, the VMIU's
    /// backpressure counter advances if it was counting, and the engine
    /// clock moves so a later dispatch stamps the command bus exactly as
    /// the naive loop would have. Debug-panics unless `quiescence`
    /// reports `Idle` covering the window.
    fn skip_idle(&mut self, now: u64, cycles: u64) {
        debug_assert!(
            match self.quiescence(now) {
                Quiescence::Active => false,
                Quiescence::Idle { until, .. } => until.is_none_or(|u| now + cycles <= u),
            },
            "skip_idle outside a quiescent window"
        );
        let backpressured = self
            .vmu
            .quiescence()
            .expect("quiescent window implies a quiescent VMU");
        self.vmu.skip_idle(cycles, backpressured);
        let env = LaneEnv {
            vmu: &self.vmu,
            vxu: &self.vxu,
            vcu_busy: self.vcu.busy(),
        };
        for lane in &mut self.lanes {
            let kind = match lane.quiescence(now, &env) {
                Quiescence::Idle {
                    account: Some(k), ..
                } => k,
                q => unreachable!("lane not quiescent during engine skip: {q:?}"),
            };
            lane.skip_idle(cycles, kind);
        }
        self.now += cycles;
    }

    /// Lanes, VCU, VMU, VXU, then event and transaction tracking.
    fn save_state(&self, w: &mut SnapWriter) {
        for lane in &self.lanes {
            lane.save_state(w);
        }
        self.vcu.save_state(w);
        self.vmu.save_state(w);
        self.vxu.save_state(w);
        self.mem_track.save(w);
        self.vx_track.save(w);
        self.pending_events.save(w);
        self.scalar_done.save(w);
        self.next_mem_id.save(w);
        self.next_vx_id.save(w);
        self.now.save(w);
        self.first_dispatch_done.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for lane in &mut self.lanes {
            lane.restore_state(r)?;
        }
        self.vcu.restore_state(r)?;
        self.vmu.restore_state(r)?;
        self.vxu.restore_state(r)?;
        self.mem_track = Snap::load(r)?;
        self.vx_track = Snap::load(r)?;
        self.pending_events = Snap::load(r)?;
        self.scalar_done = Snap::load(r)?;
        self.next_mem_id = Snap::load(r)?;
        self.next_vx_id = Snap::load(r)?;
        self.now = Snap::load(r)?;
        self.first_dispatch_done = Snap::load(r)?;
        Ok(())
    }

    fn checkpoint_tag(&self) -> u8 {
        1
    }

    /// The little L1Ds are the vector banks.
    fn warm_target(&self, line: u64, hier: &MemHierarchy) -> WarmTarget {
        WarmTarget::LittleD(usize::from(hier.bank_of(line)))
    }

    /// Lanes register beside the cores (`sys.lane{i}`), the VMU and VXU
    /// under `sys.engine`.
    fn register_stats(&self, sys: &mut bvl_obs::Scope<'_>) {
        for (c, lane) in self.lanes.iter().enumerate() {
            lane.stats().register(&mut sys.scope(&format!("lane{c}")));
        }
        let mut engine = sys.scope("engine");
        self.vmu.stats().register(&mut engine.scope("vmu"));
        self.vxu.stats().register(&mut engine.scope("vxu"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_core::big::{BigCore, BigParams};
    use bvl_core::fetch::TEXT_BASE;
    use bvl_isa::asm::Assembler;
    use bvl_isa::reg::{VReg, XReg};
    use bvl_isa::vcfg::Sew;
    use bvl_mem::{HierConfig, MemHierarchy, SharedMem, SimMemory};
    use std::sync::Arc;

    fn x(i: u8) -> XReg {
        XReg::new(i)
    }
    fn v(i: u8) -> VReg {
        VReg::new(i)
    }

    /// Runs a program on big core + VLITTLE engine; returns (cycles, mem).
    fn run_vlittle(
        a: &Assembler,
        mem: SimMemory,
        params: EngineParams,
    ) -> (u64, SharedMem, VLittleEngine, BigCore) {
        let prog = Arc::new(a.assemble().unwrap());
        let shared = SharedMem::new(mem);
        let mut hier = MemHierarchy::new(HierConfig::with_little(params.regmap.cores as usize));
        hier.set_vector_mode(true);
        let mut engine = VLittleEngine::new(params, hier.line_bytes());
        let mut big = BigCore::new(
            shared.clone(),
            prog,
            TEXT_BASE,
            hier.line_bytes(),
            engine.vlen_bits(),
            BigParams::default(),
        );
        big.assign(0);
        for t in 0..5_000_000u64 {
            hier.tick(t);
            engine.tick(t, &mut hier);
            big.tick(t, &mut hier, Some(&mut engine));
            if big.done() && engine.idle() {
                return (t, shared, engine, big);
            }
        }
        panic!("vlittle system did not finish");
    }

    fn saxpy_vector_program(n: u64, xs: u64, ys: u64) -> Assembler {
        let (rn, rx, ry, rvl, rb) = (x(10), x(11), x(12), x(13), x(14));
        let mut a = Assembler::new();
        a.li(rn, n as i64);
        a.li(rx, xs as i64);
        a.li(ry, ys as i64);
        // f1 = a = 2.0
        a.li(x(20), 2);
        a.fcvt_s_w(bvl_isa::reg::FReg::new(1), x(20));
        a.label("strip");
        a.vsetvli(rvl, rn, Sew::E32);
        a.vle(v(1), rx); // x
        a.vle(v(2), ry); // y
        a.vfmacc_vf(v(2), bvl_isa::reg::FReg::new(1), v(1)); // y += a*x
        a.vse(v(2), ry);
        a.slli(rb, rvl, 2);
        a.add(rx, rx, rb);
        a.add(ry, ry, rb);
        a.sub(rn, rn, rvl);
        a.bne(rn, XReg::ZERO, "strip");
        a.vmfence();
        a.halt();
        a
    }

    #[test]
    fn saxpy_end_to_end_correct_and_complete() {
        let n = 64u64;
        let mut mem = SimMemory::new(1 << 22);
        let xs_data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys_data: Vec<f32> = (0..n).map(|i| 10.0 * i as f32).collect();
        let xs = mem.alloc_f32(&xs_data);
        let ys = mem.alloc_f32(&ys_data);
        let a = saxpy_vector_program(n, xs, ys);
        let (cycles, shared, engine, _big) = run_vlittle(&a, mem, EngineParams::paper_default());
        // Functional result.
        shared.with(|m| {
            for i in 0..n as usize {
                let got = m.read_f32_array(ys, n as usize)[i];
                let want = 10.0 * i as f32 + 2.0 * i as f32;
                assert_eq!(got, want, "element {i}");
            }
        });
        // Timing sanity: includes the 500-cycle region entry.
        assert!(cycles > 500, "cycles = {cycles}");
        assert!(cycles < 100_000, "cycles = {cycles}");
        assert!(engine.vmu_stats().cmds >= 12); // 4 strips x 3 mem ops
    }

    #[test]
    fn vl0_load_does_not_wedge_the_engine() {
        // Regression (found by differential fuzzing, pinned in
        // `crates/difftest/corpus/masked_off_vle_livelock.s`): a vector
        // load at the power-on vl of 0 expands to zero lane writeback
        // micro-ops, so nothing would ever retire the VMU's command —
        // the engine must not be handed one in the first place.
        let mut a = Assembler::new();
        a.li(x(21), 0x2000);
        a.vle_m(v(5), x(21));
        a.vmfence();
        a.halt();
        let (_, _, engine, _) =
            run_vlittle(&a, SimMemory::new(1 << 20), EngineParams::paper_default());
        assert!(engine.idle(), "engine wedged on a vl=0 load");
    }

    /// Ids are spent only on entries that will be inserted, so once the
    /// engine drains its id windows are empty, and its checkpoint is as
    /// long as a fresh engine's. The run issues a load and a store at
    /// vl = 0, fills the UopQ in front of memory instructions, and has
    /// the banks refuse line requests.
    #[test]
    fn a_drained_engine_checkpoints_like_a_fresh_one() {
        let params = EngineParams::paper_default();
        let mut a = Assembler::new();
        // At the power-on vl of 0: a load and a store with no elements.
        a.li(x(21), 0x2000);
        a.vle(v(5), x(21));
        a.vse(v(5), x(21));
        a.vsetivli(x(1), 16, Sew::E32);
        a.vid(v(1));
        a.vid(v(2));
        // A chain of divides backs the lanes up and fills the UopQ.
        for _ in 0..24 {
            a.vfdiv_vv(v(2), v(2), v(1));
        }
        // Strided loads put one line per element on a single bank,
        // more misses than its MSHRs take.
        a.li(x(3), 4096);
        for k in 0..8 {
            a.li(x(22), 0x10_0000 + k * 64);
            a.vlse(v(3 + k as u8), x(22), x(3));
        }
        a.vse(v(2), x(21));
        a.vmfence();
        a.halt();
        let (_, _, engine, _) = run_vlittle(&a, SimMemory::new(1 << 24), params);
        assert!(engine.idle());
        let len = |e: &VLittleEngine| {
            let mut w = SnapWriter::new();
            e.save_state(&mut w);
            w.len()
        };
        assert_eq!(
            len(&engine),
            len(&VLittleEngine::new(params, 64)),
            "a drained engine's id windows are still open"
        );
    }

    #[test]
    fn vsetvl_reports_engine_vlmax() {
        let mut a = Assembler::new();
        a.li(x(1), 1000);
        a.vsetvli(x(2), x(1), Sew::E32);
        a.vmfence();
        a.halt();
        let (_, _, _, big) =
            run_vlittle(&a, SimMemory::new(1 << 20), EngineParams::paper_default());
        assert_eq!(big.machine().xreg(x(2)), 16); // 512-bit engine at e32
    }

    #[test]
    fn reduction_through_ring_yields_scalar() {
        let mut a = Assembler::new();
        a.vsetivli(x(1), 16, Sew::E32);
        a.vid(v(1)); // 0..15
        a.vmv_s_x(v(2), XReg::ZERO);
        a.vredsum(v(3), v(1), v(2));
        a.vmv_x_s(x(5), v(3));
        a.vmfence();
        a.halt();
        let (_, _, engine, big) =
            run_vlittle(&a, SimMemory::new(1 << 20), EngineParams::paper_default());
        assert_eq!(big.machine().xreg(x(5)), 120);
        assert!(engine.vxu_stats().transactions >= 2); // redsum + mv.x.s
    }

    #[test]
    fn single_chime_config_needs_more_strips() {
        // 1c (128-bit) vs 2c+sw (512-bit): the smaller engine executes the
        // same program with more strip-mine iterations and more fetches.
        let n = 256u64;
        let mk_mem = || {
            let mut mem = SimMemory::new(1 << 22);
            let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let ys: Vec<f32> = (0..n).map(|_| 1.0).collect();
            let xa = mem.alloc_f32(&xs);
            let ya = mem.alloc_f32(&ys);
            (mem, xa, ya)
        };
        let small = EngineParams {
            regmap: RegMap {
                cores: 4,
                chimes: 1,
                packed: false,
            },
            ..EngineParams::paper_default()
        };
        let (mem, xa, ya) = mk_mem();
        let (cycles_small, ..) = run_vlittle(&saxpy_vector_program(n, xa, ya), mem, small);
        let (mem, xa, ya) = mk_mem();
        let (cycles_big, ..) = run_vlittle(
            &saxpy_vector_program(n, xa, ya),
            mem,
            EngineParams::paper_default(),
        );
        assert!(
            cycles_small > cycles_big,
            "1c ({cycles_small}) should be slower than 2c+sw ({cycles_big})"
        );
    }

    #[test]
    fn vmfence_waits_for_stores() {
        // Store then fence then halt: the program must not finish before
        // the VMU drains.
        let mut a = Assembler::new();
        a.vsetivli(x(1), 16, Sew::E32);
        a.vid(v(1));
        a.li(x(2), 0x8000);
        a.vse(v(1), x(2));
        a.vmfence();
        a.halt();
        let (_, shared, engine, _) =
            run_vlittle(&a, SimMemory::new(1 << 20), EngineParams::paper_default());
        assert!(engine.mem_drained());
        shared.with(|m| {
            for i in 0..16u64 {
                assert_eq!(bvl_isa::mem::Memory::read_uint(m, 0x8000 + i * 4, 4), i);
            }
        });
    }

    /// Oracle for the tick-skip contract: whenever `quiescence` reports
    /// `Idle` and no external wake (hierarchy event or pending VMU
    /// response) exists, the naive tick must change nothing observable
    /// except the exact accounting `skip_idle` would batch-apply: one
    /// cycle of each lane's predicted stall kind plus (possibly) one
    /// VMIU backpressure cycle.
    #[test]
    fn quiescence_predicts_naive_ticks() {
        let n = 32u64;
        let mut mem = SimMemory::new(1 << 22);
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let xa = mem.alloc_f32(&xs);
        let ya = mem.alloc_f32(&xs);
        let a = saxpy_vector_program(n, xa, ya);
        let params = EngineParams::paper_default();

        let prog = Arc::new(a.assemble().unwrap());
        let _shared = SharedMem::new(mem);
        let mut hier = MemHierarchy::new(HierConfig::with_little(params.regmap.cores as usize));
        hier.set_vector_mode(true);
        let mut engine = VLittleEngine::new(params, hier.line_bytes());
        let mut big = BigCore::new(
            _shared.clone(),
            prog,
            TEXT_BASE,
            hier.line_bytes(),
            engine.vlen_bits(),
            BigParams::default(),
        );
        big.assign(0);

        let mut idle_checked = 0u64;
        for t in 0..1_000_000u64 {
            let q = engine.quiescence(t);
            let external =
                hier.next_event(t).is_some_and(|e| e <= t) || hier.response_pending(PortId::Vmu(0));
            let predicted = if matches!(q, Quiescence::Idle { .. }) && !external {
                let env = LaneEnv {
                    vmu: &engine.vmu,
                    vxu: &engine.vxu,
                    vcu_busy: engine.vcu.busy(),
                };
                let kinds: Vec<_> = engine
                    .lanes
                    .iter()
                    .map(|l| match l.quiescence(t, &env) {
                        Quiescence::Idle {
                            account: Some(k), ..
                        } => k,
                        other => panic!("lane not idle inside idle engine window: {other:?}"),
                    })
                    .collect();
                let bp = engine
                    .vmu
                    .quiescence()
                    .expect("idle engine implies quiescent VMU");
                let lanes_before: Vec<_> = engine.lanes.iter().map(|l| *l.stats()).collect();
                Some((
                    kinds,
                    bp,
                    lanes_before,
                    *engine.vmu_stats(),
                    *engine.vxu_stats(),
                ))
            } else {
                None
            };

            hier.tick(t);
            engine.tick(t, &mut hier);
            big.tick(t, &mut hier, Some(&mut engine));

            if let Some((kinds, bp, lanes_before, vmu_before, vxu_before)) = predicted {
                idle_checked += 1;
                for (c, kind) in kinds.iter().enumerate() {
                    let mut want = lanes_before[c];
                    want.account(*kind);
                    assert_eq!(
                        *engine.lanes[c].stats(),
                        want,
                        "lane {c} accounting at t={t}"
                    );
                }
                let mut want_vmu = vmu_before;
                if bp {
                    want_vmu.vmiu_backpressure += 1;
                }
                assert_eq!(*engine.vmu_stats(), want_vmu, "vmu stats at t={t}");
                assert_eq!(*engine.vxu_stats(), vxu_before, "vxu stats at t={t}");
            }

            if big.done() && engine.idle() {
                assert!(idle_checked > 0, "run never exercised an idle window");
                return;
            }
        }
        panic!("vlittle system did not finish");
    }

    #[test]
    fn lane_breakdowns_cover_all_cycles() {
        let n = 64u64;
        let mut mem = SimMemory::new(1 << 22);
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let xa = mem.alloc_f32(&xs);
        let ya = mem.alloc_f32(&xs);
        let a = saxpy_vector_program(n, xa, ya);
        let (_, _, engine, _) = run_vlittle(&a, mem, EngineParams::paper_default());
        for (c, lane) in engine.lanes.iter().enumerate() {
            let s = lane.stats();
            let total: u64 = s.breakdown.iter().sum();
            assert_eq!(total, s.cycles, "lane {c} breakdown incomplete");
            assert!(
                s.of(bvl_core::types::StallKind::Busy) > 0,
                "lane {c} never busy"
            );
        }
    }
}
