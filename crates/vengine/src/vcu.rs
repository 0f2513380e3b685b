//! The vector control unit (paper sections III-B/III-C).
//!
//! The VCU receives vector instructions from the big core over a
//! pipelined command bus, buffers them (UopQ + scalar DataQ), expands each
//! into per-chime micro-ops, and broadcasts one micro-op per cycle to all
//! lanes over a pipelined bus — *only when every lane can accept it*
//! (strict lock-step issue, which is what makes the design simple and
//! what the `simd` stall category measures).
//!
//! Memory instructions additionally produce a [`MemCmd`] pushed to the
//! VMIU *at expansion time*, ahead of the compute micro-ops — this is the
//! access/execute decoupling the paper leans on.

use crate::regmap::RegMap;
use crate::uop::{Uop, UopKind};
use crate::vmu::MemCmd;
use bvl_core::types::VecCmd;
use bvl_core::RegList;
use bvl_isa::instr::{Instr, VArithOp, VMemMode, VSrc};
use bvl_mem::queue::DelayQueue;
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// VCU configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VcuParams {
    /// Command-bus entries (instructions in flight from the big core).
    pub busq_depth: usize,
    /// Micro-op queue depth.
    pub uopq_depth: usize,
    /// Scalar data queue depth (shallower than the UopQ to save area,
    /// paper section III-B).
    pub dataq_depth: usize,
    /// Command-bus latency, cycles (pipelined for physical distance).
    pub cmd_bus_latency: u64,
}

// Part of `EngineParams`' wire encoding (sweep-fabric protocol).
snap_struct!(VcuParams {
    busq_depth,
    uopq_depth,
    dataq_depth,
    cmd_bus_latency,
});

impl Default for VcuParams {
    fn default() -> Self {
        VcuParams {
            busq_depth: 8,
            uopq_depth: 32,
            dataq_depth: 8,
            cmd_bus_latency: 1,
        }
    }
}

/// Who receives a broadcast micro-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Target {
    /// All lanes (lock-step broadcast).
    All,
    /// A single lane (e.g. `vxreduce` to the first core).
    One(u8),
}

/// A micro-op waiting in the UopQ.
#[derive(Clone, Copy, Debug)]
pub struct QueuedUop {
    /// The micro-op.
    pub uop: Uop,
    /// Broadcast target.
    pub target: Target,
    /// Releases the instruction's scalar DataQ slot when broadcast.
    pub frees_data_slot: bool,
}

impl Snap for Target {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Target::All => w.u8(0),
            Target::One(c) => {
                w.u8(1);
                c.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Target::All,
            1 => Target::One(Snap::load(r)?),
            t => {
                return Err(SnapError::BadTag {
                    ty: "Target",
                    tag: u64::from(t),
                })
            }
        })
    }
}

snap_struct!(QueuedUop {
    uop,
    target,
    frees_data_slot,
});

/// A cross-element reservation produced by expansion.
#[derive(Clone, Copy, Debug)]
pub struct VxBegin {
    /// VXU transaction id.
    pub id: u64,
    /// Expected `vxread` completions (uops × lanes).
    pub reads: u32,
    /// Source elements shifted through the ring.
    pub total_elems: u32,
    /// Big-core seq to answer with a scalar once the ring output is ready
    /// (`vcpop`/`vfirst`/`vmv.x.s`/`vfmv.f.s`).
    pub scalar_seq: Option<u64>,
    /// Consumer micro-op completions (`VxConsumed` events) to wait for
    /// before releasing the ring.
    pub consumers: u32,
}

/// Memory-command bookkeeping produced by expansion.
#[derive(Clone, Copy, Debug)]
pub struct MemBegin {
    /// VMU transaction id.
    pub mem_id: u64,
    /// Expected `IdxSent` events before indices are ready (0 = none).
    pub idx_events: u32,
    /// Expected `StoreSent` events before store data is assembled.
    pub store_events: u32,
    /// Expected `LoadWbDone` events before the load command retires.
    pub loadwb_events: u32,
}

/// Everything one instruction expands into.
#[derive(Clone, Debug, Default)]
pub struct Expansion {
    /// Micro-ops for the UopQ, in issue order.
    pub uops: Vec<QueuedUop>,
    /// Memory command for the VMIU.
    pub mem: Option<(MemCmd, MemBegin)>,
    /// Cross-element reservation.
    pub vx: Option<VxBegin>,
    /// Scalar response produced by the VCU itself (`vsetvl`).
    pub immediate_scalar: Option<u64>,
    /// The instruction carries a scalar operand (occupies a DataQ slot).
    pub uses_data_slot: bool,
}

/// The element groups an instruction's micro-ops cover.
fn chimes_of(cmd: &VecCmd, regmap: &RegMap) -> u8 {
    regmap.chimes_for(cmd.vl, cmd.sew).max(
        // Scalar-writing cross-element reads must produce a response even
        // at vl == 0; give them one (empty) chime pass.
        u8::from(cmd.instr.vector_writes_scalar()),
    )
}

/// How many micro-ops [`expand`] makes of `cmd`, found without expanding
/// it. The VCU checks UopQ room with this count, so an instruction that
/// has to wait costs a count each cycle, not an expansion, and spends no
/// ids.
pub fn uop_count(cmd: &VecCmd, regmap: &RegMap) -> usize {
    let chimes = usize::from(chimes_of(cmd, regmap));
    match cmd.instr {
        Instr::VSetVl { .. } | Instr::VmFence => 0,
        Instr::VArith { .. }
        | Instr::VCmp { .. }
        | Instr::VMask { .. }
        | Instr::VId { .. }
        | Instr::VMvVX { .. }
        | Instr::VFMvVF { .. }
        | Instr::VMvVV { .. }
        | Instr::VStore { .. } => chimes,
        Instr::VMvSX { .. } | Instr::VMvXS { .. } | Instr::VFMvFS { .. } => 1,
        // Indexed loads read their indices once per chime, too.
        Instr::VLoad { mode, .. } => chimes * (1 + usize::from(mode.is_indexed())),
        Instr::VRed { .. } => chimes + 1,
        Instr::VRgather { .. } | Instr::VSlideUp { .. } | Instr::VSlideDown { .. } => 2 * chimes,
        Instr::VPopc { .. } | Instr::VFirst { .. } => chimes.max(1),
        ref other => unreachable!("not a vector instruction: {other:?}"),
    }
}

/// Expands one vector instruction into micro-ops and unit commands.
///
/// `lanes` is the cluster size (for expected event counts); `line_bytes`
/// and `coalesce` shape the memory command; `next_mem_id`/`next_vx_id`
/// are allocation counters, advanced only for an id the engine will
/// track. A load at vl = 0 gets no memory command and no id: no lane
/// writeback micro-op would ever consume its result, and a zero-length
/// access has no lines to fetch, so there is nothing to time. (Handing it
/// to the VMU would wedge the engine: loads retire only through their
/// consumers' `LoadWbDone` events.)
pub fn expand(
    cmd: &VecCmd,
    regmap: &RegMap,
    lanes: u32,
    line_bytes: u64,
    coalesce: u32,
    next_mem_id: &mut u64,
    next_vx_id: &mut u64,
) -> Expansion {
    let mut ex = Expansion {
        uses_data_slot: cmd.instr.vector_scalar_source().is_some(),
        ..Expansion::default()
    };
    let chimes = chimes_of(cmd, regmap);
    let mk = |chime: u8, kind: UopKind, vl: u32| Uop {
        seq: cmd.seq,
        chime,
        vl,
        sew: cmd.sew,
        masked: instr_masked(&cmd.instr),
        kind,
    };
    let push_all = |ex: &mut Expansion, uop: Uop| {
        ex.uops.push(QueuedUop {
            uop,
            target: Target::All,
            frees_data_slot: false,
        });
    };

    match cmd.instr {
        Instr::VSetVl { .. } => {
            ex.immediate_scalar = Some(cmd.seq);
        }

        Instr::VArith {
            op, vd, src1, vs2, ..
        } => {
            let mut srcs = RegList::of(&[vs2.index() as u8]);
            if let VSrc::V(v) = src1 {
                srcs.push(v.index() as u8);
            }
            for k in 0..chimes {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::Arith {
                            op,
                            srcs,
                            dst: vd.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
        }
        Instr::VCmp { vd, vs2, src1, .. } => {
            let mut srcs = RegList::of(&[vs2.index() as u8]);
            if let VSrc::V(v) = src1 {
                srcs.push(v.index() as u8);
            }
            for k in 0..chimes {
                // Compares are single-cycle element ops; priced as the
                // 1-cycle integer class.
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::Arith {
                            op: VArithOp::And,
                            srcs,
                            dst: vd.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
        }
        Instr::VMask { vd, vs1, vs2, .. } => {
            for k in 0..chimes {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::Arith {
                            op: VArithOp::And,
                            srcs: RegList::of(&[vs1.index() as u8, vs2.index() as u8]),
                            dst: vd.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
        }
        Instr::VId { vd, .. } => {
            for k in 0..chimes {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::Arith {
                            op: VArithOp::And,
                            srcs: RegList::default(),
                            dst: vd.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
        }
        Instr::VMvVX { vd, .. } | Instr::VFMvVF { vd, .. } => {
            for k in 0..chimes {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::Arith {
                            op: VArithOp::And,
                            srcs: RegList::default(),
                            dst: vd.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
        }
        Instr::VMvVV { vd, vs2 } => {
            for k in 0..chimes {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::Arith {
                            op: VArithOp::And,
                            srcs: RegList::of(&[vs2.index() as u8]),
                            dst: vd.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
        }
        Instr::VMvSX { vd, .. } => {
            // Writes element 0 only: a single-element chime-0 pass.
            push_all(
                &mut ex,
                mk(
                    0,
                    UopKind::Arith {
                        op: VArithOp::And,
                        srcs: RegList::default(),
                        dst: vd.index() as u8,
                    },
                    1,
                ),
            );
        }

        Instr::VLoad { .. } if chimes == 0 => {}
        Instr::VLoad { vd, mode, .. } => {
            *next_mem_id += 1;
            let mem_id = *next_mem_id;
            let indexed = mode.is_indexed();
            let mut idx_events = 0;
            if let VMemMode::Indexed(vidx) = mode {
                for k in 0..chimes {
                    push_all(
                        &mut ex,
                        mk(
                            k,
                            UopKind::IdxRd {
                                mem_id,
                                src: vidx.index() as u8,
                            },
                            cmd.vl,
                        ),
                    );
                    idx_events += lanes;
                }
            }
            for k in 0..chimes {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::LoadWb {
                            mem_id,
                            dst: vd.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
            let mc = MemCmd::from_accesses(mem_id, false, indexed, &cmd.mem, line_bytes, coalesce);
            ex.mem = Some((
                mc,
                MemBegin {
                    mem_id,
                    idx_events,
                    store_events: 0,
                    loadwb_events: u32::from(chimes) * lanes,
                },
            ));
        }
        Instr::VStore { vs3, mode, .. } => {
            *next_mem_id += 1;
            let mem_id = *next_mem_id;
            let indexed = mode.is_indexed();
            let idx = match mode {
                VMemMode::Indexed(v) => Some(v.index() as u8),
                _ => None,
            };
            let mut store_events = 0;
            for k in 0..chimes {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::StoreRd {
                            mem_id,
                            src: vs3.index() as u8,
                            idx,
                        },
                        cmd.vl,
                    ),
                );
                store_events += lanes;
            }
            let mc = MemCmd::from_accesses(mem_id, true, indexed, &cmd.mem, line_bytes, coalesce);
            ex.mem = Some((
                mc,
                MemBegin {
                    mem_id,
                    idx_events: 0,
                    store_events,
                    loadwb_events: 0,
                },
            ));
        }

        Instr::VRed { op, vd, vs2, .. } => {
            *next_vx_id += 1;
            let vx_id = *next_vx_id;
            for k in 0..chimes {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::VxRead {
                            vx_id,
                            src: vs2.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
            ex.uops.push(QueuedUop {
                uop: mk(
                    0,
                    UopKind::VxReduce {
                        vx_id,
                        op,
                        dst: vd.index() as u8,
                    },
                    cmd.vl,
                ),
                target: Target::One(0),
                frees_data_slot: false,
            });
            ex.vx = Some(VxBegin {
                id: vx_id,
                reads: u32::from(chimes) * lanes,
                total_elems: cmd.vl,
                scalar_seq: None,
                consumers: 1,
            });
        }
        Instr::VRgather { vd, vs2, .. }
        | Instr::VSlideUp { vd, vs2, .. }
        | Instr::VSlideDown { vd, vs2, .. } => {
            *next_vx_id += 1;
            let vx_id = *next_vx_id;
            for k in 0..chimes {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::VxRead {
                            vx_id,
                            src: vs2.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
            for k in 0..chimes {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::VxWrite {
                            vx_id,
                            dst: vd.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
            ex.vx = Some(VxBegin {
                id: vx_id,
                reads: u32::from(chimes) * lanes,
                total_elems: cmd.vl,
                scalar_seq: None,
                consumers: u32::from(chimes) * lanes,
            });
        }
        Instr::VPopc { vs2, .. } | Instr::VFirst { vs2, .. } => {
            *next_vx_id += 1;
            let vx_id = *next_vx_id;
            for k in 0..chimes.max(1) {
                push_all(
                    &mut ex,
                    mk(
                        k,
                        UopKind::VxRead {
                            vx_id,
                            src: vs2.index() as u8,
                        },
                        cmd.vl,
                    ),
                );
            }
            ex.vx = Some(VxBegin {
                id: vx_id,
                reads: u32::from(chimes.max(1)) * lanes,
                total_elems: cmd.vl.max(1),
                scalar_seq: Some(cmd.seq),
                consumers: 0,
            });
        }
        Instr::VMvXS { vs2, .. } | Instr::VFMvFS { vs2, .. } => {
            *next_vx_id += 1;
            let vx_id = *next_vx_id;
            // Element 0 only: a single-element read from lane 0.
            push_all(
                &mut ex,
                mk(
                    0,
                    UopKind::VxRead {
                        vx_id,
                        src: vs2.index() as u8,
                    },
                    1,
                ),
            );
            ex.vx = Some(VxBegin {
                id: vx_id,
                reads: lanes,
                total_elems: 1,
                scalar_seq: Some(cmd.seq),
                consumers: 0,
            });
        }

        Instr::VmFence => {
            // Handled entirely by the big core + drain queries.
        }
        ref other => unreachable!("not a vector instruction: {other:?}"),
    }
    if let Some(last) = ex.uops.last_mut() {
        last.frees_data_slot = ex.uses_data_slot;
    }
    ex
}

fn instr_masked(instr: &Instr) -> bool {
    match instr {
        Instr::VLoad { masked, .. }
        | Instr::VStore { masked, .. }
        | Instr::VArith { masked, .. }
        | Instr::VCmp { masked, .. }
        | Instr::VRed { masked, .. }
        | Instr::VId { masked, .. } => *masked,
        _ => false,
    }
}

/// The VCU's queues.
#[derive(Debug)]
pub struct Vcu {
    params: VcuParams,
    bus: DelayQueue<VecCmd>,
    uopq: VecDeque<QueuedUop>,
    dataq_used: usize,
    /// Scalar responses the VCU produces itself (vsetvl), delayed by the
    /// response-bus latency.
    resp: DelayQueue<u64>,
    /// Memory commands travelling on the bus, for drain accounting.
    mem_on_bus: usize,
}

impl Vcu {
    /// Creates a VCU.
    pub fn new(params: VcuParams) -> Self {
        Vcu {
            bus: DelayQueue::new(params.cmd_bus_latency),
            uopq: VecDeque::new(),
            dataq_used: 0,
            resp: DelayQueue::new(params.cmd_bus_latency),
            mem_on_bus: 0,
            params,
        }
    }

    /// The configuration.
    pub fn params(&self) -> &VcuParams {
        &self.params
    }

    /// True if the command bus can take another instruction.
    pub fn can_accept(&self) -> bool {
        self.bus.len() < self.params.busq_depth
    }

    /// Accepts an instruction from the big core at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if the bus is full.
    pub fn dispatch(&mut self, now: u64, cmd: VecCmd) {
        assert!(self.can_accept(), "VCU command bus overflow");
        if cmd.instr.is_vector_mem() {
            self.mem_on_bus += 1;
        }
        self.bus.push(now, cmd);
    }

    /// Like [`Vcu::dispatch`], but with an extra transfer delay (the
    /// vector-region entry penalty is charged to the first instruction).
    ///
    /// # Panics
    ///
    /// Panics if the bus is full.
    pub fn dispatch_with_extra(&mut self, now: u64, extra: u64, cmd: VecCmd) {
        assert!(self.can_accept(), "VCU command bus overflow");
        if cmd.instr.is_vector_mem() {
            self.mem_on_bus += 1;
        }
        self.bus.push_with_extra(now, extra, cmd);
    }

    /// Pops the next instruction off the bus if its transfer completed
    /// and the DataQ and UopQ have room for it: a slot for its scalar
    /// operand and room for its [`uop_count`] micro-ops under `regmap`.
    /// Only then does `admit` check the units the instruction needs and
    /// expand it; a refusal leaves the instruction on the bus.
    pub fn pop_cmd_if(
        &mut self,
        now: u64,
        regmap: &RegMap,
        admit: impl FnOnce(&VecCmd) -> Option<Expansion>,
    ) -> Option<Expansion> {
        let cmd = self.bus.peek_ready(now)?;
        let needs_data = cmd.instr.vector_scalar_source().is_some();
        if needs_data && self.dataq_used >= self.params.dataq_depth {
            return None;
        }
        let uops = uop_count(cmd, regmap);
        if self.uopq.len() + uops > self.params.uopq_depth {
            return None;
        }
        let ex = admit(cmd)?;
        debug_assert_eq!(ex.uops.len(), uops, "uop_count disagrees with expand");
        let cmd = self.bus.pop_ready(now).expect("peeked ready");
        if cmd.instr.is_vector_mem() {
            self.mem_on_bus -= 1;
        }
        // The slot is held until the instruction's last micro-op is
        // broadcast; zero-uop instructions (vsetvl) consume their scalar
        // inside the VCU and never occupy a slot past this cycle.
        if ex.uses_data_slot && !ex.uops.is_empty() {
            self.dataq_used += 1;
        }
        self.uopq.extend(&ex.uops);
        Some(ex)
    }

    /// Peeks the micro-op at the head of the UopQ.
    pub fn head(&self) -> Option<&QueuedUop> {
        self.uopq.front()
    }

    /// Pops the head after a successful broadcast.
    pub fn pop_head(&mut self) -> Option<QueuedUop> {
        let q = self.uopq.pop_front()?;
        if q.frees_data_slot {
            self.dataq_used = self.dataq_used.saturating_sub(1);
        }
        Some(q)
    }

    /// Queues a VCU-produced scalar response (vsetvl).
    pub fn queue_scalar(&mut self, now: u64, seq: u64) {
        self.resp.push(now, seq);
    }

    /// Pops a ready scalar response.
    pub fn pop_scalar(&mut self, now: u64) -> Option<u64> {
        self.resp.pop_ready(now)
    }

    /// True while any work is buffered.
    pub fn busy(&self) -> bool {
        !self.uopq.is_empty() || !self.bus.is_empty()
    }

    /// Memory instructions still on the command bus (drain accounting).
    pub fn mem_on_bus(&self) -> usize {
        self.mem_on_bus
    }

    /// The cycle the command bus's oldest instruction finishes its
    /// transfer, if any is in flight (a tick-skip wake-up).
    pub fn bus_next_ready(&self) -> Option<u64> {
        self.bus.next_ready()
    }

    /// The cycle the oldest VCU-produced scalar response becomes
    /// poppable, if any is queued (a tick-skip wake-up).
    pub fn resp_next_ready(&self) -> Option<u64> {
        self.resp.next_ready()
    }

    /// Micro-ops currently queued.
    pub fn uopq_len(&self) -> usize {
        self.uopq.len()
    }

    /// Appends the VCU's mutable state to a checkpoint (`params` is
    /// configuration and not written).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.bus.save(w);
        self.uopq.save(w);
        self.dataq_used.save(w);
        self.resp.save(w);
        self.mem_on_bus.save(w);
    }

    /// Restores state written by [`Vcu::save_state`].
    ///
    /// # Errors
    ///
    /// Fails with a [`SnapError`] on malformed input or queue occupancies
    /// exceeding this VCU's configured depths.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let bus: DelayQueue<VecCmd> = Snap::load(r)?;
        let uopq: VecDeque<QueuedUop> = Snap::load(r)?;
        if bus.len() > self.params.busq_depth || uopq.len() > self.params.uopq_depth {
            return Err(SnapError::Corrupt {
                what: format!(
                    "checkpoint VCU queues ({} bus, {} uopq) exceed configured depths",
                    bus.len(),
                    uopq.len()
                ),
            });
        }
        self.bus = bus;
        self.uopq = uopq;
        self.dataq_used = Snap::load(r)?;
        self.resp = Snap::load(r)?;
        self.mem_on_bus = Snap::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_isa::exec::MemAccess;
    use bvl_isa::instr::{AvlSrc, VCmpOp, VMaskOp, VRedOp};
    use bvl_isa::reg::{FReg, VReg, XReg};
    use bvl_isa::vcfg::Sew;

    fn vcmd(instr: Instr, vl: u32) -> VecCmd {
        VecCmd {
            seq: 7,
            instr,
            vl,
            sew: Sew::E32,
            mem: Vec::new(),
            needs_scalar_response: instr.vector_writes_scalar(),
        }
    }

    fn expand1(cmd: &VecCmd) -> Expansion {
        let map = RegMap::paper_default();
        let (mut m, mut v) = (0, 0);
        expand(cmd, &map, 4, 64, 4, &mut m, &mut v)
    }

    #[test]
    fn arith_expands_per_chime() {
        let cmd = vcmd(
            Instr::VArith {
                op: VArithOp::FAdd,
                vd: VReg::new(3),
                src1: VSrc::V(VReg::new(1)),
                vs2: VReg::new(2),
                masked: false,
            },
            16,
        );
        let ex = expand1(&cmd);
        assert_eq!(ex.uops.len(), 2); // two chimes at vl=16
        assert_eq!(ex.uops[0].uop.chime, 0);
        assert_eq!(ex.uops[1].uop.chime, 1);

        // Half-length vector touches one chime only.
        let ex = expand1(&vcmd(cmd.instr, 8));
        assert_eq!(ex.uops.len(), 1);
    }

    #[test]
    fn unit_load_expands_to_mem_cmd_plus_writebacks() {
        let mut cmd = vcmd(
            Instr::VLoad {
                vd: VReg::new(1),
                base: XReg::new(5),
                mode: VMemMode::Unit,
                masked: false,
            },
            16,
        );
        cmd.mem = (0..16)
            .map(|i| MemAccess {
                addr: 0x1000 + i * 4,
                size: 4,
                is_store: false,
            })
            .collect();
        let ex = expand1(&cmd);
        assert_eq!(ex.uops.len(), 2); // LoadWb per chime
        let (mc, mb) = ex.mem.expect("memory command");
        assert_eq!(mc.num_lines(), 1);
        assert_eq!(mb.idx_events, 0);
        assert!(ex.uses_data_slot); // base address travels in the DataQ
    }

    #[test]
    fn indexed_load_adds_index_read_uops() {
        let cmd = vcmd(
            Instr::VLoad {
                vd: VReg::new(1),
                base: XReg::new(5),
                mode: VMemMode::Indexed(VReg::new(9)),
                masked: false,
            },
            16,
        );
        let ex = expand1(&cmd);
        // 2 IdxRd + 2 LoadWb.
        assert_eq!(ex.uops.len(), 4);
        let (_, mb) = ex.mem.expect("memory command");
        assert_eq!(mb.idx_events, 8); // 2 chimes x 4 lanes
    }

    #[test]
    fn reduction_reserves_ring_with_lane0_consumer() {
        let cmd = vcmd(
            Instr::VRed {
                op: bvl_isa::instr::VRedOp::Sum,
                vd: VReg::new(1),
                vs2: VReg::new(2),
                vs1: VReg::new(3),
                masked: false,
            },
            16,
        );
        let ex = expand1(&cmd);
        let vx = ex.vx.expect("ring reservation");
        assert_eq!(vx.reads, 8);
        assert_eq!(vx.consumers, 1);
        assert_eq!(vx.total_elems, 16);
        assert_eq!(ex.uops.last().unwrap().target, Target::One(0));
    }

    #[test]
    fn vpopc_produces_scalar_reservation() {
        let cmd = vcmd(
            Instr::VPopc {
                rd: XReg::new(1),
                vs2: VReg::MASK,
            },
            16,
        );
        let ex = expand1(&cmd);
        let vx = ex.vx.expect("ring reservation");
        assert_eq!(vx.scalar_seq, Some(7));
        assert_eq!(vx.consumers, 0);
    }

    #[test]
    fn vsetvl_is_immediate() {
        let cmd = vcmd(
            Instr::VSetVl {
                rd: XReg::new(1),
                avl: bvl_isa::instr::AvlSrc::Imm(8),
                sew: Sew::E32,
            },
            8,
        );
        let ex = expand1(&cmd);
        assert!(ex.uops.is_empty());
        assert_eq!(ex.immediate_scalar, Some(7));
    }

    #[test]
    fn vcu_dataq_backpressure() {
        let mut vcu = Vcu::new(VcuParams {
            busq_depth: 8,
            uopq_depth: 32,
            dataq_depth: 1,
            cmd_bus_latency: 0,
        });
        let splat = |seq| {
            let mut c = vcmd(
                Instr::VMvVX {
                    vd: VReg::new(1),
                    rs1: XReg::new(2),
                },
                8,
            );
            c.seq = seq;
            c
        };
        vcu.dispatch(0, splat(1));
        vcu.dispatch(0, splat(2));
        let map = RegMap::paper_default();
        let admit = |c: &VecCmd| {
            let (mut m, mut v) = (0, 0);
            Some(expand(c, &map, 4, 64, 4, &mut m, &mut v))
        };
        assert!(vcu.pop_cmd_if(0, &map, admit).is_some());
        // DataQ slot held until the splat's last uop is broadcast.
        assert!(vcu.pop_cmd_if(0, &map, admit).is_none());
        while vcu.pop_head().is_some() {}
        assert!(vcu.pop_cmd_if(0, &map, admit).is_some());
    }

    /// One instruction of every vector shape `expand` handles.
    fn vector_shapes() -> Vec<Instr> {
        let (v1, v2, v3) = (VReg::new(1), VReg::new(2), VReg::new(3));
        let x = XReg::new(5);
        let f = FReg::new(1);
        let modes = [VMemMode::Unit, VMemMode::Strided(x), VMemMode::Indexed(v3)];
        let mut shapes = vec![
            Instr::VSetVl {
                rd: x,
                avl: AvlSrc::Imm(8),
                sew: Sew::E32,
            },
            Instr::VmFence,
        ];
        for mode in modes {
            for masked in [false, true] {
                shapes.push(Instr::VLoad {
                    vd: v1,
                    base: x,
                    mode,
                    masked,
                });
                shapes.push(Instr::VStore {
                    vs3: v1,
                    base: x,
                    mode,
                    masked,
                });
            }
        }
        for src1 in [VSrc::V(v1), VSrc::X(x), VSrc::F(f), VSrc::I(3)] {
            for op in [VArithOp::Add, VArithOp::FMacc, VArithOp::Div] {
                shapes.push(Instr::VArith {
                    op,
                    vd: v3,
                    src1,
                    vs2: v2,
                    masked: false,
                });
            }
            shapes.push(Instr::VCmp {
                op: VCmpOp::Lt,
                vd: VReg::MASK,
                vs2: v2,
                src1,
                masked: true,
            });
        }
        shapes.extend([
            Instr::VRed {
                op: VRedOp::Sum,
                vd: v3,
                vs2: v2,
                vs1: v1,
                masked: false,
            },
            Instr::VPopc { rd: x, vs2: v1 },
            Instr::VFirst { rd: x, vs2: v1 },
            Instr::VMask {
                op: VMaskOp::And,
                vd: v3,
                vs1: v1,
                vs2: v2,
            },
            Instr::VRgather {
                vd: v3,
                vs2: v2,
                vs1: v1,
            },
            Instr::VSlideUp {
                vd: v3,
                vs2: v2,
                amt: x,
            },
            Instr::VSlideDown {
                vd: v3,
                vs2: v2,
                amt: x,
            },
            Instr::VMvVX { vd: v3, rs1: x },
            Instr::VFMvVF { vd: v3, fs1: f },
            Instr::VMvVV { vd: v3, vs2: v2 },
            Instr::VMvXS { rd: x, vs2: v2 },
            Instr::VFMvFS { rd: f, vs2: v2 },
            Instr::VMvSX { vd: v3, rs1: x },
            Instr::VId {
                vd: v3,
                masked: false,
            },
        ]);
        shapes
    }

    #[test]
    fn uop_count_matches_expand_for_every_shape() {
        let packed = RegMap::paper_default();
        let single = RegMap {
            cores: 4,
            chimes: 1,
            packed: false,
        };
        for map in [packed, single] {
            let chime = map.elems_per_chime(Sew::E32);
            for instr in vector_shapes() {
                for vl in [0, 1, chime, 2 * chime] {
                    let cmd = vcmd(instr, vl);
                    let (mut m, mut v) = (0, 0);
                    let ex = expand(&cmd, &map, 4, 64, 4, &mut m, &mut v);
                    assert_eq!(
                        uop_count(&cmd, &map),
                        ex.uops.len(),
                        "{instr:?} at vl {vl} on {map:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_full_uopq_leaves_the_instruction_unexpanded() {
        let mut vcu = Vcu::new(VcuParams {
            busq_depth: 8,
            uopq_depth: 3,
            dataq_depth: 8,
            cmd_bus_latency: 0,
        });
        let map = RegMap::paper_default();
        let add = Instr::VArith {
            op: VArithOp::Add,
            vd: VReg::new(3),
            src1: VSrc::V(VReg::new(1)),
            vs2: VReg::new(2),
            masked: false,
        };
        let load = Instr::VLoad {
            vd: VReg::new(4),
            base: XReg::new(5),
            mode: VMemMode::Unit,
            masked: false,
        };
        vcu.dispatch(0, vcmd(add, 16));
        vcu.dispatch(0, vcmd(load, 16));
        let (mut mem_ids, mut expansions) = (0, 0);
        let mut pop = |vcu: &mut Vcu, now: u64, expansions: &mut u32| {
            vcu.pop_cmd_if(now, &map, |c| {
                *expansions += 1;
                Some(expand(c, &map, 4, 64, 4, &mut mem_ids, &mut 0))
            })
            .is_some()
        };
        assert!(pop(&mut vcu, 0, &mut expansions));
        // Two queued uops leave one slot; the load needs two.
        for now in 1..5 {
            assert!(!pop(&mut vcu, now, &mut expansions));
        }
        assert_eq!(expansions, 1, "a blocked instruction was expanded");
        vcu.pop_head();
        assert!(pop(&mut vcu, 5, &mut expansions));
        assert_eq!(expansions, 2);
        assert_eq!(mem_ids, 1, "the load spent one mem id");
    }
}
