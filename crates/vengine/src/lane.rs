//! A little core's back-end operating as a vector lane.
//!
//! In vector mode the little core's fetch/decode stages are off; micro-ops
//! from the VCU enter at the issue stage and flow through the existing
//! back-end in order (paper section III-C). The lane keeps a scoreboard
//! over its slice of the vector registers — physical scalar registers,
//! indexed `(chime, vreg)` — and prices packed sub-word elements:
//! *simple* integer micro-ops process a packed register in one cycle,
//! while long-latency micro-ops (mul/div and all FP) serialize the packed
//! elements over multiple cycles.
//!
//! Every cycle is attributed to one Figure 7 category: `busy`, `simd`
//! (waiting for a lock-step micro-op from the VCU), `raw_mem`, `raw_llfu`,
//! `struct`, `xelem` or `misc`.

use crate::regmap::RegMap;
use crate::uop::{Uop, UopKind};
use crate::vmu::Vmu;
use crate::vxu::Vxu;
use bvl_core::types::{CoreStats, Quiescence, StallKind};
use bvl_isa::instr::VArithOp;
use bvl_isa::meta::{reduction_step_latency, vector_op_latency, LAT_ALU};
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Why a register value is still pending (for stall attribution).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PendKind {
    /// Produced by a memory writeback.
    Mem,
    /// Produced by a long-latency FU.
    Llfu,
    /// Produced by the VXU.
    Xelem,
    /// Produced by a single-cycle op.
    Alu,
}

/// What a lane reports back to the engine when a micro-op completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneEvent {
    /// Index elements for an indexed load were streamed to the VMIU.
    IdxSent {
        /// VMU transaction.
        mem_id: u64,
    },
    /// Store data (and addresses, if indexed) streamed to the VSU.
    StoreSent {
        /// VMU transaction.
        mem_id: u64,
    },
    /// This lane's `vxread` contribution entered the ring.
    VxReadDone {
        /// VXU transaction.
        vx_id: u64,
    },
    /// This lane consumed ring output (`vxwrite`/`vxreduce` finished).
    VxConsumed {
        /// VXU transaction.
        vx_id: u64,
    },
    /// This lane's load-writeback micro-op consumed VLU data.
    LoadWbDone {
        /// VMU transaction.
        mem_id: u64,
    },
}

/// A lane event plus the cycle it takes effect.
#[derive(Clone, Copy, Debug)]
pub struct TimedEvent {
    /// Effect cycle.
    pub at: u64,
    /// The event.
    pub event: LaneEvent,
}

impl Snap for PendKind {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            PendKind::Mem => 0,
            PendKind::Llfu => 1,
            PendKind::Xelem => 2,
            PendKind::Alu => 3,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => PendKind::Mem,
            1 => PendKind::Llfu,
            2 => PendKind::Xelem,
            3 => PendKind::Alu,
            t => {
                return Err(SnapError::BadTag {
                    ty: "PendKind",
                    tag: u64::from(t),
                })
            }
        })
    }
}

impl Snap for LaneEvent {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            LaneEvent::IdxSent { mem_id } => {
                w.u8(0);
                mem_id.save(w);
            }
            LaneEvent::StoreSent { mem_id } => {
                w.u8(1);
                mem_id.save(w);
            }
            LaneEvent::VxReadDone { vx_id } => {
                w.u8(2);
                vx_id.save(w);
            }
            LaneEvent::VxConsumed { vx_id } => {
                w.u8(3);
                vx_id.save(w);
            }
            LaneEvent::LoadWbDone { mem_id } => {
                w.u8(4);
                mem_id.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => LaneEvent::IdxSent {
                mem_id: Snap::load(r)?,
            },
            1 => LaneEvent::StoreSent {
                mem_id: Snap::load(r)?,
            },
            2 => LaneEvent::VxReadDone {
                vx_id: Snap::load(r)?,
            },
            3 => LaneEvent::VxConsumed {
                vx_id: Snap::load(r)?,
            },
            4 => LaneEvent::LoadWbDone {
                mem_id: Snap::load(r)?,
            },
            t => {
                return Err(SnapError::BadTag {
                    ty: "LaneEvent",
                    tag: u64::from(t),
                })
            }
        })
    }
}

snap_struct!(TimedEvent { at, event });

/// Read-only engine state a lane consults while issuing.
pub struct LaneEnv<'a> {
    /// The vector memory unit (load-data readiness).
    pub vmu: &'a Vmu,
    /// The cross-element unit (ring readiness).
    pub vxu: &'a Vxu,
    /// True if the VCU still holds micro-ops (distinguishes `simd` from
    /// `misc` when the lane's queue is empty).
    pub vcu_busy: bool,
}

/// One vector lane.
#[derive(Debug)]
pub struct Lane {
    core: u8,
    regmap: RegMap,
    inq: VecDeque<Uop>,
    inq_depth: usize,
    ready: [[u64; 32]; 2],
    pend: [[PendKind; 32]; 2],
    /// Single-issue occupancy: the cycle the issue slot frees up.
    issue_free_at: u64,
    /// Unpipelined divide unit.
    div_busy_until: u64,
    stats: CoreStats,
}

impl Lane {
    /// Creates lane `core` with the given geometry and input-queue depth.
    pub fn new(core: u8, regmap: RegMap, inq_depth: usize) -> Self {
        Lane {
            core,
            regmap,
            inq: VecDeque::new(),
            inq_depth,
            ready: [[0; 32]; 2],
            pend: [[PendKind::Alu; 32]; 2],
            issue_free_at: 0,
            div_busy_until: 0,
            stats: CoreStats::default(),
        }
    }

    /// This lane's core index.
    pub fn core(&self) -> u8 {
        self.core
    }

    /// Accumulated statistics (Figure 7 breakdown).
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// True if the lane can accept one more micro-op this cycle.
    pub fn can_accept(&self) -> bool {
        self.inq.len() < self.inq_depth
    }

    /// Delivers a broadcast micro-op.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (the VCU must check
    /// [`Lane::can_accept`] on every lane before broadcasting).
    pub fn receive(&mut self, uop: Uop) {
        assert!(self.can_accept(), "lane {} uop queue overflow", self.core);
        self.inq.push_back(uop);
    }

    /// True when the lane holds no work.
    pub fn idle(&self) -> bool {
        self.inq.is_empty()
    }

    fn chime_idx(chime: u8) -> usize {
        usize::from(chime.min(1))
    }

    /// Checks the head micro-op's sources; on failure reports the stall
    /// kind charged this cycle and the cycle the failing source becomes
    /// ready (the first not-ready source in operand order decides both).
    fn srcs_ready(&self, uop: &Uop, now: u64) -> Result<(), (StallKind, u64)> {
        let k = Self::chime_idx(uop.chime);
        for &src in uop.sources().as_slice() {
            let r = self.ready[k][src as usize];
            if r > now {
                let kind = match self.pend[k][src as usize] {
                    PendKind::Mem => StallKind::RawMem,
                    PendKind::Llfu | PendKind::Alu => StallKind::RawLlfu,
                    PendKind::Xelem => StallKind::Xelem,
                };
                return Err((kind, r));
            }
        }
        Ok(())
    }

    fn set_dest(&mut self, chime: u8, reg: u8, at: u64, kind: PendKind) {
        let k = Self::chime_idx(chime);
        self.ready[k][reg as usize] = at;
        self.pend[k][reg as usize] = kind;
    }

    /// Advances the lane one cycle, pushing completion events to `out`.
    pub fn tick(&mut self, now: u64, env: &LaneEnv<'_>, out: &mut Vec<TimedEvent>) {
        // Still occupied by a multi-cycle micro-op: that's useful work.
        if now < self.issue_free_at {
            self.stats.account(StallKind::Busy);
            return;
        }
        let Some(&uop) = self.inq.front() else {
            self.stats.account(if env.vcu_busy {
                StallKind::Simd
            } else {
                StallKind::Misc
            });
            return;
        };

        // RAW hazards on this lane's register slice.
        if let Err((kind, _)) = self.srcs_ready(&uop, now) {
            self.stats.account(kind);
            return;
        }

        let elems = self.regmap.elems_on(self.core, uop.chime, uop.vl, uop.sew);

        match uop.kind {
            UopKind::Arith { op, dst, .. } => {
                let (occ, lat) = self.arith_cost(op, elems);
                if op == VArithOp::Div || op == VArithOp::Divu || op == VArithOp::Rem {
                    if self.div_busy_until > now {
                        self.stats.account(StallKind::Struct);
                        return;
                    }
                    self.div_busy_until = now + occ + u64::from(lat);
                }
                self.issue_free_at = now + occ;
                let kind = if vector_op_latency(op) > LAT_ALU {
                    PendKind::Llfu
                } else {
                    PendKind::Alu
                };
                self.set_dest(uop.chime, dst, now + occ - 1 + u64::from(lat), kind);
            }
            UopKind::LoadWb { mem_id, dst } => {
                if !env.vmu.load_ready(mem_id, now) {
                    self.stats.account(StallKind::RawMem);
                    return;
                }
                self.issue_free_at = now + 1;
                self.set_dest(uop.chime, dst, now + 1, PendKind::Mem);
                out.push(TimedEvent {
                    at: now + 1,
                    event: LaneEvent::LoadWbDone { mem_id },
                });
            }
            UopKind::StoreRd { mem_id, .. } => {
                let occ = u64::from(elems.max(1));
                self.issue_free_at = now + occ;
                out.push(TimedEvent {
                    at: now + occ,
                    event: LaneEvent::StoreSent { mem_id },
                });
            }
            UopKind::IdxRd { mem_id, .. } => {
                let occ = u64::from(elems.max(1));
                self.issue_free_at = now + occ;
                out.push(TimedEvent {
                    at: now + occ,
                    event: LaneEvent::IdxSent { mem_id },
                });
            }
            UopKind::VxRead { vx_id, .. } => {
                let occ = u64::from(elems.max(1));
                self.issue_free_at = now + occ;
                out.push(TimedEvent {
                    at: now + occ,
                    event: LaneEvent::VxReadDone { vx_id },
                });
            }
            UopKind::VxWrite { vx_id, dst } => {
                if !env.vxu.ready(vx_id, now) {
                    self.stats.account(StallKind::Xelem);
                    return;
                }
                let occ = u64::from(elems.max(1));
                self.issue_free_at = now + occ;
                self.set_dest(uop.chime, dst, now + occ, PendKind::Xelem);
                out.push(TimedEvent {
                    at: now + occ,
                    event: LaneEvent::VxConsumed { vx_id },
                });
            }
            UopKind::VxReduce { vx_id, op, dst } => {
                if !env.vxu.ready(vx_id, now) {
                    self.stats.account(StallKind::Xelem);
                    return;
                }
                // One element arrives per cycle from the ring; each is fed
                // to the FU. Total vl elements plus the final step latency.
                let occ = u64::from(uop.vl.max(1)) + u64::from(reduction_step_latency(op));
                self.issue_free_at = now + occ;
                self.set_dest(uop.chime, dst, now + occ, PendKind::Xelem);
                out.push(TimedEvent {
                    at: now + occ,
                    event: LaneEvent::VxConsumed { vx_id },
                });
            }
        }

        self.inq.pop_front();
        self.stats.retired += 1;
        self.stats.account(StallKind::Busy);
    }

    /// The lane's self-assessment for the tick-skip engine, mirroring
    /// [`Lane::tick`]'s decision tree exactly: `Active` when a tick would
    /// issue the head micro-op, otherwise the stall kind each skipped tick
    /// would record, bounded by the earliest internally-known wake-up
    /// (`None` when the wake comes from an engine event or a memory
    /// response instead).
    pub fn quiescence(&self, now: u64, env: &LaneEnv<'_>) -> Quiescence {
        if now < self.issue_free_at {
            return Quiescence::Idle {
                until: Some(self.issue_free_at),
                account: Some(StallKind::Busy),
            };
        }
        let Some(uop) = self.inq.front() else {
            let kind = if env.vcu_busy {
                StallKind::Simd
            } else {
                StallKind::Misc
            };
            // Wakes only when the VCU broadcasts (an engine-level event).
            return Quiescence::Idle {
                until: None,
                account: Some(kind),
            };
        };
        if let Err((kind, ready_at)) = self.srcs_ready(uop, now) {
            // The first failing source decides the charged kind; once it
            // resolves the charge may change, so the window ends there.
            return Quiescence::Idle {
                until: Some(ready_at),
                account: Some(kind),
            };
        }
        match uop.kind {
            UopKind::Arith { op, .. }
                if (op == VArithOp::Div || op == VArithOp::Divu || op == VArithOp::Rem)
                    && self.div_busy_until > now =>
            {
                Quiescence::Idle {
                    until: Some(self.div_busy_until),
                    account: Some(StallKind::Struct),
                }
            }
            UopKind::LoadWb { mem_id, .. } if !env.vmu.load_ready(mem_id, now) => {
                // Delivery time is known once the VLU has scheduled the
                // last line; before that the wake is a bank response.
                Quiescence::Idle {
                    until: env.vmu.load_ready_at(mem_id).filter(|&t| t > now),
                    account: Some(StallKind::RawMem),
                }
            }
            UopKind::VxWrite { vx_id, .. } | UopKind::VxReduce { vx_id, .. }
                if !env.vxu.ready(vx_id, now) =>
            {
                // The ring's delivery time is known once all reads are in;
                // before that the wake is a lane `VxReadDone` event.
                Quiescence::Idle {
                    until: env.vxu.ready_at(vx_id).filter(|&t| t > now),
                    account: Some(StallKind::Xelem),
                }
            }
            _ => Quiescence::Active,
        }
    }

    /// (occupancy cycles, result latency) of an arithmetic micro-op on
    /// `elems` packed elements.
    fn arith_cost(&self, op: VArithOp, elems: u32) -> (u64, u32) {
        let lat = vector_op_latency(op);
        if lat <= LAT_ALU || !self.regmap.packed {
            // Simple ops process the whole packed register in one cycle
            // (paper: small ALU changes); unpacked registers hold one
            // element anyway.
            (1, lat)
        } else {
            // Long-latency ops serialize packed elements (paper: avoid
            // non-trivial area in the little cores).
            (u64::from(elems.max(1)), lat)
        }
    }

    /// Applies the accounting `cycles` skipped quiescent ticks would have
    /// performed: one cycle of `kind` each (see [`Lane::quiescence`]).
    pub fn skip_idle(&mut self, cycles: u64, kind: StallKind) {
        self.stats.account_many(kind, cycles);
    }

    /// Appends the lane's mutable state to a checkpoint. Configuration
    /// (`core`, `regmap`, `inq_depth`) is not written.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.inq.save(w);
        self.ready.save(w);
        self.pend.save(w);
        self.issue_free_at.save(w);
        self.div_busy_until.save(w);
        self.stats.save(w);
    }

    /// Restores state written by [`Lane::save_state`].
    ///
    /// # Errors
    ///
    /// Fails with a [`SnapError`] on malformed input or a micro-op queue
    /// deeper than this lane's configuration allows.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let inq: VecDeque<Uop> = Snap::load(r)?;
        if inq.len() > self.inq_depth {
            return Err(SnapError::Corrupt {
                what: format!(
                    "checkpoint lane queue holds {} uops, lane takes {}",
                    inq.len(),
                    self.inq_depth
                ),
            });
        }
        self.inq = inq;
        self.ready = Snap::load(r)?;
        self.pend = Snap::load(r)?;
        self.issue_free_at = Snap::load(r)?;
        self.div_busy_until = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmu::VmuParams;
    use crate::vxu::VxuParams;
    use bvl_core::RegList;
    use bvl_isa::vcfg::Sew;

    fn env<'a>(vmu: &'a Vmu, vxu: &'a Vxu, busy: bool) -> LaneEnv<'a> {
        LaneEnv {
            vmu,
            vxu,
            vcu_busy: busy,
        }
    }

    fn uop(chime: u8, kind: UopKind) -> Uop {
        Uop {
            seq: 1,
            chime,
            vl: 16,
            sew: Sew::E32,
            masked: false,
            kind,
        }
    }

    fn add_uop(chime: u8, dst: u8, srcs: &[u8]) -> Uop {
        uop(
            chime,
            UopKind::Arith {
                op: VArithOp::Add,
                srcs: RegList::of(srcs),
                dst,
            },
        )
    }

    fn fixtures() -> (Vmu, Vxu) {
        (
            Vmu::new(4, VmuParams::default()),
            Vxu::new(VxuParams::default()),
        )
    }

    #[test]
    fn empty_lane_attributes_simd_vs_misc() {
        let (vmu, vxu) = fixtures();
        let mut lane = Lane::new(0, RegMap::paper_default(), 2);
        lane.tick(0, &env(&vmu, &vxu, true), &mut Vec::new());
        lane.tick(1, &env(&vmu, &vxu, false), &mut Vec::new());
        assert_eq!(lane.stats().of(StallKind::Simd), 1);
        assert_eq!(lane.stats().of(StallKind::Misc), 1);
    }

    #[test]
    fn simple_add_is_single_cycle() {
        let (vmu, vxu) = fixtures();
        let mut lane = Lane::new(0, RegMap::paper_default(), 2);
        lane.receive(add_uop(0, 3, &[1, 2]));
        lane.receive(add_uop(0, 4, &[1, 2]));
        lane.tick(0, &env(&vmu, &vxu, true), &mut Vec::new());
        lane.tick(1, &env(&vmu, &vxu, true), &mut Vec::new());
        assert_eq!(lane.stats().retired, 2);
        assert_eq!(lane.stats().of(StallKind::Busy), 2);
    }

    #[test]
    fn dependent_fmul_stalls_raw_llfu() {
        let (vmu, vxu) = fixtures();
        let mut lane = Lane::new(0, RegMap::paper_default(), 2);
        lane.receive(uop(
            0,
            UopKind::Arith {
                op: VArithOp::FMul,
                srcs: RegList::of(&[1, 2]),
                dst: 3,
            },
        ));
        lane.receive(add_uop(0, 4, &[3, 1])); // reads v3
        let mut t = 0;
        while lane.stats().retired < 2 {
            lane.tick(t, &env(&vmu, &vxu, true), &mut Vec::new());
            t += 1;
            assert!(t < 100);
        }
        assert!(lane.stats().of(StallKind::RawLlfu) > 0);
        // FMul serializes 2 packed elements: occupancy 2 on this lane.
        assert!(t > 3);
    }

    #[test]
    fn packed_simple_op_processes_in_one_cycle_but_fp_serializes() {
        let (vmu, vxu) = fixtures();
        let map = RegMap::paper_default(); // 2 elems/reg at e32
        let mut lane = Lane::new(0, map, 2);
        // Independent FMul then Add: FMul occupies 2 cycles (packed
        // serialization); Add issues after.
        lane.receive(uop(
            0,
            UopKind::Arith {
                op: VArithOp::FMul,
                srcs: RegList::of(&[1, 2]),
                dst: 3,
            },
        ));
        lane.receive(add_uop(0, 5, &[1, 2]));
        lane.tick(0, &env(&vmu, &vxu, true), &mut Vec::new()); // FMul issues, occ 2
        lane.tick(1, &env(&vmu, &vxu, true), &mut Vec::new()); // busy (occupied)
        assert_eq!(lane.stats().retired, 1);
        lane.tick(2, &env(&vmu, &vxu, true), &mut Vec::new()); // Add issues
        assert_eq!(lane.stats().retired, 2);
    }

    #[test]
    fn load_writeback_waits_for_vlu_data() {
        let (vmu, vxu) = fixtures();
        let mut lane = Lane::new(0, RegMap::paper_default(), 2);
        lane.receive(uop(0, UopKind::LoadWb { mem_id: 9, dst: 1 }));
        lane.tick(0, &env(&vmu, &vxu, true), &mut Vec::new());
        assert_eq!(lane.stats().of(StallKind::RawMem), 1);
        assert_eq!(lane.stats().retired, 0);
    }

    #[test]
    fn vxwrite_waits_for_ring() {
        let (vmu, mut vxu) = fixtures();
        let mut lane = Lane::new(0, RegMap::paper_default(), 2);
        vxu.begin(5, 1, 4);
        lane.receive(uop(0, UopKind::VxWrite { vx_id: 5, dst: 2 }));
        lane.tick(0, &env(&vmu, &vxu, true), &mut Vec::new());
        assert_eq!(lane.stats().of(StallKind::Xelem), 1);
        vxu.read_done(5, 0);
        // ready at 0 + 4 + 2 = 6.
        let mut evs = Vec::new();
        lane.tick(6, &env(&vmu, &vxu, true), &mut evs);
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0].event, LaneEvent::VxConsumed { vx_id: 5 }));
    }

    #[test]
    fn store_read_streams_one_element_per_cycle() {
        let (vmu, vxu) = fixtures();
        let mut lane = Lane::new(0, RegMap::paper_default(), 2);
        let mut u = uop(
            0,
            UopKind::StoreRd {
                mem_id: 3,
                src: 1,
                idx: None,
            },
        );
        u.vl = 8; // 2 elements on this lane's chime-0 register
        lane.receive(u);
        let mut evs = Vec::new();
        lane.tick(0, &env(&vmu, &vxu, true), &mut evs);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at, 2); // 2 elements, 1/cycle
    }

    #[test]
    fn zero_element_uop_completes_immediately() {
        let (vmu, vxu) = fixtures();
        // Lane 3, vl = 2: no elements land here, but the lock-step uop
        // still passes through (and VxRead must still report).
        let mut lane = Lane::new(3, RegMap::paper_default(), 2);
        let mut u = uop(0, UopKind::VxRead { vx_id: 1, src: 4 });
        u.vl = 2;
        lane.receive(u);
        let mut evs = Vec::new();
        lane.tick(0, &env(&vmu, &vxu, true), &mut evs);
        assert_eq!(evs.len(), 1);
        assert_eq!(lane.stats().retired, 1);
    }
}
