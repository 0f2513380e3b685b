//! Micro-operations broadcast by the VCU to the vector lanes.
//!
//! Each vector instruction expands into one micro-op per element group
//! (*chime*) it touches, plus memory commands routed to the VMU (paper
//! section III-B/III-C). A micro-op carries enough information for a lane
//! to price it: the operation class, its source/destination vector
//! registers (scoreboard tracking is per `(chime, vreg)`), the vector
//! length and element width in effect, and identifiers linking it to VMU
//! or VXU transactions.

use bvl_core::RegList;
use bvl_isa::instr::{VArithOp, VRedOp};
use bvl_isa::vcfg::Sew;
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

/// The most source operands an [`UopKind::Arith`] micro-op names. An
/// `FMacc` also reads its destination, so [`Uop::sources`] can return one
/// more.
pub const MAX_ARITH_SRCS: usize = 2;

/// What a lane does with a micro-op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UopKind {
    /// Element-wise compute (arithmetic, compares, mask ops, splats,
    /// copies, `vid`): sources must be ready, occupies the lane's FU.
    Arith {
        /// Latency/serialization class.
        op: VArithOp,
        /// Source vector registers read (same chime), at most
        /// [`MAX_ARITH_SRCS`].
        srcs: RegList,
        /// Destination vector register.
        dst: u8,
    },
    /// Write back load data delivered by the VLU into `dst`.
    LoadWb {
        /// VMU transaction id.
        mem_id: u64,
        /// Destination vector register.
        dst: u8,
    },
    /// Read store data from `src` and stream it to the VSU, one element
    /// per cycle. For indexed stores this also carries the per-element
    /// addresses (paper: cores execute them like scalar stores).
    StoreRd {
        /// VMU transaction id.
        mem_id: u64,
        /// Data source vector register.
        src: u8,
        /// Index source register for indexed stores (RAW-checked).
        idx: Option<u8>,
    },
    /// Read index values from `src` and stream them to the VMIU (indexed
    /// loads), one element per cycle.
    IdxRd {
        /// VMU transaction id.
        mem_id: u64,
        /// Index vector register.
        src: u8,
    },
    /// Send this lane's elements of `src` to the VXU ring.
    VxRead {
        /// VXU transaction id.
        vx_id: u64,
        /// Source vector register.
        src: u8,
    },
    /// Receive permuted elements from the VXU and write `dst`.
    VxWrite {
        /// VXU transaction id.
        vx_id: u64,
        /// Destination vector register.
        dst: u8,
    },
    /// Reduce elements arriving from the VXU (first lane only); writes
    /// element 0 of `dst`.
    VxReduce {
        /// VXU transaction id.
        vx_id: u64,
        /// Reduction operation (prices the per-element step).
        op: VRedOp,
        /// Destination vector register.
        dst: u8,
    },
}

/// One micro-op as received by a lane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uop {
    /// Originating instruction's big-core sequence number.
    pub seq: u64,
    /// Element group this micro-op covers.
    pub chime: u8,
    /// Vector length of the instruction.
    pub vl: u32,
    /// Element width of the instruction.
    pub sew: Sew,
    /// Whether the instruction executes under mask `v0` (reads the extra
    /// mask register — no extra port needed, paper section III-C).
    pub masked: bool,
    /// The operation.
    pub kind: UopKind,
}

impl Uop {
    /// The destination vector register this micro-op writes, if any.
    pub fn dest(&self) -> Option<u8> {
        match &self.kind {
            UopKind::Arith { dst, .. }
            | UopKind::LoadWb { dst, .. }
            | UopKind::VxWrite { dst, .. }
            | UopKind::VxReduce { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The source vector registers this micro-op reads, in operand order.
    pub fn sources(&self) -> RegList {
        match self.kind {
            UopKind::Arith { mut srcs, dst, op } => {
                // FMacc also reads its destination (accumulator).
                if op == VArithOp::FMacc {
                    srcs.push(dst);
                }
                srcs
            }
            UopKind::StoreRd { src, idx, .. } => {
                let mut s = RegList::of(&[src]);
                if let Some(i) = idx {
                    s.push(i);
                }
                s
            }
            UopKind::IdxRd { src, .. } | UopKind::VxRead { src, .. } => RegList::of(&[src]),
            UopKind::VxReduce { dst, .. } => RegList::of(&[dst]),
            _ => RegList::default(),
        }
    }
}

impl Snap for UopKind {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            UopKind::Arith { op, srcs, dst } => {
                w.u8(0);
                op.save(w);
                srcs.save(w);
                dst.save(w);
            }
            UopKind::LoadWb { mem_id, dst } => {
                w.u8(1);
                mem_id.save(w);
                dst.save(w);
            }
            UopKind::StoreRd { mem_id, src, idx } => {
                w.u8(2);
                mem_id.save(w);
                src.save(w);
                idx.save(w);
            }
            UopKind::IdxRd { mem_id, src } => {
                w.u8(3);
                mem_id.save(w);
                src.save(w);
            }
            UopKind::VxRead { vx_id, src } => {
                w.u8(4);
                vx_id.save(w);
                src.save(w);
            }
            UopKind::VxWrite { vx_id, dst } => {
                w.u8(5);
                vx_id.save(w);
                dst.save(w);
            }
            UopKind::VxReduce { vx_id, op, dst } => {
                w.u8(6);
                vx_id.save(w);
                op.save(w);
                dst.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => {
                let op = Snap::load(r)?;
                let srcs: RegList = Snap::load(r)?;
                if srcs.as_slice().len() > MAX_ARITH_SRCS {
                    return Err(SnapError::Corrupt {
                        what: format!(
                            "arithmetic micro-op names {} sources, at most {MAX_ARITH_SRCS} fit",
                            srcs.as_slice().len()
                        ),
                    });
                }
                UopKind::Arith {
                    op,
                    srcs,
                    dst: Snap::load(r)?,
                }
            }
            1 => UopKind::LoadWb {
                mem_id: Snap::load(r)?,
                dst: Snap::load(r)?,
            },
            2 => UopKind::StoreRd {
                mem_id: Snap::load(r)?,
                src: Snap::load(r)?,
                idx: Snap::load(r)?,
            },
            3 => UopKind::IdxRd {
                mem_id: Snap::load(r)?,
                src: Snap::load(r)?,
            },
            4 => UopKind::VxRead {
                vx_id: Snap::load(r)?,
                src: Snap::load(r)?,
            },
            5 => UopKind::VxWrite {
                vx_id: Snap::load(r)?,
                dst: Snap::load(r)?,
            },
            6 => UopKind::VxReduce {
                vx_id: Snap::load(r)?,
                op: Snap::load(r)?,
                dst: Snap::load(r)?,
            },
            t => {
                return Err(SnapError::BadTag {
                    ty: "UopKind",
                    tag: u64::from(t),
                })
            }
        })
    }
}

snap_struct!(Uop {
    seq,
    chime,
    vl,
    sew,
    masked,
    kind,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn uop(kind: UopKind) -> Uop {
        Uop {
            seq: 1,
            chime: 0,
            vl: 8,
            sew: Sew::E32,
            masked: false,
            kind,
        }
    }

    #[test]
    fn fmacc_reads_its_destination() {
        let u = uop(UopKind::Arith {
            op: VArithOp::FMacc,
            srcs: RegList::of(&[2, 3]),
            dst: 4,
        });
        assert_eq!(u.sources().as_slice(), [2, 3, 4]);
        assert_eq!(u.dest(), Some(4));
    }

    #[test]
    fn store_reads_data_and_index() {
        let u = uop(UopKind::StoreRd {
            mem_id: 7,
            src: 5,
            idx: Some(6),
        });
        assert_eq!(u.sources().as_slice(), [5, 6]);
        assert_eq!(u.dest(), None);
    }

    #[test]
    fn arith_decoding_rejects_more_than_two_sources() {
        let encode = |srcs: Vec<u8>| {
            let mut w = SnapWriter::new();
            w.u8(0);
            VArithOp::Add.save(&mut w);
            srcs.save(&mut w);
            9u8.save(&mut w);
            w.into_bytes()
        };
        let two = encode(vec![1, 2]);
        assert_eq!(
            UopKind::load(&mut SnapReader::new(&two)).expect("two sources decode"),
            UopKind::Arith {
                op: VArithOp::Add,
                srcs: RegList::of(&[1, 2]),
                dst: 9,
            }
        );
        for srcs in [vec![1, 2, 3], vec![1, 2, 3, 4], vec![0; 40]] {
            let bytes = encode(srcs);
            assert!(matches!(
                UopKind::load(&mut SnapReader::new(&bytes)),
                Err(SnapError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn load_writeback_writes_only() {
        let u = uop(UopKind::LoadWb { mem_id: 1, dst: 9 });
        assert!(u.sources().as_slice().is_empty());
        assert_eq!(u.dest(), Some(9));
    }
}
