//! The fabric's wire protocol: length-prefixed, checksummed frames
//! carrying snap-encoded [`Msg`] values over a loopback socket.
//!
//! Layout of one frame on the wire:
//!
//! ```text
//! [u32 le total]  [ bvl_snap::frame_with( snap-encoded Msg ) ]
//!                   magic "BVLS" · version · payload len · payload · checksum
//! ```
//!
//! The outer length prefix is what lets a stream reader recover frame
//! boundaries; the inner `bvl_snap` frame supplies magic, versioning and
//! an end-to-end checksum, so every category of hostile bytes — a
//! truncated stream, a flipped bit, an absurd length prefix — decodes to
//! a *typed* [`ProtoError`], never a panic or an unbounded allocation.
//! The proptest suite (`tests/proto_props.rs`) enforces exactly that.

use crate::client::ServedResult;
use crate::sched::FabricReport;
use crate::spec::PointSpec;
use bvl_snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's wire size. A `RunResult` for the largest
/// system is a few hundred KiB of stats paths; 64 MiB leaves three orders
/// of magnitude of headroom while keeping a corrupt length prefix from
/// turning into a multi-gigabyte allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Everything that can go wrong reading a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed (includes clean EOF between frames).
    Io(io::Error),
    /// The peer closed the stream mid-frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// The frame failed snap validation (magic/version/checksum/shape).
    Snap(SnapError),
    /// The message decoded but left unconsumed trailing bytes.
    TrailingBytes(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket error: {e}"),
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            ProtoError::Snap(e) => write!(
                f,
                "frame failed validation: {e} (is the peer from another build?)"
            ),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<SnapError> for ProtoError {
    fn from(e: SnapError) -> Self {
        ProtoError::Snap(e)
    }
}

impl ProtoError {
    /// Whether this error is a clean end-of-stream *between* frames — the
    /// peer hung up at a message boundary, which is how connections end.
    pub fn is_clean_eof(&self) -> bool {
        matches!(self, ProtoError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }
}

/// One protocol message. A single enum serves both directions — each
/// endpoint simply ignores variants it never expects (they decode fine
/// and are answered with [`Msg::Failed`] or dropped).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// client → daemon: run this experiment point. `id` is
    /// client-assigned and echoed on the response, so one connection can
    /// pipeline many submissions.
    Submit {
        /// Client-side correlation id.
        id: u64,
        /// The point to run.
        spec: PointSpec,
    },
    /// daemon → client: the result for submission `id`.
    Done {
        /// Echo of the submission id.
        id: u64,
        /// The result and how it was served.
        served: ServedResult,
    },
    /// daemon → client: submission `id` failed.
    Failed {
        /// Echo of the submission id.
        id: u64,
        /// Why.
        error: String,
    },
    /// worker → daemon, first message on the worker's one connection.
    WorkerHello {
        /// The token the daemon assigned this worker (on its command
        /// line, for a worker process).
        token: u64,
    },
    /// daemon → worker: run this point.
    Assign {
        /// The point to run.
        spec: PointSpec,
    },
    /// worker → daemon: heartbeat, sent at every checkpoint boundary.
    Progress {
        /// Uncore cycle of the checkpoint just persisted.
        cycle: u64,
    },
    /// worker → daemon: the assigned point finished.
    WorkerDone {
        /// The result and how the worker got it.
        served: ServedResult,
    },
    /// worker → daemon: the assigned point failed to simulate.
    WorkerFailed {
        /// Why.
        error: String,
    },
    /// client → daemon: finish in-flight work and exit.
    Shutdown,
    /// daemon → client: shutdown acknowledged.
    ShutdownAck,
    /// daemon → client: submission `id` was shed by the bounded
    /// admission queue; resubmit after `retry_after_ms`.
    Busy {
        /// Echo of the submission id.
        id: u64,
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// client → daemon: report scheduler/utilization counters.
    QueryStats,
    /// daemon → client: the [`FabricReport`] snapshot.
    Stats {
        /// Queue depth, worker occupancy, per-client shares, counters.
        report: FabricReport,
    },
}

// Tags 0, 4, 9, 13–17 and 19 belonged to messages, or to layouts of
// messages, that no longer exist. They are not reused, so a peer that
// still sends one gets a typed `BadTag`.
impl Snap for Msg {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Msg::Submit { id, spec } => {
                w.u8(20);
                w.u64(*id);
                spec.save(w);
            }
            Msg::Done { id, served } => {
                w.u8(1);
                w.u64(*id);
                served.save(w);
            }
            Msg::Failed { id, error } => {
                w.u8(2);
                w.u64(*id);
                w.str(error);
            }
            Msg::WorkerHello { token } => {
                w.u8(3);
                w.u64(*token);
            }
            Msg::Assign { spec } => {
                w.u8(5);
                spec.save(w);
            }
            Msg::Progress { cycle } => {
                w.u8(6);
                w.u64(*cycle);
            }
            Msg::WorkerDone { served } => {
                w.u8(7);
                served.save(w);
            }
            Msg::WorkerFailed { error } => {
                w.u8(8);
                w.str(error);
            }
            Msg::Shutdown => w.u8(10),
            Msg::ShutdownAck => w.u8(11),
            Msg::Busy { id, retry_after_ms } => {
                w.u8(12);
                w.u64(*id);
                w.u64(*retry_after_ms);
            }
            Msg::QueryStats => w.u8(18),
            Msg::Stats { report } => {
                w.u8(21);
                report.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            1 => Msg::Done {
                id: r.u64()?,
                served: ServedResult::load(r)?,
            },
            2 => Msg::Failed {
                id: r.u64()?,
                error: r.str()?,
            },
            3 => Msg::WorkerHello { token: r.u64()? },
            5 => Msg::Assign {
                spec: PointSpec::load(r)?,
            },
            6 => Msg::Progress { cycle: r.u64()? },
            7 => Msg::WorkerDone {
                served: ServedResult::load(r)?,
            },
            8 => Msg::WorkerFailed { error: r.str()? },
            10 => Msg::Shutdown,
            11 => Msg::ShutdownAck,
            12 => Msg::Busy {
                id: r.u64()?,
                retry_after_ms: r.u64()?,
            },
            18 => Msg::QueryStats,
            20 => Msg::Submit {
                id: r.u64()?,
                spec: PointSpec::load(r)?,
            },
            21 => Msg::Stats {
                report: FabricReport::load(r)?,
            },
            tag => {
                return Err(SnapError::BadTag {
                    ty: "Msg",
                    tag: u64::from(tag),
                })
            }
        })
    }
}

/// Encodes `msg` into its full wire form (outer length prefix included),
/// framed in place behind the prefix.
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let mut wire = bvl_snap::frame_with(4, |w| msg.save(w));
    let framed = wire.len() - 4;
    assert!(
        framed <= MAX_FRAME as usize,
        "outgoing frame of {framed} bytes exceeds MAX_FRAME"
    );
    wire[..4].copy_from_slice(&(framed as u32).to_le_bytes());
    wire
}

/// Decodes the *body* of a frame (everything after the outer length
/// prefix) into a message, rejecting trailing bytes.
pub fn decode_frame(body: &[u8]) -> Result<Msg, ProtoError> {
    let payload = bvl_snap::unframe(body)?;
    let mut r = SnapReader::new(payload);
    let msg = Msg::load(&mut r)?;
    let left = r.remaining();
    if left != 0 {
        return Err(ProtoError::TrailingBytes(left));
    }
    Ok(msg)
}

/// Writes one message to `w` (single `write_all`, then flush).
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()
}

/// Reads one message from `r`.
///
/// The length prefix is validated against [`MAX_FRAME`] *before* the body
/// buffer is allocated, so a hostile peer cannot trigger an unbounded
/// allocation. A clean EOF before any prefix byte surfaces as
/// `ProtoError::Io(UnexpectedEof)` (check [`ProtoError::is_clean_eof`]);
/// an EOF after it, as [`ProtoError::Truncated`].
pub fn read_msg<R: Read>(r: &mut R) -> Result<Msg, ProtoError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix).map_err(ProtoError::Io)?;
    let total = u32::from_le_bytes(prefix);
    if total > MAX_FRAME {
        return Err(ProtoError::Oversized(total));
    }
    let mut body = vec![0u8; total as usize];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e)
        }
    })?;
    decode_frame(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PointSpec, WorkloadSpec};
    use bvl_sim::{RunResult, SimParams, SystemKind};
    use bvl_workloads::Scale;

    fn sample_spec() -> PointSpec {
        PointSpec {
            system: SystemKind::B4Vl,
            workload_key: "vvadd@tiny".into(),
            workload: WorkloadSpec::Named {
                name: "vvadd".into(),
                scale: Scale::tiny(),
            },
            params: SimParams::default(),
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let msgs = vec![
            Msg::Submit {
                id: 7,
                spec: sample_spec(),
            },
            Msg::Done {
                id: 7,
                served: ServedResult {
                    result: RunResult::default(),
                    edges_run: 10,
                    edges_skipped: 20,
                    host_secs: 0.25,
                    cache_hit: true,
                    resumed: false,
                    restarted_from_zero: false,
                },
            },
            Msg::Failed {
                id: 9,
                error: "boom".into(),
            },
            Msg::WorkerHello { token: 3 },
            Msg::Assign {
                spec: sample_spec(),
            },
            Msg::Progress { cycle: 4096 },
            Msg::WorkerDone {
                served: ServedResult {
                    result: RunResult::default(),
                    edges_run: 1,
                    edges_skipped: 2,
                    host_secs: 1.5,
                    cache_hit: false,
                    resumed: true,
                    restarted_from_zero: true,
                },
            },
            Msg::WorkerFailed { error: "no".into() },
            Msg::Shutdown,
            Msg::ShutdownAck,
            Msg::Busy {
                id: 4,
                retry_after_ms: 25,
            },
            Msg::QueryStats,
            Msg::Stats {
                report: FabricReport {
                    queue_depth: 3,
                    busy_workers: 2,
                    total_workers: 4,
                    shares: vec![(1, 10), (2, 7)],
                    stats: crate::sched::FabricStats {
                        submitted: 17,
                        busy_rejections: 2,
                        ..Default::default()
                    },
                },
            },
        ];
        for msg in msgs {
            let wire = encode_frame(&msg);
            let total = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
            assert_eq!(total + 4, wire.len());
            let back = decode_frame(&wire[4..]).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn read_msg_round_trips_through_a_stream() {
        let msg = Msg::Progress { cycle: 99 };
        let wire = encode_frame(&msg);
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_msg(&mut cursor).unwrap(), msg);
        // The stream is exactly consumed; a second read is a clean EOF.
        assert!(read_msg(&mut cursor).unwrap_err().is_clean_eof());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut wire = (MAX_FRAME + 1).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 16]);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_msg(&mut cursor),
            Err(ProtoError::Oversized(_))
        ));
    }

    /// A peer from an older build sends `Submit` under tag 0 and `Stats`
    /// under tag 19, each with a layout this build does not read. Both
    /// tags are retired, so such a frame is a typed `BadTag`, never a
    /// misread message.
    #[test]
    fn a_retired_tag_is_typed() {
        for tag in [0, 19] {
            let framed = bvl_snap::frame_with(0, |w| {
                w.u8(tag);
                w.u64(9);
                sample_spec().save(w);
            });
            let mut wire = (framed.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&framed);
            match read_msg(&mut std::io::Cursor::new(&wire)) {
                Err(ProtoError::Snap(SnapError::BadTag { ty, tag: got })) => {
                    assert_eq!((ty, got), ("Msg", u64::from(tag)));
                }
                other => panic!("tag {tag}: expected a typed BadTag, got {other:?}"),
            }
        }
    }

    /// A peer from another build encodes a `RunResult` its own way, so
    /// its `Done` frame passes the frame checks and the result inside it
    /// does not decode. The error says a frame failed and points at the
    /// build; it calls nothing a checkpoint, which a frame is not.
    #[test]
    fn a_cut_result_reads_as_a_stale_peer_not_a_checkpoint() {
        let served = ServedResult {
            result: RunResult {
                wall_ns: 2309.0,
                stats: bvl_obs::StatsSnapshot::from_entries(vec![
                    ("sys.clock.uncore".into(), 2309),
                    ("sys.mem.data_reqs".into(), 7113),
                ]),
                sampling: None,
            },
            edges_run: 10,
            edges_skipped: 20,
            host_secs: 0.25,
            cache_hit: false,
            resumed: false,
            restarted_from_zero: false,
        };
        let mut w = SnapWriter::new();
        Msg::Done { id: 7, served }.save(&mut w);
        let payload = w.into_bytes();
        // The tag and the id take 9 bytes; every cut after them lands in
        // the result or the counters behind it.
        for cut in 9..payload.len() {
            let body = bvl_snap::frame_with(0, |w| payload[..cut].iter().for_each(|&b| w.u8(b)));
            let text = decode_frame(&body).expect_err("a cut frame").to_string();
            assert!(
                text.starts_with("frame failed validation: ")
                    && text.ends_with("(is the peer from another build?)")
                    && !text.contains("checkpoint"),
                "cut at {cut}: {text}"
            );
        }
    }

    #[test]
    fn truncated_body_is_typed() {
        let mut wire = encode_frame(&Msg::Shutdown);
        wire.truncate(wire.len() - 3);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(read_msg(&mut cursor), Err(ProtoError::Truncated)));
    }
}
