//! Property tests on the fabric wire protocol.
//!
//! Two contracts are pinned:
//!
//! 1. **Round-trip**: every [`Msg`] survives `encode_frame` →
//!    `read_msg` exactly, across the whole parameter space the sweep
//!    harness actually submits (systems, scales, sampling on/off,
//!    cadences, gather knobs).
//! 2. **Hostile bytes**: arbitrary byte soup, truncations of valid
//!    frames, single bit flips anywhere in a frame, and absurd length
//!    prefixes all decode to a *typed* [`ProtoError`] — never a panic
//!    and never an unbounded allocation (the length prefix is checked
//!    against [`MAX_FRAME`] before the body buffer exists).
//! 3. **Hostile peers** (deterministic, not property-based): a live
//!    daemon closes every connection whose first frame is hostile and
//!    still serves an honest client afterwards; and it refuses to bind
//!    an address that is not loopback.

use bvl_serve::proto::{encode_frame, read_msg};
use bvl_serve::{
    Client, Daemon, DaemonConfig, FabricReport, FabricStats, Msg, PointSpec, ProtoError,
    ServedResult, WorkloadSpec, MAX_FRAME,
};
use bvl_sim::{RunResult, SamplingParams, SimParams, SystemKind};
use bvl_workloads::Scale;
use proptest::prelude::*;
use std::io::{self, Cursor, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// A spec strategy spanning what the experiment harness really submits.
fn spec_strategy() -> impl Strategy<Value = PointSpec> {
    (
        0usize..SystemKind::ALL.len(),
        any::<u64>(), // workload-key seed
        (1u64..100_000, 0u64..8, any::<bool>()),
        any::<bool>(),
        0u64..100_000,
        (any::<bool>(), 1u64..1 << 20, 1u64..4096),
    )
        .prop_map(
            |(sys, key_seed, (n, locality, gather), no_skip, checkpoint_every, sampling)| {
                let scale = Scale { n, ..Scale::tiny() };
                let workload = if gather {
                    WorkloadSpec::Gather { locality, scale }
                } else {
                    WorkloadSpec::Named {
                        name: format!("wl{}", key_seed % 97),
                        scale,
                    }
                };
                let (sampled, period_instrs, window_instrs) = sampling;
                PointSpec {
                    system: SystemKind::ALL[sys],
                    workload_key: format!("k{key_seed:x}@tiny"),
                    workload,
                    params: SimParams {
                        no_skip,
                        checkpoint_every,
                        sampling: sampled.then_some(SamplingParams {
                            period_instrs,
                            window_instrs,
                        }),
                        ..SimParams::default()
                    },
                }
            },
        )
}

/// Finite host seconds (f64 equality must hold after the round-trip).
fn secs_strategy() -> impl Strategy<Value = f64> {
    (0u64..1 << 40).prop_map(|micros| micros as f64 / 1e6)
}

/// A stats snapshot with arbitrary counter values.
fn stats_strategy() -> impl Strategy<Value = FabricStats> {
    proptest::collection::vec(any::<u64>(), 11..12).prop_map(|v| FabricStats {
        submitted: v[0],
        executed: v[1],
        coalesced: v[2],
        memo_hits: v[3],
        disk_hits: v[4],
        worker_deaths: v[5],
        resumed: v[6],
        restarts_from_zero: v[7],
        failed: v[8],
        busy_rejections: v[9],
        max_queue_depth: v[10],
    })
}

/// A full fabric report, including an arbitrary per-client share table.
fn report_strategy() -> impl Strategy<Value = FabricReport> {
    (
        stats_strategy(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8),
    )
        .prop_map(
            |(stats, (queue_depth, busy_workers, total_workers), shares)| FabricReport {
                stats,
                queue_depth,
                busy_workers,
                total_workers,
                shares,
            },
        )
}

/// A finished point's report, with every field arbitrary but the result.
fn served_strategy() -> impl Strategy<Value = ServedResult> {
    (
        any::<u64>(),
        any::<u64>(),
        secs_strategy(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(edges_run, edges_skipped, host_secs, cache_hit, resumed, restarted_from_zero)| {
                ServedResult {
                    result: RunResult::default(),
                    edges_run,
                    edges_skipped,
                    host_secs,
                    cache_hit,
                    resumed,
                    restarted_from_zero,
                }
            },
        )
}

/// A message strategy covering every variant, with arbitrary field
/// content where the variant has any.
fn msg_strategy() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (any::<u64>(), spec_strategy()).prop_map(|(id, spec)| Msg::Submit { id, spec }),
        (any::<u64>(), served_strategy()).prop_map(|(id, served)| Msg::Done { id, served }),
        (any::<u64>(), any::<u64>()).prop_map(|(id, e)| Msg::Failed {
            id,
            error: format!("error {e:x}"),
        }),
        any::<u64>().prop_map(|token| Msg::WorkerHello { token }),
        spec_strategy().prop_map(|spec| Msg::Assign { spec }),
        any::<u64>().prop_map(|cycle| Msg::Progress { cycle }),
        served_strategy().prop_map(|served| Msg::WorkerDone { served }),
        any::<u64>().prop_map(|e| Msg::WorkerFailed {
            error: format!("worker error {e:x}"),
        }),
        Just(Msg::Shutdown),
        Just(Msg::ShutdownAck),
        (any::<u64>(), any::<u64>())
            .prop_map(|(id, retry_after_ms)| Msg::Busy { id, retry_after_ms }),
        Just(Msg::QueryStats),
        report_strategy().prop_map(|report| Msg::Stats { report }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message round-trips through its full wire form.
    #[test]
    fn frames_round_trip(msg in msg_strategy()) {
        let wire = encode_frame(&msg);
        let back = read_msg(&mut Cursor::new(&wire)).expect("own frame decodes");
        prop_assert_eq!(back, msg);
    }

    /// Arbitrary byte soup never panics the reader; it produces a typed,
    /// printable error (or, vanishingly unlikely, a valid message).
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        match read_msg(&mut Cursor::new(&bytes)) {
            Ok(_) => {}
            Err(e) => { let _ = e.to_string(); }
        }
    }

    /// Cutting a valid frame anywhere yields a typed error — a clean EOF
    /// when the cut lands between frames (offset 0), otherwise a
    /// truncation or a validation failure. Never a panic, never Ok.
    #[test]
    fn truncation_is_typed(msg in msg_strategy(), cut_frac in 0.0f64..1.0) {
        let wire = encode_frame(&msg);
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < wire.len());
        let err = read_msg(&mut Cursor::new(&wire[..cut]))
            .expect_err("truncated frame must not decode");
        let _ = err.to_string();
        if cut == 0 {
            prop_assert!(err.is_clean_eof(), "empty stream must be a clean EOF");
        }
    }

    /// A single flipped bit anywhere in a frame is always caught: in the
    /// outer prefix it breaks the length accounting, in the body the
    /// frame checksum (or magic/version check) rejects it. The reader
    /// must never hand back a *different* valid message.
    #[test]
    fn bitflip_never_decodes_silently(msg in msg_strategy(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut wire = encode_frame(&msg);
        let pos = ((wire.len() as f64) * pos_frac) as usize % wire.len();
        wire[pos] ^= 1 << bit;
        match read_msg(&mut Cursor::new(&wire)) {
            Err(e) => { let _ = e.to_string(); }
            Ok(back) => prop_assert_eq!(back, msg),
        }
    }

    /// Any length prefix over the cap is rejected as `Oversized` before
    /// a body buffer is allocated, no matter what follows it.
    #[test]
    fn oversized_prefix_is_always_rejected(
        len in (MAX_FRAME as u64 + 1)..=u64::from(u32::MAX),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut wire = (len as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&tail);
        match read_msg(&mut Cursor::new(&wire)) {
            Err(ProtoError::Oversized(n)) => prop_assert_eq!(u64::from(n), len),
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
    }
}

/// Contract 3: a live daemon closes each connection whose first frame
/// is byte soup, a truncated frame, a length prefix over the cap, or a
/// message only a worker sends — and an honest client is still served a
/// point and a stats reply.
#[test]
fn hostile_first_frames_are_closed_and_honest_clients_are_still_served() {
    let dir = std::env::temp_dir().join(format!("bvl-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(DaemonConfig::threads_only(1, &dir)).expect("daemon");
    let addr = daemon.addr();

    let mut soup = 8u32.to_le_bytes().to_vec();
    soup.extend_from_slice(b"not snap");
    let stats = encode_frame(&Msg::QueryStats);
    let truncated = stats[..stats.len() - 3].to_vec();
    let oversized = (MAX_FRAME + 1).to_le_bytes().to_vec();
    let worker_only = encode_frame(&Msg::Progress { cycle: 1 });
    for (what, bytes) in [
        ("byte soup", soup),
        ("truncated frame", truncated),
        ("oversized prefix", oversized),
        ("worker-only message", worker_only),
    ] {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&bytes).unwrap();
        if what == "truncated frame" {
            // The rest of the frame never comes.
            s.shutdown(Shutdown::Write).unwrap();
        }
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        match s.read(&mut [0u8; 64]) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("{what}: the daemon must close the connection, got {other:?}"),
        }
    }

    let point = PointSpec {
        system: SystemKind::B4Vl,
        workload_key: "vvadd@tiny".into(),
        workload: WorkloadSpec::Named {
            name: "vvadd".into(),
            scale: Scale::tiny(),
        },
        params: SimParams::default(),
    };
    let mut client = Client::connect(addr).expect("honest client");
    let served = client.run_points(&[point]).expect("served point");
    assert!(
        served[0].result.stat("sys.clock.uncore") > 0,
        "{:?}",
        served[0]
    );
    let report = client.stats().expect("stats");
    assert_eq!(report.stats.executed, 1, "{report:?}");
    assert_eq!(report.total_workers, 1, "{report:?}");

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The fabric serves one host: a bind address that is not loopback is
/// refused with an error naming it.
#[test]
fn a_non_loopback_bind_is_refused_naming_the_address() {
    let refused = Daemon::start(DaemonConfig {
        bind: "0.0.0.0:0".into(),
        ..DaemonConfig::default()
    });
    let err = refused.err().expect("a non-loopback bind must be refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("0.0.0.0:0"), "{err}");
}
