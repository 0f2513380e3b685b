//! The result store's miss rule: bytes at an entry's path load as a
//! result only when they are the snap frame of one, written under this
//! build's `SNAP_VERSION`. Anything else is a **miss** (the point
//! re-simulates), never an error and never a panic. Pinned here:
//!
//! * a JSON entry, as builds before the snap-framed store wrote → miss;
//! * a checkpoint blob, a valid frame of another type → miss;
//! * a frame whose `SNAP_VERSION` is off by one → miss;
//! * a frame with duplicate stats paths (disk corruption; would panic
//!   `StatsSnapshot::from_entries` if forwarded) → miss;
//! * garbage → miss;
//! * and the fabric daemon re-simulates over an old JSON entry instead
//!   of failing the submission or serving garbage.

use bvl_obs::StatsSnapshot;
use bvl_serve::{Client, Daemon, DaemonConfig, PointSpec, ResultStore, WorkloadSpec};
use bvl_sim::{
    simulate_with, CkptControl, Hooks, RunResult, SamplingMeta, SimParams, SysState, SystemKind,
};
use bvl_snap::{frame_with, from_framed, to_framed, Snap, SnapError, SNAP_VERSION};
use bvl_workloads::{kernels::vvadd, Scale};
use std::fs;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-migrate-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// An entry as builds before the snap-framed store wrote it.
const JSON_ENTRY: &str = r#"{
  "wall_ns": 123.5,
  "stats": [["sys.mem.data_reqs", 2]],
  "sampling": null
}"#;

/// A result whose stats hold `paths`, each at value 1.
fn result_with(paths: &[&str]) -> RunResult {
    let entries = paths.iter().map(|p| (p.to_string(), 1)).collect();
    RunResult {
        wall_ns: 123.5,
        stats: StatsSnapshot::from_entries(entries),
        sampling: None,
    }
}

/// The frame of a result whose stats hold `paths`, each at value 1,
/// encoded field by field, so that `paths` may repeat.
fn frame_of(paths: &[&str]) -> Vec<u8> {
    frame_with(0, |w| {
        w.f64(123.5);
        w.usize(paths.len());
        for path in paths {
            w.str(path);
            w.u64(1);
        }
        None::<SamplingMeta>.save(w);
    })
}

/// A mid-run checkpoint of `vvadd@tiny` on `1b`.
fn checkpoint_blob() -> Vec<u8> {
    let w = vvadd::build(Scale::tiny());
    let params = SimParams {
        checkpoint_every: 300,
        ..SimParams::default()
    };
    let mut blob = None;
    let hooks = Hooks {
        on_checkpoint: Some(&mut |s: &SysState| {
            blob = Some(s.to_bytes());
            CkptControl::Yield
        }),
        ..Hooks::default()
    };
    simulate_with(SystemKind::B1, &w, &params, hooks).expect("vvadd on 1b");
    blob.expect("a checkpoint before the run ends")
}

fn plant(store: &ResultStore, key: &str, bytes: &[u8]) {
    let path = store.result_path(key);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, bytes).unwrap();
}

#[test]
fn legacy_and_corrupt_entries_decode_as_misses_not_errors() {
    let dir = scratch("entries");
    let store = ResultStore::new(&dir);
    let key = "probe";

    // Control: the field-by-field frame is the store's own encoding, and
    // it loads. This pins the duplicate-path miss below on the
    // duplicates, not on some other defect of the handmade frame.
    let paths = ["sys.x", "sys.y"];
    assert_eq!(frame_of(&paths), to_framed(&result_with(&paths)));
    plant(&store, key, &frame_of(&paths));
    assert_eq!(store.load(key), Some(result_with(&paths)));

    // A frame of another version, refused as such before its checksum
    // (which the patch breaks too) is looked at.
    let stale = |version: u32| {
        let mut frame = to_framed(&result_with(&paths));
        frame[4..8].copy_from_slice(&version.to_le_bytes());
        let refused = from_framed::<RunResult>(&frame);
        assert!(
            matches!(refused, Err(SnapError::VersionMismatch { found, .. }) if found == version),
            "{refused:?}"
        );
        frame
    };
    let cases = [
        ("an old JSON entry", JSON_ENTRY.as_bytes().to_vec()),
        ("a checkpoint blob", checkpoint_blob()),
        (
            "a frame of the previous SNAP_VERSION",
            stale(SNAP_VERSION - 1),
        ),
        ("a frame of the next SNAP_VERSION", stale(SNAP_VERSION + 1)),
        (
            "a frame with duplicate stats paths",
            frame_of(&["sys.x", "sys.x"]),
        ),
        ("garbage", b"not a result at all".to_vec()),
        ("an empty file", Vec::new()),
    ];
    for (what, bytes) in cases {
        plant(&store, key, &bytes);
        assert_eq!(store.load(key), None, "{what} must be a miss");
    }

    // And a fresh write-back round-trips, proving the store itself is
    // healthy after all that.
    let result = RunResult::default();
    store.store(key, &result).expect("store");
    assert_eq!(store.load(key), Some(result));

    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn fabric_daemon_resimulates_over_a_legacy_entry() {
    let dir = scratch("fabric");
    let spec = PointSpec {
        system: SystemKind::B1,
        workload_key: "vvadd@tiny".into(),
        workload: WorkloadSpec::Named {
            name: "vvadd".into(),
            scale: Scale::tiny(),
        },
        params: SimParams::default(),
    };
    let store = ResultStore::new(&dir);
    // An old JSON entry sits at exactly the submitted point's entry path.
    plant(&store, &spec.key(), JSON_ENTRY.as_bytes());

    let daemon = Daemon::start(DaemonConfig::threads_only(1, &dir)).expect("daemon");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let served = client
        .run_points(std::slice::from_ref(&spec))
        .expect("served point");
    assert!(
        !served[0].cache_hit,
        "a legacy entry must not be served as a cache hit"
    );

    let s = daemon.stats();
    assert_eq!(s.disk_hits, 0, "legacy entry counted as a disk hit: {s:?}");
    assert_eq!(s.executed, 1, "the point must re-simulate: {s:?}");
    assert_eq!(
        s.failed, 0,
        "a legacy entry must never fail the point: {s:?}"
    );
    daemon.shutdown();

    // The re-simulation overwrote the legacy entry with a snap frame,
    // which now *does* load.
    let migrated = store.load(&spec.key());
    assert_eq!(migrated.as_ref(), Some(&served[0].result));

    fs::remove_dir_all(&dir).expect("cleanup");
}
