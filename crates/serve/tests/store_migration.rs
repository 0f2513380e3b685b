//! Disk-cache migration contract of the fabric store.
//!
//! The store reads entries written by every prior format generation of
//! this repo — and by interrupted/hostile writers. The contract is
//! one-sided: an entry loads when it holds a well-typed `wall_ns`,
//! `stats` and `sampling`, whatever other keys it carries; anything else
//! is a **miss** (the point re-simulates), never an error and never a
//! panic. Pinned here:
//!
//! * entries that also carry the typed counter copies (`uncore_cycles`,
//!   `big`, `mem`, …) the previous generation wrote → the same result
//!   as without them;
//! * pre-stats-snapshot entries (PR-4 era: no `stats` key) → miss;
//! * pre-sampling entries (PR-6 era: no `sampling` key) → miss;
//! * entries with duplicate stats paths (disk corruption; would panic
//!   `StatsSnapshot::from_entries` if forwarded) → miss;
//! * unparseable bytes → miss;
//! * nesting deeper than the JSON parser's limit (would overflow the
//!   stack if parsed without one) → miss;
//! * and the fabric daemon re-simulates over such an entry instead of
//!   failing the submission or serving garbage.

use bvl_serve::{Client, Daemon, DaemonConfig, PointSpec, ResultStore, WorkloadSpec};
use bvl_sim::{RunResult, SimParams, SystemKind};
use bvl_workloads::Scale;
use std::fs;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-migrate-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The keys a current entry holds.
const CURRENT: [(&str, &str); 3] = [
    ("wall_ns", "123.5"),
    ("stats", r#"[["sys.mem.data_reqs",2]]"#),
    ("sampling", "null"),
];

/// The typed copies of the counters that the generation before the
/// current one wrote between `wall_ns` and `stats`.
const TYPED_COPIES: [(&str, &str); 7] = [
    ("uncore_cycles", "42"),
    (
        "big",
        r#"{"cycles":10,"retired":9,"fetch_groups":3,"breakdown":[1,2,3,4,0,0,0],"branches":2,"mispredicts":1}"#,
    ),
    ("littles", "[]"),
    ("lanes", "[]"),
    ("fetch_groups", "7"),
    (
        "mem",
        r#"{"ifetch_reqs":1,"data_reqs":2,"l2_reqs":3,"dve_reqs":4,"vmu_reqs":5,"coherence_msgs":6,"line_migrations":7}"#,
    ),
    ("runtime", "null"),
];

/// A JSON object of `fields`, in order, laid out as the store writes.
fn entry(fields: &[(&str, &str)]) -> String {
    let body = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n  ");
    format!("{{\n  {body}\n}}")
}

/// A syntactically valid current entry with the keys named in `omit`
/// removed — exactly what an older format generation wrote (older
/// generations didn't have the newer keys to write).
fn entry_without(omit: &[&str]) -> String {
    let kept: Vec<_> = CURRENT
        .into_iter()
        .filter(|(k, _)| !omit.contains(k))
        .collect();
    entry(&kept)
}

fn plant(store: &ResultStore, key: &str, text: &str) {
    let path = store.result_path(key);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

#[test]
fn legacy_and_corrupt_entries_decode_as_misses_not_errors() {
    let dir = scratch("entries");
    let store = ResultStore::new(&dir);
    let key = "probe";

    // Control: the full current-generation shape decodes. This pins the
    // misses below on the *missing keys*, not on some other defect of
    // the handcrafted entry.
    plant(&store, key, &entry_without(&[]));
    assert!(
        store.load(key).is_some(),
        "the control entry must decode — the legacy cases below are meaningless otherwise"
    );

    // The previous generation: the same three keys, with the typed
    // counter copies between `wall_ns` and `stats`. The decoder ignores
    // them, so the entry loads as the same result.
    let current = store.load(key);
    let parent_shape: Vec<_> = CURRENT[..1]
        .iter()
        .chain(&TYPED_COPIES)
        .chain(&CURRENT[1..])
        .copied()
        .collect();
    plant(&store, key, &entry(&parent_shape));
    assert_eq!(
        store.load(key),
        current,
        "an entry with the typed counter copies must load as the entry without them"
    );

    // Pre-PR-4 generation: no stats snapshot, no sampling metadata.
    plant(&store, key, &entry_without(&["stats", "sampling"]));
    assert!(store.load(key).is_none(), "pre-stats entry must be a miss");

    // Pre-PR-6 generation: stats present, sampling key not yet invented.
    plant(&store, key, &entry_without(&["sampling"]));
    assert!(
        store.load(key).is_none(),
        "pre-sampling entry must be a miss"
    );

    // Corruption: duplicate stats paths. Forwarding these into
    // `StatsSnapshot::from_entries` would panic — the store must treat
    // them as a miss instead.
    let dup = entry_without(&["stats"]).replace(
        "\"sampling\": null",
        "\"stats\": [[\"sys.x\",1],[\"sys.x\",2]],\n  \"sampling\": null",
    );
    plant(&store, key, &dup);
    assert!(
        store.load(key).is_none(),
        "duplicate stats paths must be a miss"
    );

    // Wrong JSON type at a field.
    plant(
        &store,
        key,
        &entry_without(&[]).replace("\"wall_ns\": 123.5", "\"wall_ns\": \"many\""),
    );
    assert!(store.load(key).is_none(), "mistyped field must be a miss");

    // Torn/unparseable bytes.
    plant(&store, key, "{\"wall_ns\": 12");
    assert!(store.load(key).is_none(), "torn entry must be a miss");
    plant(&store, key, "not json at all");
    assert!(store.load(key).is_none(), "garbage entry must be a miss");

    // And a fresh write-back round-trips, proving the store itself is
    // healthy after all that.
    let result = RunResult::default();
    store.store(key, &result).expect("store");
    assert_eq!(store.load(key), Some(result));

    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_deeply_nested_entry_is_a_miss_not_a_stack_overflow() {
    let dir = scratch("nested");
    let store = ResultStore::new(&dir);
    plant(&store, "probe", &"[".repeat(100_000));
    assert!(store.load("probe").is_none());
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
    // A pre-sampling-generation entry sits at exactly the submitted
    // point's key.
    plant(&store, &spec.key(), &entry_without(&["sampling"]));

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

    // The re-simulation overwrote the legacy entry with the current
    // generation, which now *does* load.
    let migrated = store.load(&spec.key());
    assert_eq!(migrated.as_ref(), Some(&served[0].result));

    fs::remove_dir_all(&dir).expect("cleanup");
}
