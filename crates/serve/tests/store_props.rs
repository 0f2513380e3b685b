//! Property tests on result-store entries: the corruption harness that
//! `proto_props.rs` applies to wire frames and `sysstate_proptest.rs` to
//! checkpoint blobs, applied to the store's snap frames.
//!
//! The entries are real: one exact and one sampled result, simulated and
//! written by [`ResultStore::store`]. Then each of these is a miss, never
//! a panic and never a different result:
//!
//! * every truncation;
//! * any single flipped byte;
//! * arbitrary byte soup, alone or after a real entry's first bytes.

use bvl_serve::ResultStore;
use bvl_sim::{simulate, simulate_sampled, RunResult, SamplingParams, SimParams, SystemKind};
use bvl_workloads::{kernels::vvadd, Scale};
use proptest::prelude::*;
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A store in a fresh directory of its own; `n` tells apart the
/// directories of one process.
fn scratch_store(n: u64) -> ResultStore {
    let dir = std::env::temp_dir().join(format!("bvl-store-props-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    ResultStore::new(dir)
}

/// Writes `bytes` as a store entry and loads it. Each call gets a
/// directory of its own, so parallel cases never see each other's files.
fn load_bytes(bytes: &[u8]) -> Option<RunResult> {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let store = scratch_store(NEXT.fetch_add(1, Ordering::Relaxed));
    let path = store.result_path("probe");
    fs::create_dir_all(store.dir()).expect("store dir");
    fs::write(&path, bytes).expect("plant");
    let loaded = store.load("probe");
    fs::remove_dir_all(store.dir()).expect("clean up");
    loaded
}

/// The bytes of two entries that [`ResultStore::store`] wrote, one exact
/// result and one sampled, with the results they hold.
fn entries() -> &'static [(Vec<u8>, RunResult); 2] {
    static ENTRIES: OnceLock<[(Vec<u8>, RunResult); 2]> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let w = vvadd::build(Scale::tiny());
        let exact = simulate(SystemKind::B4Vl, &w, &SimParams::default()).expect("exact run");
        let sampled_params = SimParams {
            sampling: Some(SamplingParams {
                period_instrs: 1024,
                window_instrs: 512,
            }),
            ..SimParams::default()
        };
        let (sampled, _) =
            simulate_sampled(SystemKind::B1, &w, &sampled_params).expect("sampled run");
        assert!(sampled.sampling.is_some());
        let store = scratch_store(0);
        let entries = [exact, sampled].map(|r| {
            store.store("real", &r).expect("store");
            let bytes = fs::read(store.result_path("real")).expect("read back");
            (bytes, r)
        });
        fs::remove_dir_all(store.dir()).expect("clean up");
        entries
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A frame records its payload's length, so every proper prefix is
    /// a miss.
    #[test]
    fn truncation_is_a_miss(which in 0usize..2, cut_frac in 0.0f64..1.0) {
        let (bytes, _) = &entries()[which];
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert_eq!(load_bytes(&bytes[..cut]), None, "cut at {} of {}", cut, bytes.len());
    }

    /// One byte replaced by any other value is a miss: the frame's
    /// checks cover its header, and its checksum every byte behind it, a
    /// flipped digit of a counter or letter of a stats path included.
    #[test]
    fn a_flipped_byte_is_a_miss(which in 0usize..2, pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let (bytes, _) = &entries()[which];
        let mut corrupt = bytes.clone();
        let pos = ((corrupt.len() as f64) * pos_frac) as usize % corrupt.len();
        corrupt[pos] ^= flip;
        prop_assert_eq!(load_bytes(&corrupt), None, "byte {} of {} ^ {:#04x}", pos, bytes.len(), flip);
    }

    /// Arbitrary bytes are a miss, alone or after a real entry's first
    /// bytes.
    #[test]
    fn byte_soup_is_a_miss(
        which in 0usize..2,
        keep_frac in 0.0f64..1.0,
        soup in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assert_eq!(load_bytes(&soup), None);
        let (bytes, _) = &entries()[which];
        let keep = ((bytes.len() as f64) * keep_frac) as usize;
        let mut mixed = bytes[..keep].to_vec();
        mixed.extend_from_slice(&soup);
        prop_assert_eq!(load_bytes(&mixed), None, "{} bytes kept", keep);
    }
}

/// The whole entry, unchanged, is the result it was stored from.
#[test]
fn an_untouched_entry_is_its_result() {
    for (bytes, result) in entries() {
        assert_eq!(load_bytes(bytes).as_ref(), Some(result));
    }
}
