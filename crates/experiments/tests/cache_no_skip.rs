//! `--no-skip` cache-identity contract: the flag re-keys every sweep
//! point (so naive-loop runs never replay memoized skip-on results), yet
//! the persisted store entries are byte-identical — the on-disk proof
//! of the skip-equivalence guarantee.

use bvl_experiments::sweep::{run_sweep, SweepJob};
use bvl_experiments::ExpOpts;
use bvl_serve::ResultStore;
use bvl_sim::{SimParams, SystemKind};
use bvl_workloads::{kernels, Scale};
use std::fs;
use std::sync::Arc;

#[test]
fn no_skip_rekeys_cache_but_persists_identical_entries() {
    let dir = std::env::temp_dir().join(format!("bvl-no-skip-cache-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let w = Arc::new(kernels::vvadd::build(Scale::tiny()));
    let job = || SweepJob::new(SystemKind::BIv, &w, "tiny", SimParams::default());

    // The two cache keys the runs below must produce: default params
    // (skip-on) vs `no_skip` forced by the option layer.
    let key_on = job().cache_key();
    let naive_params = SimParams {
        no_skip: true,
        ..SimParams::default()
    };
    let key_off = SweepJob::new(SystemKind::BIv, &w, "tiny", naive_params).cache_key();
    assert_ne!(
        key_on, key_off,
        "no_skip must be part of the params hash, else naive runs would \
         replay memoized skip-on results instead of simulating"
    );

    let mut opts = ExpOpts::for_scale("tiny", dir.clone()).with_jobs(1);
    opts.persist_cache = true;
    let skip_on = run_sweep(&[job()], &opts);

    opts.no_skip = true;
    let naive = run_sweep(&[job()], &opts);
    assert_eq!(skip_on, naive, "skip-equivalence broken");
    assert_eq!(
        opts.throughput.snapshot().runs,
        2,
        "both points must simulate fresh (distinct keys, cold cache)"
    );

    // Both entries exist under their own key, with identical bytes.
    let store = ResultStore::new(&opts.cache_dir);
    let (on_path, off_path) = (store.result_path(&key_on), store.result_path(&key_off));
    let on_bytes = fs::read(&on_path)
        .unwrap_or_else(|e| panic!("skip-on artifact {}: {e}", on_path.display()));
    let off_bytes = fs::read(&off_path)
        .unwrap_or_else(|e| panic!("no-skip artifact {}: {e}", off_path.display()));
    assert_eq!(
        on_bytes, off_bytes,
        "persisted entries must be byte-identical across skip modes"
    );

    fs::remove_dir_all(&dir).expect("cleanup");
}
