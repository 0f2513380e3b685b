//! The content-addressed result store: one JSON file per cache key, plus
//! the checkpoint-blob side store — shared by the in-process sweep
//! runner, the fabric daemon, and every worker process.
//!
//! This is the PR-1 disk cache, promoted out of the experiments crate so
//! the fabric can address it from multiple processes:
//!
//! * **Key.** [`cache_key_for`] — `"{system}__{workload-key}__{params
//!   hash}"`, where the hash is [`bvl_sim::params_fingerprint`], the
//!   same one checkpoints carry. It ignores the observability knobs
//!   (checkpoint cadence, tracing), whose on/off state leaves results
//!   byte-identical; the sampling configuration is *kept*, so a sampled
//!   estimate can never alias an exact result.
//! * **Entries.** Hand-rolled `serde_json::Value` encoding (no derived
//!   deserializers across bvl-core/mem/runtime). Unreadable files and
//!   files from older format generations — pre-stats-snapshot (PR-4) and
//!   pre-sampling (PR-6) entries lack those keys — decode as **misses**,
//!   never errors: the point just re-simulates.
//! * **Writes.** Unique-temp-file + rename. Multiple fabric workers (and
//!   a daemon) share one store directory, so a plain `fs::write` could
//!   expose a torn half-written entry to a concurrent reader; the rename
//!   keeps every visible file complete, and last-writer-wins is safe
//!   because entries for one key are byte-identical by determinism. A
//!   write that fails is an `io::Error` naming the path, never a panic.
//! * **Checkpoints.** `<dir>/ckpt/<key>.snap` blobs — the fabric's
//!   recovery currency. Same unique-temp discipline; an
//!   undecodable blob is a miss (restart from cycle 0), reusing the PR-5
//!   `SnapError` paths.

use bvl_core::types::CoreStats;
use bvl_mem::MemStats;
use bvl_obs::StatsSnapshot;
use bvl_runtime::RuntimeStats;
use bvl_sim::{params_fingerprint, RunResult, SamplingMeta, SimParams, SysState, SystemKind};
use serde_json::Value;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The cache key for a (system, workload-instance, params) point.
///
/// The params hash is [`params_fingerprint`], which leaves out the pure
/// observability knobs (checkpoint cadence, tracing): a checkpointed or
/// traced run must *reuse* the cache entry of its plain twin, not fork a
/// parallel one. This is also the fabric's in-flight dedupe key: two
/// submissions differing only in those knobs coalesce onto one
/// simulation.
pub fn cache_key_for(system: SystemKind, workload_key: &str, params: &SimParams) -> String {
    format!(
        "{}__{}__{:016x}",
        system.label(),
        workload_key,
        params_fingerprint(params)
    )
}

/// A handle on one store directory. Cheap to clone; all state is on disk.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultStore { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `key`'s result entry lives.
    pub fn result_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Where `key`'s in-flight checkpoint blob lives. Kept in a
    /// subdirectory so result JSONs and checkpoint blobs cannot collide,
    /// and so resumption can tell "completed" (JSON present) from
    /// "interrupted" (blob present) at a glance.
    pub fn ckpt_path(&self, key: &str) -> PathBuf {
        self.dir.join("ckpt").join(format!("{key}.snap"))
    }

    /// Loads `key`'s result if present and decodable. Anything else —
    /// no file, torn bytes, a legacy format generation — is a miss.
    pub fn load(&self, key: &str) -> Option<RunResult> {
        let text = fs::read_to_string(self.result_path(key)).ok()?;
        run_result_from_value(&serde_json::from_str(&text).ok()?)
    }

    /// Persists `key`'s result atomically (unique temp file + rename).
    ///
    /// # Errors
    ///
    /// Any I/O failure, naming the path it happened at.
    pub fn store(&self, key: &str, result: &RunResult) -> io::Result<()> {
        let text = serde_json::to_string_pretty(&run_result_to_value(result)).expect("encode");
        write_atomic(&self.result_path(key), text.as_bytes())
    }

    /// Persists a checkpoint blob for `key` atomically, so an interrupt
    /// (or a concurrent reader in another fabric process) never sees a
    /// torn blob. (A torn blob would still be rejected by the frame
    /// checksum — the rename keeps the window empty, not merely
    /// survivable.)
    ///
    /// # Errors
    ///
    /// Any I/O failure, naming the path it happened at.
    pub fn store_checkpoint(&self, key: &str, state: &SysState) -> io::Result<()> {
        write_atomic(&self.ckpt_path(key), &state.to_bytes())
    }

    /// Loads `key`'s checkpoint blob if present and decodable; anything
    /// else — no file, torn bytes, a version from an older simulator —
    /// is a miss, not an error (the point just restarts from cycle 0).
    pub fn load_checkpoint(&self, key: &str) -> Option<SysState> {
        let path = self.ckpt_path(key);
        let bytes = fs::read(&path).ok()?;
        match SysState::from_bytes(&bytes) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("{}: ignoring undecodable checkpoint ({e})", path.display());
                None
            }
        }
    }

    /// Removes `key`'s checkpoint blob (a completed point no longer
    /// counts as interrupted). Missing files are fine.
    pub fn remove_checkpoint(&self, key: &str) {
        let _ = fs::remove_file(self.ckpt_path(key));
    }
}

/// Creates `path`'s directory, then writes a unique temp file and renames
/// it over `path`. The temp name carries the writer's pid so concurrent
/// fabric processes writing the same key never clobber each other's
/// in-progress temp files.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let at = |step: &str, p: &Path, e: io::Error| {
        io::Error::new(e.kind(), format!("{step} {}: {e}", p.display()))
    };
    let dir = path.parent().expect("store path has a parent");
    fs::create_dir_all(dir).map_err(|e| at("create", dir, e))?;
    let mut name = path
        .file_name()
        .expect("store path has a file name")
        .to_os_string();
    name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    fs::write(&tmp, bytes).map_err(|e| at("write", &tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| at("rename", path, e))
}

// --- the JSON entry codec -------------------------------------------------

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn core_stats_to_value(c: &CoreStats) -> Value {
    map(vec![
        ("cycles", Value::U64(c.cycles)),
        ("retired", Value::U64(c.retired)),
        ("fetch_groups", Value::U64(c.fetch_groups)),
        (
            "breakdown",
            Value::Seq(c.breakdown.iter().map(|&x| Value::U64(x)).collect()),
        ),
        ("branches", Value::U64(c.branches)),
        ("mispredicts", Value::U64(c.mispredicts)),
    ])
}

fn core_stats_from_value(v: &Value) -> Option<CoreStats> {
    let breakdown_list = v.get("breakdown")?.as_array()?;
    let mut breakdown = [0u64; 7];
    if breakdown_list.len() != breakdown.len() {
        return None;
    }
    for (slot, item) in breakdown.iter_mut().zip(breakdown_list) {
        *slot = item.as_u64()?;
    }
    Some(CoreStats {
        cycles: v.get("cycles")?.as_u64()?,
        retired: v.get("retired")?.as_u64()?,
        fetch_groups: v.get("fetch_groups")?.as_u64()?,
        breakdown,
        branches: v.get("branches")?.as_u64()?,
        mispredicts: v.get("mispredicts")?.as_u64()?,
    })
}

fn mem_stats_to_value(m: &MemStats) -> Value {
    map(vec![
        ("ifetch_reqs", Value::U64(m.ifetch_reqs)),
        ("data_reqs", Value::U64(m.data_reqs)),
        ("l2_reqs", Value::U64(m.l2_reqs)),
        ("dve_reqs", Value::U64(m.dve_reqs)),
        ("vmu_reqs", Value::U64(m.vmu_reqs)),
        ("coherence_msgs", Value::U64(m.coherence_msgs)),
        ("line_migrations", Value::U64(m.line_migrations)),
    ])
}

fn mem_stats_from_value(v: &Value) -> Option<MemStats> {
    Some(MemStats {
        ifetch_reqs: v.get("ifetch_reqs")?.as_u64()?,
        data_reqs: v.get("data_reqs")?.as_u64()?,
        l2_reqs: v.get("l2_reqs")?.as_u64()?,
        dve_reqs: v.get("dve_reqs")?.as_u64()?,
        vmu_reqs: v.get("vmu_reqs")?.as_u64()?,
        coherence_msgs: v.get("coherence_msgs")?.as_u64()?,
        line_migrations: v.get("line_migrations")?.as_u64()?,
    })
}

fn runtime_stats_to_value(r: &RuntimeStats) -> Value {
    map(vec![
        ("tasks_run", Value::U64(r.tasks_run)),
        ("steals", Value::U64(r.steals)),
        ("failed_steals", Value::U64(r.failed_steals)),
        ("overhead_cycles", Value::U64(r.overhead_cycles)),
    ])
}

fn runtime_stats_from_value(v: &Value) -> Option<RuntimeStats> {
    Some(RuntimeStats {
        tasks_run: v.get("tasks_run")?.as_u64()?,
        steals: v.get("steals")?.as_u64()?,
        failed_steals: v.get("failed_steals")?.as_u64()?,
        overhead_cycles: v.get("overhead_cycles")?.as_u64()?,
    })
}

fn opt_to_value(v: Option<Value>) -> Value {
    v.unwrap_or(Value::Null)
}

fn sampling_meta_to_value(s: &SamplingMeta) -> Value {
    map(vec![
        ("period_instrs", Value::U64(s.period_instrs)),
        ("window_instrs", Value::U64(s.window_instrs)),
        ("total_instrs", Value::U64(s.total_instrs)),
        ("windows_measured", Value::U64(s.windows_measured)),
        ("windows_truncated", Value::U64(s.windows_truncated)),
        ("ci_halfwidth_ns", Value::F64(s.ci_halfwidth_ns)),
        ("exact_fallback", Value::Bool(s.exact_fallback)),
    ])
}

fn sampling_meta_from_value(v: &Value) -> Option<SamplingMeta> {
    Some(SamplingMeta {
        period_instrs: v.get("period_instrs")?.as_u64()?,
        window_instrs: v.get("window_instrs")?.as_u64()?,
        total_instrs: v.get("total_instrs")?.as_u64()?,
        windows_measured: v.get("windows_measured")?.as_u64()?,
        windows_truncated: v.get("windows_truncated")?.as_u64()?,
        ci_halfwidth_ns: v.get("ci_halfwidth_ns")?.as_f64()?,
        exact_fallback: v.get("exact_fallback")?.as_bool()?,
    })
}

fn snapshot_to_value(s: &StatsSnapshot) -> Value {
    Value::Seq(
        s.iter()
            .map(|(p, v)| Value::Seq(vec![Value::Str(p.to_string()), Value::U64(v)]))
            .collect(),
    )
}

fn snapshot_from_value(v: &Value) -> Option<StatsSnapshot> {
    let entries = v
        .as_array()?
        .iter()
        .map(|pair| {
            let pair = pair.as_array()?;
            if pair.len() != 2 {
                return None;
            }
            Some((pair[0].as_str()?.to_string(), pair[1].as_u64()?))
        })
        .collect::<Option<Vec<_>>>()?;
    // A corrupted (or crafted) entry with duplicate stats paths must be a
    // miss — `StatsSnapshot::from_entries` treats duplicates as an
    // in-process wiring bug and panics, which is the wrong failure mode
    // for bytes read off a shared disk.
    let mut seen = std::collections::HashSet::with_capacity(entries.len());
    if !entries.iter().all(|(p, _)| seen.insert(p.clone())) {
        return None;
    }
    Some(StatsSnapshot::from_entries(entries))
}

/// Encodes a [`RunResult`] as the store's JSON entry shape.
pub fn run_result_to_value(r: &RunResult) -> Value {
    map(vec![
        ("wall_ns", Value::F64(r.wall_ns)),
        ("uncore_cycles", Value::U64(r.uncore_cycles)),
        ("big", opt_to_value(r.big.as_ref().map(core_stats_to_value))),
        (
            "littles",
            Value::Seq(r.littles.iter().map(core_stats_to_value).collect()),
        ),
        (
            "lanes",
            Value::Seq(r.lanes.iter().map(core_stats_to_value).collect()),
        ),
        ("fetch_groups", Value::U64(r.fetch_groups)),
        ("mem", mem_stats_to_value(&r.mem)),
        (
            "runtime",
            opt_to_value(r.runtime.as_ref().map(runtime_stats_to_value)),
        ),
        ("stats", snapshot_to_value(&r.stats)),
        (
            "sampling",
            opt_to_value(r.sampling.as_ref().map(sampling_meta_to_value)),
        ),
    ])
}

/// Decodes a store entry. `None` — a miss — for any structural problem,
/// including entries written by older format generations:
/// pre-stats-snapshot files (PR-4) lack the `stats` key, pre-sampling
/// files (PR-6) lack the `sampling` key, and both must re-simulate
/// rather than guess.
pub fn run_result_from_value(v: &Value) -> Option<RunResult> {
    let opt_core = |v: &Value| -> Option<Option<CoreStats>> {
        if v.is_null() {
            Some(None)
        } else {
            core_stats_from_value(v).map(Some)
        }
    };
    let core_list = |v: &Value| -> Option<Vec<CoreStats>> {
        v.as_array()?.iter().map(core_stats_from_value).collect()
    };
    Some(RunResult {
        wall_ns: v.get("wall_ns")?.as_f64()?,
        uncore_cycles: v.get("uncore_cycles")?.as_u64()?,
        big: opt_core(v.get("big")?)?,
        littles: core_list(v.get("littles")?)?,
        lanes: core_list(v.get("lanes")?)?,
        fetch_groups: v.get("fetch_groups")?.as_u64()?,
        mem: mem_stats_from_value(v.get("mem")?)?,
        runtime: if v.get("runtime")?.is_null() {
            None
        } else {
            Some(runtime_stats_from_value(v.get("runtime")?)?)
        },
        // Files from before the stats snapshot existed lack this entry and
        // decode as misses, which re-simulates — exactly right.
        stats: snapshot_from_value(v.get("stats")?)?,
        // Same migration path: files from before sampled simulation
        // existed lack the `sampling` entry entirely and decode as
        // misses, re-simulating rather than guessing they were exact.
        sampling: if v.get("sampling")?.is_null() {
            None
        } else {
            Some(sampling_meta_from_value(v.get("sampling")?)?)
        },
    })
}
