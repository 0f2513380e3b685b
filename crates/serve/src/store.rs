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
//! * **Entries.** A hand-rolled `serde_json::Value` object of the
//!   result's `wall_ns`, `stats` (the counter snapshot, as `[path,
//!   value]` pairs) and `sampling`. Unreadable files and files from
//!   older format generations — pre-stats-snapshot and pre-sampling
//!   entries lack those keys — decode as **misses**, never errors: the
//!   point just re-simulates. Keys beyond those three are ignored, so
//!   entries that also carry the typed counter copies an earlier
//!   generation wrote still load, as the same result.
//! * **Writes.** Unique-temp-file + rename. Multiple fabric workers (and
//!   a daemon) share one store directory, so a plain `fs::write` could
//!   expose a torn half-written entry to a concurrent reader; the rename
//!   keeps every visible file complete, and last-writer-wins is safe
//!   because entries for one key are byte-identical by determinism. A
//!   write that fails is an `io::Error` naming the path, never a panic.
//! * **Checkpoints.** Two slot files per point, `<dir>/ckpt/<key>.snap`
//!   and `<key>.1.snap` — the fabric's recovery currency. A checkpoint
//!   overwrites, in place, the slot that does not hold the newest blob
//!   ([`CkptSlots`]), so a writer killed mid-write leaves the previous
//!   blob whole. No rename: replacing a file makes the filesystem
//!   allocate the new file's blocks and free the old one's at every
//!   checkpoint, while an overwrite reuses the blocks already there. A
//!   resume takes the newest slot that decodes; a torn or undecodable
//!   slot is skipped, reusing the `SnapError` paths, and with
//!   neither usable the point restarts from cycle 0.

use bvl_obs::StatsSnapshot;
use bvl_sim::{params_fingerprint, RunResult, SamplingMeta, SimParams, SysState, SystemKind};
use serde_json::Value;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
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

    /// Where `key`'s two checkpoint slots live. Kept in a subdirectory
    /// so result JSONs and checkpoint blobs cannot collide, and so
    /// resumption can tell "completed" (JSON present) from "interrupted"
    /// (a slot present) at a glance. Slot 0 keeps the one-blob name of
    /// earlier versions, so a blob one of them left behind still resumes.
    pub fn ckpt_paths(&self, key: &str) -> [PathBuf; 2] {
        let dir = self.dir.join("ckpt");
        [
            dir.join(format!("{key}.snap")),
            dir.join(format!("{key}.1.snap")),
        ]
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

    /// A writer of `key`'s checkpoint slots for one run. `resumed_from`
    /// is the slot the run resumed from, whose blob the writer must not
    /// overwrite first; a run that did not resume passes `None`, and the
    /// writer clears both slots before its first write, so no blob of an
    /// earlier run can outrank the new ones.
    pub fn checkpoint_slots(&self, key: &str, resumed_from: Option<usize>) -> CkptSlots {
        CkptSlots {
            paths: self.ckpt_paths(key),
            next: resumed_from.map_or(0, |slot| 1 - slot),
            clear_first: resumed_from.is_none(),
        }
    }

    /// Loads the newest blob of `key`'s two slots that decodes, with the
    /// slot it came from. A missing slot is skipped, and so is one that
    /// does not decode (torn by a killed writer, or from an older
    /// simulator); with neither usable this is a miss, not an error, and
    /// the point restarts from cycle 0.
    pub fn load_checkpoint(&self, key: &str) -> Option<(usize, SysState)> {
        self.ckpt_paths(key)
            .iter()
            .enumerate()
            .filter_map(|(slot, path)| {
                let bytes = fs::read(path).ok()?;
                match SysState::from_bytes(&bytes) {
                    Ok(state) => Some((slot, state)),
                    Err(e) => {
                        eprintln!("{}: ignoring undecodable checkpoint ({e})", path.display());
                        None
                    }
                }
            })
            .max_by_key(|(_, state)| state.uncore_cycle())
    }

    /// Removes both of `key`'s checkpoint slots (a completed or failed
    /// point no longer counts as interrupted). Missing files are fine.
    pub fn remove_checkpoint(&self, key: &str) {
        for path in self.ckpt_paths(key) {
            let _ = fs::remove_file(path);
        }
    }
}

/// The writer of one point's two checkpoint slots, made by
/// [`ResultStore::checkpoint_slots`]. Each write overwrites, in place,
/// the slot that does not hold the newest blob, so a writer killed
/// mid-write leaves the previous blob whole (the torn slot fails its
/// checksum on load). The writer remembers which slot is next: a
/// checkpoint costs one encode and one write, with no temp file and no
/// rename.
#[derive(Debug)]
pub struct CkptSlots {
    paths: [PathBuf; 2],
    next: usize,
    clear_first: bool,
}

impl CkptSlots {
    /// Writes `state` over the older slot.
    ///
    /// # Errors
    ///
    /// Any I/O failure, naming the path it happened at.
    pub fn write(&mut self, state: &SysState) -> io::Result<()> {
        if std::mem::take(&mut self.clear_first) {
            for path in &self.paths {
                match fs::remove_file(path) {
                    Err(e) if e.kind() != io::ErrorKind::NotFound => {
                        return Err(at("remove", path, e))
                    }
                    _ => {}
                }
            }
        }
        let slot = self.next;
        overwrite(&self.paths[slot], &state.to_bytes())?;
        self.next = 1 - slot;
        Ok(())
    }
}

/// Replaces the contents of the file at `path` with `bytes` in place,
/// creating the file, and its directory, when missing. The file is opened
/// at every write, so a slot another process deleted meanwhile is
/// created again rather than written through a handle to a deleted file.
fn overwrite(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let open = || {
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
    };
    let mut file = match open() {
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let dir = path.parent().expect("store path has a parent");
            fs::create_dir_all(dir).map_err(|e| at("create", dir, e))?;
            open()
        }
        opened => opened,
    }
    .map_err(|e| at("open", path, e))?;
    file.write_all(bytes)
        .and_then(|()| file.set_len(bytes.len() as u64))
        .map_err(|e| at("write", path, e))
}

/// `e`, with the step that failed and the path it failed at.
fn at(step: &str, path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{step} {}: {e}", path.display()))
}

/// Creates `path`'s directory, then writes a unique temp file and renames
/// it over `path`. The temp name carries the writer's pid so concurrent
/// fabric processes writing the same key never clobber each other's
/// in-progress temp files.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
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

/// Encodes a [`RunResult`] as the store's JSON entry shape: `wall_ns`,
/// `stats` and `sampling`.
pub fn run_result_to_value(r: &RunResult) -> Value {
    map(vec![
        ("wall_ns", Value::F64(r.wall_ns)),
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
/// rather than guess. Other keys are ignored: an entry from the
/// generation that also wrote typed copies of the counters beside the
/// snapshot (`uncore_cycles`, `big`, `mem`, …) loads as its `wall_ns`,
/// `stats` and `sampling`, the same result a current entry holds.
pub fn run_result_from_value(v: &Value) -> Option<RunResult> {
    Some(RunResult {
        wall_ns: v.get("wall_ns")?.as_f64()?,
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
