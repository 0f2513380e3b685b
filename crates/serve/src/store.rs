//! The content-addressed result store: one snap frame per cache key, plus
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
//! * **Entries.** `<dir>/<key>.snap` holds [`bvl_snap::to_framed`] of
//!   the point's [`RunResult`]: the bytes a `Msg::Done` carries on the
//!   wire, with magic, [`bvl_snap::SNAP_VERSION`], payload length and
//!   checksum. An entry that [`bvl_snap::from_framed`] refuses is a
//!   **miss**, never an error: damaged, truncated, foreign and stale
//!   entries (another `SNAP_VERSION`) re-simulate their point. The JSON
//!   entries earlier builds wrote as `<key>.json` are not read; they are
//!   misses too, and can be deleted.
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

use bvl_sim::{params_fingerprint, RunResult, SimParams, SysState, SystemKind};
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
        self.dir.join(format!("{key}.snap"))
    }

    /// Where `key`'s two checkpoint slots live. Kept in a subdirectory
    /// so result entries and checkpoint blobs cannot collide, and so
    /// resumption can tell "completed" (an entry present) from
    /// "interrupted" (a slot present) at a glance. Slot 0 keeps the
    /// one-blob name of earlier versions, so a blob one of them left
    /// behind still resumes.
    pub fn ckpt_paths(&self, key: &str) -> [PathBuf; 2] {
        let dir = self.dir.join("ckpt");
        [
            dir.join(format!("{key}.snap")),
            dir.join(format!("{key}.1.snap")),
        ]
    }

    /// Loads `key`'s result if present and decodable. Anything else —
    /// no file, torn or flipped bytes, another `SNAP_VERSION` — is a miss.
    pub fn load(&self, key: &str) -> Option<RunResult> {
        bvl_snap::from_framed(&fs::read(self.result_path(key)).ok()?).ok()
    }

    /// Persists `key`'s result atomically (unique temp file + rename).
    ///
    /// # Errors
    ///
    /// Any I/O failure, naming the path it happened at.
    pub fn store(&self, key: &str, result: &RunResult) -> io::Result<()> {
        write_atomic(&self.result_path(key), &bvl_snap::to_framed(result))
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
