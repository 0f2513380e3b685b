//! The admission-queue journal: what makes the daemon's backlog survive
//! a SIGKILL of the daemon itself.
//!
//! An append-only file under the result store (`<store>/queue.journal`)
//! records one snap-framed record per scheduling event:
//!
//! - `Admit { key, spec, priority }` when a fresh job enters the queue
//!   (memo/disk/coalesce hits never journal — they admit nothing);
//! - `Settle { key }` when the job leaves the scheduler for good
//!   (completed or failed). Requeues — eviction, worker death — write
//!   nothing: the job is still outstanding.
//!
//! Each record is `[u32 le len][bvl_snap frame]`, the same armor as the
//! wire protocol, so a torn tail (the daemon died mid-append) is a
//! *typed* decode failure and simply ends the journal — every fully
//! written record before it is preserved. Recovery replays the file:
//! admits minus settles, in admit order, is exactly the lost backlog.
//! The recovered journal is compacted (outstanding admits only) before
//! the daemon appends to it again.
//!
//! Durability is flush-on-append (no fsync): the journal defends
//! against daemon death, not power loss — and the result store's
//! store-then-settle ordering (DESIGN.md §4.14) keeps even the
//! worst-case crash window safe: a point whose result was persisted but
//! never settled is re-checked against the store on recovery instead of
//! re-simulated.

use crate::proto::{Priority, MAX_FRAME};
use crate::spec::PointSpec;
use bvl_snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One outstanding admission, as recovered from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitRec {
    /// The job's cache key.
    pub key: String,
    /// The point, exactly as it was queued (checkpoint-cadence overlay
    /// already applied, so recovery re-admits byte-identical work).
    pub spec: PointSpec,
    /// The scheduling class it was queued under.
    pub priority: Priority,
}

enum Rec {
    // Boxed: an admit (key + full PointSpec) dwarfs a settle (one key).
    Admit(Box<AdmitRec>),
    Settle(String),
}

impl Snap for Rec {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Rec::Admit(a) => {
                w.u8(0);
                w.str(&a.key);
                a.spec.save(w);
                a.priority.save(w);
            }
            Rec::Settle(key) => {
                w.u8(1);
                w.str(key);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Rec::Admit(Box::new(AdmitRec {
                key: r.str()?,
                spec: PointSpec::load(r)?,
                priority: Priority::load(r)?,
            })),
            1 => Rec::Settle(r.str()?),
            tag => {
                return Err(SnapError::BadTag {
                    ty: "journal::Rec",
                    tag: u64::from(tag),
                })
            }
        })
    }
}

/// The daemon's persistent admission queue. All appends are best-effort
/// (an unwritable journal degrades `--resume-queue`, it never stops the
/// sweep); the first failure is reported once.
pub struct QueueJournal {
    path: PathBuf,
    file: Option<File>,
    complained: bool,
}

impl QueueJournal {
    /// A fresh journal at `path`: any stale file from a previous daemon
    /// is deleted (the caller chose *not* to resume it).
    pub fn fresh(path: impl Into<PathBuf>) -> QueueJournal {
        let path = path.into();
        let _ = fs::remove_file(&path);
        QueueJournal {
            path,
            file: None,
            complained: false,
        }
    }

    /// Recovers the outstanding backlog from `path` (in admit order),
    /// compacts the file down to exactly those records, and returns the
    /// journal ready for appending.
    pub fn recover(path: impl Into<PathBuf>) -> (QueueJournal, Vec<AdmitRec>) {
        let path = path.into();
        let outstanding = load_outstanding(&path);
        // Compact atomically: a crash during the rewrite leaves either
        // the old journal or the new one, never a half-written file.
        let mut bytes = Vec::new();
        for rec in &outstanding {
            bytes.extend_from_slice(&encode_rec(&Rec::Admit(Box::new(rec.clone()))));
        }
        let tmp = path.with_extension(format!("journal.tmp.{}", std::process::id()));
        let compacted = fs::write(&tmp, &bytes).is_ok() && fs::rename(&tmp, &path).is_ok();
        if !compacted && !outstanding.is_empty() {
            eprintln!(
                "bvl-serve: could not compact {} — appending to the old journal",
                path.display()
            );
        }
        (
            QueueJournal {
                path,
                file: None,
                complained: false,
            },
            outstanding,
        )
    }

    /// Journals a fresh admission.
    pub fn admit(&mut self, key: &str, spec: &PointSpec, priority: Priority) {
        self.append(&Rec::Admit(Box::new(AdmitRec {
            key: key.to_string(),
            spec: spec.clone(),
            priority,
        })));
    }

    /// Journals a job leaving the scheduler (completed or failed).
    pub fn settle(&mut self, key: &str) {
        self.append(&Rec::Settle(key.to_string()));
    }

    fn append(&mut self, rec: &Rec) {
        if self.file.is_none() {
            if let Some(parent) = self.path.parent() {
                let _ = fs::create_dir_all(parent);
            }
            match OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
            {
                Ok(f) => self.file = Some(f),
                Err(e) => {
                    self.complain(&e);
                    return;
                }
            }
        }
        let bytes = encode_rec(rec);
        let res = self
            .file
            .as_mut()
            .map(|f| f.write_all(&bytes).and_then(|()| f.flush()));
        if let Some(Err(e)) = res {
            self.complain(&e);
            self.file = None;
        }
    }

    fn complain(&mut self, e: &std::io::Error) {
        if !self.complained {
            eprintln!(
                "bvl-serve: queue journal {} unwritable ({e}); \
                 --resume-queue will not see this backlog",
                self.path.display()
            );
            self.complained = true;
        }
    }
}

fn encode_rec(rec: &Rec) -> Vec<u8> {
    let mut out = bvl_snap::frame_with(4, |w| rec.save(w));
    let framed = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&framed.to_le_bytes());
    out
}

/// Replays the journal: admits minus settles, in admit order. Any
/// undecodable record — a torn tail from the daemon dying mid-append,
/// an oversized prefix, a checksum failure — ends the replay there.
fn load_outstanding(path: &Path) -> Vec<AdmitRec> {
    let Ok(bytes) = fs::read(path) else {
        return Vec::new();
    };
    // Admit order is preserved positionally; a settle tombstones its
    // admit, and a re-admission of a settled key takes a new position.
    let mut slots: Vec<Option<AdmitRec>> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut off = 0usize;
    while off + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if len > MAX_FRAME as usize || off + 4 + len > bytes.len() {
            break; // torn or corrupt tail
        }
        match bvl_snap::from_framed::<Rec>(&bytes[off + 4..off + 4 + len]) {
            Ok(Rec::Admit(a)) => {
                if let Some(prev) = index.insert(a.key.clone(), slots.len()) {
                    slots[prev] = None; // duplicate admit: latest wins
                }
                slots.push(Some(*a));
            }
            Ok(Rec::Settle(key)) => {
                if let Some(i) = index.remove(&key) {
                    slots[i] = None;
                }
            }
            Err(_) => break, // typed decode failure: end of usable journal
        }
        off += 4 + len;
    }
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use bvl_sim::{SimParams, SystemKind};
    use bvl_workloads::Scale;

    fn spec(tag: u64) -> PointSpec {
        PointSpec {
            system: SystemKind::B4Vl,
            workload_key: format!("wl{tag}@tiny"),
            workload: WorkloadSpec::Named {
                name: "vvadd".into(),
                scale: Scale {
                    n: 64 + tag,
                    ..Scale::tiny()
                },
            },
            params: SimParams::default(),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bvl-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn admits_minus_settles_survive_in_order() {
        let dir = scratch("basic");
        let path = dir.join("queue.journal");
        let mut j = QueueJournal::fresh(&path);
        j.admit("a", &spec(1), Priority::Normal);
        j.admit("b", &spec(2), Priority::High);
        j.admit("c", &spec(3), Priority::Low);
        j.settle("b");
        drop(j);

        let (_j, out) = QueueJournal::recover(&path);
        assert_eq!(
            out.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            vec!["a", "c"]
        );
        assert_eq!(out[0].spec, spec(1));
        assert_eq!(out[1].priority, Priority::Low);

        // The compaction rewrote the file: a second recovery sees the
        // same backlog, and settling the survivors empties it.
        let (mut j, out2) = QueueJournal::recover(&path);
        assert_eq!(out, out2);
        j.settle("a");
        j.settle("c");
        drop(j);
        let (_j, out3) = QueueJournal::recover(&path);
        assert!(out3.is_empty(), "{out3:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_is_dropped_and_everything_before_it_survives() {
        let dir = scratch("torn");
        let path = dir.join("queue.journal");
        let mut j = QueueJournal::fresh(&path);
        j.admit("a", &spec(1), Priority::Normal);
        j.admit("b", &spec(2), Priority::Normal);
        drop(j);

        // Cut the file mid-record, as a SIGKILL during append would.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (_j, out) = QueueJournal::recover(&path);
        assert_eq!(
            out.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            vec!["a"],
            "the torn record is gone, the complete one survives"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resubmission_after_settle_is_outstanding_again() {
        let dir = scratch("resubmit");
        let path = dir.join("queue.journal");
        let mut j = QueueJournal::fresh(&path);
        j.admit("a", &spec(1), Priority::Low);
        j.settle("a");
        j.admit("a", &spec(1), Priority::High);
        drop(j);
        let (_j, out) = QueueJournal::recover(&path);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].priority, Priority::High);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_deletes_a_stale_journal_and_a_missing_file_is_empty() {
        let dir = scratch("fresh");
        let path = dir.join("queue.journal");
        let mut j = QueueJournal::fresh(&path);
        j.admit("a", &spec(1), Priority::Normal);
        drop(j);
        let _stale = QueueJournal::fresh(&path);
        assert!(!path.exists(), "fresh() must drop the stale journal");
        let (_j, out) = QueueJournal::recover(&path);
        assert!(out.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
