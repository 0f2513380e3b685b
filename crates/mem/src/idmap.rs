//! A dense map over monotonically allocated `u64` ids.
//!
//! The timing models hand out transaction ids from simple incrementing
//! counters (VMU commands, in-flight line requests, cross-element
//! transactions, ...). Tracking those with `HashMap<u64, _>` pays a hash
//! and a probe on every per-cycle lookup; the access pattern is really a
//! sliding window — ids are allocated in increasing order and retired
//! roughly FIFO. [`IdMap`] exploits that: entries live in a `VecDeque`
//! indexed by `id - base`, and `base` advances as the oldest entries
//! retire, so memory stays proportional to the in-flight window while
//! every operation is an array index.
//!
//! Ids may be *inserted* out of order (e.g. memory lines arriving out of
//! sequence); the map distinguishes a vacant slot — an id inside the
//! window that may yet be inserted — from a retired one, and the base
//! only ever advances past retired slots.

use bvl_snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

#[derive(Clone, Debug, Default)]
enum Slot<T> {
    /// Inside the window but never inserted (may still arrive).
    #[default]
    Vacant,
    Occupied(T),
    /// Removed; the id must never come back.
    Retired,
}

impl<T> Slot<T> {
    fn as_ref(&self) -> Option<&T> {
        match self {
            Slot::Occupied(v) => Some(v),
            _ => None,
        }
    }

    fn as_mut(&mut self) -> Option<&mut T> {
        match self {
            Slot::Occupied(v) => Some(v),
            _ => None,
        }
    }
}

/// A map keyed by monotonically allocated ids (see module docs).
///
/// Ids below the retired-window base are treated as absent; inserting one
/// panics (an id must never be re-used after retirement).
#[derive(Clone, Debug, Default)]
pub struct IdMap<T> {
    base: u64,
    slots: VecDeque<Slot<T>>,
    len: usize,
}

impl<T> IdMap<T> {
    /// Creates an empty map accepting ids from 0.
    pub fn new() -> Self {
        IdMap::starting_at(0)
    }

    /// Creates an empty map anchored at `first_id`, the smallest id the
    /// owning counter will ever allocate. Anchoring matters: an id below
    /// the anchor can never be inserted, and a *permanently* vacant slot
    /// at the front would pin the window open for the whole run.
    pub fn starting_at(first_id: u64) -> Self {
        IdMap {
            base: first_id,
            slots: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn index(&self, id: u64) -> Option<usize> {
        id.checked_sub(self.base).map(|i| i as usize)
    }

    /// Inserts `value` under `id`, returning the previous entry if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is below the retired window (ids are allocated from
    /// an incrementing counter and must not be re-used).
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        let idx = self
            .index(id)
            .expect("IdMap id re-used after its window retired");
        while self.slots.len() <= idx {
            self.slots.push_back(Slot::Vacant);
        }
        let old = std::mem::replace(&mut self.slots[idx], Slot::Occupied(value));
        match old {
            Slot::Occupied(v) => Some(v),
            Slot::Vacant => {
                self.len += 1;
                None
            }
            Slot::Retired => panic!("IdMap id re-used after its window retired"),
        }
    }

    /// The entry under `id`, if live.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.index(id)
            .and_then(|i| self.slots.get(i))
            .and_then(Slot::as_ref)
    }

    /// Mutable access to the entry under `id`, if live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.index(id)
            .and_then(|i| self.slots.get_mut(i))
            .and_then(Slot::as_mut)
    }

    /// True if `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Removes and returns the entry under `id`, advancing the window base
    /// past any retired prefix.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let idx = self.index(id)?;
        let slot = self.slots.get_mut(idx)?;
        let old = match std::mem::replace(slot, Slot::Retired) {
            Slot::Occupied(v) => {
                self.len -= 1;
                Some(v)
            }
            // A vacant slot stays vacant: its id may still be inserted.
            Slot::Vacant => {
                *slot = Slot::Vacant;
                None
            }
            Slot::Retired => None,
        };
        while let Some(Slot::Retired) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        old
    }

    /// Retires `id` without it ever having been live: the owning counter
    /// allocated it for an entry kept elsewhere. A vacant slot would pin
    /// the window open for the rest of the run. Does nothing to an id
    /// that is live, or below the window.
    pub fn retire(&mut self, id: u64) {
        let Some(idx) = self.index(id) else {
            return;
        };
        while self.slots.len() <= idx {
            self.slots.push_back(Slot::Vacant);
        }
        if let Slot::Vacant = self.slots[idx] {
            self.slots[idx] = Slot::Retired;
        }
        while let Some(Slot::Retired) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Iterates live `(id, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (self.base + i as u64, v)))
    }
}

impl<T: Snap> Snap for Slot<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Slot::Vacant => w.u8(0),
            Slot::Occupied(v) => {
                w.u8(1);
                v.save(w);
            }
            Slot::Retired => w.u8(2),
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Slot::Vacant),
            1 => Ok(Slot::Occupied(T::load(r)?)),
            2 => Ok(Slot::Retired),
            t => Err(SnapError::BadTag {
                ty: "IdMap::Slot",
                tag: u64::from(t),
            }),
        }
    }
}

/// The serialized form preserves the exact slot-tag sequence (vacant /
/// occupied / retired), not just the live entries: retired tombstones
/// inside the window are part of the map's behaviour (they reject
/// re-insertion) and must survive a checkpoint round trip. `len` is
/// derivable, so it is recomputed on load rather than trusted.
impl<T: Snap> Snap for IdMap<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.base.save(w);
        self.slots.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let base: u64 = Snap::load(r)?;
        let slots: VecDeque<Slot<T>> = Snap::load(r)?;
        let len = slots.iter().filter(|s| s.as_ref().is_some()).count();
        Ok(IdMap { base, slots, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = IdMap::new();
        assert!(m.is_empty());
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(&"a"));
        assert_eq!(m.get(0), None);
        assert_eq!(m.remove(1), Some("a"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.get(2), Some(&"b"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn out_of_order_removal_keeps_window_tight() {
        let mut m = IdMap::new();
        for id in 1..=4u64 {
            m.insert(id, id * 10);
        }
        m.remove(3);
        m.remove(2);
        assert_eq!(m.len(), 2);
        assert_eq!(m.iter().map(|(id, _)| id).collect::<Vec<_>>(), [1, 4]);
        // Removing the oldest live entry retires the whole gap.
        m.remove(1);
        assert_eq!(m.iter().map(|(id, _)| id).collect::<Vec<_>>(), [4]);
        assert_eq!(m.get(4), Some(&40));
        m.remove(4);
        assert!(m.is_empty());
        // New ids keep working after the window fully drained.
        m.insert(9, 90);
        assert_eq!(m.get(9), Some(&90));
    }

    #[test]
    fn out_of_order_insertion_fills_vacant_holes() {
        let mut m = IdMap::new();
        m.insert(3, "c");
        m.insert(5, "e");
        // Retiring id 3 must not retire the vacant hole at 4.
        assert_eq!(m.remove(3), Some("c"));
        m.insert(4, "d");
        assert_eq!(m.get(4), Some(&"d"));
        assert_eq!(m.remove(4), Some("d"));
        assert_eq!(m.remove(5), Some("e"));
        assert!(m.is_empty());
    }

    #[test]
    fn sparse_ids_are_absent_not_errors() {
        let mut m = IdMap::new();
        m.insert(5, ());
        assert!(!m.contains(3));
        assert_eq!(m.get_mut(4), None);
        assert_eq!(m.remove(3), None);
        assert!(m.contains(5));
    }

    #[test]
    #[should_panic(expected = "re-used")]
    fn reinserting_retired_id_panics() {
        let mut m = IdMap::new();
        m.insert(1, ());
        m.insert(2, ());
        m.remove(1);
        m.remove(2); // base advances past 2
        m.insert(1, ());
    }

    // ---- 3-state slot lifecycle --------------------------------------
    // Each slot moves Vacant -> Occupied -> Retired; the window base only
    // ever advances past a Retired prefix. The tests below pin each legal
    // transition and the illegal ones.

    #[test]
    fn occupied_slot_replacement_keeps_len() {
        let mut m = IdMap::new();
        assert_eq!(m.insert(3, "first"), None);
        // Occupied -> Occupied is a replacement, not a second entry.
        assert_eq!(m.insert(3, "second"), Some("first"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(3), Some(&"second"));
    }

    #[test]
    fn vacant_slot_survives_remove_and_still_accepts_insert() {
        let mut m = IdMap::new();
        m.insert(2, 20);
        // Id 1 is inside the window but never arrived: removing it is a
        // no-op that must NOT turn the slot into a tombstone.
        assert_eq!(m.remove(1), None);
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.get(1), Some(&10));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn tombstones_recycle_once_the_prefix_retires() {
        let mut m = IdMap::new();
        for id in 0..8u64 {
            m.insert(id, id);
        }
        // Retire out of order: 3,1,2 leave tombstones behind id 0.
        m.remove(3);
        m.remove(1);
        m.remove(2);
        assert_eq!(m.len(), 5);
        // Retiring 0 lets the base sweep the whole tombstone run.
        m.remove(0);
        assert_eq!(m.iter().map(|(id, _)| id).collect::<Vec<_>>(), [4, 5, 6, 7]);
        // The swept ids are gone for good: absent, not re-insertable.
        for id in 0..4u64 {
            assert!(!m.contains(id));
            assert_eq!(m.remove(id), None);
        }
    }

    #[test]
    #[should_panic(expected = "re-used")]
    fn tombstone_inside_window_rejects_reinsertion() {
        let mut m = IdMap::new();
        m.insert(0, ());
        m.insert(2, ());
        m.remove(2); // retired but NOT swept: id 0 still pins the window
        assert!(m.contains(0));
        m.insert(2, ());
    }

    #[test]
    fn iteration_stays_ordered_after_heavy_churn() {
        let mut m = IdMap::starting_at(100);
        for id in 100..140u64 {
            m.insert(id, id * 2);
        }
        // Retire every third id, then refill a few vacant stragglers.
        for id in (100..140u64).step_by(3) {
            m.remove(id);
        }
        m.insert(150, 300);
        m.insert(145, 290);
        let ids: Vec<u64> = m.iter().map(|(id, _)| id).collect();
        let mut expect: Vec<u64> = (100..140).filter(|id| id % 3 != 1).collect();
        expect.extend([145, 150]);
        assert_eq!(ids, expect);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "iter must be sorted");
        assert_eq!(m.len(), ids.len());
        assert!(m.iter().all(|(id, v)| *v == id * 2));
    }

    #[test]
    fn retiring_an_id_never_inserted_lets_the_window_close() {
        let bytes = |m: &IdMap<u8>| {
            let mut w = SnapWriter::new();
            m.save(&mut w);
            w.into_bytes()
        };
        let mut m = IdMap::starting_at(1);
        m.insert(1, 10);
        // Id 2 went to an entry kept elsewhere; id 4 lies past the window.
        m.retire(2);
        m.insert(3, 30);
        m.retire(4);
        // A live id, or one below the window, is left alone.
        m.retire(3);
        m.retire(0);
        assert_eq!(m.get(3), Some(&30));
        m.remove(1);
        m.remove(3);
        assert!(m.is_empty());
        assert_eq!(bytes(&m), bytes(&IdMap::starting_at(5)));
    }

    #[test]
    fn starting_at_anchor_rejects_earlier_ids() {
        let mut m = IdMap::starting_at(10);
        m.insert(10, ());
        assert!(!m.contains(9));
        assert_eq!(m.remove(9), None);
        m.remove(10);
        // Fully drained at the anchor: the window re-opens at 11.
        assert!(m.is_empty());
        m.insert(11, ());
        assert_eq!(m.iter().map(|(id, _)| id).collect::<Vec<_>>(), [11]);
    }
}
