//! Dense per-token state: the hashing-free table behind the simulator's
//! and the kernel's point-lookup bookkeeping.
//!
//! The kernel keeps a small record per live asynchronous event (owning
//! thread, predicted instant) and per in-flight network request; the
//! browser maps its animation-frame, request and worker ids to the event
//! tokens and scripts they own. Those keys are **monotonic** integers the
//! simulator assigns itself (an event token, a request id or a worker id
//! is never reused), and at any instant the live keys form a narrow,
//! mostly-contiguous window of that integer line. [`TokenTable`] exploits
//! that shape:
//!
//! * a power-of-two ring of slots, direct-indexed by `key & mask` — the
//!   common case is one load, no hashing;
//! * each slot stores its full key, so a stale slot (an older key that
//!   happens to alias the same ring position) can never satisfy a lookup
//!   for a newer key — the moral equivalent of a sequence check or a
//!   slab's generation tag;
//! * when a *live* older key would be overwritten by an aliasing insert
//!   (a straggler pinned far behind the window — e.g. an event whose
//!   raw trigger was swallowed by fault injection), the straggler is
//!   demoted to a small overflow `FastMap` rather than lost; lookups
//!   consult the ring first and the overflow only on a key mismatch;
//! * the ring doubles only while the **live population** grows (warmup);
//!   in steady state the window slides through the ring with zero
//!   allocation, however many total events pass through.
//!
//! Determinism: the table is never iterated on any output path — reads
//! are point lookups, so nothing observable depends on slot placement.

use crate::fasthash::FastMap;

/// Ring capacity (slots) at the first insert. Large enough that typical
/// pages never grow past warmup. The ring is allocated by that first
/// insert, so a table that never receives a key costs no allocation.
const INITIAL_SLOTS: usize = 256;

/// Ring occupancy (live entries vs. slots) beyond which the ring doubles.
/// Kept low so aliasing demotions stay rare even for bursty windows.
const GROW_NUM: usize = 1;
const GROW_DEN: usize = 2;

/// A dense map from a monotonically-assigned integer id to a small value.
///
/// See the module docs for the layout. `V` is the per-event payload; keys
/// are the raw `u64` behind the id newtypes (`EventToken::index()` …).
#[derive(Debug, Clone)]
pub struct TokenTable<V> {
    /// Power-of-two ring (empty until the first insert); `None` = vacant.
    slots: Box<[Option<(u64, V)>]>,
    /// Live stragglers demoted by an aliasing insert.
    overflow: FastMap<u64, V>,
    /// Live entries across ring + overflow.
    live: usize,
}

impl<V> Default for TokenTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> TokenTable<V> {
    /// Creates an empty table. It allocates nothing until the first insert.
    #[must_use]
    pub fn new() -> TokenTable<V> {
        TokenTable {
            slots: Box::default(),
            overflow: FastMap::default(),
            live: 0,
        }
    }

    /// The ring position of `key`. Before the ring is allocated the mask
    /// is all ones, so the position is out of range and lookups miss.
    #[inline]
    fn pos(&self, key: u64) -> usize {
        (key as usize) & self.slots.len().wrapping_sub(1)
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Entries parked in the overflow map (diagnostics / tests).
    #[must_use]
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Ring capacity in slots; zero before the first insert (diagnostics /
    /// tests).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Inserts `value` under `key`, returning the previous value if the
    /// key was already present.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if self.live + 1 > self.slots.len() * GROW_NUM / GROW_DEN {
            self.grow();
        }
        let pos = self.pos(key);
        match &mut self.slots[pos] {
            slot @ None => {
                *slot = Some((key, value));
                self.live += 1;
                None
            }
            Some((k, v)) if *k == key => Some(std::mem::replace(v, value)),
            Some(_) => {
                // The slot is held by a live aliasing key. Keep the ring
                // slot for the *newer* key (the one the hot window is
                // about to operate on) and demote the older one.
                let (old_k, old_v) = self.slots[pos].take().expect("slot occupied");
                let evicted = if old_k < key {
                    self.slots[pos] = Some((key, value));
                    Some((old_k, old_v))
                } else {
                    // Inserting a key older than the resident: the resident
                    // stays hot, the insert goes straight to overflow.
                    self.slots[pos] = Some((old_k, old_v));
                    Some((key, value))
                };
                let (ek, ev) = evicted.expect("one entry demoted");
                let prior = self.overflow.insert(ek, ev);
                debug_assert!(prior.is_none(), "demoted key already in overflow");
                self.live += 1;
                None
            }
        }
    }

    /// Looks up `key`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&V> {
        match self.slots.get(self.pos(key)) {
            Some(Some((k, v))) if *k == key => Some(v),
            _ => self.overflow.get(&key),
        }
    }

    /// Looks up `key` mutably.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let pos = self.pos(key);
        // Split the borrow by checking the key first.
        if matches!(self.slots.get(pos), Some(Some((k, _))) if *k == key) {
            return self.slots[pos].as_mut().map(|(_, v)| v);
        }
        self.overflow.get_mut(&key)
    }

    /// Whether `key` is live.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let pos = self.pos(key);
        if matches!(self.slots.get(pos), Some(Some((k, _))) if *k == key) {
            let (_, v) = self.slots[pos].take().expect("checked occupied");
            self.live -= 1;
            return Some(v);
        }
        let v = self.overflow.remove(&key);
        if v.is_some() {
            self.live -= 1;
        }
        v
    }

    /// Allocates the ring at [`INITIAL_SLOTS`], or doubles it, and re-places
    /// every live entry (including any overflow stragglers that no longer
    /// alias at the new size).
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(INITIAL_SLOTS);
        let old_slots = std::mem::replace(&mut self.slots, (0..new_len).map(|_| None).collect());
        let old_overflow = std::mem::take(&mut self.overflow);
        self.live = 0;
        for entry in old_slots.into_vec().into_iter().flatten() {
            self.insert(entry.0, entry.1);
        }
        for (k, v) in old_overflow {
            self.insert(k, v);
        }
    }

    /// Visits every live entry (tests only; visit order is unspecified
    /// and must never feed an output path).
    pub fn for_each(&self, mut f: impl FnMut(u64, &V)) {
        for entry in self.slots.iter().flatten() {
            f(entry.0, &entry.1);
        }
        for (k, v) in &self.overflow {
            f(*k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = TokenTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(5, "a"), None);
        assert_eq!(t.insert(5, "b"), Some("a"), "re-insert returns old");
        assert_eq!(t.get(5), Some(&"b"));
        assert!(t.contains(5));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(5), Some("b"));
        assert_eq!(t.remove(5), None);
        assert!(t.get(5).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn ring_is_allocated_by_the_first_insert() {
        let mut t: TokenTable<u64> = TokenTable::new();
        assert_eq!(t.capacity(), 0);
        assert_eq!(t.get(7), None);
        assert_eq!(t.get_mut(7), None);
        assert_eq!(t.remove(7), None);
        t.insert(7, 70);
        assert_eq!(t.capacity(), INITIAL_SLOTS);
        assert_eq!(t.get(7), Some(&70));
    }

    #[test]
    fn stale_slot_never_answers_for_a_new_key() {
        let mut t = TokenTable::new();
        let cap = INITIAL_SLOTS as u64;
        t.insert(3, 30);
        t.remove(3);
        // Key 3 + cap aliases the vacated slot; the old key must be gone.
        t.insert(3 + cap, 42);
        assert_eq!(t.get(3), None, "stale key revived by aliasing slot");
        assert_eq!(t.get(3 + cap), Some(&42));
    }

    #[test]
    fn aliasing_live_keys_coexist_via_overflow() {
        let mut t = TokenTable::new();
        let cap = INITIAL_SLOTS as u64;
        t.insert(7, "old");
        t.insert(7 + cap, "new"); // same ring position, both live
        assert_eq!(t.get(7), Some(&"old"));
        assert_eq!(t.get(7 + cap), Some(&"new"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.overflow_len(), 1, "older key demoted to overflow");
        assert_eq!(t.remove(7), Some("old"));
        assert_eq!(t.remove(7 + cap), Some("new"));
        assert!(t.is_empty());
    }

    #[test]
    fn inserting_an_older_aliasing_key_keeps_the_resident_hot() {
        let mut t = TokenTable::new();
        let cap = INITIAL_SLOTS as u64;
        t.insert(9 + cap, "resident");
        t.insert(9, "straggler");
        assert_eq!(t.get(9 + cap), Some(&"resident"));
        assert_eq!(t.get(9), Some(&"straggler"));
        assert_eq!(t.overflow_len(), 1);
    }

    #[test]
    fn sliding_window_never_grows_the_ring() {
        let mut t = TokenTable::new();
        let cap = INITIAL_SLOTS;
        // A live window of 32 sliding over 100k monotonic keys: the shape
        // of a long-running kernel in steady state.
        for k in 0..100_000u64 {
            t.insert(k, k);
            if k >= 32 {
                assert_eq!(t.remove(k - 32), Some(k - 32));
            }
        }
        assert_eq!(t.capacity(), cap, "steady window must not grow the ring");
        assert_eq!(t.overflow_len(), 0);
        assert_eq!(t.len(), 32);
    }

    #[test]
    fn growth_tracks_live_population_and_rehomes_overflow() {
        let mut t = TokenTable::new();
        let initial = INITIAL_SLOTS;
        for k in 0..1_000u64 {
            t.insert(k, k * 10);
        }
        assert!(t.capacity() > initial);
        assert_eq!(t.len(), 1_000);
        for k in 0..1_000u64 {
            assert_eq!(t.get(k), Some(&(k * 10)), "key {k} lost in growth");
        }
        assert_eq!(
            t.overflow_len(),
            0,
            "a dense contiguous window fits the grown ring exactly"
        );
    }

    #[test]
    fn remove_then_push_interleavings_with_aliasing() {
        // Straggler pinned at key 1 while the window wraps the ring many
        // times: every pass demotes/looks up across the ring+overflow
        // boundary.
        let mut t = TokenTable::new();
        let cap = INITIAL_SLOTS as u64;
        t.insert(1, u64::MAX);
        for round in 1..=8u64 {
            let k = 1 + round * cap; // always aliases the straggler's slot
            t.insert(k, round);
            assert_eq!(t.get(1), Some(&u64::MAX), "straggler lost on round {round}");
            assert_eq!(t.get(k), Some(&round));
            assert_eq!(t.remove(k), Some(round));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(1), Some(u64::MAX));
    }

    #[test]
    fn for_each_visits_ring_and_overflow() {
        let mut t = TokenTable::new();
        let cap = INITIAL_SLOTS as u64;
        t.insert(2, 1);
        t.insert(2 + cap, 2);
        t.insert(5, 3);
        let mut seen: Vec<(u64, u64)> = Vec::new();
        t.for_each(|k, v| seen.push((k, *v)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(2, 1), (5, 3), (2 + cap, 2)]);
    }
}
