//! A cancellable, time-ordered event queue.
//!
//! [`TimeQueue`] is the heart of the discrete-event simulation: entries are
//! popped in non-decreasing time order, with **FIFO tie-breaking** (two
//! entries scheduled for the same instant pop in insertion order). Every
//! `push` returns a [`QueueKey`] that can later cancel the entry lazily —
//! cancelled entries are skipped on pop, which keeps cancellation cheap.
//! Keys are the queue's own monotonic counter, so each entry's
//! live-or-cancelled flag sits in a dense seq-indexed [`TokenTable`]:
//! push, pop and cancel hash nothing.
//!
//! # Examples
//!
//! ```
//! use jsk_sim::queue::TimeQueue;
//! use jsk_sim::time::SimTime;
//!
//! let mut q = TimeQueue::new();
//! let _a = q.push(SimTime::from_millis(5), "later");
//! let b = q.push(SimTime::from_millis(1), "sooner");
//! let _c = q.push(SimTime::from_millis(1), "same-instant, after b");
//!
//! assert_eq!(q.pop().unwrap().value, "sooner");
//! assert_eq!(q.pop().unwrap().value, "same-instant, after b");
//! assert_eq!(q.pop().unwrap().value, "later");
//! assert!(q.pop().is_none());
//! # let _ = b;
//! ```

use crate::time::SimTime;
use crate::token_table::TokenTable;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Handle returned by [`TimeQueue::push`], used to cancel the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueKey(u64);

impl QueueKey {
    /// The raw sequence number backing this key.
    #[must_use]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for QueueKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QueueKey#{}", self.0)
    }
}

/// An entry popped from a [`TimeQueue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Popped<T> {
    /// The instant the entry was scheduled for.
    pub time: SimTime,
    /// The key that was returned when the entry was pushed.
    pub key: QueueKey,
    /// The scheduled payload.
    pub value: T,
}

struct Entry<T> {
    time: SimTime,
    seq: u64,
    value: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-heap of `(time, insertion-order)`-ordered entries with lazy
/// cancellation.
///
/// Invariants maintained:
/// * [`len`](Self::len) always equals the number of pushed-but-not-yet
///   popped-or-cancelled entries;
/// * [`cancel`](Self::cancel) on an already popped or already cancelled key
///   returns `false` and changes nothing.
pub struct TimeQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// One flag per seq stored in `heap`: `true` once the entry is
    /// cancelled (it is skipped and dropped when it surfaces). A seq that
    /// was popped or pruned has no flag.
    in_heap: TokenTable<bool>,
    /// How many flags in `in_heap` are `true`.
    cancelled: usize,
    next_seq: u64,
}

impl<T> Default for TimeQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for TimeQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeQueue")
            .field("live", &self.len())
            .field("heap_len", &self.heap.len())
            .field("cancelled", &self.cancelled)
            .finish()
    }
}

impl<T> TimeQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        TimeQueue {
            heap: BinaryHeap::new(),
            in_heap: TokenTable::new(),
            cancelled: 0,
            next_seq: 0,
        }
    }

    /// Schedules `value` at `time`; returns a key usable with
    /// [`cancel`](Self::cancel).
    pub fn push(&mut self, time: SimTime, value: T) -> QueueKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, value });
        self.in_heap.insert(seq, false);
        QueueKey(seq)
    }

    /// Cancels the entry identified by `key`.
    ///
    /// Returns `true` if the entry was still pending; `false` if it had
    /// already been popped or cancelled.
    pub fn cancel(&mut self, key: QueueKey) -> bool {
        match self.in_heap.get_mut(key.0) {
            Some(cancelled @ false) => {
                *cancelled = true;
                self.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest live entry.
    pub fn pop(&mut self) -> Option<Popped<T>> {
        while let Some(entry) = self.heap.pop() {
            if self.take_flag(entry.seq) {
                continue;
            }
            return Some(Popped {
                time: entry.time,
                key: QueueKey(entry.seq),
                value: entry.value,
            });
        }
        None
    }

    /// The instant of the earliest live entry, if any.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.prune();
        self.heap.peek().map(|e| e.time)
    }

    /// Discards cancelled entries sitting at the top of the heap.
    fn prune(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.in_heap.get(top.seq) == Some(&true) {
                let e = self.heap.pop().expect("peeked entry exists");
                self.take_flag(e.seq);
            } else {
                break;
            }
        }
    }

    /// Removes the flag of an entry leaving the heap; returns whether the
    /// entry was cancelled.
    fn take_flag(&mut self, seq: u64) -> bool {
        let cancelled = self
            .in_heap
            .remove(seq)
            .expect("every heap entry has a flag");
        if cancelled {
            self.cancelled -= 1;
        }
        cancelled
    }

    /// Number of live (non-cancelled) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.in_heap.len() - self.cancelled
    }

    /// Whether no live entries remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry, preserving allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.in_heap.clear();
        self.cancelled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = TimeQueue::new();
        q.push(ms(3), 'c');
        q.push(ms(1), 'a');
        q.push(ms(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|p| p.value)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = TimeQueue::new();
        for i in 0..10 {
            q.push(ms(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|p| p.value)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_skips_entry_and_updates_len() {
        let mut q = TimeQueue::new();
        let a = q.push(ms(1), "a");
        let b = q.push(ms(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(a), "double cancel must report false");
        let popped = q.pop().unwrap();
        assert_eq!(popped.value, "b");
        assert_eq!(popped.key, b);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_pop_reports_false() {
        let mut q = TimeQueue::new();
        let a = q.push(ms(1), ());
        q.pop().unwrap();
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_unknown_key_reports_false() {
        let mut q = TimeQueue::<()>::new();
        assert!(!q.cancel(QueueKey(99)));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = TimeQueue::new();
        let a = q.push(ms(1), "a");
        q.push(ms(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(ms(5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = TimeQueue::new();
        q.push(ms(1), 1);
        q.push(ms(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn popped_time_matches_schedule() {
        let mut q = TimeQueue::new();
        q.push(ms(42), "x");
        let p = q.pop().unwrap();
        assert_eq!(p.time, ms(42));
    }

    /// Seeded push/cancel/pop/`peek_time` sequences against an ordered
    /// map keyed by `(time, seq)`: the same pops, the same `cancel`
    /// answers and the same `len` at every step. Cancels target live,
    /// popped and already-cancelled keys alike, and far-future entries
    /// pin old seqs while the window slides past them.
    #[test]
    fn matches_an_ordered_map_model() {
        use crate::rng::SimRng;
        use std::collections::BTreeMap;
        for seed in 0..40u64 {
            let mut rng = SimRng::new(seed);
            let mut q = TimeQueue::new();
            let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
            let mut keys: Vec<(QueueKey, SimTime)> = Vec::new();
            let mut now = 0u64;
            for step in 0..3_000u64 {
                match rng.range_u64(0, 10) {
                    0..=3 => {
                        let at = if rng.chance(0.02) {
                            now + 1_000_000
                        } else {
                            now + rng.range_u64(0, 20)
                        };
                        let time = ms(at);
                        let key = q.push(time, step);
                        model.insert((time, key.index()), step);
                        keys.push((key, time));
                    }
                    4..=5 if !keys.is_empty() => {
                        let (key, time) = keys[rng.index(keys.len())];
                        let live = model.remove(&(time, key.index())).is_some();
                        assert_eq!(q.cancel(key), live, "seed {seed} step {step}");
                    }
                    6 => {
                        let expected = model.keys().next().map(|&(t, _)| t);
                        assert_eq!(q.peek_time(), expected, "seed {seed} step {step}");
                    }
                    _ => {
                        let expected = model.pop_first();
                        let got = q.pop();
                        assert_eq!(
                            got.map(|p| (p.time, p.key.index(), p.value)),
                            expected.map(|((t, seq), v)| (t, seq, v)),
                            "seed {seed} step {step}"
                        );
                        if let Some(((t, _), _)) = expected {
                            now = t.as_nanos() / 1_000_000;
                        }
                    }
                }
                assert_eq!(q.len(), model.len(), "seed {seed} step {step}");
            }
            while let Some(p) = q.pop() {
                let ((t, seq), v) = model.pop_first().expect("model has the entry");
                assert_eq!((p.time, p.key.index(), p.value), (t, seq, v));
            }
            assert!(model.is_empty());
            assert!(q.is_empty());
        }
    }

    #[test]
    fn interleaved_push_pop_cancel_keeps_len_exact() {
        let mut q = TimeQueue::new();
        let mut keys = Vec::new();
        for i in 0..100u64 {
            keys.push(q.push(ms(i % 13), i));
        }
        // Cancel every third entry.
        let mut expected = 100usize;
        for (i, k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*k));
                expected -= 1;
            }
        }
        assert_eq!(q.len(), expected);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, expected);
    }
}
