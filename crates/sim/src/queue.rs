//! A cancellable, time-ordered event queue.
//!
//! [`TimeQueue`] is the heart of the discrete-event simulation: entries are
//! popped in non-decreasing time order, with **FIFO tie-breaking** (two
//! entries scheduled for the same instant pop in insertion order). Every
//! `push` returns a [`QueueKey`] that can later cancel the entry lazily —
//! cancelled entries are skipped on pop, which keeps cancellation cheap.
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

use crate::fasthash::FastSet;
use crate::time::SimTime;
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
    /// Seqs currently stored in `heap` (live or cancelled-but-unpruned).
    /// Seqs are the queue's own counter, so the sets hash with
    /// [`FastSet`]'s integer hasher rather than SipHash.
    in_heap: FastSet<u64>,
    /// Seqs in `heap` that have been cancelled and must be skipped.
    cancelled: FastSet<u64>,
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
            .field("cancelled", &self.cancelled.len())
            .finish()
    }
}

impl<T> TimeQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        TimeQueue {
            heap: BinaryHeap::new(),
            in_heap: FastSet::default(),
            cancelled: FastSet::default(),
            next_seq: 0,
        }
    }

    /// Schedules `value` at `time`; returns a key usable with
    /// [`cancel`](Self::cancel).
    pub fn push(&mut self, time: SimTime, value: T) -> QueueKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, value });
        self.in_heap.insert(seq);
        QueueKey(seq)
    }

    /// Cancels the entry identified by `key`.
    ///
    /// Returns `true` if the entry was still pending; `false` if it had
    /// already been popped or cancelled.
    pub fn cancel(&mut self, key: QueueKey) -> bool {
        if !self.in_heap.contains(&key.0) || self.cancelled.contains(&key.0) {
            return false;
        }
        self.cancelled.insert(key.0);
        true
    }

    /// Removes and returns the earliest live entry.
    pub fn pop(&mut self) -> Option<Popped<T>> {
        while let Some(entry) = self.heap.pop() {
            self.in_heap.remove(&entry.seq);
            if self.cancelled.remove(&entry.seq) {
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
            if self.cancelled.contains(&top.seq) {
                let e = self.heap.pop().expect("peeked entry exists");
                self.in_heap.remove(&e.seq);
                self.cancelled.remove(&e.seq);
            } else {
                break;
            }
        }
    }

    /// Number of live (non-cancelled) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.in_heap.len() - self.cancelled.len()
    }

    /// Whether no live entries remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry, preserving allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
        self.in_heap.clear();
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
