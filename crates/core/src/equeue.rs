//! The kernel event queue (paper §III-C1).
//!
//! "An event queue arranges all the events based on the predicted time. The
//! event queue supports regular queue APIs": `push`, `pop` (earliest
//! predicted, removed), `top` (earliest predicted, kept), `remove`
//! (regardless of predicted time), and `lookup`.
//!
//! Ordering is by `(predicted, insertion-order)` so same-instant predictions
//! keep registration order — the property the dispatcher's determinism
//! rests on.
//!
//! This total order is also what licenses the kernel's happens-before
//! announcements: because the serialized dispatcher releases events strictly
//! in this order and waits for each task body to finish, consecutive
//! dispatched tasks on a thread really are ordered, and the kernel may emit
//! a [`DispatchChain`](jsk_browser::trace::EdgeKind::DispatchChain) edge
//! between them for the race detector to credit.
//!
//! # Representation
//!
//! The ordered index is a binary min-heap of `(predicted, seq, token)`
//! entries with *lazy deletion*: [`remove`](KernelEventQueue::remove) only
//! deletes from the authoritative `events` map, leaving a stale heap entry
//! behind to be discarded when it surfaces. A stale entry is detected by a
//! sequence-number mismatch (each push gets a globally unique `seq`, so a
//! token re-pushed after removal never aliases its old entry). Every `&mut
//! self` operation restores the invariant **the heap head, if any, is
//! live**, which is what lets [`top`](KernelEventQueue::top) peek through
//! `&self` without mutation. Compared to the previous `BTreeMap` index this
//! makes push/pop O(log n) with no per-node allocation or rebalancing on
//! the dispatch hot path. The token map uses the deterministic integer
//! hasher ([`jsk_sim::fasthash`]): tokens are kernel-assigned, never
//! attacker-controlled, so SipHash would be pure overhead on every
//! push/confirm/remove.

use crate::kevent::{KEventStatus, KernelEvent};
use jsk_browser::ids::EventToken;
use jsk_sim::fasthash::FastMap;
use jsk_sim::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry ordering events by `(predicted, seq)`, smallest first.
/// `token` rides along for the `events`-map lookup and never participates
/// in the ordering (the unique `seq` already breaks all ties).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    predicted: SimTime,
    seq: u64,
    token: EventToken,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the queue wants min-first.
        (other.predicted, other.seq).cmp(&(self.predicted, self.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A queue of kernel events ordered by predicted time.
#[derive(Debug, Default)]
pub struct KernelEventQueue {
    heap: BinaryHeap<HeapEntry>,
    events: FastMap<EventToken, (KernelEvent, u64)>,
    next_seq: u64,
}

impl KernelEventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> KernelEventQueue {
        KernelEventQueue::default()
    }

    /// Whether a heap entry still refers to a stored event. The seq check
    /// (not just presence) guards against a token that was removed and
    /// pushed again: the re-push gets a fresh seq, so the old entry stays
    /// stale.
    fn is_live(&self, entry: &HeapEntry) -> bool {
        self.events
            .get(&entry.token)
            .is_some_and(|&(_, seq)| seq == entry.seq)
    }

    /// Discards stale heads until the heap head is live (or the heap is
    /// empty) — the invariant every `&mut self` method re-establishes.
    fn fix_head(&mut self) {
        while let Some(&entry) = self.heap.peek() {
            if self.is_live(&entry) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Pushes an event, ordered by its predicted time.
    ///
    /// # Panics
    ///
    /// Panics if an event with the same token is already queued — tokens are
    /// unique per registration, so this is a kernel logic error.
    pub fn push(&mut self, event: KernelEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = HeapEntry {
            predicted: event.predicted,
            seq,
            token: event.token,
        };
        let token = event.token;
        assert!(
            self.events.insert(token, (event, seq)).is_none(),
            "kernel event {token} pushed twice"
        );
        // The new entry is live; a live head stays live — no fix needed.
        self.heap.push(entry);
    }

    /// Bounded push: refuses (returning the event) when the queue already
    /// holds `capacity` events. A `capacity` of 0 means unbounded.
    ///
    /// # Errors
    ///
    /// Returns the event back when the queue is full, so the caller can
    /// apply its overflow policy instead of growing without bound.
    pub fn try_push(&mut self, event: KernelEvent, capacity: usize) -> Result<(), KernelEvent> {
        if capacity > 0 && self.events.len() >= capacity {
            return Err(event);
        }
        self.push(event);
        Ok(())
    }

    /// The earliest event, kept in the queue (the paper's `top` API).
    #[must_use]
    pub fn top(&self) -> Option<&KernelEvent> {
        self.heap
            .peek()
            .map(|entry| &self.events.get(&entry.token).expect("heap head is live").0)
    }

    /// Removes and returns the earliest event (the paper's `pop` API).
    pub fn pop(&mut self) -> Option<KernelEvent> {
        let entry = self.heap.pop()?;
        let (event, _) = self.events.remove(&entry.token).expect("heap head is live");
        self.fix_head();
        Some(event)
    }

    /// Removes an event by token regardless of predicted time (the paper's
    /// `remove` API). The heap entry is left behind as a stale tombstone,
    /// discarded lazily when it reaches the head.
    pub fn remove(&mut self, token: EventToken) -> Option<KernelEvent> {
        let (event, _) = self.events.remove(&token)?;
        self.fix_head();
        Some(event)
    }

    /// Looks up an event by token (the paper's `lookup`, used by
    /// confirmation: `event_queue.lookup(e.command).status = "confirmed"`).
    #[must_use]
    pub fn lookup(&self, token: EventToken) -> Option<&KernelEvent> {
        self.events.get(&token).map(|(e, _)| e)
    }

    /// Mutable lookup by token.
    pub fn lookup_mut(&mut self, token: EventToken) -> Option<&mut KernelEvent> {
        self.events.get_mut(&token).map(|(e, _)| e)
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether any queued event is confirmed — i.e. whether a pending head
    /// is actively blocking ready work (the watchdog's arming condition).
    #[must_use]
    pub fn has_confirmed(&self) -> bool {
        self.events
            .values()
            .any(|(e, _)| e.status == KEventStatus::Confirmed)
    }

    /// Marks every live (pending or confirmed) event cancelled and returns
    /// how many were hit — orphan reaping when the owning thread dies.
    pub fn cancel_live(&mut self) -> u64 {
        let mut n = 0;
        for (e, _) in self.events.values_mut() {
            if e.is_live() {
                e.status = KEventStatus::Cancelled;
                n += 1;
            }
        }
        n
    }

    /// The queued events in dispatch order (invariant-checker view). The
    /// order follows the *heap keys* (predicted time at push), so an event
    /// whose record was mutated in place after push shows up out of order —
    /// exactly the index/record divergence invariant 1 exists to catch.
    /// Sorts a fresh snapshot: a debug/checker path, never the dispatch hot
    /// loop.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &KernelEvent> + '_ {
        let mut entries: Vec<HeapEntry> = self
            .heap
            .iter()
            .copied()
            .filter(|e| self.is_live(e))
            .collect();
        entries.sort_by_key(|e| (e.predicted, e.seq));
        entries
            .into_iter()
            .map(move |e| &self.events.get(&e.token).expect("live entry is stored").0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_browser::event::AsyncKind;
    use jsk_browser::ids::ThreadId;

    fn ev(token: u64, predicted_ms: u64) -> KernelEvent {
        KernelEvent::pending(
            EventToken::new(token),
            ThreadId::new(0),
            AsyncKind::Raf,
            SimTime::from_millis(predicted_ms),
        )
    }

    /// The dispatcher's `top`/`pop` loop without its watchdog and
    /// deferral: discards cancelled and dispatched heads, releases
    /// confirmed ones in order, and stops at the first pending head.
    fn drain_vec(q: &mut KernelEventQueue) -> Vec<KernelEvent> {
        let mut out = Vec::new();
        while let Some(head) = q.top() {
            match head.status {
                KEventStatus::Pending => break,
                KEventStatus::Cancelled | KEventStatus::Dispatched => {
                    q.pop();
                }
                KEventStatus::Confirmed => {
                    let mut e = q.pop().expect("top exists");
                    e.status = KEventStatus::Dispatched;
                    out.push(e);
                }
            }
        }
        out
    }

    #[test]
    fn pop_returns_earliest_predicted() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 30));
        q.push(ev(2, 10));
        q.push(ev(3, 20));
        assert_eq!(q.pop().unwrap().token, EventToken::new(2));
        assert_eq!(q.pop().unwrap().token, EventToken::new(3));
        assert_eq!(q.pop().unwrap().token, EventToken::new(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn top_keeps_event_in_queue() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 5));
        assert_eq!(q.top().unwrap().token, EventToken::new(1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn same_prediction_keeps_insertion_order() {
        let mut q = KernelEventQueue::new();
        for i in 0..5 {
            q.push(ev(i, 7));
        }
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().token, EventToken::new(i));
        }
    }

    #[test]
    fn remove_works_regardless_of_position() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 10));
        q.push(ev(2, 20));
        q.push(ev(3, 30));
        let removed = q.remove(EventToken::new(2)).unwrap();
        assert_eq!(removed.predicted, SimTime::from_millis(20));
        assert_eq!(q.len(), 2);
        assert!(q.remove(EventToken::new(2)).is_none());
    }

    #[test]
    fn remove_head_keeps_top_live() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 10));
        q.push(ev(2, 20));
        // Removing the head leaves a stale heap entry; `top` must see
        // through it without mutation.
        q.remove(EventToken::new(1)).unwrap();
        assert_eq!(q.top().unwrap().token, EventToken::new(2));
        assert_eq!(q.pop().unwrap().token, EventToken::new(2));
        assert!(q.top().is_none());
    }

    #[test]
    fn repush_after_remove_is_not_aliased_by_stale_entry() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 10));
        q.push(ev(2, 20));
        q.remove(EventToken::new(1)).unwrap();
        // Re-push token 1 at a *later* time: the stale (10 ms) entry must
        // not make it surface early.
        q.push(ev(1, 30));
        assert_eq!(q.pop().unwrap().token, EventToken::new(2));
        let last = q.pop().unwrap();
        assert_eq!(last.token, EventToken::new(1));
        assert_eq!(last.predicted, SimTime::from_millis(30));
        assert!(q.is_empty());
    }

    #[test]
    fn lookup_and_mutate_status() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 10));
        q.lookup_mut(EventToken::new(1)).unwrap().status = KEventStatus::Confirmed;
        assert_eq!(
            q.lookup(EventToken::new(1)).unwrap().status,
            KEventStatus::Confirmed
        );
    }

    #[test]
    fn drain_stops_at_pending_head() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 10));
        q.push(ev(2, 20));
        q.push(ev(3, 30));
        // Confirm #2 and #3 but not #1 — nothing may dispatch.
        q.lookup_mut(EventToken::new(2)).unwrap().status = KEventStatus::Confirmed;
        q.lookup_mut(EventToken::new(3)).unwrap().status = KEventStatus::Confirmed;
        assert!(drain_vec(&mut q).is_empty());
        // Confirm #1 — all three go out in predicted order.
        q.lookup_mut(EventToken::new(1)).unwrap().status = KEventStatus::Confirmed;
        let out = drain_vec(&mut q);
        let tokens: Vec<u64> = out.iter().map(|e| e.token.index()).collect();
        assert_eq!(tokens, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_discards_cancelled_head() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 10));
        q.push(ev(2, 20));
        q.lookup_mut(EventToken::new(1)).unwrap().status = KEventStatus::Cancelled;
        q.lookup_mut(EventToken::new(2)).unwrap().status = KEventStatus::Confirmed;
        let out = drain_vec(&mut q);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, EventToken::new(2));
    }

    #[test]
    fn try_push_succeeds_again_after_remove_frees_capacity() {
        let mut q = KernelEventQueue::new();
        assert!(q.try_push(ev(1, 10), 2).is_ok());
        assert!(q.try_push(ev(2, 20), 2).is_ok());
        assert!(q.try_push(ev(3, 30), 2).is_err());
        // Removing under a stale heap entry must free a capacity slot.
        q.remove(EventToken::new(1)).unwrap();
        assert!(q.try_push(ev(3, 5), 2).is_ok());
        // The re-admitted event's *new* prediction wins, not any stale
        // ordering: it surfaces first despite being pushed last.
        assert_eq!(q.pop().unwrap().token, EventToken::new(3));
        assert_eq!(q.pop().unwrap().token, EventToken::new(2));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn duplicate_push_panics() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 10));
        q.push(ev(1, 20));
    }

    #[test]
    fn try_push_respects_capacity() {
        let mut q = KernelEventQueue::new();
        assert!(q.try_push(ev(1, 10), 2).is_ok());
        assert!(q.try_push(ev(2, 20), 2).is_ok());
        let rejected = q.try_push(ev(3, 30), 2).unwrap_err();
        assert_eq!(rejected.token, EventToken::new(3));
        assert_eq!(q.len(), 2);
        // Capacity 0 means unbounded.
        assert!(q.try_push(ev(3, 30), 0).is_ok());
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn has_confirmed_sees_non_head_confirmations() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 10));
        q.push(ev(2, 20));
        assert!(!q.has_confirmed());
        q.lookup_mut(EventToken::new(2)).unwrap().status = KEventStatus::Confirmed;
        assert!(q.has_confirmed());
    }

    #[test]
    fn cancel_live_skips_dispatched() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 10));
        q.push(ev(2, 20));
        q.push(ev(3, 30));
        q.lookup_mut(EventToken::new(1)).unwrap().status = KEventStatus::Dispatched;
        q.lookup_mut(EventToken::new(2)).unwrap().status = KEventStatus::Confirmed;
        assert_eq!(q.cancel_live(), 2);
        assert_eq!(
            q.lookup(EventToken::new(3)).unwrap().status,
            KEventStatus::Cancelled
        );
        assert_eq!(
            q.lookup(EventToken::new(1)).unwrap().status,
            KEventStatus::Dispatched
        );
    }

    #[test]
    fn iter_in_order_follows_predicted_time() {
        let mut q = KernelEventQueue::new();
        q.push(ev(1, 30));
        q.push(ev(2, 10));
        q.push(ev(3, 20));
        let tokens: Vec<u64> = q.iter_in_order().map(|e| e.token.index()).collect();
        assert_eq!(tokens, vec![2, 3, 1]);
    }

    /// Reference model: the previous `BTreeMap<(SimTime, seq)>` index.
    /// Drives both implementations through the same pseudo-random op
    /// sequence and asserts every observable output matches — same-time
    /// FIFO tie-breaks, head skipping, removes, drains.
    #[test]
    fn equivalence_with_ordered_map_model() {
        use std::collections::{BTreeMap, HashMap};

        #[derive(Default)]
        struct Model {
            order: BTreeMap<(SimTime, u64), EventToken>,
            events: HashMap<EventToken, (KernelEvent, u64)>,
            next_seq: u64,
        }
        impl Model {
            fn push(&mut self, event: KernelEvent) {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.order.insert((event.predicted, seq), event.token);
                self.events.insert(event.token, (event, seq));
            }
            fn pop(&mut self) -> Option<KernelEvent> {
                let (&key, &token) = self.order.iter().next()?;
                self.order.remove(&key);
                Some(self.events.remove(&token).unwrap().0)
            }
            fn top_token(&self) -> Option<EventToken> {
                self.order.values().next().copied()
            }
            fn remove(&mut self, token: EventToken) -> Option<KernelEvent> {
                let (event, seq) = self.events.remove(&token)?;
                self.order.remove(&(event.predicted, seq));
                Some(event)
            }
            fn set_status(&mut self, token: EventToken, s: KEventStatus) -> bool {
                match self.events.get_mut(&token) {
                    Some((e, _)) => {
                        e.status = s;
                        true
                    }
                    None => false,
                }
            }
            fn drain(&mut self) -> Vec<KernelEvent> {
                let mut out = Vec::new();
                while let Some(tok) = self.top_token() {
                    let status = self.events[&tok].0.status;
                    match status {
                        KEventStatus::Pending => break,
                        KEventStatus::Cancelled | KEventStatus::Dispatched => {
                            self.pop();
                        }
                        KEventStatus::Confirmed => {
                            let mut e = self.pop().unwrap();
                            e.status = KEventStatus::Dispatched;
                            out.push(e);
                        }
                    }
                }
                out
            }
        }

        let mut q = KernelEventQueue::new();
        let mut m = Model::default();
        // Deterministic LCG so the op mix is reproducible.
        let mut state = 0x5DEECE66Du64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut next_token = 0u64;
        for _ in 0..2000 {
            match rand() % 6 {
                // Push with a coarse time so same-time ties are common.
                0 | 1 => {
                    let t = ev(next_token, u64::from(rand() % 8));
                    next_token += 1;
                    q.push(t);
                    m.push(t);
                }
                2 => {
                    let tok = EventToken::new(u64::from(rand()) % next_token.max(1));
                    assert_eq!(q.remove(tok), m.remove(tok));
                }
                3 => {
                    let tok = EventToken::new(u64::from(rand()) % next_token.max(1));
                    let s = match rand() % 3 {
                        0 => KEventStatus::Confirmed,
                        1 => KEventStatus::Cancelled,
                        _ => KEventStatus::Dispatched,
                    };
                    let in_model = m.set_status(tok, s);
                    match q.lookup_mut(tok) {
                        Some(e) => {
                            assert!(in_model);
                            e.status = s;
                        }
                        None => assert!(!in_model),
                    }
                }
                4 => assert_eq!(drain_vec(&mut q), m.drain()),
                _ => assert_eq!(q.pop(), m.pop()),
            }
            assert_eq!(q.top().map(|e| e.token), m.top_token());
            assert_eq!(q.len(), m.events.len());
        }
        // Drain both to the end: full order must agree.
        while let Some(e) = m.pop() {
            assert_eq!(q.pop(), Some(e));
        }
        assert!(q.pop().is_none());
    }
}
