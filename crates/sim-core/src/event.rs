//! Deterministic future-event list for discrete-event simulation.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`] with a strictly
//! monotone sequence number as the tie-breaker: events scheduled for the same
//! instant dequeue in the order they were scheduled, independent of heap
//! internals. This is what makes simulations bit-reproducible across runs.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle returned by [`EventQueue::schedule`]; can be used to cancel the
/// event lazily before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list with deterministic FIFO tie-breaking and O(1) lazy
/// cancellation.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    // Live (scheduled, not yet fired or cancelled) sequence numbers; the
    // source of truth for membership, so stale cancels of already-fired
    // ids are exact no-ops.
    pending: std::collections::HashSet<u64>,
    // Cancelled sequence numbers, discarded lazily when they surface.
    cancelled: std::collections::HashSet<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            pending: std::collections::HashSet::new(),
            cancelled: std::collections::HashSet::new(),
        }
    }

    /// Creates an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            pending: std::collections::HashSet::with_capacity(cap),
            cancelled: std::collections::HashSet::new(),
        }
    }

    /// Schedules `event` to fire at `time`. Returns an id usable with
    /// [`EventQueue::cancel`].
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
        self.pending.insert(seq);
        EventId(seq)
    }

    /// Cancels a previously scheduled event. Cancellation is lazy: the entry
    /// stays in the heap and is dropped when it surfaces. Cancelling an
    /// already-fired or unknown id is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        if self.pending.remove(&id.0) {
            self.cancelled.insert(id.0);
        }
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// entries.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(s) = self.heap.pop() {
            if self.cancelled.remove(&s.seq) {
                continue;
            }
            self.pending.remove(&s.seq);
            return Some((s.time, s.event));
        }
        None
    }

    /// Number of live (scheduled, not yet fired or cancelled) entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` if no live events remain.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.pending.clear();
        self.cancelled.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), "c");
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(3.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_breaking_at_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_is_noop() {
        let mut q = EventQueue::<u32>::new();
        let id = q.schedule(SimTime::ZERO, 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        q.cancel(id); // already fired
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_does_not_underflow_len() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::ZERO, 1u32);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        q.cancel(id); // stale cancel of an already-fired event
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1.0), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10.0), "late");
        q.schedule(SimTime::from_secs(1.0), "early");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(1.0), "early"));
        q.schedule(SimTime::from_secs(5.0), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }
}
