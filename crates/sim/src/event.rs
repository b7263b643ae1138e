//! The pending-event queue.
//!
//! A thin wrapper over `BinaryHeap` that delivers events in `(time, seq)`
//! order: earliest timestamp first, and among equal timestamps, insertion
//! order. The sequence number is what makes simulations deterministic — two
//! events scheduled for the same instant are never reordered by heap
//! internals.

use crate::time::SimTime;
use crate::trace::Provenance;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
    /// Causal provenance captured when the event was scheduled; restored
    /// as the tracer's ambient provenance when the event is dispatched,
    /// so spans and cause anchors ride along with messages.
    prov: Provenance,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic priority queue of timestamped events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
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
        }
    }

    /// Schedules `event` at absolute time `time` with root (empty)
    /// provenance.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_with(time, event, Provenance::ROOT);
    }

    /// Schedules `event` at absolute time `time`, carrying `prov` so the
    /// dispatching engine can restore the scheduler's causal context.
    pub fn push_with(&mut self, time: SimTime, event: E, prov: Provenance) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            seq,
            event,
            prov,
        });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Like [`EventQueue::pop`], but also returns the provenance the
    /// event was scheduled with.
    pub fn pop_full(&mut self) -> Option<(SimTime, E, Provenance)> {
        self.heap.pop().map(|e| (e.time, e.event, e.prov))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), "c");
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn provenance_rides_along_with_events() {
        let mut q = EventQueue::new();
        let p = Provenance {
            span: Some(4),
            cause: Some(9),
        };
        q.push_with(SimTime::from_micros(2), "b", p);
        q.push(SimTime::from_micros(1), "a");
        assert_eq!(
            q.pop_full(),
            Some((SimTime::from_micros(1), "a", Provenance::ROOT))
        );
        assert_eq!(q.pop_full(), Some((SimTime::from_micros(2), "b", p)));
        assert_eq!(q.pop_full(), None);
    }
}
