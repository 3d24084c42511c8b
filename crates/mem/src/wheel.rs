//! Deterministic event wheel.
//!
//! A binary heap keyed by (cycle, insertion sequence): events scheduled for
//! the same cycle are processed in insertion order, which keeps the whole
//! simulator bit-deterministic. The memory system's wheel is owned by the
//! interconnect ([`crate::noc`]); the `(cycle, seq)` key is also what makes
//! the contended crossbar's arrival-order arbitration deterministic.

use crate::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // Reverse for a min-heap.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A min-heap of timed events with stable same-cycle ordering.
pub struct Wheel<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for Wheel<E> {
    fn default() -> Self {
        Wheel { heap: BinaryHeap::new(), next_seq: 0 }
    }
}

impl<E> Wheel<E> {
    /// Creates an empty wheel.
    pub fn new() -> Wheel<E> {
        Wheel::default()
    }

    /// Drops every scheduled event and restarts the same-cycle order, as
    /// [`new`](Self::new) would, keeping the heap's storage.
    pub fn reset(&mut self) {
        let Wheel { heap, next_seq } = self;
        heap.clear();
        *next_seq = 0;
    }

    /// Schedules `event` at absolute cycle `at`.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Pops the next event due at or before `now`, if any.
    pub fn pop_due(&mut self, now: Cycle) -> Option<E> {
        if self.heap.peek().map(|e| e.at <= now).unwrap_or(false) {
            // Invariant: peek() just returned Some, pop() cannot fail.
            self.heap.pop().map(|e| e.event)
        } else {
            None
        }
    }

    /// Cycle of the earliest pending event.
    pub fn next_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for Wheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wheel").field("pending", &self.heap.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut w = Wheel::new();
        w.schedule(5, "b");
        w.schedule(3, "a");
        w.schedule(9, "c");
        assert_eq!(w.pop_due(2), None);
        assert_eq!(w.pop_due(5), Some("a"));
        assert_eq!(w.pop_due(5), Some("b"));
        assert_eq!(w.pop_due(5), None);
        assert_eq!(w.next_at(), Some(9));
        assert_eq!(w.pop_due(100), Some("c"));
        assert!(w.is_empty());
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut w = Wheel::new();
        for i in 0..10 {
            w.schedule(7, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| w.pop_due(7)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }
}
