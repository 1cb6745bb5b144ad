//! Benchmark-only facade over the internal `EventQueue`.
//!
//! The queue is deliberately `pub(crate)` — simulation users schedule work
//! through [`crate::network::Context`], never by touching the scheduler
//! directly. The `benchmark/` stick is a package of its own, though, and
//! drives push/pop in isolation to time the timer wheel against its
//! event-time distribution (`simnet.queue_ns_per_event`). This thin wrapper exposes exactly that: timer
//! pushes at absolute nanosecond instants and pops observed as
//! `(at_nanos, seq)` pairs. It adds no behavior of its own, so benching
//! the wrapper is benching the queue.

use crate::event::{EventKind, EventQueue};
use crate::frame::NodeId;
use crate::time::SimTime;

/// An event queue handle for benchmarks: schedules opaque timer events.
#[derive(Debug, Default)]
pub struct BenchEventQueue(EventQueue);

impl BenchEventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BenchEventQueue(EventQueue::new())
    }

    /// Schedules a timer event at the absolute instant `at_nanos`.
    pub fn push_timer(&mut self, at_nanos: u64, token: u64) {
        self.0.push(
            SimTime::from_nanos(at_nanos),
            EventKind::Timer {
                node: NodeId::from_index(0),
                token,
            },
        );
    }

    /// Pops the earliest event, returning its `(at_nanos, seq)` stamp.
    pub fn pop(&mut self) -> Option<(u64, u64)> {
        self.0.pop().map(|e| (e.at.as_nanos(), e.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_preserves_queue_order() {
        let mut q = BenchEventQueue::new();
        q.push_timer(300, 0);
        q.push_timer(100, 1);
        q.push_timer(100, 2);
        assert_eq!(q.len(), 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(at, _)| at).collect();
        assert_eq!(order, vec![100, 100, 300]);
        assert!(q.is_empty());
    }
}
