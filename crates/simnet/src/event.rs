//! The event queue driving the simulation: a timer wheel (calendar queue)
//! with an overflow heap for far-future timers.
//!
//! The queue is the hottest structure in the simulator — every frame
//! delivery and every protocol timer passes through it — so it is built
//! around the actual event-time distribution: almost all events land within
//! a few microseconds of *now* (link serialization + propagation), with a
//! thin tail of retransmit/fetch timers ~100 µs out. A `BinaryHeap` pays
//! `O(log n)` pointer-chasing per operation for that workload; the wheel
//! pays `O(1)` per push and an amortized near-`O(1)` bitmap scan per pop.
//!
//! Layout: time is quantized into `2^TICK_SHIFT`-ns ticks; the wheel keeps
//! [`WHEEL_SLOTS`] consecutive ticks as unsorted per-tick buckets guarded by
//! an occupancy bitmap. With `TICK_SHIFT = 8` and 4096 slots the window
//! spans ~1.05 ms of simulated time — wide enough for serialization,
//! propagation, and the paper's 100 µs retransmission timeout. Events
//! beyond the window wait in an overflow `BinaryHeap` and migrate into the
//! wheel as the window slides (the window only ever extends when `base_tick`
//! advances, and every advance drains the newly covered overflow prefix, so
//! a wheel event can never be ordered after a pending overflow event).
//!
//! FIFO tie-break: each push is stamped with a monotonically increasing
//! `seq`, exactly as the old heap did. A bucket is sorted by `(at, seq)`
//! when its tick becomes *current*, and same-tick pushes that arrive while
//! the current bucket drains are placed by binary search on `(at, seq)` —
//! their fresh `seq` is larger than every stamp already in the bucket, so
//! the insert degenerates to "after all equal-or-earlier events", which is
//! precisely the heap's pop order. Pop order is therefore byte-identical to
//! the old `BinaryHeap` implementation.
//!
//! Steady-state allocation: buckets and the drain buffer keep their
//! capacity across reuse (the slot array is a free-list of recycled event
//! storage), so once warmed up, push/pop allocate nothing.

use crate::frame::{Frame, NodeId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A frame arrives at `to`, having been sent by `from`.
    Deliver {
        from: NodeId,
        to: NodeId,
        frame: Frame,
    },
    /// A timer set by `node` fires with an opaque `token`.
    Timer { node: NodeId, token: u64 },
    /// Scheduled fault: `node` crashes and stops processing events.
    NodeDown { node: NodeId },
    /// Scheduled fault: `node` restarts and resumes processing events.
    NodeUp { node: NodeId },
}

#[derive(Debug)]
pub(crate) struct ScheduledEvent {
    pub(crate) at: SimTime,
    /// Tie-breaker preserving FIFO order among same-instant events.
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we need earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Wheel tick granularity: `2^TICK_SHIFT` ns (256 ns). Fine enough that a
/// bucket holds only a handful of same-burst events; coarse enough that the
/// window covers the protocol's timer horizon.
const TICK_SHIFT: u32 = 8;
/// Slots in the wheel window (power of two for mask arithmetic).
const WHEEL_SLOTS: usize = 1 << 12;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Words in the occupancy bitmap.
const WORDS: usize = WHEEL_SLOTS / 64;

/// Earliest-first queue of scheduled events with stable FIFO tie-breaking.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Events of the tick currently being drained, sorted by `(at, seq)`.
    current: VecDeque<ScheduledEvent>,
    /// Tick the `current` buffer was loaded from.
    current_tick: u64,
    /// Per-tick unsorted buckets for ticks in `[base_tick, base_tick + N)`.
    slots: Box<[Vec<ScheduledEvent>]>,
    /// One bit per slot: does the bucket hold any events?
    occupancy: [u64; WORDS],
    /// Events currently stored in wheel buckets.
    wheel_len: usize,
    /// Every tick before this one has been fully drained.
    base_tick: u64,
    /// Far-future events, beyond the wheel window.
    overflow: BinaryHeap<ScheduledEvent>,
    len: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            current: VecDeque::new(),
            current_tick: 0,
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; WORDS],
            wheel_len: 0,
            base_tick: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    fn tick_of(at: SimTime) -> u64 {
        at.as_nanos() >> TICK_SHIFT
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let ev = ScheduledEvent { at, seq, kind };
        let tick = Self::tick_of(at);
        if !self.current.is_empty() && tick <= self.current_tick {
            // The event's tick is being drained right now: place it by
            // `(at, seq)` among the not-yet-popped events. Its stamp is the
            // largest so far, so it sorts after every same-instant event —
            // the heap's FIFO tie-break, preserved exactly.
            let pos = self
                .current
                .partition_point(|e| (e.at, e.seq) < (at, seq));
            self.current.insert(pos, ev);
            return;
        }
        // `at` is never before the last popped instant in simulation use;
        // the `max` clamps defensive out-of-order pushes into the earliest
        // still-open bucket (the bucket sort restores exact order).
        let tick = tick.max(self.base_tick);
        if tick - self.base_tick < WHEEL_SLOTS as u64 {
            self.bucket_push(tick, ev);
        } else {
            self.overflow.push(ev);
        }
    }

    fn bucket_push(&mut self, tick: u64, ev: ScheduledEvent) {
        let slot = (tick & SLOT_MASK) as usize;
        self.occupancy[slot / 64] |= 1 << (slot % 64);
        self.slots[slot].push(ev);
        self.wheel_len += 1;
    }

    /// Moves every overflow event now covered by `[base_tick, base_tick+N)`
    /// into its wheel bucket. Called on every window advance, which keeps
    /// the invariant that overflow events are strictly later than anything
    /// in the wheel.
    fn migrate_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            let tick = Self::tick_of(top.at);
            if tick - self.base_tick >= WHEEL_SLOTS as u64 {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            self.bucket_push(tick, ev);
        }
    }

    /// Earliest occupied tick in the window; caller guarantees the wheel is
    /// non-empty. A masked bitmap scan starting at `base_tick`'s slot.
    fn next_occupied_tick(&self) -> u64 {
        debug_assert!(self.wheel_len > 0);
        let start = (self.base_tick & SLOT_MASK) as usize;
        let mut word_ix = start / 64;
        let mut word = self.occupancy[word_ix] & (!0u64 << (start % 64));
        let mut scanned = 0usize;
        loop {
            if word != 0 {
                let slot = word_ix * 64 + word.trailing_zeros() as usize;
                let dist = (slot + WHEEL_SLOTS - start) & SLOT_MASK as usize;
                return self.base_tick + dist as u64;
            }
            word_ix = (word_ix + 1) % WORDS;
            word = self.occupancy[word_ix];
            scanned += 64;
            debug_assert!(scanned <= WHEEL_SLOTS, "occupancy bitmap corrupt");
        }
    }

    /// Loads bucket `tick` into the sorted drain buffer.
    fn load_bucket(&mut self, tick: u64) {
        debug_assert!(self.current.is_empty());
        let slot = (tick & SLOT_MASK) as usize;
        self.occupancy[slot / 64] &= !(1 << (slot % 64));
        let bucket = &mut self.slots[slot];
        self.wheel_len -= bucket.len();
        self.current.extend(bucket.drain(..));
        self.current
            .make_contiguous()
            .sort_unstable_by_key(|e| (e.at, e.seq));
        self.current_tick = tick;
    }

    /// Ensures the sorted drain buffer holds the earliest pending bucket.
    /// A no-op when the buffer already has events or the queue is empty.
    ///
    /// Loading a bucket early (without popping) is semantically transparent:
    /// a same-tick push that arrives while the buffer is loaded is placed by
    /// `(at, seq)` binary search, which is exactly where the bucket sort
    /// would have put it.
    fn fill_current(&mut self) {
        if !self.current.is_empty() || self.len == 0 {
            return;
        }
        if self.wheel_len == 0 {
            // Only far-future events left: jump the window to the earliest.
            let first = self.overflow.peek().expect("len > 0");
            self.base_tick = Self::tick_of(first.at);
            self.migrate_overflow();
        }
        let tick = self.next_occupied_tick();
        if tick > self.base_tick {
            self.base_tick = tick;
            self.migrate_overflow();
        }
        self.load_bucket(tick);
    }

    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent> {
        self.fill_current();
        let ev = self.current.pop_front()?;
        self.len -= 1;
        Some(ev)
    }

    /// Peeks at the next event without removing it. A deadline stop tests
    /// the head this way, so the head keeps its place (and its `seq`) among
    /// same-instant events.
    pub(crate) fn peek(&mut self) -> Option<&ScheduledEvent> {
        self.fill_current();
        self.current.front()
    }

    /// Pops the next event only if it is a [`EventKind::Deliver`] addressed
    /// to `to` at exactly instant `at` — the burst-extension probe used by
    /// [`Network::run`](crate::network::Network::run) to drain same-instant
    /// deliveries to one node as a single dispatch.
    ///
    /// Safety of the burst rests on two facts: (a) only *consecutive* events
    /// with the same `(at)` and destination are taken, so global `(at, seq)`
    /// FIFO order is untouched; (b) no node code runs between the probe and
    /// the pop, so no push can land between burst members.
    pub(crate) fn pop_deliver_if(&mut self, at: SimTime, to: NodeId) -> Option<ScheduledEvent> {
        self.fill_current();
        match self.current.front() {
            Some(ev) if ev.at == at => match ev.kind {
                EventKind::Deliver { to: t, .. } if t == to => {
                    self.len -= 1;
                    self.current.pop_front()
                }
                _ => None,
            },
            _ => None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId::from_index(node),
            token,
        }
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), timer(0, 3));
        q.push(SimTime::from_nanos(10), timer(0, 1));
        q.push(SimTime::from_nanos(20), timer(0, 2));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.push(SimTime::from_nanos(5), timer(0, token));
        }
        assert_eq!(drain_tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ten_thousand_same_instant_events_drain_fifo() {
        // Determinism regression for the wheel swap: a single bucket far
        // larger than any burst the simulator produces must still preserve
        // the exact push order.
        let mut q = EventQueue::new();
        let at = SimTime::from_nanos(123_456_789);
        for token in 0..10_000 {
            q.push(at, timer(0, token));
        }
        assert_eq!(q.len(), 10_000);
        assert_eq!(drain_tokens(&mut q), (0..10_000).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(
            SimTime::ZERO,
            EventKind::Deliver {
                from: NodeId::from_index(0),
                to: NodeId::from_index(1),
                frame: Frame::new(Bytes::new()),
            },
        );
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_route_through_overflow_in_order() {
        let mut q = EventQueue::new();
        let window_ns = (WHEEL_SLOTS as u64) << TICK_SHIFT;
        // Far beyond the window (overflow), inside the window (wheel), and
        // a same-tick pair, pushed out of order.
        q.push(SimTime::from_nanos(10 * window_ns), timer(0, 4));
        q.push(SimTime::from_nanos(3), timer(0, 1));
        q.push(SimTime::from_nanos(10 * window_ns + 1), timer(0, 5));
        q.push(SimTime::from_nanos(window_ns / 2), timer(0, 2));
        q.push(SimTime::from_nanos(window_ns / 2), timer(0, 3));
        // A second cluster even further out, crossing another window.
        q.push(SimTime::from_nanos(25 * window_ns), timer(0, 6));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn pushes_while_draining_current_bucket_keep_order() {
        let mut q = EventQueue::new();
        let at = SimTime::from_nanos(1_000);
        q.push(at, timer(0, 0));
        q.push(at, timer(0, 1));
        let first = q.pop().expect("event");
        assert!(matches!(first.kind, EventKind::Timer { token: 0, .. }));
        // Same instant as the bucket being drained: must pop after token 1
        // (FIFO among same-instant events), before anything later.
        q.push(at, timer(0, 2));
        q.push(at + crate::time::SimDuration::from_nanos(50), timer(0, 3));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn matches_reference_heap_on_mixed_workload() {
        // Model check: the wheel's pop sequence must be identical to a
        // plain sorted-by-(at, seq) reference on a workload shaped like the
        // simulator's (bursts now, timers ~100 µs out, rare far timers),
        // including interleaved pushes and pops.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (at, seq)
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut pending = 0usize;
        let mut seq = 0u64;
        let mut now = 0u64;
        // Deterministic pseudo-random stream (no external RNG needed).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..5_000 {
            let r = rand();
            if r % 100 < 60 || pending == 0 {
                let delta = match r % 20 {
                    0..=13 => r % 3_000,            // near-future burst
                    14..=18 => 100_000 + r % 5_000, // retransmit horizon
                    _ => 2_000_000 + r % 500_000,   // far beyond the window
                };
                let at = now + delta;
                q.push(SimTime::from_nanos(at), timer(0, seq));
                reference.push((at, seq));
                pending += 1;
                seq += 1;
            } else {
                let ev = q.pop().expect("pending > 0");
                pending -= 1;
                now = ev.at.as_nanos();
                popped.push((ev.at.as_nanos(), ev.seq));
            }
        }
        while let Some(ev) = q.pop() {
            popped.push((ev.at.as_nanos(), ev.seq));
        }
        reference.sort_unstable();
        // Interleaved pops must each have been the minimum of what was
        // pending; the full pop sequence sorted equals the reference, and
        // the sequence itself must be non-decreasing in (at, seq).
        assert!(popped.windows(2).all(|w| w[0] < w[1]));
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, reference);
        assert_eq!(popped, sorted, "pop order is globally sorted");
    }
}
