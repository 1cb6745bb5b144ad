//! The event queue driving the simulation: a timer wheel (calendar queue)
//! over a payload slab, with an overflow heap for far-future timers.
//!
//! Every frame delivery and every protocol timer passes through it, so it is
//! built around the actual event-time distribution: almost all events land
//! within a few microseconds of *now* (link serialization + propagation),
//! with a thin tail of retransmit/fetch timers ~100 µs out. The wheel pays
//! `O(1)` per push and an amortized near-`O(1)` bitmap scan per pop; a plain
//! `BinaryHeap` of the same keys over the same slab measured ×0.84 of this
//! wheel's `tuples_per_s` on `tiny_pkt`, ×0.86 on `absorb_zipf` (ROADMAP 3).
//!
//! Layout: a payload ([`EventKind`]) is written once, by `push`, into a slab
//! entry and read once, by `pop`; everything in between orders 24-byte keys.
//! The slab's free list is LIFO, so the entry a pop just vacated is the next
//! one written and stays cache-hot. Time is quantized into `2^TICK_SHIFT`-ns
//! ticks and the wheel covers [`WHEEL_SLOTS`] consecutive ticks (~1.05 ms:
//! serialization, propagation and the paper's 100 µs retransmission timeout
//! fit) with one `u32` list head per tick, 16 KB in all, threading that
//! tick's entries through `links`, guarded by an occupancy bitmap. Events
//! beyond the window wait as keys in an overflow `BinaryHeap`; every advance
//! of `base_tick` (the only way the window extends) links in the newly covered
//! overflow prefix, so overflow events are later than every wheel event.
//!
//! Allocation: a push touches one slab entry and one 4-byte head. Buckets own
//! no storage, so a bucket's first use costs nothing: a queue a few thousand
//! ticks old (every `Network` a benchmark iteration builds) pushes as cheaply
//! as a warm one. Slab, free list and drain buffer grow to the pending peak.
//!
//! FIFO tie-break: each push is stamped with a monotonically increasing
//! `seq`. When a tick becomes *current* its list is walked into the drain
//! buffer and the keys sorted by `(at, seq)`, so list order is irrelevant;
//! a same-tick push that arrives while the buffer drains is placed by binary
//! search on `(at, seq)`, and as its fresh `seq` is the largest so far that
//! means "after all equal-or-earlier events": pops ascend in `(at, seq)`.

use crate::frame::{Frame, NodeId};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Wheel tick granularity: `2^TICK_SHIFT` ns (256 ns). Fine enough that a
/// bucket holds only a handful of same-burst events; coarse enough that the
/// window covers the protocol's timer horizon.
const TICK_SHIFT: u32 = 8;
/// Slots in the wheel window (power of two for mask arithmetic).
const WHEEL_SLOTS: usize = 1 << 12;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Words in the occupancy bitmap.
const WORDS: usize = WHEEL_SLOTS / 64;
/// End of a bucket list.
const NIL: u32 = u32::MAX;

/// `(at, seq, slab index)`: what the drain buffer and the overflow heap
/// order. `seq` is unique, so the index never decides a comparison.
type Key = (SimTime, u64, u32);

/// Earliest-first queue of scheduled events with stable FIFO tie-breaking.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Payload slab: `Some` from an event's push to its pop.
    kinds: Vec<Option<EventKind>>,
    /// Parallel to `kinds`: the entry's `(at, seq)` and, while it waits in a
    /// wheel bucket, the index of the bucket list's next entry (or [`NIL`]).
    links: Vec<Key>,
    /// Vacant slab indices, most recently vacated last.
    free: Vec<u32>,
    /// Keys of the tick being drained, sorted; `current[..cursor]` are popped.
    current: Vec<Key>,
    cursor: usize,
    /// Tick the `current` buffer was loaded from.
    current_tick: u64,
    /// List head per tick in `[base_tick, base_tick + N)`, [`NIL`] if empty.
    heads: Box<[u32]>,
    /// One bit per slot: does the bucket hold any events?
    occupancy: [u64; WORDS],
    /// Events currently linked into wheel buckets.
    wheel_len: usize,
    /// Every tick before this one has been fully drained.
    base_tick: u64,
    /// Far-future events, beyond the wheel window, earliest on top.
    overflow: BinaryHeap<Reverse<Key>>,
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
            kinds: Vec::new(),
            links: Vec::new(),
            free: Vec::new(),
            current: Vec::new(),
            cursor: 0,
            current_tick: 0,
            heads: vec![NIL; WHEEL_SLOTS].into_boxed_slice(),
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
        // The payload goes into the entry vacated last, if there is one.
        let ix = self.free.pop().unwrap_or_else(|| {
            assert!(self.kinds.len() < NIL as usize, "event slab full");
            self.kinds.push(None);
            self.links.push((at, seq, NIL));
            self.kinds.len() as u32 - 1
        });
        self.kinds[ix as usize] = Some(kind);
        self.links[ix as usize] = (at, seq, NIL);
        let tick = Self::tick_of(at);
        if self.cursor < self.current.len() && tick <= self.current_tick {
            // The event's tick is being drained right now: place it by
            // `(at, seq)` among the not-yet-popped keys. Its stamp is the
            // largest so far, so it lands after every same-instant event.
            let pending = &self.current[self.cursor..];
            let pos = self.cursor + pending.partition_point(|k| (k.0, k.1) < (at, seq));
            self.current.insert(pos, (at, seq, ix));
            return;
        }
        // `at` is never before the last popped instant in simulation use;
        // the `max` clamps defensive out-of-order pushes into the earliest
        // still-open bucket (the bucket sort restores exact order).
        let tick = tick.max(self.base_tick);
        if tick - self.base_tick < WHEEL_SLOTS as u64 {
            self.bucket_push(tick, ix);
        } else {
            self.overflow.push(Reverse((at, seq, ix)));
        }
    }

    fn bucket_push(&mut self, tick: u64, ix: u32) {
        let slot = (tick & SLOT_MASK) as usize;
        self.occupancy[slot / 64] |= 1 << (slot % 64);
        self.links[ix as usize].2 = self.heads[slot];
        self.heads[slot] = ix;
        self.wheel_len += 1;
    }

    /// Links every overflow event now covered by `[base_tick, base_tick+N)`
    /// into its wheel bucket. Called on every window advance, so overflow
    /// events stay strictly later than anything in the wheel.
    fn migrate_overflow(&mut self) {
        while let Some(&Reverse((at, _, ix))) = self.overflow.peek() {
            let tick = Self::tick_of(at);
            if tick - self.base_tick >= WHEEL_SLOTS as u64 {
                break;
            }
            self.overflow.pop();
            self.bucket_push(tick, ix);
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

    /// Ensures the sorted drain buffer holds the earliest pending bucket; a
    /// no-op when it already has events or the queue is empty. Loading a
    /// bucket early (without popping) is semantically transparent: a
    /// same-tick push that arrives while the buffer is loaded is placed by
    /// `(at, seq)` binary search, exactly where the sort would have put it.
    fn fill_current(&mut self) {
        if self.cursor < self.current.len() || self.len == 0 {
            return;
        }
        if self.wheel_len == 0 {
            // Only far-future events left: jump the window to the earliest.
            let &Reverse((first, ..)) = self.overflow.peek().expect("len > 0");
            self.base_tick = Self::tick_of(first);
            self.migrate_overflow();
        }
        let tick = self.next_occupied_tick();
        if tick > self.base_tick {
            self.base_tick = tick;
            self.migrate_overflow();
        }
        // Walk the bucket's list into the drain buffer and sort its keys.
        let slot = (tick & SLOT_MASK) as usize;
        self.occupancy[slot / 64] &= !(1 << (slot % 64));
        self.current.clear();
        self.cursor = 0;
        let mut ix = std::mem::replace(&mut self.heads[slot], NIL);
        while ix != NIL {
            let (at, seq, next) = self.links[ix as usize];
            self.current.push((at, seq, ix));
            ix = next;
        }
        self.wheel_len -= self.current.len();
        self.current.sort_unstable();
        self.current_tick = tick;
    }

    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent> {
        self.fill_current();
        let &(at, seq, ix) = self.current.get(self.cursor)?;
        self.cursor += 1;
        self.len -= 1;
        self.free.push(ix);
        let kind = self.kinds[ix as usize].take().expect("key owns its entry");
        Some(ScheduledEvent { at, seq, kind })
    }

    /// Instant of the next event, which stays queued. A deadline stop tests
    /// the head this way, so the head keeps its place (and its `seq`) among
    /// same-instant events.
    pub(crate) fn peek_at(&mut self) -> Option<SimTime> {
        self.fill_current();
        self.current.get(self.cursor).map(|&(at, ..)| at)
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

    #[test]
    fn drain_time_push_reuses_the_slab_index_just_freed() {
        let mut q = EventQueue::new();
        let at = SimTime::from_nanos(1_000);
        for token in 0..3 {
            q.push(at, timer(0, token));
        }
        let first = q.pop().expect("event");
        assert_eq!(first.seq, 0);
        assert_eq!(q.free, vec![0], "seq 0 was written to entry 0");
        // The tick is mid-drain: the push goes into the sorted buffer, and
        // its payload into the entry the pop vacated a moment ago.
        q.push(at, timer(0, 3));
        assert!(q.free.is_empty());
        assert_eq!(q.kinds.len(), 3, "the slab did not grow");
        assert_eq!(q.current.last(), Some(&(at, 3, 0)));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn slab_is_bounded_by_peak_pending() {
        // A queue that lives for a million events holds no more storage than
        // its busiest moment needed: 1024 pending plus the one being pushed.
        let mut q = EventQueue::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut delta = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 20 {
                0..=13 => state % 3_000,
                14..=18 => 100_000 + state % 5_000,
                _ => 2_000_000 + state % 500_000, // overflow heap
            }
        };
        let mut now = 0u64;
        for _ in 0..1024 {
            q.push(SimTime::from_nanos(delta()), timer(0, 0));
        }
        for _ in 0..1_000_000 {
            q.push(SimTime::from_nanos(now + delta()), timer(0, 0));
            now = q.pop().expect("1025 pending").at.as_nanos();
        }
        assert_eq!(q.len(), 1024);
        while q.pop().is_some() {}
        assert!(q.kinds.len() <= 1025, "slab grew to {}", q.kinds.len());
        assert_eq!(q.links.len(), q.kinds.len());
        assert_eq!(q.free.len(), q.kinds.len(), "every entry is vacant again");
        assert!(q.kinds.iter().all(Option::is_none));
        assert!(q.overflow.is_empty());
    }

    /// One step of the model check below.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push at `now + delta`; `to` 0 is a timer, 1–3 a delivery.
        Push {
            delta: u64,
            to: usize,
        },
        /// Push into the tick being drained, `back` ns before its last event.
        PushBeforeTail {
            back: u64,
            to: usize,
        },
        Pop,
        PeekAt,
    }

    /// What the queue must hold: `(at, seq, to)` ascending, and the number of
    /// pushes so far — the next `seq`, counted independently of the queue.
    #[derive(Debug, Default)]
    struct Model {
        pending: Vec<(u64, u64, usize)>,
        pushes: u64,
    }

    fn arb_op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        (0u8..16, any::<u64>(), 0usize..=3).prop_map(|(sel, r, to)| match sel {
            0..=4 => Op::Push { delta: r % 600, to },
            5 => Op::Push {
                delta: 100_000 + r % 5_000,
                to,
            },
            6 => Op::Push {
                delta: 2_000_000 + r % 500_000,
                to,
            },
            7..=8 => Op::PushBeforeTail { back: r % 256, to },
            9..=13 => Op::Pop,
            _ => Op::PeekAt,
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 96, ..Default::default() })]

        /// Every operation, interleaved, against a sorted `(at, seq, to)`
        /// list: each pop and each peek must return exactly the model's
        /// head, stamp included (so every push consumed one `seq`).
        #[test]
        fn matches_sorted_model_step_by_step(ops in proptest::collection::vec(arb_op(), 1..400)) {
            /// Pushes onto both; the model counts the stamps on its own.
            fn push(q: &mut EventQueue, model: &mut Model, at: u64, to: usize) {
                let seq = model.pushes;
                model.pushes += 1;
                let kind = match to {
                    0 => timer(0, seq),
                    _ => EventKind::Deliver {
                        from: NodeId::from_index(0),
                        to: NodeId::from_index(to),
                        frame: Frame::new(Bytes::new()),
                    },
                };
                q.push(SimTime::from_nanos(at), kind);
                model.pending.push((at, seq, to));
                model.pending.sort_unstable();
            }
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut now = 0u64;
            let check = |ev: ScheduledEvent, want: (u64, u64, usize)| {
                let to = match ev.kind {
                    EventKind::Deliver { to, .. } => to.index(),
                    EventKind::Timer { .. } => 0,
                    _ => unreachable!(),
                };
                assert_eq!((ev.at.as_nanos(), ev.seq, to), want);
            };
            for op in ops {
                match op {
                    Op::Push { delta, to } => push(&mut q, &mut model, now + delta, to),
                    Op::PushBeforeTail { back, to } => {
                        let tick = now >> TICK_SHIFT;
                        let tail = model.pending.iter().rev().find(|e| e.0 >> TICK_SHIFT == tick);
                        let at = tail.map_or(now, |e| e.0.saturating_sub(back).max(now));
                        push(&mut q, &mut model, at, to);
                    }
                    Op::Pop => match q.pop() {
                        Some(ev) => {
                            now = ev.at.as_nanos();
                            check(ev, model.pending.remove(0));
                        }
                        None => assert!(model.pending.is_empty()),
                    },
                    Op::PeekAt => {
                        let head = q.peek_at().map(SimTime::as_nanos);
                        assert_eq!(head, model.pending.first().map(|e| e.0));
                    }
                }
                assert_eq!(q.len(), model.pending.len());
            }
            for want in model.pending {
                check(q.pop().expect("model has more"), want);
            }
            assert!(q.is_empty() && q.pop().is_none());
        }
    }
}
