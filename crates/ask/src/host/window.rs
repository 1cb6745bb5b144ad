//! The sender's sliding window (§3.3 "Host Sender").
//!
//! The sender keeps at most `W` unacknowledged packets in flight. ACKs —
//! from the switch or from the receiver host — retire entries and allow new
//! sends. Out-of-order ACKs never trigger retransmission (the two ACK
//! sources naturally reorder); only the fine-grained timeout does.

use ask_wire::packet::TaskId;
use bytes::Bytes;

/// Which of the three reliable frame kinds an in-flight entry carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A slotted data packet (the only kind the switch aggregates).
    Data,
    /// A long-key bypass batch.
    LongKv,
    /// A task's end-of-stream marker.
    Fin,
}

/// One unacknowledged packet.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// What the frame carries (ACK bookkeeping: FIN gating vs. completion).
    pub kind: FrameKind,
    /// The envelope as it went on the wire. Retransmissions resend these
    /// bytes directly (an O(1) refcount bump) instead of re-encoding.
    pub encoded: Bytes,
    /// On-wire size of the frame carrying `encoded`.
    pub wire: usize,
    /// The task the packet belongs to (for FIN gating).
    pub task: TaskId,
}

/// Sliding send window over one data channel's sequence space.
///
/// Sequence numbers are modular (`u64` wrapping): all window arithmetic is
/// phrased as wrapping distances from `oldest`, so the window keeps working
/// across the `u64::MAX → 0` wraparound.
///
/// Entries live in a ring of `W.next_power_of_two()` slots indexed by
/// `seq & mask`. Invariants: every in-flight sequence lies in the modular
/// interval `[oldest, next_seq)`, which is never longer than `W` and so
/// never maps two live sequences to one slot; `oldest` is in flight
/// whenever anything is, and equals `next_seq` otherwise. A sequence
/// outside the interval aliases some slot of the ring, so every lookup
/// checks the interval before it touches a slot.
#[derive(Debug)]
pub struct SenderWindow {
    w: u64,
    mask: u64,
    next_seq: u64,
    oldest: u64,
    ring: Vec<Option<InFlight>>,
    in_flight: usize,
    peak_inflight: usize,
}

impl SenderWindow {
    /// Creates a window of size `w` packets.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn new(w: usize) -> Self {
        Self::with_start_seq(w, 0)
    }

    /// Creates a window whose first transmission will use sequence number
    /// `start` — lets tests start the sequence space anywhere, notably just
    /// below the `u64` wraparound.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn with_start_seq(w: usize, start: u64) -> Self {
        assert!(w > 0, "window must be positive");
        let capacity = w.next_power_of_two();
        SenderWindow {
            w: w as u64,
            mask: capacity as u64 - 1,
            next_seq: start,
            oldest: start,
            ring: vec![None; capacity],
            in_flight: 0,
            peak_inflight: 0,
        }
    }

    /// True if the window permits transmitting the next sequence number:
    /// the oldest unacknowledged packet is less than `W` behind `next_seq`
    /// (in wrapping distance).
    pub fn can_send(&self) -> bool {
        self.next_seq.wrapping_sub(self.oldest) < self.w
    }

    /// The oldest (logically, not numerically) unacknowledged sequence.
    pub fn oldest_unacked(&self) -> Option<u64> {
        (self.in_flight > 0).then_some(self.oldest)
    }

    /// Number of unacknowledged packets.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// High-water mark of [`SenderWindow::in_flight`] over the window's
    /// lifetime — the invariant `peak_in_flight ≤ W` is what a conformance
    /// harness checks to prove the sender never overran its window.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_inflight
    }

    /// The in-flight sequence numbers, oldest first (wraparound-aware).
    pub fn in_flight_seqs(&self) -> Vec<u64> {
        (0..self.next_seq.wrapping_sub(self.oldest))
            .map(|age| self.oldest.wrapping_add(age))
            .filter(|&seq| self.ring[self.slot(seq)].is_some())
            .collect()
    }

    /// The sequence number the next send will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// The ring slot of `seq` if it lies in `[oldest, next_seq)`; a
    /// sequence outside that interval aliases a slot it does not own.
    fn slot_in_window(&self, seq: u64) -> Option<usize> {
        let span = self.next_seq.wrapping_sub(self.oldest);
        (seq.wrapping_sub(self.oldest) < span).then(|| self.slot(seq))
    }

    /// Registers a fresh transmission, consuming the next sequence number.
    ///
    /// # Panics
    ///
    /// Panics if the window is full ([`SenderWindow::can_send`] is false).
    pub fn register(&mut self, kind: FrameKind, encoded: Bytes, wire: usize, task: TaskId) -> u64 {
        assert!(self.can_send(), "window full");
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.in_flight += 1;
        self.peak_inflight = self.peak_inflight.max(self.in_flight);
        let slot = self.slot(seq);
        self.ring[slot] = Some(InFlight {
            kind,
            encoded,
            wire,
            task,
        });
        seq
    }

    /// Retires `seq`; returns the entry if it was in flight (`None` for
    /// duplicate ACKs).
    pub fn ack(&mut self, seq: u64) -> Option<InFlight> {
        let slot = self.slot_in_window(seq)?;
        let entry = self.ring[slot].take()?;
        self.in_flight -= 1;
        while self.oldest != self.next_seq && self.ring[self.slot(self.oldest)].is_none() {
            self.oldest = self.oldest.wrapping_add(1);
        }
        Some(entry)
    }

    /// Looks up an in-flight packet for retransmission (`None` once it is
    /// acknowledged).
    pub fn retransmit(&self, seq: u64) -> Option<&InFlight> {
        self.ring[self.slot_in_window(seq)?].as_ref()
    }

    /// True once every transmission has been acknowledged.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0
    }

    /// Empties the window and restarts the sequence space at 0, dropping
    /// the abandoned entries (newest-epoch resynchronization: the switch's
    /// dedup registers were wiped, and their even/odd phase encoding only
    /// reads correctly for a sequence space that starts from zero). The
    /// peak-in-flight high-water mark is preserved across the reset.
    pub fn drain_reset(&mut self) {
        self.next_seq = 0;
        self.oldest = 0;
        self.in_flight = 0;
        self.ring.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_packet(_seq: u64) -> FrameKind {
        FrameKind::Data
    }

    #[test]
    fn window_blocks_at_w_unacked() {
        let mut w = SenderWindow::new(4);
        for i in 0..4 {
            assert!(w.can_send());
            assert_eq!(w.register(dummy_packet(i), Bytes::new(), 0, TaskId(0)), i);
        }
        assert!(!w.can_send());
        assert_eq!(w.in_flight(), 4);
    }

    #[test]
    fn acking_oldest_slides_window() {
        let mut w = SenderWindow::new(2);
        w.register(dummy_packet(0), Bytes::new(), 0, TaskId(0));
        w.register(dummy_packet(1), Bytes::new(), 0, TaskId(0));
        assert!(!w.can_send());
        // Acking the *newest* does not slide (oldest still pins the window).
        assert!(w.ack(1).is_some());
        assert!(!w.can_send(), "seq 2 >= 0 + 2");
        assert!(w.ack(0).is_some());
        assert!(w.can_send());
        assert!(w.is_idle());
    }

    #[test]
    fn duplicate_ack_returns_none() {
        let mut w = SenderWindow::new(2);
        w.register(dummy_packet(0), Bytes::new(), 0, TaskId(0));
        assert!(w.ack(0).is_some());
        assert!(w.ack(0).is_none());
    }

    #[test]
    fn retransmit_counts() {
        let mut w = SenderWindow::new(2);
        w.register(dummy_packet(0), Bytes::from_static(b"f"), 3, TaskId(3));
        for _ in 0..2 {
            let e = w.retransmit(0).unwrap();
            assert_eq!((&e.encoded[..], e.wire), (&b"f"[..], 3));
        }
        assert_eq!(w.in_flight(), 1, "a retransmission keeps the entry");
        assert_eq!(w.ack(0).unwrap().task, TaskId(3));
        assert!(w.retransmit(0).is_none(), "acked packets are gone");
    }

    #[test]
    fn drain_reset_restarts_sequence_space() {
        let mut w = SenderWindow::with_start_seq(4, 1000);
        w.register(dummy_packet(0), Bytes::new(), 0, TaskId(3));
        w.register(dummy_packet(0), Bytes::new(), 0, TaskId(0));
        assert_eq!(w.peak_in_flight(), 2);
        assert_eq!(w.in_flight(), 2);
        w.drain_reset();
        assert!(w.is_idle());
        assert_eq!(w.next_seq(), 0, "sequence space restarts at zero");
        assert_eq!(w.peak_in_flight(), 2, "high-water mark survives the reset");
        assert_eq!(w.register(dummy_packet(0), Bytes::new(), 0, TaskId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "window full")]
    fn register_past_full_panics() {
        let mut w = SenderWindow::new(1);
        w.register(dummy_packet(0), Bytes::new(), 0, TaskId(0));
        w.register(dummy_packet(1), Bytes::new(), 0, TaskId(0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = SenderWindow::new(0);
    }

    #[test]
    fn window_slides_across_u64_wraparound() {
        // Start two packets shy of u64::MAX and stream 16 packets through a
        // window of 4: sequence numbers wrap through 0 and the window keeps
        // sliding (the old `oldest + w` arithmetic overflowed here).
        let mut w = SenderWindow::with_start_seq(4, u64::MAX - 2);
        let mut expected = u64::MAX - 2;
        for _ in 0..16 {
            assert!(w.can_send());
            let seq = w.register(dummy_packet(0), Bytes::new(), 0, TaskId(0));
            assert_eq!(seq, expected);
            assert!(w.ack(seq).is_some());
            expected = expected.wrapping_add(1);
        }
        assert!(w.is_idle());
        assert_eq!(w.peak_in_flight(), 1);
    }

    #[test]
    fn oldest_unacked_is_wraparound_aware() {
        let mut w = SenderWindow::with_start_seq(4, u64::MAX - 1);
        let a = w.register(dummy_packet(0), Bytes::new(), 0, TaskId(0)); // MAX-1
        let b = w.register(dummy_packet(0), Bytes::new(), 0, TaskId(0)); // MAX
        let c = w.register(dummy_packet(0), Bytes::new(), 0, TaskId(0)); // 0
        assert_eq!((a, b, c), (u64::MAX - 1, u64::MAX, 0));
        // Numerically the smallest key is 0, but logically MAX-1 is oldest.
        assert_eq!(w.oldest_unacked(), Some(u64::MAX - 1));
        assert_eq!(w.in_flight_seqs(), vec![u64::MAX - 1, u64::MAX, 0]);
        assert!(w.can_send(), "3 of 4 slots used");
        w.register(dummy_packet(0), Bytes::new(), 0, TaskId(0)); // 1
        assert!(!w.can_send(), "window full across the wrap");
        assert!(w.ack(u64::MAX - 1).is_some());
        assert!(w.can_send(), "acking the oldest slides the window");
    }

    /// The ring has `W.next_power_of_two()` slots; the window must still
    /// block at `W`.
    #[test]
    fn non_power_of_two_window_blocks_at_w_not_at_ring_capacity() {
        for w in [6usize, 100] {
            let mut sw = SenderWindow::with_start_seq(w, u64::MAX - 2);
            for _ in 0..w {
                assert!(sw.can_send());
                sw.register(dummy_packet(0), Bytes::new(), 0, TaskId(0));
            }
            assert!(!sw.can_send(), "W = {w}: full at W");
            assert_eq!(sw.in_flight(), w);
            assert_eq!(sw.peak_in_flight(), w);
            // Acking anything but the oldest frees no room.
            assert!(sw.ack(u64::MAX).is_some());
            assert!(!sw.can_send());
            assert!(sw.ack(u64::MAX - 2).is_some());
            assert!(sw.can_send());
            assert_eq!(sw.oldest_unacked(), Some(u64::MAX - 1));
        }
    }

    /// `seq ± capacity` maps to the slot of a live packet; an ACK or a
    /// retransmit timer carrying it must not touch that packet.
    #[test]
    fn aliased_sequence_numbers_are_inert() {
        for w in [4usize, 6] {
            let capacity = w.next_power_of_two() as u64;
            let start = 3 * capacity + 1;
            let mut sw = SenderWindow::with_start_seq(w, start);
            for wire in 0..3 {
                sw.register(dummy_packet(0), Bytes::new(), wire, TaskId(0));
            }
            sw.retransmit(start + 1).unwrap();
            for live in [start, start + 1, start + 2] {
                for alias in [
                    live + capacity,
                    live - capacity,
                    live.wrapping_add(u64::MAX / 2 + 1),
                ] {
                    assert!(sw.ack(alias).is_none(), "duplicate ACK for {alias}");
                    assert!(sw.retransmit(alias).is_none(), "late timer for {alias}");
                }
            }
            assert_eq!(sw.in_flight(), 3);
            assert_eq!(sw.oldest_unacked(), Some(start));
            assert_eq!(sw.in_flight_seqs(), vec![start, start + 1, start + 2]);
            let wires: Vec<usize> = (0..3).map(|i| sw.ack(start + i).unwrap().wire).collect();
            assert_eq!(wires, vec![0, 1, 2], "live entries kept their own frames");
            // Idle: the sequence just retired is now outside the window.
            assert!(sw.ack(start + 2).is_none());
            assert!(sw.retransmit(start + 2).is_none());
        }
    }

    #[test]
    fn drain_reset_then_register_reuses_slot_zero() {
        let mut sw = SenderWindow::with_start_seq(6, 8); // seq 8 sits in slot 0
        sw.register(dummy_packet(0), Bytes::new(), 11, TaskId(0));
        sw.register(dummy_packet(0), Bytes::new(), 12, TaskId(0));
        sw.retransmit(8).unwrap();
        assert_eq!(sw.in_flight(), 2);
        sw.drain_reset();
        assert_eq!(sw.oldest_unacked(), None);
        assert!(sw.in_flight_seqs().is_empty());
        assert!(sw.ack(8).is_none(), "pre-reset sequence numbers are gone");
        assert_eq!(sw.register(FrameKind::Fin, Bytes::new(), 13, TaskId(0)), 0);
        assert_eq!(sw.in_flight_seqs(), vec![0]);
        let e = sw.ack(0).expect("slot 0 holds the new entry");
        assert_eq!((e.kind, e.wire), (FrameKind::Fin, 13));
        assert!(sw.is_idle());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        proptest! {
            /// For any start point — including just below the u64 wrap —
            /// and any interleaving of sends and (possibly duplicate) ACKs,
            /// the window behaves exactly like an ideal model over
            /// non-wrapping virtual positions: same sequence assignment,
            /// same can-send verdict, and never more than `W` in flight.
            #[test]
            fn wraparound_matches_unwrapped_model(
                seed in any::<u64>(),
                w in 1usize..12,
                // Bias starts around the wrap point and a few "plain" spots.
                start_back in 0u64..40,
                plain_start in prop_oneof![Just(false), Just(true)],
                steps in 32usize..200,
            ) {
                let start = if plain_start {
                    start_back // near zero
                } else {
                    u64::MAX.wrapping_sub(start_back) // near the wrap
                };
                let mut sw = SenderWindow::with_start_seq(w, start);
                let mut rng = StdRng::seed_from_u64(seed);
                // Model: virtual (non-wrapping) positions of in-flight sends.
                let mut inflight_virt: Vec<u64> = Vec::new();
                let mut next_virt: u64 = 0;
                for _ in 0..steps {
                    let model_can_send = match inflight_virt.first() {
                        Some(&oldest) => next_virt - oldest < w as u64,
                        None => true,
                    };
                    prop_assert_eq!(sw.can_send(), model_can_send);
                    prop_assert!(sw.in_flight() <= w);
                    if model_can_send && (inflight_virt.is_empty() || rng.gen_bool(0.6)) {
                        let seq = sw.register(dummy_packet(0), Bytes::new(), 0, TaskId(0));
                        prop_assert_eq!(seq, start.wrapping_add(next_virt));
                        inflight_virt.push(next_virt);
                        next_virt += 1;
                    } else if !inflight_virt.is_empty() {
                        // Ack a random in-flight packet (ACKs reorder freely);
                        // occasionally replay an old ACK to model duplicates.
                        let ix = rng.gen_range(0..inflight_virt.len());
                        let virt = inflight_virt.remove(ix);
                        let seq = start.wrapping_add(virt);
                        prop_assert!(sw.ack(seq).is_some());
                        if rng.gen_bool(0.3) {
                            prop_assert!(sw.ack(seq).is_none(), "duplicate ACK");
                        }
                    }
                    prop_assert_eq!(sw.in_flight(), inflight_virt.len());
                    let model_oldest =
                        inflight_virt.first().map(|&v| start.wrapping_add(v));
                    prop_assert_eq!(sw.oldest_unacked(), model_oldest);
                }
                prop_assert!(sw.peak_in_flight() <= w);
            }

            /// Retransmit/ACK lifecycle under duplicate ACKs: a duplicate
            /// ACK never resurrects a packet, never unblocks extra sends,
            /// and a retransmission after a duplicate ACK is a no-op for
            /// acked packets while unacked ones stay retransmittable.
            #[test]
            fn retransmit_after_duplicate_ack(
                seed in any::<u64>(),
                w in 2usize..10,
                start_back in 0u64..40,
                plain_start in prop_oneof![Just(false), Just(true)],
                steps in 20usize..120,
            ) {
                let start = if plain_start {
                    start_back // near zero
                } else {
                    u64::MAX.wrapping_sub(start_back) // near the wrap
                };
                let mut sw = SenderWindow::with_start_seq(w, start);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut live: Vec<u64> = Vec::new();
                let mut acked: Vec<u64> = Vec::new();
                for _ in 0..steps {
                    match rng.gen_range(0..4u8) {
                        0 if sw.can_send() => {
                            let seq =
                                sw.register(dummy_packet(0), Bytes::new(), 0, TaskId(0));
                            live.push(seq);
                        }
                        1 if !live.is_empty() => {
                            let ix = rng.gen_range(0..live.len());
                            let seq = live.remove(ix);
                            prop_assert!(sw.ack(seq).is_some());
                            prop_assert!(sw.retransmit(seq).is_none());
                            acked.push(seq);
                        }
                        2 if !live.is_empty() => {
                            // Timeout fires for an in-flight packet.
                            let seq = live[rng.gen_range(0..live.len())];
                            prop_assert!(sw.retransmit(seq).is_some());
                        }
                        _ if !acked.is_empty() => {
                            // Duplicate ACK, then a late timeout for the same
                            // sequence: both must be inert.
                            let seq = acked[rng.gen_range(0..acked.len())];
                            let before = sw.in_flight();
                            prop_assert!(sw.ack(seq).is_none());
                            prop_assert!(sw.retransmit(seq).is_none());
                            prop_assert_eq!(sw.in_flight(), before);
                        }
                        _ => {}
                    }
                    prop_assert!(sw.in_flight() <= w);
                }
                prop_assert_eq!(sw.in_flight(), live.len());
            }
        }
    }
}
