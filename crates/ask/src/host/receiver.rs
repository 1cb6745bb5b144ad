//! The host receiver's dedup window (§3.3 "Host Receiver").
//!
//! The *switch* uses the memory-compact even/odd `seen` bitmap because every
//! sequenced packet of a flow traverses it, keeping the observed sequence
//! numbers dense — the parity trick depends on that density. The *receiver*
//! cannot reuse it: the switch consumes fully-aggregated packets, so the
//! receiver observes a sparse subsequence, and a skipped sequence number
//! would leave a bit with stale parity and misclassify a later first
//! arrival as a duplicate.
//!
//! Host memory is not scarce, so the receiver window stores the actual
//! sequence number per slot (`W` × 8 bytes): slot `seq % W` remembers the
//! last sequence observed there. Within the `(max_seq - W, max_seq]` window
//! at most one live sequence maps to each slot, and anything older is
//! rejected by the same `max_seq` stale guard the switch uses.

use crate::switch::aggregator::Observation;

/// Per-channel receive window for duplicate elimination.
#[derive(Debug, Clone)]
pub struct ReceiverWindow {
    /// `slots[r]` holds `seq + 1` (wrapping) of the last observation with
    /// `seq % W == r`; 0 = never observed, or `u64::MAX` (see `observe`).
    slots: Vec<u64>,
    w: u64,
    max_seq: u64,
}

impl ReceiverWindow {
    /// Creates a window of `w` packets.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn new(w: usize) -> Self {
        assert!(w > 0, "window must be positive");
        ReceiverWindow {
            slots: vec![0; w],
            w: w as u64,
            max_seq: 0,
        }
    }

    /// Classifies one arrival and records it, for any `u64` a peer may
    /// send: the stale guard `seq + W <= max_seq` is evaluated as
    /// `max_seq - seq >= W`, and a `seq` above every earlier one is new
    /// whatever its slot holds — so `u64::MAX`, whose tag wraps to the
    /// never-observed 0, is a duplicate only once it has raised `max_seq`.
    pub fn observe(&mut self, seq: u64) -> Observation {
        let above_all = seq > self.max_seq;
        self.max_seq = self.max_seq.max(seq);
        if self.max_seq - seq >= self.w {
            return Observation::Stale;
        }
        let tag = seq.wrapping_add(1);
        let slot = &mut self.slots[(seq % self.w) as usize];
        if !above_all && *slot == tag {
            Observation::Duplicate
        } else {
            *slot = tag;
            Observation::First
        }
    }

    /// Highest sequence number observed so far (0 before any arrival).
    pub fn max_seq(&self) -> u64 {
        self.max_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_then_duplicate() {
        let mut w = ReceiverWindow::new(8);
        assert_eq!(w.observe(0), Observation::First);
        assert_eq!(w.observe(0), Observation::Duplicate);
        assert_eq!(w.observe(1), Observation::First);
        assert_eq!(w.max_seq(), 1);
    }

    #[test]
    fn in_order_stream_is_all_first() {
        let mut w = ReceiverWindow::new(8);
        for seq in 0..1000 {
            assert_eq!(w.observe(seq), Observation::First, "seq {seq}");
        }
    }

    #[test]
    fn sparse_subsequence_is_all_first() {
        // The critical property the switch's compact bitmap cannot provide:
        // when the switch absorbs most packets, the receiver sees arbitrary
        // gaps, and every unseen sequence must still classify as First.
        let mut w = ReceiverWindow::new(8);
        for seq in [0u64, 3, 9, 10, 24, 25, 31, 40, 41, 55, 100, 101] {
            assert_eq!(w.observe(seq), Observation::First, "seq {seq}");
        }
    }

    #[test]
    fn stale_behind_window() {
        let mut w = ReceiverWindow::new(8);
        for seq in 0..20 {
            w.observe(seq);
        }
        // Window is (19-8, 19] = (11, 19]; 11 and below are stale.
        assert_eq!(w.observe(11), Observation::Stale);
        assert_eq!(w.observe(12), Observation::Duplicate);
    }

    #[test]
    fn out_of_order_within_window() {
        let mut w = ReceiverWindow::new(8);
        assert_eq!(w.observe(3), Observation::First);
        assert_eq!(w.observe(1), Observation::First);
        assert_eq!(w.observe(2), Observation::First);
        assert_eq!(w.observe(1), Observation::Duplicate);
        assert_eq!(w.observe(4), Observation::First);
    }

    #[test]
    fn slot_reuse_across_segments() {
        let mut w = ReceiverWindow::new(4);
        // seq 1 then seq 5 share slot 1; both are first arrivals, and the
        // overwritten seq 1 becomes stale rather than duplicate.
        assert_eq!(w.observe(1), Observation::First);
        assert_eq!(w.observe(5), Observation::First);
        assert_eq!(w.observe(1), Observation::Stale);
        assert_eq!(w.observe(5), Observation::Duplicate);
    }

    #[test]
    fn sequence_numbers_at_the_top_of_u64_classify_first_then_duplicate() {
        // W = 1 leaves no spare tag in a slot: every u64 is a valid seq.
        for w in [8, 1] {
            let mut win = ReceiverWindow::new(w as usize);
            for seq in [u64::MAX - 1, u64::MAX] {
                assert_eq!(win.observe(seq), Observation::First, "W {w}, {seq}");
                assert_eq!(win.observe(seq), Observation::Duplicate, "W {w}, {seq}");
            }
            assert_eq!(win.observe(u64::MAX - w), Observation::Stale, "W {w}");
            assert_eq!(win.max_seq(), u64::MAX);
        }
        let mut win = ReceiverWindow::new(8);
        win.observe(u64::MAX);
        assert_eq!(win.observe(u64::MAX - 7), Observation::First);
    }

    #[test]
    fn matches_switch_classification_on_dense_arrivals() {
        // On a *dense* arrival process (every seq reaches the observer, as
        // at the switch), the software window and the hardware compact
        // bitmap classify identically.
        use crate::config::AskConfig;
        use crate::switch::aggregator::AggregatorEngine;
        use ask_wire::packet::{ChannelId, SeqNo};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let cfg = AskConfig::tiny();
        let w = cfg.window;
        let mut engine = AggregatorEngine::new(cfg);
        let mut soft = ReceiverWindow::new(w);
        let mut rng = StdRng::seed_from_u64(11);

        // In-order delivery of every sequence, with bounded-lookback
        // duplicates (a sender only retransmits unacked in-window seqs).
        let mut head = 0u64;
        for _ in 0..5000 {
            let seq = if rng.gen_bool(0.8) {
                let s = head;
                head += 1;
                s
            } else {
                head.saturating_sub(rng.gen_range(1..w as u64 / 2))
            };
            let hw = engine.observe_bypass(ChannelId(0), SeqNo(seq));
            let sw = soft.observe(seq);
            assert_eq!(hw, sw, "divergence at seq {seq}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = ReceiverWindow::new(0);
    }
}
