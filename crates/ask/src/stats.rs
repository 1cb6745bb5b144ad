//! Counters collected by the switch and the host daemons.
//!
//! Every number the paper's evaluation reports — tuples aggregated on the
//! switch vs. the host (Table 1), packets ACKed by the switch vs. forwarded
//! (Table 1), retransmissions, fetch volume — is derived from these
//! counters, so the benchmark harness never has to instrument internals.

/// Counters kept by the switch data plane, per task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchTaskStats {
    /// Data packets that passed the dedup check and entered aggregation.
    pub data_packets: u64,
    /// Data packets fully absorbed (every tuple aggregated → switch ACKed).
    pub packets_fully_aggregated: u64,
    /// Data packets forwarded to the receiver with residual tuples.
    pub packets_forwarded: u64,
    /// Long-key bypass packets forwarded.
    pub longkv_packets_forwarded: u64,
    /// Individual tuples aggregated into switch memory.
    pub tuples_aggregated: u64,
    /// Individual tuples that failed (collision) and were forwarded.
    pub tuples_forwarded: u64,
    /// Long-key tuples forwarded (never eligible for switch aggregation).
    pub tuples_long_forwarded: u64,
    /// Retransmitted packets recognized by the dedup logic.
    pub duplicates_detected: u64,
    /// Stale packets (behind the receive window) dropped.
    pub stale_dropped: u64,
    /// Shadow-copy swaps executed.
    pub swaps: u64,
    /// Key-value pairs harvested by fetches.
    pub tuples_fetched: u64,
    /// Sequence numbers absorbed more than once — exactly-once violations
    /// caught by the absorption audit
    /// ([`crate::config::AskConfig::absorption_audit`]). Must stay 0.
    pub duplicate_absorptions: u64,
}

impl SwitchTaskStats {
    /// Fraction of eligible (short+medium) tuples aggregated on the switch —
    /// the first row of Table 1.
    pub fn tuple_aggregation_ratio(&self) -> f64 {
        let total = self.tuples_aggregated + self.tuples_forwarded;
        if total == 0 {
            0.0
        } else {
            self.tuples_aggregated as f64 / total as f64
        }
    }

    /// Fraction of data packets fully absorbed (switch-ACKed) — the second
    /// row of Table 1.
    pub fn packet_absorption_ratio(&self) -> f64 {
        let total = self.packets_fully_aggregated + self.packets_forwarded;
        if total == 0 {
            0.0
        } else {
            self.packets_fully_aggregated as f64 / total as f64
        }
    }

    /// Merges another task's counters into this one (for fleet-wide totals).
    pub fn merge(&mut self, other: &SwitchTaskStats) {
        self.data_packets += other.data_packets;
        self.packets_fully_aggregated += other.packets_fully_aggregated;
        self.packets_forwarded += other.packets_forwarded;
        self.longkv_packets_forwarded += other.longkv_packets_forwarded;
        self.tuples_aggregated += other.tuples_aggregated;
        self.tuples_forwarded += other.tuples_forwarded;
        self.tuples_long_forwarded += other.tuples_long_forwarded;
        self.duplicates_detected += other.duplicates_detected;
        self.stale_dropped += other.stale_dropped;
        self.swaps += other.swaps;
        self.tuples_fetched += other.tuples_fetched;
        self.duplicate_absorptions += other.duplicate_absorptions;
    }
}

/// Counters kept by a host daemon, summed over its data channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Data/long-kv/fin packets sent (first transmissions).
    pub packets_sent: u64,
    /// Retransmissions triggered by the 100 µs timeout.
    pub retransmissions: u64,
    /// ACKs received.
    pub acks_received: u64,
    /// Data packets received and processed as the aggregation receiver.
    pub packets_received: u64,
    /// Duplicate packets the receiver window rejected.
    pub duplicates_dropped: u64,
    /// Residual tuples aggregated on the host (switch conflicts + long keys
    /// + co-located sender data).
    pub tuples_host_aggregated: u64,
    /// Tuples received through switch fetch replies.
    pub tuples_fetched: u64,
    /// Wire bytes sent (nominal accounting, §5.3 model).
    pub bytes_sent: u64,
    /// Nominal payload (goodput) bytes sent.
    pub goodput_bytes_sent: u64,
    /// Always 0: no daemon decodes owned packets, so none owns a packet
    /// pool. Kept for the readers that still report pool traffic.
    pub pool_hits: u64,
    /// Always 0, like [`HostStats::pool_hits`].
    pub pool_misses: u64,
    /// Frames dropped because they carried a pre-crash switch epoch
    /// (late verdicts, ACKs, or fetch replies from before a restart).
    pub stale_epoch_drops: u64,
    /// Inbound frames dropped because they failed to parse (corrupted in
    /// transit, truncated, or not ASK traffic) — the host mirror of the
    /// switch's `undecodable` counter.
    pub undecodable: u64,
    /// First-delivery data packets merged via borrowed slot views plus
    /// fetch replies merged via borrowed entry views (the host-side mirror
    /// of the switch's pure-absorb counter).
    pub host_pure_view: u64,
    /// Long-kv frames received — first deliveries, duplicates and stale
    /// copies alike. Their entries are read in place like every other
    /// payload; the counter keeps its name for the readers that report it.
    pub host_view_fallbacks: u64,
}

impl HostStats {
    /// Merges another daemon's counters into this one.
    pub fn merge(&mut self, other: &HostStats) {
        self.packets_sent += other.packets_sent;
        self.retransmissions += other.retransmissions;
        self.acks_received += other.acks_received;
        self.packets_received += other.packets_received;
        self.duplicates_dropped += other.duplicates_dropped;
        self.tuples_host_aggregated += other.tuples_host_aggregated;
        self.tuples_fetched += other.tuples_fetched;
        self.bytes_sent += other.bytes_sent;
        self.goodput_bytes_sent += other.goodput_bytes_sent;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.stale_epoch_drops += other.stale_epoch_drops;
        self.undecodable += other.undecodable;
        self.host_pure_view += other.host_pure_view;
        self.host_view_fallbacks += other.host_view_fallbacks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_pool_view_and_drop_counters() {
        let mut h = HostStats {
            pool_hits: 10,
            pool_misses: 1,
            host_pure_view: 3,
            undecodable: 1,
            ..Default::default()
        };
        h.merge(&HostStats {
            pool_hits: 5,
            host_pure_view: 2,
            host_view_fallbacks: 7,
            undecodable: 2,
            ..Default::default()
        });
        assert_eq!(h.pool_hits, 15);
        assert_eq!(h.pool_misses, 1);
        assert_eq!(h.host_pure_view, 5);
        assert_eq!(h.host_view_fallbacks, 7);
        assert_eq!(h.undecodable, 3);
    }

    #[test]
    fn ratios_handle_zero_totals() {
        let s = SwitchTaskStats::default();
        assert_eq!(s.tuple_aggregation_ratio(), 0.0);
        assert_eq!(s.packet_absorption_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = SwitchTaskStats {
            tuples_aggregated: 90,
            tuples_forwarded: 10,
            packets_fully_aggregated: 3,
            packets_forwarded: 1,
            ..Default::default()
        };
        assert!((s.tuple_aggregation_ratio() - 0.9).abs() < 1e-12);
        assert!((s.packet_absorption_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = SwitchTaskStats {
            data_packets: 1,
            swaps: 2,
            ..Default::default()
        };
        let b = SwitchTaskStats {
            data_packets: 3,
            swaps: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.data_packets, 4);
        assert_eq!(a.swaps, 6);

        let mut h = HostStats {
            packets_sent: 5,
            ..Default::default()
        };
        h.merge(&HostStats {
            packets_sent: 7,
            bytes_sent: 100,
            ..Default::default()
        });
        assert_eq!(h.packets_sent, 12);
        assert_eq!(h.bytes_sent, 100);
    }
}
