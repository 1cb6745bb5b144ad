//! Point-to-point link model: bandwidth, propagation delay, fault injection.

use crate::faults::FaultModel;
use crate::time::{SimDuration, SimTime};

/// Configuration of one *directed* link.
///
/// A duplex connection is modelled as two directed links with (usually) the
/// same configuration.
///
/// # Examples
///
/// ```
/// use ask_simnet::link::LinkConfig;
///
/// // A 100 Gbps link with 1 µs propagation delay, as in the paper's testbed.
/// let cfg = LinkConfig::new(100e9, ask_simnet::time::SimDuration::from_micros(1));
/// assert_eq!(cfg.bits_per_sec(), 100e9);
/// ```
#[derive(Debug, Clone)]
pub struct LinkConfig {
    bits_per_sec: f64,
    propagation: SimDuration,
    faults: FaultModel,
}

impl LinkConfig {
    /// Creates a lossless link with the given bandwidth and propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is not strictly positive and finite.
    pub fn new(bits_per_sec: f64, propagation: SimDuration) -> Self {
        assert!(
            bits_per_sec.is_finite() && bits_per_sec > 0.0,
            "bandwidth must be positive"
        );
        LinkConfig {
            bits_per_sec,
            propagation,
            faults: FaultModel::reliable(),
        }
    }

    /// Replaces the fault model (packet loss / duplication / reordering).
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Link bandwidth in bits per second.
    pub fn bits_per_sec(&self) -> f64 {
        self.bits_per_sec
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    /// The fault model applied to frames on this link.
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// Time to clock `bytes` onto the wire at this link's bandwidth.
    pub fn serialization_delay(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bits_per_sec)
    }
}

/// Runtime state of a directed link: FIFO serialization and byte counters.
#[derive(Debug)]
pub(crate) struct LinkState {
    pub(crate) config: LinkConfig,
    /// Earliest time the transmitter is free to start serializing a new frame.
    pub(crate) next_free: SimTime,
    pub(crate) stats: LinkStats,
}

impl LinkState {
    pub(crate) fn new(config: LinkConfig) -> Self {
        LinkState {
            config,
            next_free: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// Enqueues a frame at `now` behind everything already on the
    /// transmitter (the queue is unbounded) and returns its arrival time,
    /// advancing the transmitter's busy horizon. Does not apply faults.
    pub(crate) fn schedule(&mut self, now: SimTime, wire_bytes: usize) -> SimTime {
        let start = now.max(self.next_free);
        let done = start + self.config.serialization_delay(wire_bytes);
        self.next_free = done;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += wire_bytes as u64;
        done + self.config.propagation()
    }
}

/// Counters accumulated by a directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames handed to the transmitter (before fault injection).
    pub frames_sent: u64,
    /// Wire bytes handed to the transmitter (before fault injection).
    pub bytes_sent: u64,
    /// Frames actually delivered to the receiver.
    pub frames_delivered: u64,
    /// Frames dropped by the fault model.
    pub frames_dropped: u64,
    /// Extra copies injected by the duplication fault.
    pub frames_duplicated: u64,
}

impl LinkStats {
    /// Average throughput over `elapsed`, in bits per second, based on bytes
    /// handed to the transmitter.
    pub fn throughput_bps(&self, elapsed: SimDuration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes_sent as f64 * 8.0 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LinkConfig {
        LinkConfig::new(8e9, SimDuration::from_nanos(500)) // 1 byte/ns
    }

    #[test]
    fn serialization_delay_matches_bandwidth() {
        let c = cfg();
        assert_eq!(c.serialization_delay(1000).as_nanos(), 1000);
    }

    #[test]
    fn fifo_serialization_queues_back_to_back() {
        let mut link = LinkState::new(cfg());
        let t0 = SimTime::ZERO;
        // Two 1000-byte frames enqueued at t=0: second waits for the first.
        let a1 = link.schedule(t0, 1000);
        let a2 = link.schedule(t0, 1000);
        assert_eq!(a1.as_nanos(), 1000 + 500);
        assert_eq!(a2.as_nanos(), 2000 + 500);
        assert_eq!(link.stats.frames_sent, 2);
        assert_eq!(link.stats.bytes_sent, 2000);
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut link = LinkState::new(cfg());
        link.schedule(SimTime::ZERO, 100);
        // After the link drains, a later frame starts at its enqueue time.
        let arrival = link.schedule(SimTime::from_nanos(10_000), 100);
        assert_eq!(arrival.as_nanos(), 10_000 + 100 + 500);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkConfig::new(0.0, SimDuration::ZERO);
    }

    #[test]
    fn throughput_accounting() {
        let mut link = LinkState::new(cfg());
        link.schedule(SimTime::ZERO, 1_000_000);
        let bps = link.stats.throughput_bps(SimDuration::from_millis(1));
        assert!((bps - 8e9).abs() / 8e9 < 1e-9, "got {bps}");
    }
}
