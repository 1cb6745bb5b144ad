//! Service-wide configuration.

use ask_simnet::time::SimDuration;
use ask_wire::packet::PacketLayout;

/// Configuration shared by the ASK switch program and host daemons.
///
/// Defaults mirror the paper's prototype (§4, §3.3): the
/// [`PacketLayout::paper_default`] of 32 aggregator arrays, a sliding window
/// of `W = 256` packets, a 100 µs retransmission timeout, and 4 data
/// channels per host.
///
/// # Examples
///
/// ```
/// use ask::config::AskConfig;
///
/// let cfg = AskConfig::default();
/// assert_eq!(cfg.window, 256);
/// assert_eq!(cfg.data_channels, 4);
/// ```
#[derive(Debug, Clone)]
pub struct AskConfig {
    /// Payload slot ↔ aggregator-array mapping.
    pub layout: PacketLayout,
    /// Aggregators per AA *per shadow copy*; each AA physically holds twice
    /// this many (§3.4 splits every AA into two copies).
    pub aggregators_per_aa: usize,
    /// Aggregators granted to one task per AA per copy. Defaults to the
    /// whole per-copy space, i.e. single-tenant; the controller hands out
    /// disjoint `[base, base+len)` slices when several tasks coexist.
    pub region_aggregators: usize,
    /// Sender sliding-window size `W`, in packets.
    pub window: usize,
    /// Retransmission timeout (the paper uses a fine-grained 100 µs instead
    /// of the 200 ms Linux default, §3.3). Flat: every retransmission of an
    /// unacknowledged packet waits exactly this long. A switch crash is
    /// recovered by the epoch resync, not by the timer.
    pub retransmit_timeout: SimDuration,
    /// Data channels per host daemon.
    pub data_channels: usize,
    /// Data packets forwarded to the receiver before it triggers a
    /// shadow-copy swap (§3.4). `0` disables hot-key prioritization.
    pub swap_threshold: u64,
    /// Retry interval for (reliable) fetch requests.
    pub fetch_timeout: SimDuration,
    /// Maximum long-key tuples batched into one bypass packet.
    pub long_kv_batch: usize,
    /// Host CPU cost of pushing or receiving one packet on a data channel
    /// (DPDK-style packet IO).
    pub cpu_per_packet: SimDuration,
    /// Host CPU cost of aggregating one residual tuple into the receiver's
    /// in-memory table.
    pub cpu_per_tuple: SimDuration,
    /// Maximum concurrent tasks the switch data plane can track (sizes the
    /// copy-indicator register array).
    pub max_tasks: usize,
    /// Maximum data channels the switch keeps reliability state for
    /// (§3.3 bounds this at 64 servers × 4 channels in 264 KB SRAM).
    pub max_channels: usize,
    /// Protocol-trace ring-buffer capacity per daemon (0 disables tracing;
    /// see [`crate::host::trace`]).
    pub trace_capacity: usize,
    /// Makes the controller deny every region request, so all tasks run
    /// host-only. Turns a deployment into the "no-INA" baseline while
    /// keeping the identical network stack — the apples-to-apples
    /// comparison the evaluation needs.
    pub force_host_only: bool,
    /// Keeps an exact `(channel, seq)` absorption journal on the switch so a
    /// conformance harness can prove "no sequence number is aggregated
    /// twice". Pure oracle bookkeeping — no hardware analogue, no effect on
    /// the data path — and off by default.
    pub absorption_audit: bool,
}

impl AskConfig {
    /// The paper's prototype configuration.
    pub fn paper_default() -> Self {
        AskConfig {
            layout: PacketLayout::paper_default(),
            aggregators_per_aa: 16 * 1024,
            region_aggregators: 16 * 1024,
            window: 256,
            retransmit_timeout: SimDuration::from_micros(100),
            data_channels: 4,
            swap_threshold: 4096,
            fetch_timeout: SimDuration::from_micros(200),
            long_kv_batch: 64,
            cpu_per_packet: SimDuration::from_nanos(110),
            cpu_per_tuple: SimDuration::from_nanos(25),
            max_tasks: 256,
            max_channels: 256,
            trace_capacity: 0,
            force_host_only: false,
            absorption_audit: false,
        }
    }

    /// A small configuration for unit tests: tiny memory, short window.
    pub fn tiny() -> Self {
        AskConfig {
            layout: PacketLayout::custom(4, 2, 2),
            aggregators_per_aa: 64,
            region_aggregators: 32,
            window: 8,
            data_channels: 1,
            swap_threshold: 0,
            max_tasks: 8,
            max_channels: 16,
            ..AskConfig::paper_default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero (any positive size is accepted, power
    /// of two or not), the retransmission timeout is zero (every timer
    /// would re-arm at the instant it fires, forever), the region is empty
    /// or exceeds the per-copy aggregator space, the layout has more than
    /// 64 slots (the width of the `PktState` bitmap), or any of
    /// `max_tasks`, `max_channels`, `data_channels` or `long_kv_batch` is
    /// zero.
    pub fn validate(&self) {
        assert!(self.window > 0, "window must be positive");
        assert!(
            self.retransmit_timeout > SimDuration::ZERO,
            "retransmit timeout must be positive"
        );
        assert!(
            self.region_aggregators > 0 && self.region_aggregators <= self.aggregators_per_aa,
            "region must fit the per-copy aggregator space"
        );
        assert!(
            self.layout.slot_count() <= 64,
            "PktState registers hold at most 64 slot bits"
        );
        assert!(self.max_tasks > 0 && self.max_channels > 0, "need capacity");
        assert!(self.data_channels > 0, "need at least one data channel");
        assert!(self.long_kv_batch > 0, "long-kv batch must be positive");
    }
}

impl Default for AskConfig {
    fn default() -> Self {
        AskConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        AskConfig::paper_default().validate();
        AskConfig::tiny().validate();
    }

    #[test]
    fn paper_default_matches_prototype() {
        let c = AskConfig::paper_default();
        assert_eq!(c.layout.aggregator_arrays(), 32);
        assert_eq!(c.retransmit_timeout, SimDuration::from_micros(100));
    }

    #[test]
    #[should_panic(expected = "region must fit")]
    fn oversized_region_rejected() {
        let mut c = AskConfig::tiny();
        c.region_aggregators = c.aggregators_per_aa + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let mut c = AskConfig::tiny();
        c.window = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "retransmit timeout must be positive")]
    fn zero_retransmit_timeout_rejected() {
        let mut c = AskConfig::tiny();
        c.retransmit_timeout = SimDuration::ZERO;
        c.validate();
    }
}
