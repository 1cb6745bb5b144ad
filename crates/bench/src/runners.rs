//! Shared measurement runners: drive the real `ask` stack and extract the
//! metrics the figures report.

use ask::prelude::*;
use ask_simnet::link::LinkConfig;
use ask_simnet::time::SimDuration;
use ask_wire::codec::encode_envelope_parts;
use ask_wire::packet::{AskPacket, DataPacket, TaskId};
use ask_wire::view::{DataPacketView, FrameView, PacketView};

/// Encodes `pkt` as a frame in `layout` and parses it back into the
/// borrowed view [`AggregatorEngine`] consumes — for the figures that
/// drive the switch engine directly, without a network.
pub fn data_view(pkt: DataPacket, layout: &PacketLayout) -> DataPacketView {
    let frame = encode_envelope_parts(1, 0, 0, 0, &AskPacket::Data(pkt), layout);
    match FrameView::parse(frame)
        .expect("freshly encoded")
        .into_packet()
    {
        PacketView::Data(d) => d,
        _ => unreachable!("data frames parse to data views"),
    }
}

/// How large a workload the harness generates.
///
/// `Quick` keeps every figure's regeneration in seconds (CI-friendly);
/// `Full` uses larger volumes for tighter steady-state numbers. Both
/// produce the same *shapes*; EXPERIMENTS.md records Full-scale numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small volumes, seconds per figure.
    Quick,
    /// Larger volumes, minutes per figure.
    Full,
}

impl Scale {
    /// Reads `ASK_BENCH_SCALE=full` (any capitalization) from the
    /// environment, default Quick.
    pub fn from_env() -> Self {
        match std::env::var("ASK_BENCH_SCALE") {
            Ok(v) => Scale::parse(&v),
            Err(_) => Scale::Quick,
        }
    }

    /// Parses a scale name case-insensitively; anything but `full` is Quick.
    pub fn parse(s: &str) -> Self {
        if s.trim().eq_ignore_ascii_case("full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Scales a Quick-mode count up in Full mode.
    pub fn count(&self, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Parameters of one measured ASK run.
#[derive(Debug, Clone)]
pub struct AskRun {
    /// ASK configuration (channels, layout, window, ...).
    pub config: AskConfig,
    /// Host↔switch links.
    pub link: LinkConfig,
    /// Parallel aggregation tasks to spread across data channels.
    pub tasks: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl AskRun {
    /// A run with paper-default config, clean 100 Gbps links, and one task
    /// per data channel.
    pub fn paper(config: AskConfig) -> Self {
        let tasks = config.data_channels;
        AskRun {
            config,
            link: LinkConfig::new(100e9, SimDuration::from_micros(1)),
            tasks,
            seed: 42,
        }
    }
}

/// Measurements extracted from one run.
#[derive(Debug, Clone)]
pub struct AskReport {
    /// Wall-clock from submission to the last task's completion.
    pub jct_s: f64,
    /// Per-sender sending-phase duration (submission to last FIN ack); the
    /// denominator for steady-state throughput, excluding task teardown.
    pub sender_elapsed_s: Vec<f64>,
    /// Per-sender goodput (payload bits/s over the sending phase).
    pub sender_goodput_bps: Vec<f64>,
    /// Per-sender wire throughput over the sending phase (bits/s, includes
    /// headers/retx/acks).
    pub sender_wire_bps: Vec<f64>,
    /// Merged switch counters across tasks.
    pub switch: SwitchTaskStats,
    /// Receiver daemon counters.
    pub receiver: HostStats,
    /// Per-sender daemon counters.
    pub senders: Vec<HostStats>,
    /// Receiver CPU busy time (s).
    pub receiver_cpu_s: f64,
    /// Per-sender CPU busy time (s).
    pub sender_cpu_s: Vec<f64>,
    /// Data frames the switch fully absorbed straight from the wire bytes,
    /// answered with an ACK and nothing else.
    pub switch_pure_absorb: u64,
}

impl AskReport {
    /// Fraction of eligible tuples aggregated on the switch (Table 1 row 1).
    pub fn absorption(&self) -> f64 {
        self.switch.tuple_aggregation_ratio()
    }
}

/// Runs `streams[i]` from sender `i` (hosts 1..) to the receiver (host 0),
/// split over `run.tasks` parallel tasks, and reports the measurements.
///
/// # Panics
///
/// Panics if `streams` is empty or the run stalls.
pub fn run_ask(run: &AskRun, streams: Vec<Vec<KvTuple>>) -> AskReport {
    assert!(!streams.is_empty(), "need at least one sender");
    let n_senders = streams.len();
    let mut service = AskServiceBuilder::new(n_senders + 1)
        .config(run.config.clone())
        .link(run.link.clone())
        .seed(run.seed)
        .build();
    let hosts = service.hosts().to_vec();
    let receiver = hosts[0];

    // Split each sender's stream round-robin over the parallel tasks.
    let tasks: Vec<TaskId> = (0..run.tasks as u32).map(TaskId).collect();
    for &task in &tasks {
        service.submit_task(task, receiver, &hosts[1..]);
    }
    for (s, stream) in streams.into_iter().enumerate() {
        let mut chunks: Vec<Vec<KvTuple>> = vec![Vec::new(); run.tasks];
        for (i, t) in stream.into_iter().enumerate() {
            chunks[i % run.tasks].push(t);
        }
        for (ti, chunk) in chunks.into_iter().enumerate() {
            service.submit_stream(tasks[ti], hosts[1 + s], chunk);
        }
    }

    let mut done_at = 0.0f64;
    for &task in &tasks {
        let t = service
            .run_until_complete(task, receiver, u64::MAX)
            .unwrap_or_else(|e| panic!("{task} stalled: {e}"));
        done_at = done_at.max(t.as_secs_f64());
    }
    let jct_s = done_at.max(1e-12);

    let mut switch = SwitchTaskStats::default();
    for &task in &tasks {
        if let Some(s) = service.switch_stats(task) {
            switch.merge(&s);
        }
    }
    let mut sender_elapsed = Vec::new();
    let mut sender_goodput = Vec::new();
    let mut sender_wire = Vec::new();
    let mut sender_cpu = Vec::new();
    let mut senders_stats = Vec::new();
    for &h in &hosts[1..] {
        let done = tasks
            .iter()
            .filter_map(|&t| {
                service
                    .network_mut()
                    .node::<ask::prelude::AskDaemon>(h)
                    .send_complete_at(t)
            })
            .map(|t| t.as_secs_f64())
            .fold(0.0f64, f64::max)
            .max(1e-12);
        sender_elapsed.push(done);
        let stats = service.host_stats(h);
        senders_stats.push(stats);
        sender_goodput.push(stats.goodput_bytes_sent as f64 * 8.0 / done);
        let uplink = service.uplink_stats(h);
        sender_wire.push(uplink.bytes_sent as f64 * 8.0 / done);
        sender_cpu.push(service.host_cpu_busy(h).as_secs_f64());
    }
    AskReport {
        jct_s,
        sender_elapsed_s: sender_elapsed,
        sender_goodput_bps: sender_goodput,
        sender_wire_bps: sender_wire,
        switch,
        switch_pure_absorb: service.switch_ref().pure_absorb_frames(),
        receiver: service.host_stats(receiver),
        senders: senders_stats,
        receiver_cpu_s: service.host_cpu_busy(receiver).as_secs_f64(),
        sender_cpu_s: sender_cpu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ask_workloads::text::uniform_stream;

    #[test]
    fn runner_measures_a_small_run() {
        let mut cfg = AskConfig::tiny();
        cfg.data_channels = 2;
        let run = AskRun {
            tasks: 2,
            ..AskRun::paper(cfg)
        };
        let report = run_ask(&run, vec![uniform_stream(1, 64, 2000)]);
        assert!(report.jct_s > 0.0);
        assert_eq!(report.sender_goodput_bps.len(), 1);
        assert!(report.sender_goodput_bps[0] > 0.0);
        assert!(report.absorption() > 0.5, "small keyspace mostly absorbed");
        let total = report.switch.tuples_aggregated + report.switch.tuples_forwarded;
        assert_eq!(total, 2000);
    }

    #[test]
    fn scale_env_defaults_quick() {
        assert_eq!(Scale::from_env(), Scale::Quick);
        assert_eq!(Scale::Quick.count(5, 50), 5);
        assert_eq!(Scale::Full.count(5, 50), 50);
    }

    #[test]
    fn scale_parse_is_case_insensitive() {
        assert_eq!(Scale::parse("full"), Scale::Full);
        assert_eq!(Scale::parse("FULL"), Scale::Full);
        assert_eq!(Scale::parse("Full"), Scale::Full);
        assert_eq!(Scale::parse(" fUlL "), Scale::Full);
        assert_eq!(Scale::parse("quick"), Scale::Quick);
        assert_eq!(Scale::parse(""), Scale::Quick);
        assert_eq!(Scale::parse("fullest"), Scale::Quick);
    }
}
