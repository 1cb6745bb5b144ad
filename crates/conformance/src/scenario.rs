//! Seeded end-to-end scenarios: workload shape × fault model × lifecycle
//! chaos, run through the full stack and checked against the oracle.

use crate::invariants;
use ask::config::AskConfig;
use ask::service::{reference_aggregate_op, AskService, AskServiceBuilder};
use ask_simnet::faults::FaultModel;
use ask_simnet::link::LinkConfig;
use ask_simnet::time::{SimDuration, SimTime};
use ask_wire::key::Key;
use ask_wire::packet::{AggregateOp, KvTuple, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault-model settings for every host↔switch link of a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Independent frame-loss probability.
    pub loss: f64,
    /// Probability a delivered frame is delivered twice.
    pub duplication: f64,
    /// Probability a delivered frame picks up extra reorder jitter.
    pub reorder: f64,
    /// Jitter magnitude for reordered frames, in microseconds.
    pub reorder_jitter_us: u64,
    /// Probability of a single-bit payload corruption (rejected by the
    /// envelope CRC downstream, so it behaves like targeted loss).
    pub corruption: f64,
}

impl FaultSpec {
    /// A fault-free network.
    pub fn none() -> Self {
        FaultSpec {
            loss: 0.0,
            duplication: 0.0,
            reorder: 0.0,
            reorder_jitter_us: 0,
            corruption: 0.0,
        }
    }

    fn model(&self) -> FaultModel {
        let mut f = FaultModel::reliable();
        if self.loss > 0.0 {
            f = f.with_loss(self.loss);
        }
        if self.duplication > 0.0 {
            f = f.with_duplication(self.duplication);
        }
        if self.reorder > 0.0 {
            f = f.with_reordering(
                self.reorder,
                SimDuration::from_micros(self.reorder_jitter_us),
            );
        }
        if self.corruption > 0.0 {
            f = f.with_corruption(self.corruption);
        }
        f
    }
}

/// A switch outage injected mid-run.
///
/// The crash instant is specified as a fraction of the *fault-free*
/// completion time: the scenario first runs once without the outage to
/// measure it, then reruns from scratch with the switch scheduled down at
/// `down_at_permille`‰ of that time for `outage_us` microseconds. Phrasing
/// the instant relative to the clean run keeps the crash axis meaningful
/// across workload sizes and seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Crash instant in thousandths of the fault-free completion time
    /// (0 = immediately, 999 = just before the finish line).
    pub down_at_permille: u32,
    /// Outage length in microseconds. Must exceed any reorder jitter so
    /// delayed old-epoch frames land after the restart, not during it.
    pub outage_us: u64,
}

/// One fully-specified conformance scenario. Everything — workload, faults,
/// chaos — derives deterministically from the fields, so a failing run is
/// reproducible from the printed scenario alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Master seed for workload generation, simulation, and fault draws.
    pub seed: u64,
    /// Separate seed for the fault-model RNG; `None` ties it to `seed`.
    pub fault_seed: Option<u64>,
    /// Remote sending hosts (the receiver is an additional host).
    pub senders: usize,
    /// Racks of the §7 fabric; 1 is the single-switch star. With more
    /// than one, the receiver sits in rack 0 and the senders are dealt
    /// round-robin over the racks from rack 0, so rack 0 holds at least
    /// one rack-local sender and every other rack a cross-rack one. Needs
    /// `senders >= racks`, and no [`Scenario::crash`] (switch outages are
    /// one-rack only).
    pub racks: usize,
    /// Whether the receiver also feeds a co-located stream (§5.5).
    pub colocated_sender: bool,
    /// Tuples per sending host.
    pub tuples_per_sender: usize,
    /// Distinct short keys in the workload.
    pub distinct_keys: usize,
    /// Zipf skew exponent for key popularity.
    pub zipf_s: f64,
    /// Approximate fraction of tuples carrying long (switch-bypass) keys.
    pub long_key_ratio: f64,
    /// Aggregation operator.
    pub op: AggregateOp,
    /// Link fault model.
    pub faults: FaultSpec,
    /// Sender sliding-window size `W`.
    pub window: usize,
    /// Data channels per host.
    pub data_channels: usize,
    /// Shadow-copy swap threshold (0 disables mid-stream swaps).
    pub swap_threshold: u64,
    /// Aggregators granted per task per AA copy.
    pub region_aggregators: usize,
    /// Restart every daemon mid-run from crash-consistent state.
    pub restart_mid_run: bool,
    /// Crash-restart the switch mid-run (wipes every register array and
    /// bumps the epoch); `None` leaves the switch up for the whole run.
    pub crash: Option<CrashSpec>,
}

impl Scenario {
    /// A small, fast scenario with no faults — the base the sweep and the
    /// property tests perturb.
    pub fn base(seed: u64) -> Self {
        Scenario {
            seed,
            fault_seed: None,
            senders: 3,
            racks: 1,
            colocated_sender: false,
            tuples_per_sender: 400,
            distinct_keys: 64,
            zipf_s: 1.05,
            long_key_ratio: 1.0 / 16.0,
            op: AggregateOp::Sum,
            faults: FaultSpec::none(),
            window: 8,
            data_channels: 1,
            swap_threshold: 16,
            region_aggregators: 32,
            restart_mid_run: false,
            crash: None,
        }
    }

    fn config(&self) -> AskConfig {
        let mut cfg = AskConfig::tiny();
        cfg.window = self.window;
        cfg.data_channels = self.data_channels;
        cfg.swap_threshold = self.swap_threshold;
        cfg.region_aggregators = self.region_aggregators;
        cfg.absorption_audit = true;
        cfg
    }

    /// Generates one sender's deterministic tuple stream.
    fn stream(&self, rng: &mut StdRng) -> Vec<KvTuple> {
        let long_every = if self.long_key_ratio > 0.0 {
            (1.0 / self.long_key_ratio).round().max(1.0) as u64
        } else {
            u64::MAX
        };
        let ranks = ask_workloads::zipf::zipf_stream(
            rng,
            self.distinct_keys,
            self.tuples_per_sender as u64,
            self.zipf_s,
            ask_workloads::zipf::StreamOrder::Shuffled,
        );
        ranks
            .into_iter()
            .enumerate()
            .map(|(i, rank)| {
                let key = if long_every != u64::MAX && (i as u64).is_multiple_of(long_every) {
                    // > 8 bytes: bypasses the switch on the tiny layout.
                    Key::from_str(&format!("longkey-{rank:06}")).expect("valid key")
                } else {
                    Key::from_u64(rank + 1) // + 1: keys must be non-empty
                };
                KvTuple::new(key, rng.gen_range(1..100))
            })
            .collect()
    }

    /// Runs the scenario end to end and checks every invariant.
    ///
    /// With a [`CrashSpec`] this is a two-pass run: a fault-free-of-crash
    /// pass measures the completion time, then the real pass schedules the
    /// outage at the requested fraction of it. The final per-key result
    /// must equal the oracle either way.
    pub fn run(&self) -> RunReport {
        let Some(crash) = self.crash else {
            return self.run_with_outage(None);
        };
        let mut clean = self.clone();
        clean.crash = None;
        let clean_report = clean.run_with_outage(None);
        let Some(t) = clean_report.completed_at_ns else {
            // The crash-free baseline already fails; report that directly
            // rather than crashing a run that never completes.
            return clean_report;
        };
        let down =
            SimTime::from_nanos((t.saturating_mul(crash.down_at_permille as u64) / 1000).max(1));
        let up = down + SimDuration::from_micros(crash.outage_us);
        self.run_with_outage(Some((down, up)))
    }

    /// Hosts per rack: the receiver in rack 0, then one sender per rack in
    /// turn.
    fn hosts_per_rack(&self) -> Vec<usize> {
        assert!(
            self.racks == 1 || self.senders >= self.racks,
            "{} senders cannot fill {} racks",
            self.senders,
            self.racks
        );
        let mut hosts = vec![0; self.racks];
        hosts[0] = 1;
        for k in 0..self.senders {
            hosts[k % self.racks] += 1;
        }
        hosts
    }

    fn run_with_outage(&self, outage: Option<(SimTime, SimTime)>) -> RunReport {
        let task = TaskId(7);
        let link =
            LinkConfig::new(100e9, SimDuration::from_micros(1)).with_faults(self.faults.model());
        let mut builder = AskServiceBuilder::with_racks(&self.hosts_per_rack())
            .config(self.config())
            .link(link)
            .seed(self.seed);
        if let Some(fs) = self.fault_seed {
            builder = builder.fault_seed(fs);
        }
        let mut service: AskService = builder.build();

        let receiver = service.hosts()[0];
        let sender_hosts: Vec<_> = service.hosts()[1..].to_vec();
        let mut task_senders = sender_hosts.clone();
        if self.colocated_sender {
            task_senders.push(receiver);
        }
        service.submit_task_with_op(task, receiver, &task_senders, self.op);

        // Workload generation is seeded separately from the simulation so
        // the same streams feed every fault grid point.
        let mut wl_rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut all_tuples = Vec::new();
        for &s in &task_senders {
            let tuples = self.stream(&mut wl_rng);
            all_tuples.extend(tuples.iter().cloned());
            service.submit_stream(task, s, tuples);
        }
        let expected = reference_aggregate_op(all_tuples.iter().cloned(), self.op);

        if let Some((down, up)) = outage {
            service.schedule_switch_outage(down, up);
        }

        if self.restart_mid_run {
            // Let the protocol get airborne, then crash-restart every
            // daemon (index order, deterministic) and resume.
            service.network_mut().run(None, Some(2_000));
            for &h in service.hosts().to_vec().iter() {
                service.recover_host(h);
            }
        }

        let budget = 10_000_000u64;
        let run = service.run_until_complete(task, receiver, budget);
        let mut violations = Vec::new();
        let completed_at_ns = match run {
            Ok(at) => Some(at.as_nanos()),
            Err(e) => {
                violations.push(format!("run did not complete: {e}"));
                None
            }
        };
        violations.extend(
            invariants::check(&service, task, receiver, &expected, outage.is_some()).violations,
        );

        let sw = service.switch_stats(task).unwrap_or_default();
        let mut host = ask::stats::HostStats::default();
        for &h in service.hosts() {
            host.merge(&service.host_stats(h));
        }
        let eligible = sw.tuples_aggregated + sw.tuples_forwarded;
        RunReport {
            violations,
            completed_at_ns,
            packets_sent: host.packets_sent,
            retransmissions: host.retransmissions,
            duplicates_detected: sw.duplicates_detected,
            tuples_switch_aggregated: sw.tuples_aggregated,
            tuples_host_aggregated: host.tuples_host_aggregated,
            switch_aggregation_permille: (sw.tuples_aggregated * 1000)
                .checked_div(eligible)
                .unwrap_or(0),
            switch_epoch: service.switch_epoch(),
            stale_epoch_drops: service
                .switches()
                .map(|sw| sw.stale_epoch_drops())
                .sum::<u64>()
                + host.stale_epoch_drops,
        }
    }
}

/// Outcome of one scenario run: invariant verdicts plus the counters the
/// sweep report prints. All integers, so reports are bit-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Human-readable invariant violations; empty means the run conformed.
    pub violations: Vec<String>,
    /// Simulated completion time, if the task finished.
    pub completed_at_ns: Option<u64>,
    /// First transmissions across all hosts.
    pub packets_sent: u64,
    /// Timeout-driven retransmissions across all hosts.
    pub retransmissions: u64,
    /// Retransmissions the switch dedup gate recognized.
    pub duplicates_detected: u64,
    /// Tuples absorbed into switch memory.
    pub tuples_switch_aggregated: u64,
    /// Tuples aggregated host-side (residuals, long keys, co-located).
    pub tuples_host_aggregated: u64,
    /// Switch aggregation ratio over eligible tuples, in permille.
    pub switch_aggregation_permille: u64,
    /// Switch incarnation at end of run (0 = never crashed).
    pub switch_epoch: u32,
    /// Old-epoch frames rejected across every switch and every host.
    pub stale_epoch_drops: u64,
}

impl RunReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}
