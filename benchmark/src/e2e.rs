//! One closed-loop iteration of a workload against the real `ask` stack, and
//! the deterministic counters read from its public stats afterwards.
//!
//! The timed region is exactly what a client of the service pays for:
//! `AskServiceBuilder::build` → `submit_task` / `submit_stream` →
//! `run_until_complete` for every task → `result()`. Cloning the input
//! streams happens before it, reading counters and verifying after it.

use crate::trace::Tracer;
use crate::workloads::{Inputs, Workload, TASKS};
use ask::service::{AskService, AskServiceBuilder, PhaseTiming};
use ask::stats::{HostStats, SwitchTaskStats};
use ask_simnet::link::LinkStats;
use ask_wire::key::Key;
use ask_wire::packet::TaskId;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Event budget per task; far above any workload's need, so hitting it
/// means the protocol livelocked and the task counts as failed.
const MAX_EVENTS: u64 = 1 << 40;

/// Everything deterministic one iteration produced, read from public stats.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Completion time of the last task, simulated ns (the paper's JCT).
    pub sim_jct_ns: u64,
    /// Per sender: `(goodput_bytes_sent, last send_complete_at in ns)`.
    pub sender_goodput: Vec<(u64, u64)>,
    /// Switch counters merged over tasks.
    pub switch: SwitchTaskStats,
    /// Tasks that aggregated at least one tuple in switch memory, i.e. were
    /// granted a region.
    pub tasks_with_region: usize,
    /// PISA passes the switch pipeline executed.
    pub passes: u64,
    /// PISA constraint violations (must be 0).
    pub violations: u64,
    /// Receiver daemon counters.
    pub receiver: HostStats,
    /// Sender daemon counters, merged.
    pub senders: HostStats,
    /// Simulator events popped.
    pub events: u64,
    /// Link counters summed over every directed link.
    pub links: LinkStats,
}

impl Counters {
    /// Mean over senders of payload bits per simulated second of sending.
    pub fn sim_goodput_gbps(&self) -> f64 {
        let sum: f64 = self
            .sender_goodput
            .iter()
            .map(|&(bytes, done_ns)| bytes as f64 * 8.0 / done_ns.max(1) as f64)
            .sum();
        sum / self.sender_goodput.len().max(1) as f64
    }

    /// Every counter as one flat list of integers, for the digest.
    fn words(&self) -> Vec<u64> {
        let mut w = vec![self.sim_jct_ns];
        for &(bytes, done) in &self.sender_goodput {
            w.extend([bytes, done]);
        }
        let s = &self.switch;
        w.extend([
            s.data_packets,
            s.packets_fully_aggregated,
            s.packets_forwarded,
            s.longkv_packets_forwarded,
            s.tuples_aggregated,
            s.tuples_forwarded,
            s.tuples_long_forwarded,
            s.duplicates_detected,
            s.stale_dropped,
            s.swaps,
            s.tuples_fetched,
            s.duplicate_absorptions,
        ]);
        w.extend([
            self.tasks_with_region as u64,
            self.passes,
            self.violations,
            self.events,
        ]);
        for h in [&self.receiver, &self.senders] {
            w.extend([
                h.packets_sent,
                h.retransmissions,
                h.acks_received,
                h.packets_received,
                h.duplicates_dropped,
                h.tuples_host_aggregated,
                h.tuples_fetched,
                h.bytes_sent,
                h.goodput_bytes_sent,
                h.pool_hits,
                h.pool_misses,
                h.host_pure_view,
                h.host_view_fallbacks,
            ]);
        }
        let l = &self.links;
        w.extend([
            l.frames_sent,
            l.bytes_sent,
            l.frames_delivered,
            l.frames_dropped,
            l.frames_duplicated,
        ]);
        w
    }
}

/// What one iteration produced.
#[derive(Debug)]
pub struct Iteration {
    /// Wall time of the timed region.
    pub wall: Duration,
    /// Per task: the result map, or `None` if `run_until_complete` failed.
    pub results: Vec<Option<HashMap<Key, u32>>>,
    /// Deterministic counters.
    pub counters: Counters,
    /// The service's own phase attribution, when requested.
    pub phases: Option<PhaseTiming>,
}

/// What every task's result must equal, and a digest of it.
#[derive(Debug)]
pub struct Reference {
    maps: Vec<HashMap<Key, u32>>,
    /// Per task: FNV-1a over the reference map sorted by key.
    digests: Vec<u64>,
}

impl Reference {
    /// `reference_aggregate` over each task's input.
    pub fn of(inputs: &Inputs) -> Self {
        let maps = inputs.reference();
        let digests = maps
            .iter()
            .map(|map| {
                let mut entries: Vec<(&Key, &u32)> = map.iter().collect();
                entries.sort_unstable();
                let mut h = Fnv::default();
                h.word(entries.len() as u64);
                for (key, value) in entries {
                    h.bytes(key.as_bytes());
                    h.word(*value as u64);
                }
                h.0
            })
            .collect();
        Reference { maps, digests }
    }
}

/// The verdict on one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Tasks that failed: no result, a result different from the reference,
    /// or (for every task of the iteration) a PISA constraint violation.
    pub failed_ops: u64,
    /// 64-bit FNV-1a over the sorted result maps and every deterministic
    /// counter. Two iterations, runs or commits with the same digest
    /// produced identical results and identical simulated statistics.
    pub sim_digest: u64,
}

impl Iteration {
    /// Verifies every task result against the reference and digests the
    /// iteration. A correct result is digested through the reference's
    /// precomputed digest, which it equals, so no map is sorted per
    /// iteration.
    pub fn check(&self, reference: &Reference) -> Verdict {
        let mut h = Fnv::default();
        let mut wrong = 0;
        for ((got, want), digest) in self
            .results
            .iter()
            .zip(&reference.maps)
            .zip(&reference.digests)
        {
            if got.as_ref() == Some(want) {
                h.word(*digest);
            } else {
                wrong += 1;
                h.word(u64::MAX);
            }
        }
        for w in self.counters.words() {
            h.word(w);
        }
        Verdict {
            failed_ops: if self.counters.violations != 0 {
                TASKS as u64
            } else {
                wrong
            },
            sim_digest: h.0,
        }
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Runs one iteration. `inputs` is consumed (the service takes the streams
/// by value), so the caller clones outside the timed region. An enabled
/// `tracer` records the four timed steps as spans; end-to-end runs pass a
/// disabled one so that no clock is read inside the timed region.
pub fn run_iteration(
    workload: &Workload,
    inputs: Inputs,
    seed: u64,
    phase_timing: bool,
    tracer: &mut Tracer,
) -> Iteration {
    let tasks: Vec<TaskId> = (0..TASKS as u32).map(TaskId).collect();

    let start = Instant::now();
    let mut service = tracer.span("build_service", |_| {
        let mut service = AskServiceBuilder::new(workload.senders + 1)
            .config(workload.config.clone())
            .link(workload.link.clone())
            .seed(seed)
            .build();
        if phase_timing {
            service.enable_phase_timing();
        }
        service
    });
    let hosts = service.hosts().to_vec();
    let (receiver, senders) = (hosts[0], &hosts[1..]);
    tracer.span("submit", |_| {
        for &task in &tasks {
            service.submit_task(task, receiver, senders);
        }
        for (chunks, &sender) in inputs.chunks.into_iter().zip(senders) {
            for (chunk, &task) in chunks.into_iter().zip(&tasks) {
                service.submit_stream(task, sender, chunk);
            }
        }
    });
    let completed: Vec<bool> = tracer.span("run", |_| {
        tasks
            .iter()
            .map(|&task| {
                service
                    .run_until_complete(task, receiver, MAX_EVENTS)
                    .is_ok()
            })
            .collect()
    });
    let results = tracer.span("collect", |_| {
        tasks
            .iter()
            .zip(&completed)
            .map(|(&task, &ok)| ok.then(|| service.result(task, receiver)).flatten())
            .collect()
    });
    let wall = start.elapsed();

    Iteration {
        wall,
        results,
        counters: read_counters(&mut service, &tasks),
        phases: phase_timing.then(|| service.phase_timing()),
    }
}

fn read_counters(service: &mut AskService, tasks: &[TaskId]) -> Counters {
    let events = service.network_mut().events_processed();
    let hosts = service.hosts();
    let (receiver, senders) = (hosts[0], &hosts[1..]);
    let mut c = Counters {
        receiver: service.host_stats(receiver),
        passes: service.switch_ref().engine().passes_executed(),
        violations: service.switch_ref().engine().constraint_violations(),
        events,
        ..Counters::default()
    };
    for &task in tasks {
        if let Some(done) = service.task_result(task, receiver) {
            c.sim_jct_ns = c.sim_jct_ns.max(done.completed_at.as_nanos());
        }
        if let Some(stats) = service.switch_stats(task) {
            c.tasks_with_region += (stats.tuples_aggregated > 0) as usize;
            c.switch.merge(&stats);
        }
    }
    for &sender in senders {
        let stats = service.host_stats(sender);
        let done_ns = tasks
            .iter()
            .filter_map(|&task| service.daemon(sender).send_complete_at(task))
            .map(|t| t.as_nanos())
            .max()
            .unwrap_or(0);
        c.sender_goodput.push((stats.goodput_bytes_sent, done_ns));
        c.senders.merge(&stats);
    }
    for &host in hosts {
        for link in [service.uplink_stats(host), service.downlink_stats(host)] {
            c.links.frames_sent += link.frames_sent;
            c.links.bytes_sent += link.bytes_sent;
            c.links.frames_delivered += link.frames_delivered;
            c.links.frames_dropped += link.frames_dropped;
            c.links.frames_duplicated += link.frames_duplicated;
        }
    }
    c
}
