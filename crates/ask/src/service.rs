//! End-to-end harness: racks of hosts around ASK switches.
//!
//! [`AskService`] assembles the star topology the paper evaluates (§5.1:
//! hosts on 100 Gbps links to one programmable ToR switch) or the §7
//! multi-rack fabric (a spine over per-rack ToRs), exposes the
//! task-submission API, and drives the simulation until tasks complete.

use crate::config::AskConfig;
use crate::host::daemon::{AskDaemon, TaskResult};
use crate::stats::{HostStats, SwitchTaskStats};
use crate::switch::AskSwitch;
use ask_simnet::frame::NodeId;
use ask_simnet::link::LinkConfig;
use ask_simnet::network::{Network, NetworkBuilder, StopReason};
use ask_simnet::time::{SimDuration, SimTime};
use ask_wire::key::Key;
use ask_wire::packet::{AggregateOp, KvTuple, TaskId};
use std::collections::HashMap;
use std::ops::Range;

/// Builder for an [`AskService`] deployment.
#[derive(Debug)]
pub struct AskServiceBuilder {
    config: AskConfig,
    hosts_per_rack: Vec<usize>,
    link: LinkConfig,
    seed: u64,
    fault_seed: Option<u64>,
}

impl AskServiceBuilder {
    /// Starts a one-rack deployment: `hosts` hosts (≥ 1) around one switch.
    pub fn new(hosts: usize) -> Self {
        Self::with_racks(&[hosts])
    }

    /// Starts a §7 multi-rack deployment with `hosts_per_rack[r]` hosts in
    /// rack `r`. With more than one rack a spine switch interconnects the
    /// per-rack ToR switches (400 Gbit/s, 2 µs links). Each ToR provides
    /// the aggregation service *only to its own rack*: it keeps
    /// reliability state for local data channels and aggregates tasks
    /// whose receiver lives in the rack, while cross-rack traffic passes
    /// every switch as plain forwarding and is aggregated at the receiving
    /// host. No switch ever tracks another rack's channels. One rack is
    /// the star of [`AskServiceBuilder::new`].
    pub fn with_racks(hosts_per_rack: &[usize]) -> Self {
        AskServiceBuilder {
            config: AskConfig::paper_default(),
            hosts_per_rack: hosts_per_rack.to_vec(),
            link: LinkConfig::new(100e9, SimDuration::from_micros(1)),
            seed: 1,
            fault_seed: None,
        }
    }

    /// Overrides the ASK configuration (applied to every switch and host).
    pub fn config(mut self, config: AskConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides every host↔ToR link (bandwidth, latency, faults).
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Seeds the simulation RNG (fault draws).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seeds the fault-model RNG separately from the simulation seed, so a
    /// chaos sweep can explore fault patterns while everything else stays
    /// pinned. Defaults to the simulation seed.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Builds the deployment. Node ids follow creation order: the spine
    /// (multi-rack only), then each rack's ToR followed by its hosts.
    ///
    /// # Panics
    ///
    /// Panics if there are no racks or a rack has no hosts.
    pub fn build(self) -> AskService {
        assert!(
            !self.hosts_per_rack.is_empty() && self.hosts_per_rack.iter().all(|&h| h > 0),
            "need at least one rack, and racks must be non-empty"
        );
        let mut b = NetworkBuilder::new(self.seed);
        if let Some(fault_seed) = self.fault_seed {
            b.set_fault_seed(fault_seed);
        }
        let spine = (self.hosts_per_rack.len() > 1)
            .then(|| b.add_node(AskSwitch::new(self.config.clone())));
        let mut hosts = Vec::new();
        let mut racks = Vec::new();
        for &n in &self.hosts_per_rack {
            let tor = b.add_node(AskSwitch::new(self.config.clone()));
            if let Some(spine) = spine {
                b.connect(
                    tor,
                    spine,
                    LinkConfig::new(400e9, SimDuration::from_micros(2)),
                );
            }
            let start = hosts.len();
            for _ in 0..n {
                let h = b.add_node(AskDaemon::new(self.config.clone(), tor));
                b.connect(h, tor, self.link.clone());
                hosts.push(h);
            }
            racks.push(Rack {
                tor,
                hosts: start..hosts.len(),
            });
        }
        let mut network = b.build();

        // Program routing and rack locality.
        if let Some(spine) = spine {
            let index = |h: &NodeId| h.index() as u32;
            for rack in &racks {
                let local = &hosts[rack.hosts.clone()];
                let tor: &mut AskSwitch = network.node_mut(rack.tor);
                tor.set_local_hosts(local.iter().map(index));
                for h in hosts.iter().filter(|h| !local.contains(h)) {
                    tor.set_route(index(h), spine);
                }
            }
            let sw: &mut AskSwitch = network.node_mut(spine);
            sw.set_local_hosts(std::iter::empty()); // spine never aggregates
            for rack in &racks {
                for h in &hosts[rack.hosts.clone()] {
                    sw.set_route(index(h), rack.tor);
                }
            }
        }
        AskService {
            network,
            spine,
            racks,
            hosts,
            config: self.config,
        }
    }
}

/// One rack: its ToR switch and its slice of [`AskService::hosts`].
#[derive(Debug)]
struct Rack {
    tor: NodeId,
    hosts: Range<usize>,
}

/// A running ASK deployment: racks of hosts, their switches, and the
/// simulation clock.
#[derive(Debug)]
pub struct AskService {
    network: Network,
    /// The switch between the ToRs; `None` for a one-rack deployment.
    spine: Option<NodeId>,
    racks: Vec<Rack>,
    hosts: Vec<NodeId>,
    config: AskConfig,
}

impl AskService {
    /// Node ids of the hosts, in creation order (rack by rack).
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Node ids of rack `r`'s hosts.
    ///
    /// # Panics
    ///
    /// Panics if the rack index is out of range.
    pub fn rack(&self, r: usize) -> &[NodeId] {
        &self.hosts[self.racks[r].hosts.clone()]
    }

    /// Node ids of every switch: the ToRs in rack order, then the spine.
    fn switch_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.racks.iter().map(|r| r.tor).chain(self.spine)
    }

    /// Every switch: the ToRs in rack order, then the spine.
    pub fn switches(&self) -> impl Iterator<Item = &AskSwitch> + '_ {
        self.switch_ids().map(|sw| self.network.node(sw))
    }

    /// The ToR switch `host` hangs off.
    fn tor_of(&self, host: NodeId) -> NodeId {
        let rack = self
            .racks
            .iter()
            .find(|r| self.hosts[r.hosts.clone()].contains(&host));
        rack.unwrap_or_else(|| panic!("unknown host {host}")).tor
    }

    /// Rack 0's ToR switch id — the only switch of a one-rack deployment,
    /// which the single-switch accessors below address.
    pub fn switch_id(&self) -> NodeId {
        self.racks[0].tor
    }

    /// The service configuration.
    pub fn config(&self) -> &AskConfig {
        &self.config
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.network.now()
    }

    /// Direct access to the underlying network (advanced instrumentation).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Read-only access to a host's daemon (detailed state).
    ///
    /// # Panics
    ///
    /// Panics if `host` is not a host of this deployment.
    pub fn daemon(&self, host: NodeId) -> &AskDaemon {
        assert!(self.hosts.contains(&host), "unknown host {host}");
        self.network.node(host)
    }

    /// Read-only access to rack 0's switch (engine and gate counters).
    pub fn switch_ref(&self) -> &AskSwitch {
        self.network.node(self.switch_id())
    }

    /// Schedules a switch outage: the switch drops off the network at
    /// `down_at` (frames and timers addressed to it are discarded) and
    /// comes back at `up_at` through [`AskSwitch::crash`] — empty data
    /// plane, next epoch. Hosts detect the outage through retransmit
    /// timeouts and resynchronize against the restarted switch.
    ///
    /// # Panics
    ///
    /// Panics if `up_at <= down_at`, or if the deployment has more than one
    /// rack: every switch keeps its own epoch but a host tracks only one,
    /// so a crash anywhere in a fabric leaves hosts dropping their own
    /// ToR's frames (DESIGN.md §8) and the run never finishes.
    pub fn schedule_switch_outage(&mut self, down_at: SimTime, up_at: SimTime) {
        assert!(up_at > down_at, "outage must end after it starts");
        assert!(
            self.spine.is_none(),
            "switch outages are defined for one-rack deployments only"
        );
        let switch = self.switch_id();
        self.network.schedule_node_down(switch, down_at);
        self.network.schedule_node_up(switch, up_at);
    }

    /// Rack 0's switch's current incarnation number (starts at 0, +1 per
    /// crash).
    pub fn switch_epoch(&self) -> u32 {
        self.switch_ref().epoch()
    }

    /// Restarts `host`'s daemon mid-run ([`AskDaemon::recover`]): in-flight
    /// packets are retransmitted from the crash-consistent window and
    /// pending fetches re-driven.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not a host of this deployment.
    pub fn recover_host(&mut self, host: NodeId) {
        assert!(self.hosts.contains(&host), "unknown host {host}");
        self.network
            .with_node::<AskDaemon, _>(host, |daemon, ctx| daemon.recover(ctx));
    }

    /// Submits an aggregation task: `receiver` collects the streams of all
    /// `senders` (which may include the receiver itself for co-located
    /// mappers).
    ///
    /// # Panics
    ///
    /// Panics if `receiver` or any sender is not a host of this deployment.
    pub fn submit_task(&mut self, task: TaskId, receiver: NodeId, senders: &[NodeId]) {
        self.submit_task_with_op(task, receiver, senders, AggregateOp::Sum);
    }

    /// [`AskService::submit_task`] with an explicit aggregation operator
    /// (`SUM`/`MAX`/`MIN`), applied by the switch ALU and host merges alike.
    ///
    /// # Panics
    ///
    /// Panics if `receiver` or any sender is not a host of this deployment.
    pub fn submit_task_with_op(
        &mut self,
        task: TaskId,
        receiver: NodeId,
        senders: &[NodeId],
        op: AggregateOp,
    ) {
        assert!(
            self.hosts.contains(&receiver),
            "unknown receiver {receiver}"
        );
        let sender_ixs: Vec<u32> = senders
            .iter()
            .map(|s| {
                assert!(self.hosts.contains(s), "unknown sender {s}");
                s.index() as u32
            })
            .collect();
        self.network
            .with_node::<AskDaemon, _>(receiver, |daemon, ctx| {
                daemon.submit_receive_task_with_op(task, &sender_ixs, op, ctx);
            });
    }

    /// Supplies one sender's key-value stream for `task`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is not a host of this deployment, or if it
    /// already supplied a stream for `task`.
    pub fn submit_stream(&mut self, task: TaskId, sender: NodeId, tuples: Vec<KvTuple>) {
        assert!(self.hosts.contains(&sender), "unknown sender {sender}");
        self.network
            .with_node::<AskDaemon, _>(sender, |daemon, ctx| {
                daemon.submit_send_task(task, tuples, ctx);
            });
    }

    /// Runs the simulation until `task` completes at `receiver` or the
    /// event horizon passes. Returns the completion time on success.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the simulation goes idle or hits the event
    /// budget before the task finishes.
    pub fn run_until_complete(
        &mut self,
        task: TaskId,
        receiver: NodeId,
        max_events: u64,
    ) -> Result<SimTime, RunError> {
        let completed_at = |network: &Network| {
            network
                .node::<AskDaemon>(receiver)
                .task_result(task)
                .map(|r| r.completed_at)
        };
        loop {
            if let Some(at) = completed_at(&self.network) {
                return Ok(at);
            }
            match self.network.run(None, Some(max_events.min(100_000))) {
                StopReason::Idle => return completed_at(&self.network).ok_or(RunError::Stalled),
                // The task may have finished inside the last chunk.
                StopReason::EventBudget if self.network.events_processed() >= max_events => {
                    return completed_at(&self.network).ok_or(RunError::EventBudgetExhausted);
                }
                StopReason::EventBudget => {}
                StopReason::Deadline => unreachable!("no deadline set"),
            }
        }
    }

    /// Runs until every queued event is processed.
    pub fn run_to_idle(&mut self) {
        self.network.run_to_idle();
    }

    /// The completed result of `task` at `receiver`, as a plain map. Each
    /// call builds a fresh map from the result table
    /// ([`TaskResult::to_map`]), which the receiver's merge worker handed
    /// over at completion and which stays in place at the receiver. The
    /// first read of a task waits for the worker to finish its merges.
    pub fn result(&self, task: TaskId, receiver: NodeId) -> Option<HashMap<Key, u32>> {
        self.network
            .node::<AskDaemon>(receiver)
            .task_result(task)
            .map(TaskResult::to_map)
    }

    /// The completed [`TaskResult`] of `task` at `receiver`.
    pub fn task_result(&self, task: TaskId, receiver: NodeId) -> Option<TaskResult> {
        self.network
            .node::<AskDaemon>(receiver)
            .task_result(task)
            .cloned()
    }

    /// Switch counters for `task` from whichever switch served it (the
    /// receiver's ToR).
    pub fn switch_stats(&self, task: TaskId) -> Option<SwitchTaskStats> {
        self.switches().find_map(|sw| sw.task_stats(task))
    }

    /// Host counters for one host.
    pub fn host_stats(&self, host: NodeId) -> HostStats {
        self.network.node::<AskDaemon>(host).stats()
    }

    /// CPU time one host daemon has burned.
    pub fn host_cpu_busy(&self, host: NodeId) -> SimDuration {
        self.network.node::<AskDaemon>(host).cpu_busy()
    }

    /// Wire/goodput counters of the directed link `host → ToR`.
    pub fn uplink_stats(&self, host: NodeId) -> ask_simnet::link::LinkStats {
        self.network.link_stats(host, self.tor_of(host))
    }

    /// Wire/goodput counters of the directed link `ToR → host`.
    pub fn downlink_stats(&self, host: NodeId) -> ask_simnet::link::LinkStats {
        self.network.link_stats(self.tor_of(host), host)
    }

    /// Turns on wall-time phase accounting (what the `benchmark/` stick
    /// reports as `service.*_share`). Purely observational — simulation behavior and every report stay
    /// byte-identical — but the clock reads cost real time, so this is off
    /// by default.
    pub fn enable_phase_timing(&mut self) {
        self.network.enable_dispatch_timing();
        for host in self.hosts.clone() {
            self.network
                .node_mut::<AskDaemon>(host)
                .enable_phase_timing();
        }
    }

    /// Wall-time attribution across simulator phases, when
    /// [`AskService::enable_phase_timing`] was called before running.
    ///
    /// `drain` is the run time not spent inside any node handler: event
    /// queue operations, link/fault modeling and frame delivery.
    pub fn phase_timing(&self) -> PhaseTiming {
        let switch_ns = self
            .switch_ids()
            .map(|sw| self.network.dispatch_ns(sw))
            .sum();
        let mut host_dispatch_ns = 0u64;
        let mut packetize_ns = 0u64;
        for &host in &self.hosts {
            host_dispatch_ns += self.network.dispatch_ns(host);
            packetize_ns += self.network.node::<AskDaemon>(host).packetize_ns();
        }
        let total_ns = self.network.run_wall_ns();
        PhaseTiming {
            packetize_ns,
            switch_ns,
            host_ns: host_dispatch_ns.saturating_sub(packetize_ns),
            drain_ns: total_ns.saturating_sub(switch_ns + host_dispatch_ns),
            total_ns,
        }
    }
}

/// Per-phase wall-time breakdown of a run (see
/// [`AskService::phase_timing`]). All figures are nanoseconds of host wall
/// time, not simulated time. The residual merge is in none of the four
/// shares: it runs on the receivers' merge workers, beside the simulation
/// thread. `host_ns` holds only the copy of each residual tuple into a
/// worker's batch, and any wait for a full channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Classifying tuples and building packet payloads in the senders.
    pub packetize_ns: u64,
    /// Switch node dispatch, over every switch (decode, aggregate,
    /// verdicts, fetch drain).
    pub switch_ns: u64,
    /// Host daemon dispatch minus the packetize share.
    pub host_ns: u64,
    /// Everything outside node handlers: queue ops, links, delivery.
    pub drain_ns: u64,
    /// Total wall time spent inside `Network::run`.
    pub total_ns: u64,
}

impl PhaseTiming {
    /// Folds another run's breakdown into this one (the stick sums its
    /// traced iterations this way).
    pub fn absorb(&mut self, other: &PhaseTiming) {
        self.packetize_ns += other.packetize_ns;
        self.switch_ns += other.switch_ns;
        self.host_ns += other.host_ns;
        self.drain_ns += other.drain_ns;
        self.total_ns += other.total_ns;
    }
}

/// Why [`AskService::run_until_complete`] gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The event queue drained without the task completing (protocol stall).
    Stalled,
    /// The event budget ran out (likely too small for the workload).
    EventBudgetExhausted,
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::Stalled => write!(f, "simulation went idle before task completion"),
            RunError::EventBudgetExhausted => write!(f, "event budget exhausted"),
        }
    }
}

impl std::error::Error for RunError {}

/// Reference aggregation: what the distributed result must equal.
///
/// # Examples
///
/// ```
/// use ask::service::reference_aggregate;
/// use ask_wire::prelude::*;
///
/// let tuples = vec![
///     KvTuple::new(Key::from_str("a")?, 1),
///     KvTuple::new(Key::from_str("a")?, 2),
/// ];
/// let agg = reference_aggregate(tuples.iter().cloned());
/// assert_eq!(agg[&Key::from_str("a")?], 3);
/// # Ok::<(), ask_wire::key::KeyError>(())
/// ```
pub fn reference_aggregate(tuples: impl IntoIterator<Item = KvTuple>) -> HashMap<Key, u32> {
    reference_aggregate_op(tuples, AggregateOp::Sum)
}

/// Reference aggregation with an explicit operator — what the distributed
/// result of [`AskService::submit_task_with_op`] must equal.
pub fn reference_aggregate_op(
    tuples: impl IntoIterator<Item = KvTuple>,
    op: AggregateOp,
) -> HashMap<Key, u32> {
    let mut out: HashMap<Key, u32> = HashMap::new();
    for t in tuples {
        out.entry(t.key)
            .and_modify(|v| *v = op.combine(*v, t.value))
            .or_insert(t.value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ask_wire::key::Key;

    fn stream(n: u64) -> Vec<KvTuple> {
        (0..n)
            .map(|i| KvTuple::new(Key::from_u64(i % 97 + 1), 1))
            .collect()
    }

    /// Builds one star with two tasks into the same receiver: a short one
    /// and a long one that keeps the network busy after the short one is
    /// done.
    fn two_tasks() -> (AskService, NodeId) {
        let mut svc = AskServiceBuilder::new(3).config(AskConfig::tiny()).build();
        let h = svc.hosts().to_vec();
        for (task, sender, n) in [(TaskId(1), h[1], 50), (TaskId(2), h[2], 20_000)] {
            svc.submit_task(task, h[0], &[sender]);
            svc.submit_stream(task, sender, stream(n));
        }
        (svc, h[0])
    }

    #[test]
    fn a_task_finished_inside_the_last_chunk_is_not_out_of_budget() {
        let (mut probe, receiver) = two_tasks();
        while probe.task_result(TaskId(1), receiver).is_none() {
            probe.network_mut().run(None, Some(1));
        }
        let done_after = probe.network_mut().events_processed();
        let done_at = probe.task_result(TaskId(1), receiver).unwrap().completed_at;

        let (mut svc, receiver) = two_tasks();
        let budget = done_after + 1_000;
        assert_eq!(
            svc.run_until_complete(TaskId(1), receiver, budget),
            Ok(done_at)
        );
        assert_eq!(svc.network_mut().events_processed(), budget);
        assert!(
            svc.task_result(TaskId(2), receiver).is_none(),
            "the long task was still running when the budget ran out"
        );
    }
}
