//! End-to-end harness: a rack of hosts around one ASK switch.
//!
//! [`AskService`] assembles the star topology the paper evaluates (§5.1:
//! hosts on 100 Gbps links to one programmable ToR switch), exposes the
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

/// Builder for an [`AskService`] deployment.
#[derive(Debug)]
pub struct AskServiceBuilder {
    config: AskConfig,
    hosts: usize,
    link: LinkConfig,
    seed: u64,
    fault_seed: Option<u64>,
}

impl AskServiceBuilder {
    /// Starts a deployment with `hosts` hosts (≥ 1).
    pub fn new(hosts: usize) -> Self {
        AskServiceBuilder {
            config: AskConfig::paper_default(),
            hosts,
            link: LinkConfig::new(100e9, SimDuration::from_micros(1)),
            seed: 1,
            fault_seed: None,
        }
    }

    /// Overrides the ASK configuration.
    pub fn config(mut self, config: AskConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the host↔switch link (bandwidth, latency, faults).
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

    /// Builds the deployment.
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0`.
    pub fn build(self) -> AskService {
        assert!(self.hosts > 0, "need at least one host");
        let mut b = NetworkBuilder::new(self.seed);
        if let Some(fault_seed) = self.fault_seed {
            b.set_fault_seed(fault_seed);
        }
        let switch = b.add_node(AskSwitch::new(self.config.clone()));
        let hosts: Vec<NodeId> = (0..self.hosts)
            .map(|_| {
                let id = b.add_node(AskDaemon::new(self.config.clone(), switch));
                b.connect(id, switch, self.link.clone());
                id
            })
            .collect();
        AskService {
            network: b.build(),
            switch,
            hosts,
            config: self.config,
        }
    }
}

/// A running ASK deployment: one switch, N hosts, and the simulation clock.
#[derive(Debug)]
pub struct AskService {
    network: Network,
    switch: NodeId,
    hosts: Vec<NodeId>,
    config: AskConfig,
}

impl AskService {
    /// Node ids of the hosts, in creation order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// The switch's node id.
    pub fn switch_id(&self) -> NodeId {
        self.switch
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

    /// Read-only access to a host's daemon (traces, detailed state).
    ///
    /// # Panics
    ///
    /// Panics if `host` is not a host of this deployment.
    pub fn daemon(&self, host: NodeId) -> &AskDaemon {
        assert!(self.hosts.contains(&host), "unknown host {host}");
        self.network.node(host)
    }

    /// Read-only access to the switch node (engine and gate counters).
    pub fn switch_ref(&self) -> &AskSwitch {
        self.network.node(self.switch)
    }

    /// Mutable access to the switch node (chaos injection hooks).
    pub fn switch_mut(&mut self) -> &mut AskSwitch {
        self.network.node_mut(self.switch)
    }

    /// Schedules a switch outage: the switch drops off the network at
    /// `down_at` (frames and timers addressed to it are discarded) and
    /// comes back at `up_at` through [`AskSwitch::crash`] — empty data
    /// plane, next epoch. Hosts detect the outage through retransmit
    /// timeouts and resynchronize against the restarted switch.
    ///
    /// # Panics
    ///
    /// Panics if `up_at <= down_at`.
    pub fn schedule_switch_outage(&mut self, down_at: SimTime, up_at: SimTime) {
        assert!(up_at > down_at, "outage must end after it starts");
        self.network.schedule_node_down(self.switch, down_at);
        self.network.schedule_node_up(self.switch, up_at);
    }

    /// The switch's current incarnation number (starts at 0, +1 per crash).
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
    /// Panics if `sender` is not a host of this deployment.
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
        loop {
            if let Some(result) = self.network.node::<AskDaemon>(receiver).task_result(task) {
                return Ok(result.completed_at);
            }
            match self.network.run(None, Some(max_events.min(100_000))) {
                StopReason::Idle => {
                    return match self.network.node::<AskDaemon>(receiver).task_result(task) {
                        Some(r) => Ok(r.completed_at),
                        None => Err(RunError::Stalled),
                    };
                }
                StopReason::EventBudget => {
                    if self.network.events_processed() >= max_events {
                        return Err(RunError::EventBudgetExhausted);
                    }
                }
                StopReason::Deadline => unreachable!("no deadline set"),
            }
        }
    }

    /// Runs until every queued event is processed.
    pub fn run_to_idle(&mut self) {
        self.network.run_to_idle();
    }

    /// The completed result of `task` at `receiver`, as a plain map.
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

    /// Switch counters for `task`.
    pub fn switch_stats(&self, task: TaskId) -> Option<SwitchTaskStats> {
        self.network.node::<AskSwitch>(self.switch).task_stats(task)
    }

    /// Host counters for one host.
    pub fn host_stats(&self, host: NodeId) -> HostStats {
        self.network.node::<AskDaemon>(host).stats()
    }

    /// CPU time one host daemon has burned.
    pub fn host_cpu_busy(&self, host: NodeId) -> SimDuration {
        self.network.node::<AskDaemon>(host).cpu_busy()
    }

    /// Wire/goodput counters of the directed link `host → switch`.
    pub fn uplink_stats(&self, host: NodeId) -> ask_simnet::link::LinkStats {
        self.network.link_stats(host, self.switch)
    }

    /// Wire/goodput counters of the directed link `switch → host`.
    pub fn downlink_stats(&self, host: NodeId) -> ask_simnet::link::LinkStats {
        self.network.link_stats(self.switch, host)
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
        let switch_ns = self.network.dispatch_ns(self.switch);
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
/// time, not simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Classifying tuples and building packet payloads in the senders.
    pub packetize_ns: u64,
    /// Switch node dispatch (decode, aggregate, verdicts, fetch drain).
    pub switch_ns: u64,
    /// Host daemon dispatch minus the packetize share.
    pub host_ns: u64,
    /// Everything outside node handlers: queue ops, links, delivery, merge.
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
