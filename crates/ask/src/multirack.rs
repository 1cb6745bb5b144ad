//! Multi-rack deployment (§7 "Deployment in Multi-rack networks").
//!
//! Topology: a spine switch interconnects per-rack top-of-rack (ToR) ASK
//! switches; hosts hang off their ToR. Each ToR provides the aggregation
//! service *only to its own rack* — it keeps reliability state for local
//! data channels and aggregates tasks whose receiver lives in the rack —
//! while cross-rack traffic passes through every switch as plain
//! forwarding and is aggregated at the receiving host. This bounds switch
//! state exactly as the paper prescribes: no switch ever tracks another
//! rack's channels.

use crate::config::AskConfig;
use crate::host::daemon::{AskDaemon, TaskResult};
use crate::stats::SwitchTaskStats;
use crate::switch::AskSwitch;
use ask_simnet::frame::NodeId;
use ask_simnet::link::LinkConfig;
use ask_simnet::network::{Network, NetworkBuilder, StopReason};
use ask_simnet::time::{SimDuration, SimTime};
use ask_wire::packet::{KvTuple, TaskId};

/// Builder for a [`MultiRackService`].
#[derive(Debug)]
pub struct MultiRackBuilder {
    hosts_per_rack: Vec<usize>,
    config: AskConfig,
    access_link: LinkConfig,
    spine_link: LinkConfig,
    seed: u64,
}

impl MultiRackBuilder {
    /// Starts a deployment with `hosts_per_rack[r]` hosts in rack `r`.
    pub fn new(hosts_per_rack: &[usize]) -> Self {
        MultiRackBuilder {
            hosts_per_rack: hosts_per_rack.to_vec(),
            config: AskConfig::paper_default(),
            access_link: LinkConfig::new(100e9, SimDuration::from_micros(1)),
            spine_link: LinkConfig::new(400e9, SimDuration::from_micros(2)),
            seed: 1,
        }
    }

    /// Overrides the ASK configuration (applied to every switch and host).
    pub fn config(mut self, config: AskConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the host↔ToR access links.
    pub fn access_link(mut self, link: LinkConfig) -> Self {
        self.access_link = link;
        self
    }

    /// Overrides the ToR↔spine links.
    pub fn spine_link(mut self, link: LinkConfig) -> Self {
        self.spine_link = link;
        self
    }

    /// Seeds the simulation RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the deployment.
    ///
    /// # Panics
    ///
    /// Panics if there are no racks or an empty rack.
    pub fn build(self) -> MultiRackService {
        assert!(!self.hosts_per_rack.is_empty(), "need at least one rack");
        assert!(
            self.hosts_per_rack.iter().all(|&h| h > 0),
            "racks must be non-empty"
        );
        let mut b = NetworkBuilder::new(self.seed);
        let spine = b.add_node(AskSwitch::new(self.config.clone()));
        let mut tors = Vec::new();
        let mut racks: Vec<Vec<NodeId>> = Vec::new();
        for &n in &self.hosts_per_rack {
            let tor = b.add_node(AskSwitch::new(self.config.clone()));
            b.connect(tor, spine, self.spine_link.clone());
            let hosts: Vec<NodeId> = (0..n)
                .map(|_| {
                    let h = b.add_node(AskDaemon::new(self.config.clone(), tor));
                    b.connect(h, tor, self.access_link.clone());
                    h
                })
                .collect();
            tors.push(tor);
            racks.push(hosts);
        }
        let mut network = b.build();

        // Program routing and rack locality.
        for (r, tor) in tors.iter().enumerate() {
            let local: Vec<u32> = racks[r].iter().map(|h| h.index() as u32).collect();
            let sw: &mut AskSwitch = network.node_mut(*tor);
            sw.set_local_hosts(local.clone());
            for (other, rack) in racks.iter().enumerate() {
                if other != r {
                    for h in rack {
                        sw.set_route(h.index() as u32, spine);
                    }
                }
            }
        }
        {
            let sw: &mut AskSwitch = network.node_mut(spine);
            sw.set_local_hosts(std::iter::empty()); // spine never aggregates
            for (r, rack) in racks.iter().enumerate() {
                for h in rack {
                    sw.set_route(h.index() as u32, tors[r]);
                }
            }
        }
        MultiRackService {
            network,
            spine,
            tors,
            racks,
        }
    }
}

/// A running multi-rack deployment.
#[derive(Debug)]
pub struct MultiRackService {
    network: Network,
    spine: NodeId,
    tors: Vec<NodeId>,
    racks: Vec<Vec<NodeId>>,
}

impl MultiRackService {
    /// Host node ids of rack `r`.
    ///
    /// # Panics
    ///
    /// Panics if the rack index is out of range.
    pub fn rack(&self, r: usize) -> &[NodeId] {
        &self.racks[r]
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks.len()
    }

    /// ToR switch node id of rack `r`.
    pub fn tor(&self, r: usize) -> NodeId {
        self.tors[r]
    }

    /// The spine switch node id.
    pub fn spine(&self) -> NodeId {
        self.spine
    }

    /// Submits an aggregation task (receiver and senders may live in any
    /// racks; only rack-local senders of the receiver's rack get INA).
    pub fn submit_task(&mut self, task: TaskId, receiver: NodeId, senders: &[NodeId]) {
        let sender_ixs: Vec<u32> = senders.iter().map(|s| s.index() as u32).collect();
        self.network
            .with_node::<AskDaemon, _>(receiver, |daemon, ctx| {
                daemon.submit_receive_task(task, &sender_ixs, ctx);
            });
    }

    /// Supplies one sender's stream for `task`.
    pub fn submit_stream(&mut self, task: TaskId, sender: NodeId, tuples: Vec<KvTuple>) {
        self.network
            .with_node::<AskDaemon, _>(sender, |daemon, ctx| {
                daemon.submit_send_task(task, tuples, ctx);
            });
    }

    /// Runs until `task` completes at `receiver`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::service::RunError`] if the simulation goes idle or
    /// exhausts `max_events` first.
    pub fn run_until_complete(
        &mut self,
        task: TaskId,
        receiver: NodeId,
        max_events: u64,
    ) -> Result<SimTime, crate::service::RunError> {
        loop {
            if let Some(result) = self.network.node::<AskDaemon>(receiver).task_result(task) {
                return Ok(result.completed_at);
            }
            match self.network.run(None, Some(max_events.min(100_000))) {
                StopReason::Idle => {
                    return self
                        .network
                        .node::<AskDaemon>(receiver)
                        .task_result(task)
                        .map(|r| r.completed_at)
                        .ok_or(crate::service::RunError::Stalled);
                }
                StopReason::EventBudget => {
                    if self.network.events_processed() >= max_events {
                        return Err(crate::service::RunError::EventBudgetExhausted);
                    }
                }
                StopReason::Deadline => unreachable!("no deadline set"),
            }
        }
    }

    /// The completed [`TaskResult`] at `receiver`.
    pub fn task_result(&self, task: TaskId, receiver: NodeId) -> Option<TaskResult> {
        self.network
            .node::<AskDaemon>(receiver)
            .task_result(task)
            .cloned()
    }

    /// Switch counters for `task` from whichever switch served it.
    pub fn switch_stats(&self, task: TaskId) -> Option<SwitchTaskStats> {
        self.tors
            .iter()
            .chain(std::iter::once(&self.spine))
            .find_map(|&sw| self.network.node::<AskSwitch>(sw).task_stats(task))
    }

    /// Direct access to the underlying network.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::reference_aggregate;
    use ask_wire::key::Key;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn stream(seed: u64, n: usize) -> Vec<KvTuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| KvTuple::new(Key::from_u64(rng.gen_range(0..64)), rng.gen_range(1..9)))
            .collect()
    }

    fn run(
        service: &mut MultiRackService,
        task: TaskId,
        receiver: NodeId,
        streams: Vec<(NodeId, Vec<KvTuple>)>,
    ) {
        let senders: Vec<NodeId> = streams.iter().map(|(s, _)| *s).collect();
        let expected = reference_aggregate(streams.iter().flat_map(|(_, s)| s.iter().cloned()));
        service.submit_task(task, receiver, &senders);
        for (sender, s) in streams {
            service.submit_stream(task, sender, s);
        }
        service
            .run_until_complete(task, receiver, 50_000_000)
            .expect("completes");
        let got = service.task_result(task, receiver).expect("result").to_map();
        assert_eq!(got, expected);
    }

    #[test]
    fn intra_rack_task_gets_ina() {
        let mut svc = MultiRackBuilder::new(&[3, 2])
            .config(AskConfig::tiny())
            .build();
        let rack0 = svc.rack(0).to_vec();
        run(
            &mut svc,
            TaskId(1),
            rack0[0],
            vec![(rack0[1], stream(1, 500)), (rack0[2], stream(2, 500))],
        );
        let stats = svc.switch_stats(TaskId(1)).expect("tor served it");
        assert!(
            stats.tuples_aggregated > 0,
            "rack-local senders aggregate at the ToR"
        );
    }

    #[test]
    fn cross_rack_task_bypasses_switch_aggregation() {
        let mut svc = MultiRackBuilder::new(&[2, 2])
            .config(AskConfig::tiny())
            .build();
        let (r0, r1) = (svc.rack(0).to_vec(), svc.rack(1).to_vec());
        // Receiver in rack 0; both senders in rack 1 → pure forwarding.
        run(
            &mut svc,
            TaskId(1),
            r0[0],
            vec![(r1[0], stream(3, 400)), (r1[1], stream(4, 400))],
        );
        let stats = svc.switch_stats(TaskId(1)).expect("region granted");
        assert_eq!(
            stats.tuples_aggregated, 0,
            "cross-rack channels are not tracked by the receiver's ToR"
        );
    }

    #[test]
    fn mixed_rack_senders_split_ina_and_bypass() {
        let mut svc = MultiRackBuilder::new(&[2, 2])
            .config(AskConfig::tiny())
            .build();
        let (r0, r1) = (svc.rack(0).to_vec(), svc.rack(1).to_vec());
        run(
            &mut svc,
            TaskId(1),
            r0[0],
            vec![(r0[1], stream(5, 600)), (r1[0], stream(6, 600))],
        );
        let stats = svc.switch_stats(TaskId(1)).expect("stats");
        assert!(stats.tuples_aggregated > 0, "local sender gets INA");
        // The remote sender's ~600 tuples were never switch-aggregated.
        assert!(
            stats.tuples_aggregated + stats.tuples_forwarded <= 600,
            "only the local sender's tuples enter the aggregation path"
        );
    }

    #[test]
    fn cross_rack_under_faults_is_still_exact() {
        use ask_simnet::faults::FaultModel;
        let access = LinkConfig::new(100e9, SimDuration::from_micros(1)).with_faults(
            FaultModel::reliable()
                .with_loss(0.04)
                .with_duplication(0.03),
        );
        let mut svc = MultiRackBuilder::new(&[2, 2])
            .config(AskConfig::tiny())
            .access_link(access)
            .seed(9)
            .build();
        let (r0, r1) = (svc.rack(0).to_vec(), svc.rack(1).to_vec());
        run(
            &mut svc,
            TaskId(1),
            r0[0],
            vec![(r0[1], stream(7, 700)), (r1[0], stream(8, 700))],
        );
    }

    #[test]
    fn concurrent_tasks_in_different_racks() {
        let mut svc = MultiRackBuilder::new(&[2, 2, 2])
            .config(AskConfig::tiny())
            .build();
        let racks: Vec<Vec<NodeId>> = (0..3).map(|r| svc.rack(r).to_vec()).collect();
        let t = [TaskId(1), TaskId(2), TaskId(3)];
        let mut expected = Vec::new();
        for r in 0..3 {
            let s = stream(10 + r as u64, 300);
            expected.push(reference_aggregate(s.iter().cloned()));
            svc.submit_task(t[r], racks[r][0], &[racks[r][1]]);
            svc.submit_stream(t[r], racks[r][1], s);
        }
        for r in 0..3 {
            svc.run_until_complete(t[r], racks[r][0], 50_000_000)
                .expect("completes");
            let got = svc.task_result(t[r], racks[r][0]).unwrap().to_map();
            assert_eq!(got, expected[r], "rack {r}");
            // Each rack's ToR aggregated its own task.
            let stats = svc.switch_stats(t[r]).unwrap();
            assert!(stats.tuples_aggregated > 0, "rack {r}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rack_rejected() {
        let _ = MultiRackBuilder::new(&[2, 0]).build();
    }
}
