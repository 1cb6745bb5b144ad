//! The simulated network: nodes, links, and the event loop.
//!
//! There is one executor: [`Network::run`] pops events one at a time in
//! exact `(at, seq)` order and dispatches each to its node in place. The
//! simulation is a pure function of topology, seed and fault seed.

use crate::event::{EventKind, EventQueue};
use crate::faults::FrameFate;
use crate::frame::{Frame, NodeId};
use crate::link::{LinkConfig, LinkState, LinkStats};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Behaviour attached to a simulated node.
///
/// A node reacts to incoming frames and to timers it has armed; it drives the
/// simulation forward exclusively through the [`Context`] it is handed. The
/// `Any` supertrait allows the harness to downcast a node back to its
/// concrete type after the run (see [`Network::node`]).
pub trait Node: Any {
    /// Called once before the first event is processed.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called when a frame addressed to this node arrives: one call per
    /// delivery event, the only way a frame reaches a node.
    fn on_frame(&mut self, from: NodeId, frame: Frame, ctx: &mut Context<'_>);

    /// Called when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {}

    /// Called when the node comes back up after a scheduled outage
    /// ([`Network::schedule_node_down`] / [`Network::schedule_node_up`]).
    ///
    /// The implementation must discard whatever volatile state the crash
    /// wiped before processing any further events; the default keeps
    /// everything (a restart-transparent node).
    fn on_restart(&mut self, _ctx: &mut Context<'_>) {}
}

/// What the link's fault model did to one frame offered to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFate {
    /// The fault model dropped the frame.
    Dropped,
    /// The frame was delivered (possibly mangled along the way).
    Delivered {
        /// A trailing duplicate copy was also delivered.
        duplicated: bool,
        /// One payload bit was flipped in the delivered copy.
        corrupted: bool,
        /// Extra reorder jitter applied on top of the link latency, in ns.
        delay_ns: u64,
    },
}

/// One captured frame transmission (see [`Network::enable_frame_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTraceEntry {
    /// Simulated time of the send.
    pub at: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// On-wire size of the frame.
    pub wire_bytes: usize,
    /// What happened to it.
    pub fate: TraceFate,
}

/// Bounded ring of the most recent frame transmissions.
#[derive(Debug)]
struct FrameTrace {
    capacity: usize,
    entries: VecDeque<FrameTraceEntry>,
    total: u64,
}

impl FrameTrace {
    fn record(&mut self, entry: FrameTraceEntry) {
        self.total += 1;
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }
}

/// Sentinel in a [`NodeLinks`] map: no directed link to that destination.
const LINK_NONE: u32 = u32::MAX;

/// Dense outgoing-link table for one node: `map[dst - base]` is the index of
/// the `src -> dst` link in the flat link array, or [`LINK_NONE`]. Offsetting
/// by the smallest connected destination keeps the table tight for the
/// common topologies (hosts linked only to a switch, switches linked to a
/// contiguous run of hosts).
#[derive(Debug, Default)]
struct NodeLinks {
    base: usize,
    map: Vec<u32>,
}

impl NodeLinks {
    fn get(&self, dst: usize) -> Option<usize> {
        match self.map.get(dst.wrapping_sub(self.base)) {
            Some(&ix) if ix != LINK_NONE => Some(ix as usize),
            _ => None,
        }
    }
}

/// Engine state shared by all nodes (everything except the nodes themselves,
/// so a node can be borrowed mutably while the engine is driven).
#[derive(Debug)]
struct Engine {
    /// All directed links, indexed by the per-node adjacency tables.
    links: Vec<LinkState>,
    /// Per-source dense adjacency, indexed by `NodeId::index()`. Built once
    /// at [`NetworkBuilder::build`]; two array reads replace the old
    /// `HashMap<(NodeId, NodeId)>` probe on every send.
    adjacency: Vec<NodeLinks>,
    queue: EventQueue,
    now: SimTime,
    /// Fault-model draws come from this one stream, so a `(seed,
    /// grid-point)` pair pins down every loss/dup/jitter decision.
    fault_rng: StdRng,
    events_processed: u64,
    trace: Option<FrameTrace>,
    /// Per-node outage flags: a down node receives neither frames nor
    /// timers (both are consumed and dropped at dispatch time, exactly as a
    /// crashed machine loses what was addressed to it).
    down: Vec<bool>,
}

impl Engine {
    /// Enqueues `frame` on the directed link `from -> to`, applying the fault
    /// model. Returns an error if the link does not exist.
    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), SendError> {
        let now = self.now;
        let wire_bytes = frame.wire_bytes();
        let trace_fate = |trace: &mut Option<FrameTrace>, fate: TraceFate| {
            if let Some(t) = trace.as_mut() {
                t.record(FrameTraceEntry {
                    at: now,
                    from,
                    to,
                    wire_bytes,
                    fate,
                });
            }
        };
        let link_ix = self
            .adjacency
            .get(from.index())
            .and_then(|n| n.get(to.index()))
            .ok_or(SendError { from, to })?;
        let link = &mut self.links[link_ix];
        let arrival = link.schedule(now, wire_bytes);
        match link.config.faults().draw(&mut self.fault_rng) {
            FrameFate::Dropped => {
                link.stats.frames_dropped += 1;
                trace_fate(&mut self.trace, TraceFate::Dropped);
            }
            FrameFate::Delivered {
                duplicated,
                delay,
                corrupted,
            } => {
                link.stats.frames_delivered += 1;
                // Snapshot the trailing copy before any corruption: the
                // duplicate is the uncorrupted original. On the common
                // (non-duplicated) path the frame moves straight into the
                // delivery event with no clone at all.
                let dup = duplicated.then(|| {
                    link.stats.frames_duplicated += 1;
                    (frame.clone(), link.config.propagation())
                });
                trace_fate(
                    &mut self.trace,
                    TraceFate::Delivered {
                        duplicated,
                        corrupted,
                        delay_ns: delay.as_nanos(),
                    },
                );
                let delivered = if corrupted {
                    let mut bytes = frame.payload().to_vec();
                    if !bytes.is_empty() {
                        // Deterministic position/bit from the fault RNG.
                        use rand::Rng as _;
                        let ix = self.fault_rng.gen_range(0..bytes.len());
                        let bit = 1u8 << self.fault_rng.gen_range(0..8);
                        bytes[ix] ^= bit;
                    }
                    Frame::with_wire_bytes(bytes::Bytes::from(bytes), wire_bytes)
                } else {
                    frame
                };
                self.queue.push(
                    arrival + delay,
                    EventKind::Deliver {
                        from,
                        to,
                        frame: delivered,
                    },
                );
                if let Some((copy, extra)) = dup {
                    // The copy trails the original by one propagation delay.
                    self.queue.push(
                        arrival + delay + extra,
                        EventKind::Deliver { from, to, frame: copy },
                    );
                }
            }
        }
        Ok(())
    }
}

/// Error returned when sending between nodes that are not linked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError {
    /// The sending node.
    pub from: NodeId,
    /// The intended receiver.
    pub to: NodeId,
}

impl core::fmt::Display for SendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "no link from {} to {}", self.from, self.to)
    }
}

impl std::error::Error for SendError {}

/// Handle through which a node interacts with the simulation.
#[derive(Debug)]
pub struct Context<'a> {
    engine: &'a mut Engine,
    me: NodeId,
}

impl Context<'_> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now
    }

    /// The id of the node being called.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Sends `frame` to the directly connected node `to`.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] if no directed link `self -> to` exists.
    pub fn send(&mut self, to: NodeId, frame: Frame) -> Result<(), SendError> {
        self.engine.send(self.me, to, frame)
    }

    /// Arms a one-shot timer that fires after `delay` with the given `token`.
    ///
    /// Timers cannot be cancelled; nodes are expected to ignore stale tokens.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.engine.now + delay;
        let node = self.me;
        self.engine.queue.push(at, EventKind::Timer { node, token });
    }
}

/// Builder for a [`Network`] ([C-BUILDER]).
///
/// # Examples
///
/// ```
/// use ask_simnet::prelude::*;
/// use bytes::Bytes;
///
/// struct Echo;
/// impl Node for Echo {
///     fn on_frame(&mut self, from: NodeId, frame: Frame, ctx: &mut Context<'_>) {
///         ctx.send(from, frame).expect("linked");
///     }
/// }
///
/// let mut b = NetworkBuilder::new(1);
/// let a = b.add_node(Echo);
/// let c = b.add_node(Echo);
/// b.connect(a, c, LinkConfig::new(1e9, SimDuration::from_micros(1)));
/// let net = b.build();
/// assert_eq!(net.node_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<Box<dyn Node>>,
    links: HashMap<(NodeId, NodeId), LinkState>,
    seed: u64,
    fault_seed: Option<u64>,
}

/// A node plus the per-node state the event loop keeps next to it.
#[derive(Debug)]
struct NodeSlot {
    node: Box<dyn Node>,
    /// Wall-clock nanoseconds spent inside this node's handlers, when
    /// dispatch timing is enabled ([`Network::enable_dispatch_timing`]).
    dispatch_ns: u64,
}

impl NodeSlot {
    /// Splits the slot into its node and a [`Context`] over `engine`, ready
    /// for one call into the node's handlers.
    fn enter<'a>(
        &'a mut self,
        engine: &'a mut Engine,
        me: NodeId,
    ) -> (&'a mut dyn Node, Context<'a>) {
        (self.node.as_mut(), Context { engine, me })
    }
}

impl std::fmt::Debug for dyn Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<node>")
    }
}

impl NetworkBuilder {
    /// Creates a builder whose fault-model RNG is seeded with `seed` unless
    /// [`NetworkBuilder::set_fault_seed`] says otherwise.
    pub fn new(seed: u64) -> Self {
        NetworkBuilder {
            nodes: Vec::new(),
            links: HashMap::new(),
            seed,
            fault_seed: None,
        }
    }

    /// Seeds the fault-model RNG independently of the simulation seed, so a
    /// chaos sweep can vary fault draws under one simulation seed. Defaults
    /// to the simulation seed.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_seed = Some(seed);
    }

    /// Adds a node and returns its id.
    pub fn add_node<N: Node>(&mut self, node: N) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Box::new(node));
        id
    }

    /// Connects `a` and `b` with a duplex link (two directed links sharing
    /// `config`).
    ///
    /// # Panics
    ///
    /// Panics if either node id is unknown, `a == b`, or the pair is already
    /// connected.
    pub fn connect(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.connect_directed(a, b, config.clone());
        self.connect_directed(b, a, config);
    }

    /// Connects `a -> b` only, for asymmetric links.
    ///
    /// # Panics
    ///
    /// Panics if either node id is unknown, `a == b`, or the directed pair is
    /// already connected.
    pub fn connect_directed(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        assert!(a.index() < self.nodes.len(), "unknown node {a}");
        assert!(b.index() < self.nodes.len(), "unknown node {b}");
        assert_ne!(a, b, "self-links are not allowed");
        let prev = self.links.insert((a, b), LinkState::new(config));
        assert!(prev.is_none(), "{a} -> {b} already connected");
    }

    /// Finalizes the topology, compiling the builder's link map into the
    /// flat link array plus per-node adjacency tables the engine runs on.
    /// Link indices are assigned in `(src, dst)` order, independent of
    /// insertion order, so identically shaped topologies get identical
    /// tables.
    pub fn build(self) -> Network {
        let mut pairs: Vec<((usize, usize), LinkState)> = self
            .links
            .into_iter()
            .map(|((a, b), state)| ((a.index(), b.index()), state))
            .collect();
        pairs.sort_unstable_by_key(|(key, _)| *key);
        let mut adjacency: Vec<NodeLinks> =
            (0..self.nodes.len()).map(|_| NodeLinks::default()).collect();
        let mut links = Vec::with_capacity(pairs.len());
        for ((src, dst), state) in pairs {
            let ix = links.len() as u32;
            links.push(state);
            let entry = &mut adjacency[src];
            if entry.map.is_empty() {
                entry.base = dst;
            }
            let off = dst - entry.base; // dsts arrive sorted per src
            entry.map.resize(off + 1, LINK_NONE);
            entry.map[off] = ix;
        }
        let node_count = self.nodes.len();
        let nodes = self
            .nodes
            .into_iter()
            .map(|node| NodeSlot {
                node,
                dispatch_ns: 0,
            })
            .collect();
        Network {
            nodes,
            engine: Engine {
                links,
                adjacency,
                queue: EventQueue::new(),
                now: SimTime::ZERO,
                fault_rng: StdRng::seed_from_u64(self.fault_seed.unwrap_or(self.seed)),
                events_processed: 0,
                trace: None,
                down: vec![false; node_count],
            },
            started: false,
            timing: false,
            run_wall_ns: 0,
        }
    }
}

/// A simulated network ready to run.
pub struct Network {
    nodes: Vec<NodeSlot>,
    engine: Engine,
    started: bool,
    /// Measure per-node handler wall time (see
    /// [`Network::enable_dispatch_timing`]).
    timing: bool,
    /// Wall-clock nanoseconds spent inside [`Network::run`] so far.
    run_wall_ns: u64,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("now", &self.engine.now)
            .field("pending_events", &self.engine.queue.len())
            .finish()
    }
}

/// Why [`Network::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained completely.
    Idle,
    /// The time horizon passed; unprocessed events remain queued.
    Deadline,
    /// The event budget was exhausted (runaway-protection).
    EventBudget,
}

impl Network {
    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed
    }

    /// Starts capturing per-frame fate records into a ring holding the most
    /// recent `capacity` entries (replacing any previous capture). With a
    /// seeded fault RNG this turns a failing run into a readable packet
    /// timeline.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_frame_trace(&mut self, capacity: usize) {
        assert!(capacity > 0, "trace capacity must be positive");
        self.engine.trace = Some(FrameTrace {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            total: 0,
        });
    }

    /// The captured frame-fate ring, oldest first (empty when tracing is
    /// off).
    pub fn frame_trace(&self) -> impl Iterator<Item = &FrameTraceEntry> {
        self.engine.trace.iter().flat_map(|t| t.entries.iter())
    }

    /// Total frames offered to links while tracing was on (may exceed the
    /// ring capacity).
    pub fn frames_traced(&self) -> u64 {
        self.engine.trace.as_ref().map_or(0, |t| t.total)
    }

    /// Counters of the directed link `a -> b`.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    pub fn link_stats(&self, a: NodeId, b: NodeId) -> LinkStats {
        let ix = self
            .engine
            .adjacency
            .get(a.index())
            .and_then(|n| n.get(b.index()))
            .unwrap_or_else(|| panic!("no link from {a} to {b}"));
        self.engine.links[ix].stats
    }

    /// Borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the node is of a different type.
    pub fn node<N: Node>(&self, id: NodeId) -> &N {
        (self.nodes[id.index()].node.as_ref() as &dyn Any)
            .downcast_ref()
            .expect("node type mismatch")
    }

    /// Mutably borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Network::node`].
    pub fn node_mut<N: Node>(&mut self, id: NodeId) -> &mut N {
        (self.nodes[id.index()].node.as_mut() as &mut dyn Any)
            .downcast_mut()
            .expect("node type mismatch")
    }

    /// Calls `f` with a node and a fresh [`Context`], letting harness code
    /// inject work (e.g. submit an aggregation task) mid-simulation.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Network::node`].
    pub fn with_node<N: Node, T>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut Context<'_>) -> T,
    ) -> T {
        let (node, mut ctx) = self.nodes[id.index()].enter(&mut self.engine, id);
        let concrete = (node as &mut dyn Any)
            .downcast_mut()
            .expect("node type mismatch");
        f(concrete, &mut ctx)
    }

    /// Schedules `node` to crash at absolute simulated time `at`: from that
    /// instant until a matching [`Network::schedule_node_up`], every frame
    /// and timer addressed to it is silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if the node id is unknown or `at` is before [`Network::now`].
    pub fn schedule_node_down(&mut self, node: NodeId, at: SimTime) {
        self.assert_can_schedule(node, at);
        self.engine.queue.push(at, EventKind::NodeDown { node });
    }

    /// Schedules `node` to restart at absolute simulated time `at`. The
    /// node's [`Node::on_restart`] hook runs before it processes any
    /// further events, so it can discard crash-lost state first.
    ///
    /// # Panics
    ///
    /// Panics if the node id is unknown or `at` is before [`Network::now`].
    pub fn schedule_node_up(&mut self, node: NodeId, at: SimTime) {
        self.assert_can_schedule(node, at);
        self.engine.queue.push(at, EventKind::NodeUp { node });
    }

    fn assert_can_schedule(&self, node: NodeId, at: SimTime) {
        assert!(node.index() < self.nodes.len(), "unknown node {node}");
        assert!(
            at >= self.engine.now,
            "outage of {node} scheduled in the past ({at} < {})",
            self.engine.now
        );
    }

    /// Whether `node` is currently inside a scheduled outage.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.engine.down[node.index()]
    }

    /// Runs until the queue drains, `until` passes, or `max_events` fire —
    /// whichever comes first. Pass `None` for no horizon / no budget. Both
    /// stops leave the remaining events queued in their `(at, seq)` order,
    /// so a run cut into pieces dispatches exactly what one straight run
    /// does. A deadline stop leaves the clock at `until`, or where it was if
    /// `until` is already in the past: the clock never moves backwards.
    /// Every event is one dispatch: a delivery is one [`Node::on_frame`].
    pub fn run(&mut self, until: Option<SimTime>, max_events: Option<u64>) -> StopReason {
        let wall = Instant::now();
        if !self.started {
            self.started = true;
            for (ix, slot) in self.nodes.iter_mut().enumerate() {
                let (node, mut ctx) = slot.enter(&mut self.engine, NodeId::from_index(ix));
                node.on_start(&mut ctx);
            }
        }
        let budget_start = self.engine.events_processed;
        let reason = loop {
            if let Some(budget) = max_events {
                if self.engine.events_processed - budget_start >= budget {
                    break StopReason::EventBudget;
                }
            }
            if let Some(deadline) = until {
                // Test the head where it sits: popping and re-queueing it
                // would stamp it behind its same-instant siblings.
                let head = self.engine.queue.peek_at();
                if head.is_some_and(|at| at > deadline) {
                    self.engine.now = self.engine.now.max(deadline);
                    break StopReason::Deadline;
                }
            }
            let Some(event) = self.engine.queue.pop() else {
                break StopReason::Idle;
            };
            debug_assert!(event.at >= self.engine.now, "time went backwards");
            self.engine.now = event.at;
            self.engine.events_processed += 1;
            match event.kind {
                // A down destination loses the frame at delivery (a crashed
                // NIC receives nothing) and its timers die with it.
                EventKind::Deliver { from, to, frame } => {
                    if !self.engine.down[to.index()] {
                        self.dispatch(to, |node, ctx| node.on_frame(from, frame, ctx));
                    }
                }
                EventKind::Timer { node: id, token } => {
                    if !self.engine.down[id.index()] {
                        self.dispatch(id, |node, ctx| node.on_timer(token, ctx));
                    }
                }
                EventKind::NodeDown { node } => {
                    self.engine.down[node.index()] = true;
                }
                EventKind::NodeUp { node: id } => {
                    self.engine.down[id.index()] = false;
                    let (node, mut ctx) = self.nodes[id.index()].enter(&mut self.engine, id);
                    node.on_restart(&mut ctx);
                }
            }
        };
        self.run_wall_ns += wall.elapsed().as_nanos() as u64;
        reason
    }

    /// Calls one handler of node `id`, timing it when dispatch timing is on.
    fn dispatch(&mut self, id: NodeId, handler: impl FnOnce(&mut dyn Node, &mut Context<'_>)) {
        let slot = &mut self.nodes[id.index()];
        let t0 = self.timing.then(Instant::now);
        let (node, mut ctx) = slot.enter(&mut self.engine, id);
        handler(node, &mut ctx);
        if let Some(t0) = t0 {
            slot.dispatch_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Runs until the event queue is empty.
    pub fn run_to_idle(&mut self) {
        let reason = self.run(None, None);
        debug_assert_eq!(reason, StopReason::Idle);
        debug_assert!(self.engine.queue.is_empty(), "idle with pending events");
    }

    /// Starts measuring wall-clock time spent inside each node's handlers
    /// (retrievable via [`Network::dispatch_ns`]). Off by default: the
    /// `Instant` reads around every dispatch are cheap but not free.
    pub fn enable_dispatch_timing(&mut self) {
        self.timing = true;
    }

    /// Wall-clock nanoseconds spent inside `node`'s handlers since
    /// [`Network::enable_dispatch_timing`] was called.
    pub fn dispatch_ns(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].dispatch_ns
    }

    /// Total wall-clock nanoseconds spent inside [`Network::run`] so far
    /// (dispatch plus queue overhead).
    pub fn run_wall_ns(&self) -> u64 {
        self.run_wall_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Sends `count` frames to a peer on start; counts echoes.
    struct Pinger {
        peer: Option<NodeId>,
        count: usize,
        echoes: usize,
        last_rtt_ns: u64,
        sent_at: SimTime,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if let Some(peer) = self.peer {
                self.sent_at = ctx.now();
                for _ in 0..self.count {
                    ctx.send(peer, Frame::new(Bytes::from_static(b"ping")))
                        .expect("linked");
                }
            }
        }
        fn on_frame(&mut self, from: NodeId, frame: Frame, ctx: &mut Context<'_>) {
            if self.peer.is_some() {
                self.echoes += 1;
                self.last_rtt_ns = (ctx.now() - self.sent_at).as_nanos();
            } else {
                ctx.send(from, frame).expect("linked");
            }
        }
    }

    fn pinger(peer: Option<NodeId>, count: usize) -> Pinger {
        Pinger {
            peer,
            count,
            echoes: 0,
            last_rtt_ns: 0,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut b = NetworkBuilder::new(0);
        let echo = b.add_node(pinger(None, 0));
        let ping = b.add_node(pinger(Some(echo), 1));
        // 8 Gbps => 1 ns/byte; 4-byte frame; 500 ns propagation each way.
        b.connect(
            ping,
            echo,
            LinkConfig::new(8e9, SimDuration::from_nanos(500)),
        );
        let mut net = b.build();
        net.run_to_idle();
        let p: &Pinger = net.node(ping);
        assert_eq!(p.echoes, 1);
        // 2 × (4 ns serialization + 500 ns propagation)
        assert_eq!(p.last_rtt_ns, 2 * (4 + 500));
    }

    #[test]
    fn serialization_is_fifo_under_burst() {
        let mut b = NetworkBuilder::new(0);
        let echo = b.add_node(pinger(None, 0));
        let ping = b.add_node(pinger(Some(echo), 100));
        b.connect(ping, echo, LinkConfig::new(8e9, SimDuration::from_nanos(0)));
        let mut net = b.build();
        net.run_to_idle();
        let p: &Pinger = net.node(ping);
        assert_eq!(p.echoes, 100);
        // The burst of 100 4-byte frames serializes back-to-back (400 ns),
        // then the last echo serializes back (4 ns).
        assert_eq!(p.last_rtt_ns, 100 * 4 + 4);
    }

    #[test]
    fn lossy_link_drops_frames() {
        let mut b = NetworkBuilder::new(3);
        let echo = b.add_node(pinger(None, 0));
        let ping = b.add_node(pinger(Some(echo), 10_000));
        let lossy = LinkConfig::new(8e9, SimDuration::ZERO)
            .with_faults(crate::faults::FaultModel::reliable().with_loss(0.5));
        b.connect_directed(ping, echo, lossy);
        b.connect_directed(echo, ping, LinkConfig::new(8e9, SimDuration::ZERO));
        let mut net = b.build();
        net.run_to_idle();
        let stats = net.link_stats(ping, echo);
        assert_eq!(stats.frames_sent, 10_000);
        assert!(stats.frames_dropped > 4_500 && stats.frames_dropped < 5_500);
        let p: &Pinger = net.node(ping);
        assert_eq!(p.echoes as u64, stats.frames_delivered);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut b = NetworkBuilder::new(3);
        let echo = b.add_node(pinger(None, 0));
        let ping = b.add_node(pinger(Some(echo), 1000));
        let dup = LinkConfig::new(8e9, SimDuration::from_nanos(10))
            .with_faults(crate::faults::FaultModel::reliable().with_duplication(1.0));
        b.connect_directed(ping, echo, dup);
        b.connect_directed(
            echo,
            ping,
            LinkConfig::new(8e9, SimDuration::from_nanos(10)),
        );
        let mut net = b.build();
        net.run_to_idle();
        let p: &Pinger = net.node(ping);
        assert_eq!(p.echoes, 2000);
    }

    #[test]
    fn deadline_stops_early_and_resumes() {
        let mut b = NetworkBuilder::new(0);
        let echo = b.add_node(pinger(None, 0));
        let ping = b.add_node(pinger(Some(echo), 1));
        b.connect(
            ping,
            echo,
            LinkConfig::new(8e9, SimDuration::from_millis(10)),
        );
        let mut net = b.build();
        let r = net.run(Some(SimTime::from_nanos(100)), None);
        assert_eq!(r, StopReason::Deadline);
        assert_eq!(net.node::<Pinger>(ping).echoes, 0);
        let r = net.run(None, None);
        assert_eq!(r, StopReason::Idle);
        assert_eq!(net.node::<Pinger>(ping).echoes, 1);
    }

    #[test]
    fn event_budget_stops() {
        let mut b = NetworkBuilder::new(0);
        let echo = b.add_node(pinger(None, 0));
        let ping = b.add_node(pinger(Some(echo), 100));
        b.connect(ping, echo, LinkConfig::new(8e9, SimDuration::ZERO));
        let mut net = b.build();
        let r = net.run(None, Some(5));
        assert_eq!(r, StopReason::EventBudget);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_micros(3), 3);
                ctx.set_timer(SimDuration::from_micros(1), 1);
                ctx.set_timer(SimDuration::from_micros(2), 2);
            }
            fn on_frame(&mut self, _: NodeId, _: Frame, _: &mut Context<'_>) {}
            fn on_timer(&mut self, token: u64, _: &mut Context<'_>) {
                self.fired.push(token);
            }
        }
        let mut b = NetworkBuilder::new(0);
        let n = b.add_node(TimerNode { fired: vec![] });
        let mut net = b.build();
        net.run_to_idle();
        assert_eq!(net.node::<TimerNode>(n).fired, vec![1, 2, 3]);
    }

    #[test]
    fn send_to_unlinked_node_errors() {
        struct Lonely {
            result: Option<Result<(), SendError>>,
        }
        impl Node for Lonely {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.result = Some(ctx.send(NodeId::from_index(1), Frame::new(Bytes::new())));
            }
            fn on_frame(&mut self, _: NodeId, _: Frame, _: &mut Context<'_>) {}
        }
        let mut b = NetworkBuilder::new(0);
        let a = b.add_node(Lonely { result: None });
        let _other = b.add_node(Lonely { result: None });
        let mut net = b.build();
        net.run_to_idle();
        let got = net.node::<Lonely>(a).result.expect("ran");
        assert!(got.is_err());
        assert!(!got.unwrap_err().to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn duplicate_link_rejected() {
        let mut b = NetworkBuilder::new(0);
        let a = b.add_node(pinger(None, 0));
        let c = b.add_node(pinger(None, 0));
        b.connect(a, c, LinkConfig::new(1e9, SimDuration::ZERO));
        b.connect(a, c, LinkConfig::new(1e9, SimDuration::ZERO));
    }

    #[test]
    fn adjacency_handles_gaps_and_insertion_order() {
        // Destinations with a hole (0->1 and 0->4, nothing to 2 or 3),
        // inserted in scrambled order: the dense tables must resolve every
        // real link and reject the gap.
        struct Fanout {
            targets: Vec<NodeId>,
            gap_result: Option<Result<(), SendError>>,
        }
        impl Node for Fanout {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                if self.targets.is_empty() {
                    return; // pure sink
                }
                for &t in &self.targets {
                    ctx.send(t, Frame::new(Bytes::from_static(b"x")))
                        .expect("linked");
                }
                self.gap_result = Some(ctx.send(NodeId::from_index(2), Frame::new(Bytes::new())));
            }
            fn on_frame(&mut self, _: NodeId, _: Frame, _: &mut Context<'_>) {}
        }
        let mut b = NetworkBuilder::new(0);
        // Ids are assigned sequentially: hub=0, sinks=1..=4.
        let hub = b.add_node(Fanout {
            targets: vec![NodeId::from_index(4), NodeId::from_index(1)],
            gap_result: None,
        });
        let sinks: Vec<NodeId> = (0..4)
            .map(|_| {
                b.add_node(Fanout {
                    targets: vec![],
                    gap_result: None,
                })
            })
            .collect();
        // Connect 0->4 before 0->1 to scramble insertion order.
        b.connect_directed(hub, sinks[3], LinkConfig::new(8e9, SimDuration::ZERO));
        b.connect_directed(hub, sinks[0], LinkConfig::new(8e9, SimDuration::ZERO));
        let mut net = b.build();
        net.run_to_idle();
        assert!(net.node::<Fanout>(hub).gap_result.expect("ran").is_err());
        assert_eq!(net.link_stats(hub, sinks[0]).frames_sent, 1);
        assert_eq!(net.link_stats(hub, sinks[3]).frames_sent, 1);
    }

    #[test]
    fn fault_seed_controls_drops_independently_of_sim_seed() {
        let run = |fault_seed: Option<u64>| {
            let mut b = NetworkBuilder::new(3);
            let echo = b.add_node(pinger(None, 0));
            let ping = b.add_node(pinger(Some(echo), 2_000));
            if let Some(s) = fault_seed {
                b.set_fault_seed(s);
            }
            let lossy = LinkConfig::new(8e9, SimDuration::ZERO)
                .with_faults(crate::faults::FaultModel::reliable().with_loss(0.5));
            b.connect_directed(ping, echo, lossy);
            b.connect_directed(echo, ping, LinkConfig::new(8e9, SimDuration::ZERO));
            let mut net = b.build();
            net.run_to_idle();
            net.link_stats(ping, echo).frames_dropped
        };
        // Defaulted fault seed equals the sim seed: byte-compatible with the
        // pre-fault-rng behaviour and with an explicit matching seed.
        assert_eq!(run(None), run(Some(3)));
        // A different fault seed draws a different loss pattern.
        assert_ne!(run(Some(3)), run(Some(4)));
        // Same inputs, same outcome: the stream is fully deterministic.
        assert_eq!(run(Some(4)), run(Some(4)));
    }

    #[test]
    fn frame_trace_captures_fates_in_bounded_ring() {
        let mut b = NetworkBuilder::new(3);
        let echo = b.add_node(pinger(None, 0));
        let ping = b.add_node(pinger(Some(echo), 100));
        let faulty = LinkConfig::new(8e9, SimDuration::ZERO)
            .with_faults(crate::faults::FaultModel::reliable().with_loss(0.3));
        b.connect_directed(ping, echo, faulty);
        b.connect_directed(echo, ping, LinkConfig::new(8e9, SimDuration::ZERO));
        let mut net = b.build();
        net.enable_frame_trace(64);
        net.run_to_idle();
        let dropped = net.link_stats(ping, echo).frames_dropped;
        assert!(dropped > 0, "0.3 loss over 100 frames");
        // 100 sends + echoes of the survivors; ring keeps only the last 64.
        assert_eq!(net.frames_traced(), 100 + (100 - dropped));
        assert_eq!(net.frame_trace().count(), 64);
    }

    #[test]
    fn scheduled_outage_drops_frames_and_timers_then_restarts() {
        // An echo node goes down mid-run: frames and timers addressed to it
        // during the outage vanish, its restart hook fires exactly once, and
        // frames sent after the restart are served normally.
        struct CrashyEcho {
            restarts: usize,
            timers: usize,
        }
        impl Node for CrashyEcho {
            fn on_frame(&mut self, from: NodeId, frame: Frame, ctx: &mut Context<'_>) {
                ctx.send(from, frame).expect("linked");
            }
            fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {
                self.timers += 1;
            }
            fn on_restart(&mut self, _ctx: &mut Context<'_>) {
                self.restarts += 1;
            }
        }
        let mut b = NetworkBuilder::new(0);
        let echo = b.add_node(CrashyEcho {
            restarts: 0,
            timers: 0,
        });
        let ping = b.add_node(pinger(Some(echo), 0));
        b.connect(ping, echo, LinkConfig::new(8e9, SimDuration::from_nanos(100)));
        let mut net = b.build();
        // A timer the echo arms before the crash, firing during the outage.
        net.with_node::<CrashyEcho, _>(echo, |_n, ctx| {
            ctx.set_timer(SimDuration::from_micros(5), 1);
        });
        net.schedule_node_down(echo, SimTime::from_nanos(1_000));
        net.schedule_node_up(echo, SimTime::from_nanos(10_000));
        // Sent while up: echoed. Sent during the outage: dropped.
        net.with_node::<Pinger, _>(ping, |_p, ctx| {
            ctx.send(echo, Frame::new(Bytes::from_static(b"pre")))
                .expect("linked");
        });
        net.run(Some(SimTime::from_nanos(2_000)), None);
        assert!(net.node_is_down(echo));
        net.with_node::<Pinger, _>(ping, |_p, ctx| {
            ctx.send(echo, Frame::new(Bytes::from_static(b"mid")))
                .expect("linked");
        });
        net.run_to_idle();
        assert!(!net.node_is_down(echo));
        net.with_node::<Pinger, _>(ping, |_p, ctx| {
            ctx.send(echo, Frame::new(Bytes::from_static(b"post")))
                .expect("linked");
        });
        net.run_to_idle();
        let e: &CrashyEcho = net.node(echo);
        assert_eq!(e.restarts, 1, "restart hook fires once");
        assert_eq!(e.timers, 0, "outage swallowed the pending timer");
        // pre + post echoed, mid dropped.
        assert_eq!(net.node::<Pinger>(ping).echoes, 2);
    }

    #[test]
    fn with_node_injects_work_mid_run() {
        let mut b = NetworkBuilder::new(0);
        let echo = b.add_node(pinger(None, 0));
        let ping = b.add_node(pinger(Some(echo), 0));
        b.connect(ping, echo, LinkConfig::new(8e9, SimDuration::ZERO));
        let mut net = b.build();
        net.run_to_idle();
        net.with_node::<Pinger, _>(ping, |p, ctx| {
            p.sent_at = ctx.now();
            ctx.send(echo, Frame::new(Bytes::from_static(b"late")))
                .expect("linked");
        });
        net.run_to_idle();
        assert_eq!(net.node::<Pinger>(ping).echoes, 1);
    }

    /// Echoes each frame back after a 200 ns delay, so timers armed by one
    /// delivery fire between the deliveries that follow it.
    struct TimerEcho {
        pending: VecDeque<(NodeId, Frame)>,
    }
    impl Node for TimerEcho {
        fn on_frame(&mut self, from: NodeId, frame: Frame, ctx: &mut Context<'_>) {
            self.pending.push_back((from, frame));
            ctx.set_timer(SimDuration::from_nanos(200), 0);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
            if let Some((from, frame)) = self.pending.pop_front() {
                ctx.send(from, frame).expect("linked");
            }
        }
    }

    /// Drives a faulty timer-echo star to idle — straight, or through
    /// `run(None, Some(chunk))` pieces — and returns everything observable
    /// about the run: frame trace, event count, echoes, final time.
    fn run_timer_star(chunk: Option<u64>) -> (Vec<FrameTraceEntry>, u64, usize, u64) {
        let mut b = NetworkBuilder::new(7);
        let hub = b.add_node(TimerEcho {
            pending: VecDeque::new(),
        });
        let pingers: Vec<NodeId> = (0..4).map(|_| b.add_node(pinger(Some(hub), 25))).collect();
        // Faults on the reply path make the trace sensitive to the global
        // order of the hub's sends: any reordering shifts the fault-RNG
        // stream and shows up as a trace diff.
        let faulty = LinkConfig::new(8e9, SimDuration::from_micros(1)).with_faults(
            crate::faults::FaultModel::reliable()
                .with_loss(0.1)
                .with_duplication(0.05),
        );
        for &p in &pingers {
            b.connect_directed(p, hub, LinkConfig::new(8e9, SimDuration::from_micros(1)));
            b.connect_directed(hub, p, faulty.clone());
        }
        let mut net = b.build();
        net.enable_frame_trace(8192);
        while net.run(None, chunk) != StopReason::Idle {}
        let trace: Vec<FrameTraceEntry> = net.frame_trace().copied().collect();
        let echoes = pingers
            .iter()
            .map(|&p| net.node::<Pinger>(p).echoes)
            .sum::<usize>();
        (trace, net.events_processed(), echoes, net.now().as_nanos())
    }

    #[test]
    fn chunked_run_reaches_same_final_state_as_straight_run() {
        // Seven-event chunks cut the four pingers' same-instant arrivals at
        // the hub mid-burst and stop between a delivery and the timer it
        // armed; the final observable state must not notice.
        let straight = run_timer_star(None);
        assert!(straight.2 > 0, "echoes must flow");
        assert!(straight.1 > 7, "the budget must actually cut the run");
        assert_eq!(straight, run_timer_star(Some(7)));
    }

    /// Arms timers with tokens 0, 1, 2 for the same instant `at_ns` and logs
    /// the order they fire in.
    struct SameInstantTimers {
        at_ns: u64,
        fired: Vec<u64>,
    }
    impl Node for SameInstantTimers {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for token in 0..3 {
                ctx.set_timer(SimDuration::from_nanos(self.at_ns), token);
            }
        }
        fn on_frame(&mut self, _: NodeId, _: Frame, _: &mut Context<'_>) {}
        fn on_timer(&mut self, token: u64, _: &mut Context<'_>) {
            self.fired.push(token);
        }
    }

    #[test]
    fn deadline_stop_preserves_same_instant_fifo() {
        let mut b = NetworkBuilder::new(0);
        let n = b.add_node(SameInstantTimers {
            at_ns: 100,
            fired: vec![],
        });
        let mut net = b.build();
        // The deadline falls before the three timers: stopping there must
        // leave the head in front of its same-instant siblings.
        let r = net.run(Some(SimTime::from_nanos(50)), None);
        assert_eq!(r, StopReason::Deadline);
        assert_eq!(net.now(), SimTime::from_nanos(50));
        net.run_to_idle();
        assert_eq!(net.node::<SameInstantTimers>(n).fired, vec![0, 1, 2]);
    }

    #[test]
    fn deadline_in_the_past_does_not_rewind_the_clock() {
        let mut b = NetworkBuilder::new(0);
        b.add_node(SameInstantTimers {
            at_ns: 100,
            fired: vec![],
        });
        let mut net = b.build();
        net.run(Some(SimTime::from_nanos(50)), None);
        // Events are still pending and the new deadline lies behind the
        // clock: the run stops at once, where the clock already is.
        let r = net.run(Some(SimTime::from_nanos(20)), None);
        assert_eq!(r, StopReason::Deadline);
        assert_eq!(net.now(), SimTime::from_nanos(50));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn outage_scheduled_in_the_past_is_rejected() {
        let mut b = NetworkBuilder::new(0);
        let n = b.add_node(SameInstantTimers {
            at_ns: 2_000,
            fired: vec![],
        });
        let mut net = b.build();
        net.run_to_idle();
        assert_eq!(net.now(), SimTime::from_nanos(2_000));
        net.schedule_node_down(n, SimTime::from_nanos(500));
    }
}
