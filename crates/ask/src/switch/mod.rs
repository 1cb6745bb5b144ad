//! The ASK switch: aggregation engine plus the network-facing node.

pub mod aggregator;

pub use aggregator::{AggregatorEngine, Observation, ViewVerdict};

use crate::config::AskConfig;
use crate::stats::SwitchTaskStats;
use ask_simnet::frame::{Frame, NodeId};
use ask_simnet::network::{Context, Node};
use ask_wire::codec::{ack_frame, encode_envelope_parts};
use ask_wire::constants::PACKET_OVERHEAD;
use ask_wire::packet::{AskPacket, ChannelId, ControlMsg, SeqNo, TaskId};
use ask_wire::view::{DataPacketView, FrameView, PacketView};
use bytes::Bytes;

/// Whether switch epoch `a` is newer than `b`, in RFC 1982 serial-number
/// arithmetic: epochs bump with `wrapping_add`, so 0 is newer than
/// `u32::MAX`, and two epochs exactly 2³¹ apart are neither newer than the
/// other. Both epoch gates — the switch's ingress and the host's
/// [`AskDaemon`](crate::host::AskDaemon) — compare through this.
pub(crate) fn epoch_newer(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

/// What the switch needs to answer or relay one ingress frame that the
/// packet view does not carry: the envelope addressing, the frame's
/// nominal wire size, and the original payload bytes (for the
/// relay-unchanged fast path).
#[derive(Debug)]
struct FrameMeta {
    src: u32,
    dst: u32,
    wire: usize,
    payload: Bytes,
}

/// The top-of-rack ASK switch as a simulated network node.
///
/// The switch is both the data plane (every frame between hosts traverses
/// it; data packets run through the [`AggregatorEngine`] pipeline) and the
/// controller (it grants and releases aggregator-array regions in response
/// to control messages, §3.1 steps ③ and ⑫).
#[derive(Debug)]
pub struct AskSwitch {
    engine: AggregatorEngine,
    /// Next-hop overrides: destinations not listed are assumed directly
    /// attached. Lets ToR switches route cross-rack traffic via a spine
    /// (§7 multi-rack deployment).
    routes: std::collections::HashMap<u32, NodeId>,
    /// Frames that could not be routed (no link to destination).
    unroutable: u64,
    /// Frames that failed to decode.
    undecodable: u64,
    /// The switch's incarnation number, bumped by every crash/restart and
    /// stamped into every envelope the switch originates. Ingress frames
    /// from an older epoch are rejected — their sender still talks to a
    /// dead incarnation whose aggregator/dedup state is gone.
    epoch: u32,
    /// Ingress frames dropped by the epoch gate.
    stale_epoch_drops: u64,
    /// Data frames relayed as bypass traffic because their declared slot
    /// layout is not this switch's.
    foreign_layout_relayed: u64,
    /// Data frames fully absorbed: consumed straight from the wire bytes,
    /// answered with an ACK and nothing else.
    pure_absorb: u64,
    /// Swap, fetch and release frames dropped because they arrived on
    /// another port than the one their task was registered from.
    control_source_drops: u64,
}

impl AskSwitch {
    /// Creates a switch with the given configuration.
    pub fn new(config: AskConfig) -> Self {
        AskSwitch {
            engine: AggregatorEngine::new(config),
            routes: std::collections::HashMap::new(),
            unroutable: 0,
            undecodable: 0,
            epoch: 0,
            stale_epoch_drops: 0,
            foreign_layout_relayed: 0,
            pure_absorb: 0,
            control_source_drops: 0,
        }
    }

    /// Crashes and restarts the switch: every register array, match table,
    /// dedup window, and task region is wiped ([`AggregatorEngine::crash_reset`])
    /// and the switch comes back in a new epoch, so anything computed
    /// against the dead incarnation — in-flight verdicts, ACKs, fetch
    /// replies, sender sequence spaces — is rejected by the epoch gates on
    /// both sides instead of corrupting the restarted state.
    pub fn crash(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        self.engine.crash_reset();
    }

    /// The switch's current incarnation number.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Ingress frames dropped because they carried an older epoch.
    pub fn stale_epoch_drops(&self) -> u64 {
        self.stale_epoch_drops
    }

    /// Data frames in some other slot layout than this switch's, relayed
    /// unchanged as bypass traffic (never aggregated, never re-framed).
    pub fn foreign_layout_relayed(&self) -> u64 {
        self.foreign_layout_relayed
    }

    /// Data frames fully absorbed without materializing a single slot —
    /// just an ACK back to the sender.
    pub fn pure_absorb_frames(&self) -> u64 {
        self.pure_absorb
    }

    /// Swap, fetch and release frames dropped by the control-source gate:
    /// they came from another port than their task's receiver.
    pub fn control_source_drops(&self) -> u64 {
        self.control_source_drops
    }

    /// Control-source gate for a frame that drives `task`'s registers
    /// (swap, fetch, release): only the port the task was registered from,
    /// its receiver's, may send one. Anything else is dropped and counted.
    /// Frames for unregistered tasks pass, because the engine answers them
    /// without touching any task state.
    fn control_source_admit(&mut self, task: TaskId, from: NodeId) -> bool {
        match self.engine.task_receiver(task) {
            Some(port) if port != from.index() as u32 => {
                self.control_source_drops += 1;
                false
            }
            _ => true,
        }
    }

    /// Epoch gate for one ingress frame: frames from this epoch (or a
    /// newer one, see [`epoch_newer`]) pass; all others are dropped and
    /// answered with an [`ControlMsg::EpochNotify`] so the sender
    /// resynchronizes. Returns whether the frame should be processed.
    fn epoch_admit(&mut self, src: u32, envelope_epoch: u32, ctx: &mut Context<'_>) -> bool {
        if envelope_epoch == self.epoch || epoch_newer(envelope_epoch, self.epoch) {
            return true;
        }
        self.stale_epoch_drops += 1;
        let notify = AskPacket::Control(ControlMsg::EpochNotify { epoch: self.epoch });
        self.reply(src, notify, ctx);
        false
    }

    /// Routes frames for destination node `dst` via `next_hop` instead of
    /// assuming a direct link.
    pub fn set_route(&mut self, dst: u32, next_hop: NodeId) {
        self.routes.insert(dst, next_hop);
    }

    /// Restricts this switch's reliability state and aggregation to the
    /// given rack-local hosts (§7); see
    /// [`AggregatorEngine::set_local_hosts`].
    pub fn set_local_hosts(&mut self, hosts: impl IntoIterator<Item = u32>) {
        self.engine.set_local_hosts(hosts);
    }

    /// Per-task switch counters.
    pub fn task_stats(&self, task: TaskId) -> Option<SwitchTaskStats> {
        self.engine.task_stats(task)
    }

    /// Direct access to the aggregation engine (benchmarks, inspection).
    pub fn engine(&self) -> &AggregatorEngine {
        &self.engine
    }

    /// Mutable access to the aggregation engine.
    pub fn engine_mut(&mut self) -> &mut AggregatorEngine {
        &mut self.engine
    }

    /// Frames dropped because no link to the destination exists.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Frames dropped because they failed integrity or format checks
    /// (corrupted in transit, or not ASK traffic at all).
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// Relays already-encoded envelope bytes unchanged. Used for every
    /// packet the switch does not rewrite: the payload `Bytes` handle from
    /// the incoming frame is reused directly (an O(1) reference-count
    /// bump), skipping the per-hop re-encode and checksum entirely.
    fn forward_raw(&mut self, dst: u32, bytes: Bytes, wire: usize, ctx: &mut Context<'_>) {
        let to = self
            .routes
            .get(&dst)
            .copied()
            .unwrap_or_else(|| NodeId::from_index(dst as usize));
        if ctx.send(to, Frame::with_wire_bytes(bytes, wire)).is_err() {
            self.unroutable += 1;
        }
    }

    /// Sends a packet the switch itself originates, stamped with its epoch.
    fn reply(&mut self, dst: u32, packet: AskPacket, ctx: &mut Context<'_>) {
        let layout = self.engine.config().layout;
        let me = ctx.me().index() as u32;
        let bytes = encode_envelope_parts(me, dst, self.epoch, 0, &packet, &layout);
        let wire = packet.wire_bytes(&layout);
        self.forward_raw(dst, bytes, wire, ctx);
    }

    /// Bypass traffic (long-kv, FIN, foreign-layout data) shares its
    /// channel's sequence space but is never aggregated: record it so the
    /// receive window stays dense, drop only provably-acknowledged (stale)
    /// packets, and relay the rest unchanged — the receiver is the
    /// deduplicating endpoint. Returns whether the frame was relayed.
    fn relay_bypass(
        &mut self,
        channel: ChannelId,
        seq: SeqNo,
        m: FrameMeta,
        ctx: &mut Context<'_>,
    ) -> bool {
        match self.engine.observe_bypass(channel, seq) {
            Observation::Stale => false,
            Observation::First | Observation::Duplicate => {
                self.forward_raw(m.dst, m.payload, m.wire, ctx);
                true
            }
        }
    }

    /// Emits the response for one data packet's verdict. Fully-absorbed
    /// frames cost an ACK and nothing else. Residual forwards either relay
    /// the inbound buffer unchanged (nothing was aggregated out) or rewrite
    /// it with [`DataPacketView::residual_frame`], which copies the
    /// sender-stamped envelope header (epoch, flags) verbatim.
    fn emit_verdict(
        &mut self,
        verdict: ViewVerdict,
        view: &DataPacketView,
        m: FrameMeta,
        ctx: &mut Context<'_>,
    ) {
        match verdict {
            ViewVerdict::Stale => {}
            ViewVerdict::FullyAggregated => {
                self.pure_absorb += 1;
                // The switch is the consuming endpoint: it ACKs the sender.
                let me = ctx.me().index() as u32;
                let ack = ack_frame(me, m.src, self.epoch, view.channel(), view.seq());
                self.forward_raw(m.src, ack, PACKET_OVERHEAD, ctx);
            }
            ViewVerdict::Forward { residual } => {
                if residual == view.bitmap() {
                    self.forward_raw(m.dst, m.payload, m.wire, ctx);
                } else {
                    let bytes = view.residual_frame(residual);
                    let layout = self.engine.config().layout;
                    let mut wire = PACKET_OVERHEAD;
                    let mut bm = residual;
                    while bm != 0 {
                        let i = bm.trailing_zeros() as usize;
                        wire += layout.slot_bytes(i);
                        bm &= bm - 1;
                    }
                    self.forward_raw(m.dst, bytes, wire, ctx);
                }
            }
        }
    }
}

impl Node for AskSwitch {
    /// The receive datapath. Each frame is parsed once (one CRC pass, no
    /// slot vectors) and answered from the same buffer: a data packet in the
    /// switch's layout is one pipeline pass
    /// ([`AggregatorEngine::process_data_view`]); every other kind is
    /// relayed from its raw payload bytes or answered by the control plane.
    /// A region request registers its ingress port as the task's receiver,
    /// and only that port may swap, fetch or release the task.
    fn on_frame(&mut self, from: NodeId, frame: Frame, ctx: &mut Context<'_>) {
        let wire = frame.wire_bytes();
        // Keep the raw payload around: packets the switch relays
        // unmodified are re-sent from these very bytes.
        let payload = frame.into_payload();
        let Ok(view) = FrameView::parse(payload.clone()) else {
            self.undecodable += 1;
            return;
        };
        if !self.epoch_admit(view.src(), view.epoch(), ctx) {
            return;
        }
        let m = FrameMeta {
            src: view.src(),
            dst: view.dst(),
            wire,
            payload,
        };
        match view.into_packet() {
            PacketView::Data(d) if !d.matches_layout(&self.engine.config().layout) => {
                // Slot `i` of this frame does not address aggregator
                // array `i` (which may not even exist): not ours to
                // aggregate, so it travels as bypass traffic.
                if self.relay_bypass(d.channel(), d.seq(), m, ctx) {
                    self.foreign_layout_relayed += 1;
                }
            }
            PacketView::Data(d) => {
                let verdict = self.engine.process_data_view(&d);
                self.emit_verdict(verdict, &d, m, ctx);
            }
            PacketView::LongKv {
                channel,
                seq,
                task,
                entry_count,
            } => {
                // Long-kv bodies are never materialized: the counter reads
                // the validated entry count straight from the view.
                if self.relay_bypass(channel, seq, m, ctx) {
                    self.engine.note_longkv_forwarded(task, entry_count as u64);
                }
            }
            PacketView::Fin { channel, seq, .. } => {
                self.relay_bypass(channel, seq, m, ctx);
            }
            PacketView::Ack { .. } | PacketView::FetchReply { .. } => {
                self.forward_raw(m.dst, m.payload, m.wire, ctx);
            }
            PacketView::Swap { task } => {
                if self.control_source_admit(task, from) {
                    self.engine.swap(task);
                }
            }
            PacketView::FetchRequest {
                task,
                scope,
                fetch_seq,
            } => {
                if !self.control_source_admit(task, from) {
                    return;
                }
                let entries = self.engine.fetch(task, scope, fetch_seq);
                let reply = AskPacket::FetchReply {
                    task,
                    fetch_seq,
                    entries,
                };
                self.reply(m.src, reply, ctx);
            }
            PacketView::Control(msg) => match msg {
                ControlMsg::RegionRequest { task, op } => {
                    let port = from.index() as u32;
                    let reply = match self.engine.register_task_with_op(task, port, op) {
                        Some(region) => ControlMsg::RegionGrant { task, region },
                        None => ControlMsg::RegionDeny { task },
                    };
                    self.reply(m.src, AskPacket::Control(reply), ctx);
                }
                ControlMsg::RegionRelease { task } => {
                    if self.control_source_admit(task, from) {
                        self.engine.release_task(task);
                    }
                }
                // Host-to-host control traffic transits the switch.
                ControlMsg::TaskAnnounce { .. }
                | ControlMsg::RegionGrant { .. }
                | ControlMsg::RegionDeny { .. }
                | ControlMsg::EpochNotify { .. } => self.forward_raw(m.dst, m.payload, m.wire, ctx),
            },
        }
    }

    /// A restart after a scheduled node-down window is a crash/recovery
    /// cycle: the data plane comes back empty in a fresh epoch.
    fn on_restart(&mut self, _ctx: &mut Context<'_>) {
        self.crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ask_simnet::link::LinkConfig;
    use ask_simnet::network::{Network, NetworkBuilder};
    use ask_simnet::time::SimDuration;
    use ask_wire::packet::AggregateOp;

    /// Records every payload it is handed.
    #[derive(Default)]
    struct Sink(Vec<Bytes>);

    impl Node for Sink {
        fn on_frame(&mut self, _from: NodeId, frame: Frame, _ctx: &mut Context<'_>) {
            self.0.push(frame.into_payload());
        }
    }

    #[test]
    fn epoch_newer_is_serial_number_arithmetic() {
        assert!(epoch_newer(1, 0));
        assert!(!epoch_newer(0, 0));
        assert!(!epoch_newer(0, 1));
        assert!(epoch_newer(0, u32::MAX), "the wrap is one step forward");
        assert!(!epoch_newer(u32::MAX, 0));
        assert!(epoch_newer((1 << 31) - 1, 0));
        assert!(!epoch_newer(1 << 31, 0) && !epoch_newer(0, 1 << 31));
    }

    #[test]
    fn epoch_gate_holds_across_the_u32_wrap() {
        let cfg = AskConfig::tiny();
        let layout = cfg.layout;
        let mut b = NetworkBuilder::new(1);
        let host = b.add_node(Sink::default());
        let switch = b.add_node(AskSwitch::new(cfg));
        b.connect(host, switch, LinkConfig::new(100e9, SimDuration::from_micros(1)));
        let mut net = b.build();
        net.with_node::<AskSwitch, _>(switch, |sw, _| {
            sw.epoch = u32::MAX;
            sw.crash();
        });
        assert_eq!(net.node::<AskSwitch>(switch).epoch(), 0);

        let (src, dst) = (host.index() as u32, switch.index() as u32);
        let request = AskPacket::Control(ControlMsg::RegionRequest {
            task: TaskId(1),
            op: AggregateOp::Sum,
        });
        let reply = |net: &mut Network, epoch: u32| {
            let bytes = encode_envelope_parts(src, dst, epoch, 0, &request, &layout);
            net.with_node::<AskSwitch, _>(switch, |sw, ctx| {
                sw.on_frame(host, Frame::new(bytes), ctx)
            });
            net.run_to_idle();
            let got = net.node_mut::<Sink>(host).0.pop().expect("one reply");
            let view = FrameView::parse(got).expect("the switch sends valid frames");
            assert_eq!(view.epoch(), 0, "stamped with the switch's epoch");
            match view.into_packet() {
                PacketView::Control(msg) => msg,
                other => panic!("not a control reply: {other:?}"),
            }
        };

        assert_eq!(
            reply(&mut net, u32::MAX),
            ControlMsg::EpochNotify { epoch: 0 },
            "a frame from the incarnation before the wrap is stale"
        );
        assert_eq!(net.node::<AskSwitch>(switch).stale_epoch_drops(), 1);
        assert!(
            matches!(reply(&mut net, 0), ControlMsg::RegionGrant { .. }),
            "a frame from the current epoch is admitted"
        );
        assert_eq!(net.node::<AskSwitch>(switch).stale_epoch_drops(), 1);
    }
}
