//! The per-host ASK daemon (§3.1): two halves, `SenderSide` and
//! `ReceiverSide`, each with its own state, counters and timers, behind one
//! node that epoch-gates every frame, routes frames and timers to a half,
//! and joins the halves where the roles meet: a stream whose receiver is
//! this host, and the replay after a switch restart.

mod receiver;
mod sender;

use crate::config::AskConfig;
use crate::stats::HostStats;
use crate::switch::epoch_newer;
use ask_simnet::frame::{Frame, NodeId};
use ask_simnet::network::{Context, Node};
use ask_simnet::time::SimDuration;
use ask_wire::codec::control_frame;
use ask_wire::constants::PACKET_OVERHEAD;
use ask_wire::packet::{ControlMsg, KvTuple, TaskId};
use ask_wire::view::{FrameView, PacketView};
use bytes::Bytes;
use receiver::ReceiverSide;
use sender::SenderSide;

pub use crate::host::merge::TaskResult;
pub use ask_wire::packet::CHANNEL_STRIDE;
pub use sender::ChannelSnapshot;

/// Set in every receiver timer's token; each half encodes its kinds below.
const RECEIVER_TIMER: u64 = 1 << 63;

/// What both halves send through, read-only to them: the uplink to the
/// switch, and the epoch the daemon is synchronized to.
#[derive(Debug)]
struct Uplink {
    config: AskConfig,
    switch: NodeId,
    me: Option<NodeId>,
    /// Highest switch epoch this daemon has seen. Frames from older epochs
    /// (pre-crash verdicts, ACKs, fetch replies) are dropped at ingress.
    known_epoch: u32,
}

impl Uplink {
    fn me(&self) -> u32 {
        self.me.expect("daemon initialized").index() as u32
    }

    fn switch_index(&self) -> u32 {
        self.switch.index() as u32
    }
}

/// What a half acts through for one call: the uplink and the context.
struct Io<'a, 'c> {
    up: &'a Uplink,
    ctx: &'a mut Context<'c>,
}

impl Io<'_, '_> {
    /// Sends a header-only frame (ACK, swap, fetch request, control) built
    /// by its writer.
    fn send(&mut self, frame: Bytes) {
        let frame = Frame::with_wire_bytes(frame, PACKET_OVERHEAD);
        let _ = self.ctx.send(self.up.switch, frame);
    }

    fn send_control(&mut self, dst: u32, msg: &ControlMsg) {
        self.send(control_frame(self.up.me(), dst, self.up.known_epoch, msg));
    }
}

/// The ASK daemon running on one host, as a simulated network node: the
/// sender of the streams submitted via [`AskDaemon::submit_send_task`] and
/// the receiver of the tasks submitted via [`AskDaemon::submit_receive_task`].
/// All traffic goes through the directly attached [`crate::switch::AskSwitch`].
#[derive(Debug)]
pub struct AskDaemon {
    up: Uplink,
    sender: SenderSide,
    receiver: ReceiverSide,
    /// Frames neither half saw: undecodable, or from a stale epoch.
    undecodable: u64,
    stale_epoch_drops: u64,
}

impl AskDaemon {
    /// Creates a daemon whose uplink is the switch node `switch`.
    pub fn new(config: AskConfig, switch: NodeId) -> Self {
        config.validate();
        AskDaemon {
            sender: SenderSide::new(&config),
            receiver: ReceiverSide::default(),
            up: Uplink {
                config,
                switch,
                me: None,
                known_epoch: 0,
            },
            undecodable: 0,
            stale_epoch_drops: 0,
        }
    }

    fn ensure_init(&mut self, ctx: &Context<'_>) {
        if self.up.me.is_none() {
            self.up.me = Some(ctx.me());
            self.sender.open_channels(&self.up);
        }
    }

    /// Submits this host's key-value stream for `task`. The data is held
    /// until the receiver's announcement arrives (which may already have
    /// happened), then packetized onto a data channel.
    ///
    /// # Panics
    ///
    /// Panics if this host already submitted a stream for `task`: a task
    /// takes one stream from each sender, ended by one FIN.
    pub fn submit_send_task(&mut self, task: TaskId, tuples: Vec<KvTuple>, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        if let Some((receiver, tuples)) = self.sender.submit(task, tuples) {
            self.dispatch(task, receiver, &tuples, ctx);
        }
    }

    /// Aggregate daemon counters.
    pub fn stats(&self) -> HostStats {
        self.report().0
    }

    /// Total CPU time consumed by packet IO and host-side aggregation.
    pub fn cpu_busy(&self) -> SimDuration {
        self.report().1
    }

    /// Both halves' counters and CPU time, with the frames neither saw.
    fn report(&self) -> (HostStats, SimDuration) {
        let mut stats = HostStats {
            undecodable: self.undecodable,
            stale_epoch_drops: self.stale_epoch_drops,
            ..HostStats::default()
        };
        let cpu = self.sender.report(&mut stats) + self.receiver.report(&mut stats);
        (stats, cpu)
    }

    /// The configured sliding-window limit `W`, in packets.
    pub fn window_limit(&self) -> usize {
        self.up.config.window
    }

    /// The highest switch epoch this daemon has synchronized against.
    pub fn known_epoch(&self) -> u32 {
        self.up.known_epoch
    }

    /// Simulates the daemon restarting from its crash-consistent state
    /// (window contents and task tables survive; pacing and armed timers do
    /// not): every in-flight packet is retransmitted — the receiver's
    /// window dedups the ones whose originals got through — pump pacing is
    /// reset, and any pending fetch is re-requested. Deterministic: channels
    /// in index order, fetches in task-id order.
    pub fn recover(&mut self, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        let io = &mut Io { up: &self.up, ctx };
        self.sender.recover(io);
        self.receiver.recover(io);
    }

    /// Full resynchronization against a restarted switch (epoch `epoch`),
    /// before the frame that carried it is processed. The crash wiped every
    /// aggregator, dedup register and task region on the switch, and the
    /// epoch gates on both sides drop anything from the old epoch, so both
    /// halves restart from scratch and the retained streams are replayed.
    fn resync_to_epoch(&mut self, epoch: u32, ctx: &mut Context<'_>) {
        self.up.known_epoch = epoch;
        let replay = self.sender.resync();
        self.receiver.resync(&mut Io { up: &self.up, ctx });
        for (task, receiver, tuples) in replay {
            if receiver == self.up.me() && self.task_result(task).is_some() {
                continue; // co-located task already finished; nothing lost
            }
            self.dispatch(task, receiver, &tuples, ctx);
        }
    }

    /// Where the roles meet: `task`'s stream goes straight to the receiver
    /// half when this host is its `receiver`, and onto a data channel if not.
    fn dispatch(&mut self, task: TaskId, receiver: u32, tuples: &[KvTuple], ctx: &mut Context<'_>) {
        let io = &mut Io { up: &self.up, ctx };
        if receiver == self.up.me() {
            self.receiver.merge_colocated(io, task, tuples);
        } else {
            self.sender.queue_stream(io, task, receiver, tuples);
        }
    }

    /// Epoch gate for a parsed view; `false` means drop the frame. A newer
    /// epoch ([`epoch_newer`]) means the switch restarted — resync fully
    /// before processing this frame; any other epoch is a leftover of a
    /// dead incarnation (late verdict, ACK, or fetch reply computed against
    /// wiped switch state) and must not touch anything.
    fn admit_view(&mut self, view: &FrameView, ctx: &mut Context<'_>) -> bool {
        if view.epoch() == self.up.known_epoch {
            return true;
        }
        if epoch_newer(view.epoch(), self.up.known_epoch) {
            self.resync_to_epoch(view.epoch(), ctx);
            true
        } else {
            self.stale_epoch_drops += 1;
            false
        }
    }

    /// Delivers each frame of `burst` through [`Node::on_frame`], in order,
    /// leaving `burst` empty. Kept for callers written against a burst entry
    /// point (the frozen benchmark drives the receive path through it).
    pub fn on_frames(&mut self, burst: &mut Vec<(NodeId, Frame)>, ctx: &mut Context<'_>) {
        for (from, frame) in burst.drain(..) {
            self.on_frame(from, frame, ctx);
        }
    }
}

impl Node for AskDaemon {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
    }

    /// Inbound frames parse once into borrowed `FrameView`s, one frame per
    /// call; every payload — data slots, long-kv and fetch-reply entries —
    /// is copied straight from the wire bytes into the merge worker's batch.
    fn on_frame(&mut self, _from: NodeId, frame: Frame, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        let Ok(view) = FrameView::parse(frame.into_payload()) else {
            self.undecodable += 1;
            return;
        };
        if !self.admit_view(&view, ctx) {
            return;
        }
        let (io, rx) = (&mut Io { up: &self.up, ctx }, &mut self.receiver);
        match *view.packet() {
            PacketView::Ack { channel, seq } => self.sender.on_ack(io, channel, seq),
            PacketView::Data(_) | PacketView::LongKv { .. } | PacketView::Fin { .. } => {
                rx.on_sequenced(io, &view)
            }
            PacketView::FetchReply { .. } => rx.on_fetch_reply(io, &view),
            PacketView::Control(ControlMsg::RegionGrant { task, .. }) => {
                rx.on_region_reply(io, task, true)
            }
            PacketView::Control(ControlMsg::RegionDeny { task }) => {
                rx.on_region_reply(io, task, false)
            }
            // A co-located announce merges and may complete the task.
            PacketView::Control(ControlMsg::TaskAnnounce { task, receiver }) => {
                if let Some((receiver, tuples)) = self.sender.on_announce(task, receiver) {
                    self.dispatch(task, receiver, &tuples, ctx);
                }
            }
            // The epoch gate already did all the work for a notify.
            PacketView::Control(ControlMsg::EpochNotify { .. }) => {}
            // Packets a daemon never receives (switch-bound kinds).
            PacketView::Swap { .. }
            | PacketView::FetchRequest { .. }
            | PacketView::Control(
                ControlMsg::RegionRequest { .. } | ControlMsg::RegionRelease { .. },
            ) => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        let io = &mut Io { up: &self.up, ctx };
        if token & RECEIVER_TIMER != 0 {
            self.receiver.on_timer(io, token);
        } else {
            self.sender.on_timer(io, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ask_wire::packet::ChannelId;

    #[test]
    fn tokens_pack_and_unpack() {
        let t = sender::token_retx(3, 0x0102, 0x12_3456_789a);
        assert_eq!(t & RECEIVER_TIMER, 0, "a sender timer");
        assert_eq!((t >> 48) & 0xff, 3);
        assert_eq!((t >> 40) & 0xff, 0x02, "the epoch's low byte");
        assert_eq!(t & 0xff_ffff_ffff, 0x12_3456_789a);

        let t = receiver::timer_token(receiver::TK_FETCH, TaskId(7), 42);
        assert_ne!(t & RECEIVER_TIMER, 0, "a receiver timer");
        assert_eq!((t >> 56) & 0x3, receiver::TK_FETCH);
        assert_eq!((t >> 24) & 0xffff_ffff, 7);
        assert_eq!(t & 0xff_ffff, 42);

        let t = sender::token_pump(5);
        assert_eq!(t & RECEIVER_TIMER, 0, "a sender timer");
        assert_ne!(t, sender::token_retx(5, 0, 0), "pump and retransmit differ");
        assert_eq!(t, 5);
    }

    #[test]
    fn channel_ids_are_per_host_unique() {
        // host 3, 4 channels → ids 3*256 .. 3*256+3
        let base = 3 * CHANNEL_STRIDE;
        for i in 0..4 {
            let id = ChannelId(base + i);
            assert_eq!(id.0 / CHANNEL_STRIDE, 3, "host recoverable from id");
        }
    }
}
