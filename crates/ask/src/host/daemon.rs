//! The per-host ASK daemon (§3.1): control + data channels, the reliable
//! sliding-window sender, the deduplicating receiver, and the aggregation
//! task lifecycle (setup → streaming → FIN → fetch → teardown).

use crate::config::AskConfig;
use crate::fasthash::FastMap;
use crate::host::packetizer::{BuiltFrame, Packetizer, PendingStream};
use crate::host::receiver::ReceiverWindow;
use crate::host::table::TaskTable;
use crate::host::trace::{TraceEvent, TraceLog};
use crate::host::window::{FrameKind, SenderWindow};
use crate::stats::HostStats;
use crate::switch::aggregator::Observation;
use crate::switch::epoch_newer;
use ask_simnet::frame::{Frame, NodeId};
use ask_simnet::network::{Context, Node};
use ask_simnet::time::{SimDuration, SimTime};
use ask_wire::codec::{ack_frame, encode_envelope_parts, fin_frame, SendHeader};
use ask_wire::constants::PACKET_OVERHEAD;
use ask_wire::key::Key;
use ask_wire::packet::{
    AggregateOp, AskPacket, ChannelId, ControlMsg, FetchScope, KvTuple, SeqNo, TaskId,
};
use ask_wire::view::{DataPacketView, FrameView, PacketView};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

pub use ask_wire::packet::CHANNEL_STRIDE;

// Timer token kinds (packed into the token's top byte).
const TK_PUMP: u64 = 1;
const TK_RETX: u64 = 2;
const TK_FETCH: u64 = 3;
const TK_REGION: u64 = 4;
const TK_ANNOUNCE: u64 = 5;

fn token_pump(ch: usize) -> u64 {
    (TK_PUMP << 56) | ch as u64
}
/// A retransmit timer names `(ch, seq)` in the sequence space of one epoch:
/// a resync restarts every channel at seq 0 and timers cannot be cancelled,
/// so the token carries the epoch's low byte and a timer from another
/// generation is dropped when it fires.
fn token_retx(ch: usize, epoch: u32, seq: u64) -> u64 {
    debug_assert!(ch < (1 << 8) && seq < (1 << 40), "exceeds token space");
    (TK_RETX << 56) | ((ch as u64) << 48) | ((epoch as u64 & 0xff) << 40) | seq
}
fn token_fetch(task: TaskId, fetch_seq: u32) -> u64 {
    (TK_FETCH << 56) | ((task.0 as u64) << 24) | (fetch_seq as u64 & 0xff_ffff)
}
fn token_region(task: TaskId) -> u64 {
    (TK_REGION << 56) | task.0 as u64
}
fn token_announce(task: TaskId) -> u64 {
    (TK_ANNOUNCE << 56) | task.0 as u64
}

/// An item queued on a data channel, waiting for the window.
///
/// A stream stays staged as wire-ready lanes ([`PendingStream`]) and each
/// frame is built only when the window admits it, so at most a window's
/// worth of frames is live at a time.
#[derive(Debug)]
enum QueuedItem {
    Stream {
        task: TaskId,
        dst: u32,
        stream: PendingStream,
    },
    Fin {
        task: TaskId,
        dst: u32,
    },
}

#[derive(Debug)]
struct ChannelState {
    id: ChannelId,
    window: SenderWindow,
    queue: VecDeque<QueuedItem>,
    busy_until: SimTime,
    pump_armed: bool,
    /// Unacked data/long-kv packets per task, gating the task's FIN.
    outstanding: FastMap<TaskId, u64>,
}

/// State of the receiver's (reliable) fetch exchange with the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchState {
    Idle,
    Pending {
        fetch_seq: u32,
        scope: FetchScope,
        is_final: bool,
    },
}

/// Read-only view of one data channel's reliability state, for invariant
/// checks (the conformance harness proves `peak_in_flight <= window` and
/// that everything drains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSnapshot {
    /// The channel's global id.
    pub channel: ChannelId,
    /// Next sequence number the sender will use.
    pub next_seq: u64,
    /// Unacknowledged packets right now.
    pub in_flight: usize,
    /// High-water mark of `in_flight` over the run.
    pub peak_in_flight: usize,
    /// Items still queued behind the window.
    pub queued: usize,
    /// Unacked FIN-gating packets summed over tasks.
    pub outstanding: u64,
}

/// Completed aggregation result, exposed to the application: the task's
/// residual table itself, frozen at completion and read in place (the
/// paper's shared-memory result buffer, §4). Cloning shares the table.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The finished task.
    pub task: TaskId,
    /// Simulated completion time.
    pub completed_at: SimTime,
    table: Arc<TaskTable>,
}

impl TaskResult {
    /// Number of distinct keys aggregated.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the task aggregated no key.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The aggregated value of `key` (wrapping 32-bit sums), if present.
    pub fn get(&self, key: &Key) -> Option<u32> {
        self.table.get(key)
    }

    /// Every `(key bytes, value)` entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], u32)> + '_ {
        self.table.iter()
    }

    /// The entries as an owned key → value map.
    pub fn to_map(&self) -> HashMap<Key, u32> {
        self.table.to_map()
    }
}

#[derive(Debug)]
struct RecvTask {
    senders: HashSet<u32>,
    /// The task's aggregation operator (applied to residual merges too).
    op: AggregateOp,
    /// `Some(true)` once a region is granted, `Some(false)` on deny
    /// (host-only fallback), `None` while the controller RPC is in flight.
    ina: Option<bool>,
    residual: TaskTable,
    fins: HashSet<u32>,
    packets_since_swap: u64,
    fetch_seq: u32,
    fetch: FetchState,
    want_final: bool,
    result: Option<TaskResult>,
}

/// The ASK daemon running on one host, as a simulated network node.
///
/// A daemon plays both roles: *sender* for tasks submitted via
/// [`AskDaemon::submit_send_task`] and *receiver* for tasks submitted via
/// [`AskDaemon::submit_receive_task`]. All traffic goes through the directly
/// attached [`crate::switch::AskSwitch`].
#[derive(Debug)]
pub struct AskDaemon {
    config: AskConfig,
    switch: NodeId,
    me: Option<NodeId>,
    packetizer: Packetizer,
    channels: Vec<ChannelState>,
    /// Sender side: task → receiver node learned from TaskAnnounce.
    announced: FastMap<TaskId, u32>,
    /// Sender side: tuples waiting for a TaskAnnounce.
    pending_sends: FastMap<TaskId, Vec<KvTuple>>,
    /// Sender side: every dispatched stream, retained for replay when the
    /// switch restarts under a new epoch. A sender cannot know whether the
    /// receiver already banked its contribution (switch aggregators are
    /// wiped by the crash), so resynchronization replays conservatively;
    /// receivers dedup via the epoch gate and completion checks. The
    /// caller's vector itself is kept; a task submitted in several chunks
    /// keeps their concatenation.
    sent_streams: FastMap<TaskId, (u32, Arc<Vec<KvTuple>>)>,
    /// Sender side: tasks whose FIN has been acknowledged.
    send_done: FastMap<TaskId, SimTime>,
    /// Receiver side.
    recv_windows: FastMap<ChannelId, ReceiverWindow>,
    recv_tasks: FastMap<TaskId, RecvTask>,
    stats: HostStats,
    trace: TraceLog,
    cpu_busy: SimDuration,
    /// Tuples received for tasks this daemon never registered (misrouted).
    orphan_tuples: u64,
    /// Tuples received for tasks this daemon had already completed (a
    /// sender's crash-epoch replay of a stream the result already holds).
    late_tuples: u64,
    /// Highest switch epoch this daemon has seen. Frames from older epochs
    /// (pre-crash verdicts, ACKs, fetch replies) are dropped at ingress.
    known_epoch: u32,
    /// When set, wall time spent classifying and building packets is
    /// accumulated into `packetize_ns` (the stick's `service.packetize_share`).
    /// Purely observational: never read by the protocol.
    time_phases: bool,
    /// `Cell` so the hot send path can add to it while channel state is
    /// mutably borrowed.
    packetize_ns: std::cell::Cell<u64>,
}

impl AskDaemon {
    /// Creates a daemon whose uplink is the switch node `switch`.
    pub fn new(config: AskConfig, switch: NodeId) -> Self {
        config.validate();
        let packetizer = Packetizer::new(config.layout, config.long_kv_batch);
        let trace = TraceLog::new(config.trace_capacity);
        AskDaemon {
            config,
            switch,
            me: None,
            packetizer,
            channels: Vec::new(),
            announced: FastMap::default(),
            pending_sends: FastMap::default(),
            sent_streams: FastMap::default(),
            send_done: FastMap::default(),
            recv_windows: FastMap::default(),
            recv_tasks: FastMap::default(),
            trace,
            stats: HostStats::default(),
            cpu_busy: SimDuration::ZERO,
            orphan_tuples: 0,
            late_tuples: 0,
            known_epoch: 0,
            time_phases: false,
            packetize_ns: std::cell::Cell::new(0),
        }
    }

    /// Turns on packetize-phase wall-time accounting (the stick's
    /// `service.packetize_share`). Off by default: the hot path must not
    /// pay for clock reads.
    pub fn enable_phase_timing(&mut self) {
        self.time_phases = true;
    }

    /// Nanoseconds spent classifying and building packets, when
    /// [`AskDaemon::enable_phase_timing`] was called.
    pub fn packetize_ns(&self) -> u64 {
        self.packetize_ns.get()
    }

    fn ensure_init(&mut self, ctx: &Context<'_>) {
        if self.me.is_some() {
            return;
        }
        let me = ctx.me();
        assert!(
            (self.config.data_channels as u32) <= CHANNEL_STRIDE,
            "too many data channels for the id stride"
        );
        self.me = Some(me);
        self.channels = (0..self.config.data_channels)
            .map(|i| ChannelState {
                id: ChannelId(me.index() as u32 * CHANNEL_STRIDE + i as u32),
                window: SenderWindow::new(self.config.window),
                queue: VecDeque::new(),
                busy_until: SimTime::ZERO,
                pump_armed: false,
                outstanding: FastMap::default(),
            })
            .collect();
    }

    fn my_index(&self) -> u32 {
        self.me.expect("daemon initialized").index() as u32
    }

    // ------------------------------------------------------------------
    // Application-facing API (call through `Network::with_node`).
    // ------------------------------------------------------------------

    /// Submits an aggregation task with this host as the receiver.
    ///
    /// `senders` are the raw node indices of the sending hosts (which may
    /// include this host for co-located senders). The daemon requests switch
    /// memory and announces the task to every sender (§3.1 steps ①–⑤).
    pub fn submit_receive_task(&mut self, task: TaskId, senders: &[u32], ctx: &mut Context<'_>) {
        self.submit_receive_task_with_op(task, senders, AggregateOp::Sum, ctx);
    }

    /// [`AskDaemon::submit_receive_task`] with an explicit aggregation
    /// operator, applied consistently by the switch ALU and the host's
    /// residual merges.
    pub fn submit_receive_task_with_op(
        &mut self,
        task: TaskId,
        senders: &[u32],
        op: AggregateOp,
        ctx: &mut Context<'_>,
    ) {
        self.ensure_init(ctx);
        assert!(
            !self.recv_tasks.contains_key(&task),
            "task {task} already submitted"
        );
        self.recv_tasks.insert(
            task,
            RecvTask {
                senders: senders.iter().copied().collect(),
                op,
                ina: None,
                residual: TaskTable::new(),
                fins: HashSet::new(),
                packets_since_swap: 0,
                fetch_seq: 0,
                fetch: FetchState::Idle,
                want_final: false,
                result: None,
            },
        );
        let req = AskPacket::Control(ControlMsg::RegionRequest { task, op });
        self.send_to(self.switch.index() as u32, req, ctx);
        ctx.set_timer(self.config.fetch_timeout, token_region(task));
    }

    /// Submits this host's key-value stream for `task`. The data is held
    /// until the receiver's announcement arrives (which may already have
    /// happened), then packetized onto a data channel.
    pub fn submit_send_task(&mut self, task: TaskId, tuples: Vec<KvTuple>, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        if let Some(&receiver) = self.announced.get(&task) {
            self.dispatch_send(task, receiver, tuples, ctx);
        } else {
            match self.pending_sends.entry(task) {
                Entry::Vacant(held) => {
                    held.insert(tuples);
                }
                Entry::Occupied(mut held) => held.get_mut().extend(tuples),
            }
        }
    }

    /// The completed result of a receive task, if finished.
    pub fn task_result(&self, task: TaskId) -> Option<&TaskResult> {
        self.recv_tasks.get(&task)?.result.as_ref()
    }

    /// True once this host's FIN for `task` was acknowledged.
    pub fn send_complete(&self, task: TaskId) -> bool {
        self.send_done.contains_key(&task)
    }

    /// When this host's FIN for `task` was acknowledged (end of its sending
    /// phase), if it has been.
    pub fn send_complete_at(&self, task: TaskId) -> Option<SimTime> {
        self.send_done.get(&task).copied()
    }

    /// Aggregate daemon counters.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Total CPU time consumed by packet IO and host-side aggregation.
    pub fn cpu_busy(&self) -> SimDuration {
        self.cpu_busy
    }

    /// Tuples that arrived for tasks this daemon never registered.
    pub fn orphan_tuples(&self) -> u64 {
        self.orphan_tuples
    }

    /// Tuples that arrived for a task after it completed. A sender cannot
    /// know the receiver finished, so a crash-epoch replay re-sends the
    /// whole stream; the frames are ACKed like any other and their tuples
    /// counted here, never merged — the result is frozen.
    pub fn late_tuples(&self) -> u64 {
        self.late_tuples
    }

    /// The protocol trace (empty unless
    /// [`AskConfig::trace_capacity`](crate::config::AskConfig) is set).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Snapshots every data channel's window state (empty before the daemon
    /// has started).
    pub fn channel_snapshots(&self) -> Vec<ChannelSnapshot> {
        self.channels
            .iter()
            .map(|ch| ChannelSnapshot {
                channel: ch.id,
                next_seq: ch.window.next_seq(),
                in_flight: ch.window.in_flight(),
                peak_in_flight: ch.window.peak_in_flight(),
                queued: ch.queue.len(),
                outstanding: ch.outstanding.values().sum(),
            })
            .collect()
    }

    /// The configured sliding-window limit `W`, in packets.
    pub fn window_limit(&self) -> usize {
        self.config.window
    }

    /// Highest sequence number the receiver window has observed on
    /// `channel`, if any packet arrived on it.
    pub fn receiver_max_seq(&self, channel: ChannelId) -> Option<u64> {
        self.recv_windows.get(&channel).map(|w| w.max_seq())
    }

    /// True while a fetch request for `task` is outstanding.
    pub fn fetch_pending(&self, task: TaskId) -> bool {
        matches!(
            self.recv_tasks.get(&task).map(|rt| rt.fetch),
            Some(FetchState::Pending { .. })
        )
    }

    /// The highest switch epoch this daemon has synchronized against.
    pub fn known_epoch(&self) -> u32 {
        self.known_epoch
    }

    /// Simulates the daemon restarting from its crash-consistent state
    /// (window contents and task tables survive; pacing and armed timers do
    /// not): every in-flight packet is retransmitted — the receiver's
    /// window dedups the ones whose originals got through — pump pacing is
    /// reset, and any pending fetch is re-requested. Deterministic: channels
    /// in index order, fetches in task-id order.
    pub fn recover(&mut self, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        for ch_ix in 0..self.channels.len() {
            let seqs = {
                let ch = &mut self.channels[ch_ix];
                ch.pump_armed = false;
                ch.busy_until = SimTime::ZERO;
                ch.window.in_flight_seqs()
            };
            for seq in seqs {
                self.retransmit(ch_ix, seq, ctx);
            }
            self.pump(ch_ix, ctx);
        }
        let mut pending: Vec<(TaskId, u32, FetchScope)> = self
            .recv_tasks
            .iter()
            .filter_map(|(&task, rt)| match rt.fetch {
                FetchState::Pending {
                    fetch_seq, scope, ..
                } => Some((task, fetch_seq, scope)),
                FetchState::Idle => None,
            })
            .collect();
        pending.sort_unstable_by_key(|&(task, ..)| task.0);
        for (task, fetch_seq, scope) in pending {
            self.send_to(
                self.switch.index() as u32,
                AskPacket::FetchRequest {
                    task,
                    scope,
                    fetch_seq,
                },
                ctx,
            );
            ctx.set_timer(self.config.fetch_timeout, token_fetch(task, fetch_seq));
        }
    }

    /// Full resynchronization against a restarted switch (epoch `epoch`).
    ///
    /// Called the moment any frame with a newer epoch arrives, *before* that
    /// frame's payload is processed. The crash wiped every aggregator,
    /// dedup register, and task region on the switch, and the epoch gate
    /// guarantees nothing from the old epoch will ever be accepted again on
    /// either side — so both roles restart their protocol state from
    /// scratch under the new epoch:
    ///
    /// - sender: windows are drained and the per-channel sequence space
    ///   restarts at 0 (the switch's wiped even/odd dedup bitmaps only read
    ///   correctly for a zero-based sequence space); retained streams are
    ///   replayed in task order.
    /// - receiver: receive windows are cleared and every unfinished task
    ///   re-requests its switch region, dropping all partial residuals
    ///   (their content is re-delivered by the senders' replays).
    fn resync_to_epoch(&mut self, epoch: u32, ctx: &mut Context<'_>) {
        self.known_epoch = epoch;
        for ch in &mut self.channels {
            ch.window.drain_reset();
            ch.queue.clear();
            ch.outstanding.clear();
            ch.pump_armed = false;
            ch.busy_until = SimTime::ZERO;
        }
        self.recv_windows.clear();
        let mut incomplete: Vec<TaskId> = self
            .recv_tasks
            .iter()
            .filter(|(_, rt)| rt.result.is_none())
            .map(|(&t, _)| t)
            .collect();
        incomplete.sort_unstable_by_key(|t| t.0);
        for task in incomplete {
            let rt = self.recv_tasks.get_mut(&task).expect("listed above");
            rt.ina = None;
            rt.residual.clear();
            rt.fins.clear();
            rt.packets_since_swap = 0;
            rt.fetch = FetchState::Idle;
            rt.want_final = false;
            let op = rt.op;
            self.send_to(
                self.switch.index() as u32,
                AskPacket::Control(ControlMsg::RegionRequest { task, op }),
                ctx,
            );
            ctx.set_timer(self.config.fetch_timeout, token_region(task));
        }
        let mut replay: Vec<(TaskId, u32, Arc<Vec<KvTuple>>)> = self
            .sent_streams
            .iter()
            .map(|(&t, (r, tuples))| (t, *r, Arc::clone(tuples)))
            .collect();
        replay.sort_unstable_by_key(|&(t, ..)| t.0);
        for (task, receiver, tuples) in replay {
            if receiver == self.my_index()
                && self
                    .recv_tasks
                    .get(&task)
                    .is_some_and(|rt| rt.result.is_some())
            {
                continue; // co-located task already finished; nothing lost
            }
            self.send_done.remove(&task);
            self.dispatch_stream(task, receiver, &tuples, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Sender side.
    // ------------------------------------------------------------------

    fn dispatch_send(
        &mut self,
        task: TaskId,
        receiver: u32,
        tuples: Vec<KvTuple>,
        ctx: &mut Context<'_>,
    ) {
        // Retain the stream for crash-epoch replay before dispatching it.
        let tuples = Arc::new(tuples);
        match self.sent_streams.entry(task) {
            Entry::Vacant(kept) => {
                kept.insert((receiver, Arc::clone(&tuples)));
            }
            // A later chunk of a task already sent: a replay packetizes
            // the concatenation as one stream.
            Entry::Occupied(mut kept) => {
                let (to, earlier) = kept.get_mut();
                *to = receiver;
                Arc::make_mut(earlier).extend(tuples.iter().cloned());
            }
        }
        self.dispatch_stream(task, receiver, &tuples, ctx);
    }

    fn dispatch_stream(
        &mut self,
        task: TaskId,
        receiver: u32,
        tuples: &[KvTuple],
        ctx: &mut Context<'_>,
    ) {
        if receiver == self.my_index() {
            // Co-located sender: aggregate straight into the receiver's
            // shared-memory table (§5.5 — "these mappers' data needs to be
            // aggregated by the local reducers").
            if let Some(rt) = self.merge_target(task, tuples.len() as u64) {
                let op = rt.op;
                for t in tuples {
                    rt.residual.merge(&t.key, t.value, op);
                }
                rt.fins.insert(receiver);
                self.check_completion(task, ctx);
            }
            return;
        }
        let t0 = self.time_phases.then(std::time::Instant::now);
        let stream = self.packetizer.begin_stream(tuples);
        if let Some(t0) = t0 {
            self.packetize_ns
                .set(self.packetize_ns.get() + t0.elapsed().as_nanos() as u64);
        }
        let ch_ix = (task.0 as usize) % self.channels.len();
        {
            let ch = &mut self.channels[ch_ix];
            ch.queue.push_back(QueuedItem::Stream {
                task,
                dst: receiver,
                stream,
            });
            ch.queue.push_back(QueuedItem::Fin {
                task,
                dst: receiver,
            });
        }
        self.pump(ch_ix, ctx);
    }

    fn pump(&mut self, ch_ix: usize, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let me = self.my_index();
        loop {
            let ch = &mut self.channels[ch_ix];
            if ch.queue.is_empty() || !ch.window.can_send() {
                return;
            }
            if ch.busy_until > now {
                if !ch.pump_armed {
                    ch.pump_armed = true;
                    ctx.set_timer(ch.busy_until - now, token_pump(ch_ix));
                }
                return;
            }
            // FIN gate: a task's FIN goes out only after all of its data
            // packets are acknowledged (§3.1 Task Teardown).
            if let Some(QueuedItem::Fin { task, .. }) = ch.queue.front() {
                if ch.outstanding.get(task).copied().unwrap_or(0) > 0 {
                    return; // an ACK will re-pump
                }
            }
            let channel = ch.id;
            let seq = SeqNo(ch.window.next_seq());
            let epoch = self.known_epoch;
            let header = |task, dst| SendHeader {
                src: me,
                dst,
                epoch,
                task,
                channel,
                seq,
            };
            // A stream writes its next frame here, straight into the bytes
            // both the simulator frame and the window hold; a drained
            // stream is popped and the loop retries with the next item.
            let (frame, task, dst) = match ch.queue.front_mut() {
                Some(QueuedItem::Stream { task, dst, stream }) => {
                    let t0 = self.time_phases.then(std::time::Instant::now);
                    let built = stream.next_frame(&header(*task, *dst));
                    if let Some(t0) = t0 {
                        self.packetize_ns
                            .set(self.packetize_ns.get() + t0.elapsed().as_nanos() as u64);
                    }
                    match built {
                        Some(frame) => (frame, *task, *dst),
                        None => {
                            ch.queue.pop_front();
                            continue;
                        }
                    }
                }
                Some(QueuedItem::Fin { task, dst }) => {
                    let (task, dst) = (*task, *dst);
                    ch.queue.pop_front();
                    let fin = BuiltFrame {
                        kind: FrameKind::Fin,
                        bytes: fin_frame(&header(task, dst)),
                        wire: PACKET_OVERHEAD,
                    };
                    (fin, task, dst)
                }
                None => unreachable!("queue checked non-empty"),
            };
            let BuiltFrame { kind, bytes, wire } = frame;
            if kind != FrameKind::Fin {
                *ch.outstanding.entry(task).or_insert(0) += 1;
            }
            ch.window
                .register(kind, bytes.clone(), wire, dst, Some(task));
            ch.busy_until = now + self.config.cpu_per_packet;
            self.cpu_busy += self.config.cpu_per_packet;
            self.stats.packets_sent += 1;
            self.stats.bytes_sent += wire as u64;
            self.stats.goodput_bytes_sent += (wire - PACKET_OVERHEAD) as u64;
            self.trace
                .record(now, TraceEvent::PacketSent { channel, seq, task });
            let _ = ctx.send(self.switch, Frame::with_wire_bytes(bytes, wire));
            let token = token_retx(ch_ix, epoch, seq.0);
            ctx.set_timer(self.config.retransmit_timeout, token);
        }
    }

    fn on_ack(&mut self, channel: ChannelId, seq: SeqNo, ctx: &mut Context<'_>) {
        let Some(ch_ix) = self.local_channel(channel) else {
            return; // not ours
        };
        let Some(inflight) = self.channels[ch_ix].window.ack(seq.0) else {
            return; // duplicate ACK
        };
        self.stats.acks_received += 1;
        self.trace
            .record(ctx.now(), TraceEvent::AckReceived { channel, seq });
        if let Some(task) = inflight.task {
            match inflight.kind {
                FrameKind::Data | FrameKind::LongKv => {
                    let ch = &mut self.channels[ch_ix];
                    let left = ch.outstanding.entry(task).or_insert(1);
                    *left = left.saturating_sub(1);
                }
                FrameKind::Fin => {
                    self.send_done.insert(task, ctx.now());
                }
            }
        }
        self.pump(ch_ix, ctx);
    }

    fn retransmit(&mut self, ch_ix: usize, seq: u64, ctx: &mut Context<'_>) {
        // Resend the stored wire bytes verbatim.
        let Some((bytes, wire)) = self.channels[ch_ix]
            .window
            .retransmit(seq)
            .map(|e| (e.encoded.clone(), e.wire))
        else {
            return; // already acknowledged
        };
        self.stats.retransmissions += 1;
        let channel = self.channels[ch_ix].id;
        self.trace.record(
            ctx.now(),
            TraceEvent::Retransmitted {
                channel,
                seq: SeqNo(seq),
            },
        );
        self.cpu_busy += self.config.cpu_per_packet;
        self.stats.bytes_sent += wire as u64;
        let _ = ctx.send(self.switch, Frame::with_wire_bytes(bytes, wire));
        ctx.set_timer(
            self.config.retransmit_timeout,
            token_retx(ch_ix, self.known_epoch, seq),
        );
    }

    fn local_channel(&self, channel: ChannelId) -> Option<usize> {
        let me = self.my_index();
        let base = me * CHANNEL_STRIDE;
        if channel.0 < base || channel.0 >= base + self.channels.len() as u32 {
            return None;
        }
        Some((channel.0 - base) as usize)
    }

    // ------------------------------------------------------------------
    // Receiver side.
    // ------------------------------------------------------------------

    /// Classifies `seq` in `channel`'s receive window. A window opens only
    /// for a channel of one of `task`'s registered senders, so a forged
    /// channel id cannot make this host allocate one: `None` means the
    /// frame names a channel no expected sender owns, and it touches no
    /// window.
    fn observe(&mut self, task: TaskId, channel: ChannelId, seq: SeqNo) -> Option<Observation> {
        let window = match self.recv_windows.entry(channel) {
            Entry::Occupied(open) => open.into_mut(),
            Entry::Vacant(slot) => {
                let expected = self
                    .recv_tasks
                    .get(&task)
                    .is_some_and(|rt| rt.senders.contains(&channel.host()));
                if !expected {
                    return None;
                }
                slot.insert(ReceiverWindow::new(self.config.window))
            }
        };
        Some(window.observe(seq.0))
    }

    /// ACKs a frame from no expected sender and counts its `tuples` as
    /// orphans, so the sender stops retransmitting and nothing merges.
    fn ack_unexpected(
        &mut self,
        dst: u32,
        channel: ChannelId,
        seq: SeqNo,
        tuples: u64,
        ctx: &mut Context<'_>,
    ) {
        self.orphan_tuples += tuples;
        self.reply_ack(dst, channel, seq, ctx);
    }

    /// The task whose residual table `tuples` tuples for `task` merge into,
    /// charged as host-aggregated; `None` once they have been counted as
    /// orphans (no such task) or late (the task completed — its table is
    /// the frozen result).
    fn merge_target(&mut self, task: TaskId, tuples: u64) -> Option<&mut RecvTask> {
        match self.recv_tasks.get_mut(&task) {
            Some(rt) if rt.result.is_none() => {
                self.stats.tuples_host_aggregated += tuples;
                self.cpu_busy += self.config.cpu_per_tuple.saturating_mul(tuples);
                Some(rt)
            }
            Some(_) => {
                self.late_tuples += tuples;
                None
            }
            None => {
                self.orphan_tuples += tuples;
                None
            }
        }
    }

    fn reply_ack(&mut self, dst: u32, channel: ChannelId, seq: SeqNo, ctx: &mut Context<'_>) {
        self.cpu_busy += self.config.cpu_per_packet;
        let bytes = ack_frame(self.my_index(), dst, self.known_epoch, channel, seq);
        let _ = ctx.send(self.switch, Frame::with_wire_bytes(bytes, PACKET_OVERHEAD));
    }

    /// Counts one first-delivery data packet towards `task`'s next shadow
    /// swap and arms the swap when the threshold is reached. A completed
    /// task counts nothing: its region is released.
    fn maybe_swap(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let threshold = self.config.swap_threshold;
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return;
        };
        if rt.result.is_some() {
            return;
        }
        rt.packets_since_swap += 1;
        if threshold == 0
            || rt.ina != Some(true)
            || rt.packets_since_swap < threshold
            || rt.fetch != FetchState::Idle
        {
            return;
        }
        rt.packets_since_swap = 0;
        rt.fetch_seq += 1;
        let fetch_seq = rt.fetch_seq;
        rt.fetch = FetchState::Pending {
            fetch_seq,
            scope: FetchScope::Inactive,
            is_final: false,
        };
        let sw = self.switch.index() as u32;
        self.trace.record(ctx.now(), TraceEvent::SwapSent { task });
        self.trace
            .record(ctx.now(), TraceEvent::FetchSent { task, fetch_seq });
        self.send_to(sw, AskPacket::Swap { task }, ctx);
        self.send_to(
            sw,
            AskPacket::FetchRequest {
                task,
                scope: FetchScope::Inactive,
                fetch_seq,
            },
            ctx,
        );
        ctx.set_timer(self.config.fetch_timeout, token_fetch(task, fetch_seq));
    }

    fn check_completion(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return;
        };
        if rt.result.is_some() || !rt.fins.is_superset(&rt.senders) {
            return;
        }
        match rt.ina {
            Some(true) => {
                if rt.fetch == FetchState::Idle {
                    self.begin_final_fetch(task, ctx);
                } else {
                    rt.want_final = true;
                }
            }
            Some(false) => self.complete(task, ctx),
            None => {
                // Region RPC still in flight; completion re-checked when the
                // grant/deny arrives.
                rt.want_final = true;
            }
        }
    }

    fn begin_final_fetch(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return;
        };
        rt.fetch_seq += 1;
        let fetch_seq = rt.fetch_seq;
        rt.fetch = FetchState::Pending {
            fetch_seq,
            scope: FetchScope::All,
            is_final: true,
        };
        rt.want_final = false;
        self.trace
            .record(ctx.now(), TraceEvent::FetchSent { task, fetch_seq });
        self.send_to(
            self.switch.index() as u32,
            AskPacket::FetchRequest {
                task,
                scope: FetchScope::All,
                fetch_seq,
            },
            ctx,
        );
        ctx.set_timer(self.config.fetch_timeout, token_fetch(task, fetch_seq));
    }

    fn complete(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let now = ctx.now();
        self.trace.record(now, TraceEvent::TaskCompleted { task });
        let ina = {
            let rt = self.recv_tasks.get_mut(&task).expect("task present");
            debug_assert!(rt.result.is_none());
            // The table moves into the result; what the task keeps is an
            // empty one that late frames never touch (`merge_target`).
            rt.result = Some(TaskResult {
                task,
                completed_at: now,
                table: Arc::new(std::mem::take(&mut rt.residual)),
            });
            rt.ina == Some(true)
        };
        if ina {
            // Return the switch memory region (§3.1 step ⑫).
            self.send_to(
                self.switch.index() as u32,
                AskPacket::Control(ControlMsg::RegionRelease { task }),
                ctx,
            );
        }
    }

    fn on_fetch_timer(&mut self, task: TaskId, fetch_seq_low: u32, ctx: &mut Context<'_>) {
        let Some(rt) = self.recv_tasks.get(&task) else {
            return;
        };
        let FetchState::Pending {
            fetch_seq, scope, ..
        } = rt.fetch
        else {
            return;
        };
        if fetch_seq & 0xff_ffff != fetch_seq_low {
            return; // timer for an older fetch
        }
        self.send_to(
            self.switch.index() as u32,
            AskPacket::FetchRequest {
                task,
                scope,
                fetch_seq,
            },
            ctx,
        );
        ctx.set_timer(self.config.fetch_timeout, token_fetch(task, fetch_seq));
    }

    // ------------------------------------------------------------------
    // Control plane.
    // ------------------------------------------------------------------

    fn on_region_reply(&mut self, task: TaskId, granted: bool, ctx: &mut Context<'_>) {
        let mut senders: Vec<u32> = {
            let Some(rt) = self.recv_tasks.get_mut(&task) else {
                return;
            };
            if rt.ina.is_some() {
                return; // duplicate reply
            }
            rt.ina = Some(granted);
            self.trace
                .record(ctx.now(), TraceEvent::RegionResolved { task, granted });
            rt.senders.iter().copied().collect()
        };
        // Sorted so announce order (and thus the event schedule) does not
        // depend on HashSet iteration order, which varies per process.
        senders.sort_unstable();
        let me = self.my_index();
        for sender in senders {
            self.send_to(
                sender,
                AskPacket::Control(ControlMsg::TaskAnnounce { task, receiver: me }),
                ctx,
            );
        }
        // Announcements are not acknowledged; retry until the task finishes
        // (idempotent at the senders) so a lost announce cannot hang it.
        ctx.set_timer(
            self.config.retransmit_timeout.saturating_mul(8),
            token_announce(task),
        );
        // A co-located sender may already have recorded its FIN.
        self.check_completion(task, ctx);
    }

    fn on_region_timer(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let Some(rt) = self.recv_tasks.get(&task) else {
            return;
        };
        if rt.ina.is_some() {
            return; // reply arrived
        }
        let op = rt.op;
        self.send_to(
            self.switch.index() as u32,
            AskPacket::Control(ControlMsg::RegionRequest { task, op }),
            ctx,
        );
        ctx.set_timer(self.config.fetch_timeout, token_region(task));
    }

    fn on_announce_timer(&mut self, task: TaskId, ctx: &mut Context<'_>) {
        let me = self.my_index();
        let mut pending: Vec<u32> = {
            let Some(rt) = self.recv_tasks.get(&task) else {
                return;
            };
            if rt.result.is_some() {
                return; // task finished; stop retrying
            }
            rt.senders.difference(&rt.fins).copied().collect()
        };
        pending.sort_unstable(); // deterministic retry order (see on_region_reply)
        for sender in pending {
            self.send_to(
                sender,
                AskPacket::Control(ControlMsg::TaskAnnounce { task, receiver: me }),
                ctx,
            );
        }
        ctx.set_timer(
            self.config.retransmit_timeout.saturating_mul(8),
            token_announce(task),
        );
    }

    fn on_announce(&mut self, task: TaskId, receiver: u32, ctx: &mut Context<'_>) {
        self.announced.insert(task, receiver);
        if let Some(tuples) = self.pending_sends.remove(&task) {
            self.dispatch_send(task, receiver, tuples, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Plumbing.
    // ------------------------------------------------------------------

    fn send_to(&mut self, dst: u32, packet: AskPacket, ctx: &mut Context<'_>) {
        let layout = self.config.layout;
        let wire = packet.wire_bytes(&layout);
        let bytes =
            encode_envelope_parts(self.my_index(), dst, self.known_epoch, 0, &packet, &layout);
        // Everything leaves through the uplink to the switch.
        let _ = ctx.send(self.switch, Frame::with_wire_bytes(bytes, wire));
    }

    // ------------------------------------------------------------------
    // The receive datapath.
    //
    // Inbound frames parse once into borrowed `FrameView`s, one frame per
    // call; every payload — data slots, long-kv and fetch-reply entries —
    // is merged straight from the wire bytes.
    // ------------------------------------------------------------------

    /// One long-kv view: classified by the receive window like a data
    /// packet, and a first delivery's entries merge off the frame bytes as
    /// a fetch reply's do. Every long-kv frame received counts in
    /// `host_view_fallbacks`.
    fn on_long_kv(&mut self, view: &FrameView, ctx: &mut Context<'_>) {
        self.stats.host_view_fallbacks += 1;
        let PacketView::LongKv {
            task,
            channel,
            seq,
            entry_count,
        } = *view.packet()
        else {
            unreachable!("dispatched on the long-kv kind");
        };
        let src = view.src();
        self.cpu_busy += self.config.cpu_per_packet;
        match self.observe(task, channel, seq) {
            None => self.ack_unexpected(src, channel, seq, entry_count as u64, ctx),
            Some(Observation::Stale) => {}
            Some(Observation::Duplicate) => {
                self.stats.duplicates_dropped += 1;
                self.trace
                    .record(ctx.now(), TraceEvent::DuplicateDropped { channel, seq });
                self.reply_ack(src, channel, seq, ctx);
            }
            Some(Observation::First) => {
                self.stats.packets_received += 1;
                self.trace
                    .record(ctx.now(), TraceEvent::Received { channel, seq });
                if let Some(rt) = self.merge_target(task, entry_count as u64) {
                    let op = rt.op;
                    for e in view.entries().expect("long-kv frames carry entries") {
                        rt.residual.merge_hashed(e.hash64(), e.key_bytes(), e.value(), op);
                    }
                }
                self.reply_ack(src, channel, seq, ctx);
            }
        }
    }

    /// Epoch gate for a parsed view; `false` means drop the frame. A newer
    /// epoch ([`epoch_newer`]) means the switch restarted — resync fully
    /// before processing this frame; any other epoch is a leftover of a
    /// dead incarnation (late verdict, ACK, or fetch reply computed against
    /// wiped switch state) and must not touch anything.
    fn admit_view(&mut self, view: &FrameView, ctx: &mut Context<'_>) -> bool {
        if view.epoch() == self.known_epoch {
            return true;
        }
        if epoch_newer(view.epoch(), self.known_epoch) {
            self.resync_to_epoch(view.epoch(), ctx);
            true
        } else {
            self.stats.stale_epoch_drops += 1;
            false
        }
    }

    /// One data view: the receive window classifies it, a first delivery
    /// merges into its task's residual table in place, and every
    /// non-stale one is ACKed.
    fn on_data(&mut self, src: u32, d: &DataPacketView, ctx: &mut Context<'_>) {
        self.cpu_busy += self.config.cpu_per_packet;
        let (channel, seq) = (d.channel(), d.seq());
        match self.observe(d.task(), channel, seq) {
            None => self.ack_unexpected(src, channel, seq, d.occupied() as u64, ctx),
            Some(Observation::Stale) => {}
            Some(Observation::Duplicate) => {
                self.stats.duplicates_dropped += 1;
                self.trace
                    .record(ctx.now(), TraceEvent::DuplicateDropped { channel, seq });
                self.reply_ack(src, channel, seq, ctx);
            }
            Some(Observation::First) => {
                self.stats.packets_received += 1;
                self.trace
                    .record(ctx.now(), TraceEvent::Received { channel, seq });
                self.stats.host_pure_view += 1;
                if let Some(rt) = self.merge_target(d.task(), d.occupied() as u64) {
                    let op = rt.op;
                    for s in d.slots() {
                        rt.residual.merge_hashed(s.hash64(), s.key_bytes(), s.value(), op);
                    }
                }
                self.reply_ack(src, channel, seq, ctx);
                self.maybe_swap(d.task(), ctx);
            }
        }
    }

    /// Merges a fetch reply's entries straight off the frame bytes — no
    /// `Arc<Vec<KvTuple>>` is ever built for the body.
    fn on_fetch_reply(
        &mut self,
        task: TaskId,
        fetch_seq: u32,
        entry_count: u32,
        view: &FrameView,
        ctx: &mut Context<'_>,
    ) {
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return;
        };
        let FetchState::Pending {
            fetch_seq: pending,
            is_final,
            ..
        } = rt.fetch
        else {
            return; // stray or already-handled reply
        };
        if fetch_seq != pending {
            return;
        }
        rt.fetch = FetchState::Idle;
        let n = entry_count as u64;
        self.trace
            .record(ctx.now(), TraceEvent::FetchMerged { task, entries: n });
        self.stats.tuples_fetched += n;
        self.stats.host_pure_view += 1;
        let rt = self.recv_tasks.get_mut(&task).expect("task present");
        let op = rt.op;
        for e in view.entries().expect("fetch replies carry entries") {
            rt.residual.merge_hashed(e.hash64(), e.key_bytes(), e.value(), op);
        }
        self.stats.tuples_host_aggregated += n;
        self.cpu_busy += self.config.cpu_per_tuple.saturating_mul(n);
        let rt = self.recv_tasks.get_mut(&task).expect("task present");
        let want_final = rt.want_final;
        if is_final {
            self.complete(task, ctx);
        } else if want_final {
            self.begin_final_fetch(task, ctx);
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

    fn on_frame(&mut self, _from: NodeId, frame: Frame, ctx: &mut Context<'_>) {
        self.ensure_init(ctx);
        let Ok(view) = FrameView::parse(frame.into_payload()) else {
            self.stats.undecodable += 1;
            return;
        };
        if !self.admit_view(&view, ctx) {
            return;
        }
        let src = view.src();
        match view.packet() {
            PacketView::Ack { channel, seq } => self.on_ack(*channel, *seq, ctx),
            // Any declared layout merges in place: the slot walk follows
            // the frame's own geometry and key hashes do not depend on it.
            PacketView::Data(d) => self.on_data(src, d, ctx),
            PacketView::LongKv { .. } => self.on_long_kv(&view, ctx),
            &PacketView::Fin { task, channel, seq } => {
                self.cpu_busy += self.config.cpu_per_packet;
                match self.observe(task, channel, seq) {
                    None => self.ack_unexpected(src, channel, seq, 0, ctx),
                    Some(Observation::Stale) => {}
                    // Not counted in `duplicates_dropped`, which counts
                    // payload packets only.
                    Some(Observation::Duplicate) => {
                        self.trace
                            .record(ctx.now(), TraceEvent::DuplicateDropped { channel, seq });
                        self.reply_ack(src, channel, seq, ctx);
                    }
                    Some(Observation::First) => {
                        self.trace
                            .record(ctx.now(), TraceEvent::Received { channel, seq });
                        let sender_host = channel.host();
                        self.reply_ack(src, channel, seq, ctx);
                        if let Some(rt) = self.recv_tasks.get_mut(&task) {
                            rt.fins.insert(sender_host);
                        }
                        self.check_completion(task, ctx);
                    }
                }
            }
            PacketView::FetchReply {
                task,
                fetch_seq,
                entry_count,
            } => self.on_fetch_reply(*task, *fetch_seq, *entry_count, &view, ctx),
            PacketView::Control(ControlMsg::RegionGrant { task, .. }) => {
                self.on_region_reply(*task, true, ctx)
            }
            PacketView::Control(ControlMsg::RegionDeny { task }) => {
                self.on_region_reply(*task, false, ctx)
            }
            // A co-located announce merges and may complete the task.
            PacketView::Control(ControlMsg::TaskAnnounce { task, receiver }) => {
                self.on_announce(*task, *receiver, ctx)
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
        match token >> 56 {
            TK_PUMP => {
                let ch_ix = (token & 0xffff_ffff) as usize;
                self.channels[ch_ix].pump_armed = false;
                self.pump(ch_ix, ctx);
            }
            TK_RETX => {
                let ch_ix = ((token >> 48) & 0xff) as usize;
                let seq = token & 0xff_ffff_ffff;
                // Armed before a resync: its seq names a window that is gone.
                if (token >> 40) & 0xff == u64::from(self.known_epoch) & 0xff {
                    self.retransmit(ch_ix, seq, ctx);
                }
            }
            TK_FETCH => {
                let task = TaskId(((token >> 24) & 0xffff_ffff) as u32);
                let fetch_seq_low = (token & 0xff_ffff) as u32;
                self.on_fetch_timer(task, fetch_seq_low, ctx);
            }
            TK_REGION => {
                self.on_region_timer(TaskId((token & 0xffff_ffff) as u32), ctx);
            }
            TK_ANNOUNCE => {
                self.on_announce_timer(TaskId((token & 0xffff_ffff) as u32), ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_pack_and_unpack() {
        let t = token_retx(3, 0x0102, 0x12_3456_789a);
        assert_eq!(t >> 56, TK_RETX);
        assert_eq!((t >> 48) & 0xff, 3);
        assert_eq!((t >> 40) & 0xff, 0x02, "the epoch's low byte");
        assert_eq!(t & 0xff_ffff_ffff, 0x12_3456_789a);

        let t = token_fetch(TaskId(7), 42);
        assert_eq!(t >> 56, TK_FETCH);
        assert_eq!((t >> 24) & 0xffff_ffff, 7);
        assert_eq!(t & 0xff_ffff, 42);

        let t = token_pump(5);
        assert_eq!(t >> 56, TK_PUMP);
        assert_eq!(t & 0xffff_ffff, 5);
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
