//! The sender half of a daemon (§3.1): this host's streams, each sent on a
//! data channel through a sliding window, retransmitted until ACKed, ended
//! by a FIN that waits for every ACK, and kept for replay after a restart.

use super::{AskDaemon, Io, Uplink};
use crate::config::AskConfig;
use crate::fasthash::FastMap;
use crate::host::packetizer::{BuiltFrame, Packetizer, PendingStream};
use crate::host::window::{FrameKind, SenderWindow};
use crate::stats::HostStats;
use ask_simnet::frame::Frame;
use ask_simnet::time::{SimDuration, SimTime};
use ask_wire::codec::{fin_frame, SendHeader};
use ask_wire::constants::PACKET_OVERHEAD;
use ask_wire::packet::{ChannelId, KvTuple, SeqNo, TaskId, CHANNEL_STRIDE};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// A released stream: its receiver and the tuples, kept for replay too.
type Released = Option<(u32, Arc<Vec<KvTuple>>)>;

/// Set in a retransmit timer's token; a pump timer's token is its channel.
const RETX: u64 = 1 << 56;

pub(super) fn token_pump(ch: usize) -> u64 {
    ch as u64
}
/// A retransmit timer names `(ch, seq)` in the sequence space of one epoch:
/// a resync restarts every channel at seq 0 and timers cannot be cancelled,
/// so the token carries the epoch's low byte and a timer from another
/// generation is dropped when it fires.
pub(super) fn token_retx(ch: usize, epoch: u32, seq: u64) -> u64 {
    debug_assert!(ch < (1 << 8) && seq < (1 << 40), "exceeds token space");
    RETX | ((ch as u64) << 48) | ((epoch as u64 & 0xff) << 40) | seq
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

/// The sender role of one daemon.
#[derive(Debug)]
pub(super) struct SenderSide {
    packetizer: Packetizer,
    channels: Vec<ChannelState>,
    /// Task → receiver node learned from TaskAnnounce.
    announced: FastMap<TaskId, u32>,
    /// Streams waiting for their task's TaskAnnounce.
    pending_sends: FastMap<TaskId, Vec<KvTuple>>,
    /// Every dispatched stream and its receiver, kept for replay after a
    /// switch restart: a sender cannot know whether the receiver banked its
    /// contribution, so it replays and the receiver's completion check
    /// drops what it already holds.
    sent_streams: FastMap<TaskId, (u32, Arc<Vec<KvTuple>>)>,
    /// Tasks whose FIN has been acknowledged.
    send_done: FastMap<TaskId, SimTime>,
    // This half's share of `HostStats`, and its CPU time.
    packets_sent: u64,
    retransmissions: u64,
    acks_received: u64,
    bytes_sent: u64,
    goodput_bytes_sent: u64,
    cpu_busy: SimDuration,
    /// `Some` once phase timing is on: wall nanoseconds spent classifying
    /// and building packets (the stick's `service.packetize_share`).
    /// Purely observational: never read by the protocol.
    packetize_ns: Option<u64>,
}

/// Runs `f`, adding its wall time to `ns` when phase timing is on.
fn timed<R>(ns: &mut Option<u64>, f: impl FnOnce() -> R) -> R {
    let Some(ns) = ns else { return f() };
    let t0 = Instant::now();
    let r = f();
    *ns += t0.elapsed().as_nanos() as u64;
    r
}

impl SenderSide {
    pub(super) fn new(config: &AskConfig) -> Self {
        SenderSide {
            packetizer: Packetizer::new(config.layout, config.long_kv_batch),
            channels: Vec::new(),
            announced: FastMap::default(),
            pending_sends: FastMap::default(),
            sent_streams: FastMap::default(),
            send_done: FastMap::default(),
            packets_sent: 0,
            retransmissions: 0,
            acks_received: 0,
            bytes_sent: 0,
            goodput_bytes_sent: 0,
            cpu_busy: SimDuration::ZERO,
            packetize_ns: None,
        }
    }

    /// Opens this host's data channels.
    pub(super) fn open_channels(&mut self, up: &Uplink) {
        let me = up.me();
        self.channels = (0..up.config.data_channels)
            .map(|i| ChannelState {
                id: ChannelId(me * CHANNEL_STRIDE + i as u32),
                window: SenderWindow::new(up.config.window),
                queue: VecDeque::new(),
                busy_until: SimTime::ZERO,
                pump_armed: false,
                outstanding: FastMap::default(),
            })
            .collect();
    }

    /// Adds this half's counters to `stats`; returns its CPU time.
    pub(super) fn report(&self, stats: &mut HostStats) -> SimDuration {
        stats.packets_sent += self.packets_sent;
        stats.retransmissions += self.retransmissions;
        stats.acks_received += self.acks_received;
        stats.bytes_sent += self.bytes_sent;
        stats.goodput_bytes_sent += self.goodput_bytes_sent;
        self.cpu_busy
    }

    /// Takes `tuples` as this host's one stream for `task`, held until the
    /// task is announced; see [`SenderSide::release`].
    pub(super) fn submit(&mut self, task: TaskId, tuples: Vec<KvTuple>) -> Released {
        assert!(
            !self.pending_sends.contains_key(&task) && !self.sent_streams.contains_key(&task),
            "stream for {task} already submitted"
        );
        self.pending_sends.insert(task, tuples);
        self.release(task)
    }

    /// Records `task`'s receiver, learned from its announcement.
    pub(super) fn on_announce(&mut self, task: TaskId, receiver: u32) -> Released {
        self.announced.insert(task, receiver);
        self.release(task)
    }

    /// A held stream whose task is announced is retained for replay and
    /// returned with its receiver, for the daemon to dispatch.
    fn release(&mut self, task: TaskId) -> Released {
        let &receiver = self.announced.get(&task)?;
        let tuples = Arc::new(self.pending_sends.remove(&task)?);
        self.sent_streams
            .insert(task, (receiver, Arc::clone(&tuples)));
        Some((receiver, tuples))
    }

    /// Queues `tuples` as `task`'s stream to the remote host `dst`,
    /// followed by its FIN, and pumps the channel.
    pub(super) fn queue_stream(&mut self, io: &mut Io, task: TaskId, dst: u32, tuples: &[KvTuple]) {
        let packetizer = &self.packetizer;
        let stream = timed(&mut self.packetize_ns, || packetizer.begin_stream(tuples));
        let ch_ix = (task.0 as usize) % self.channels.len();
        let queue = &mut self.channels[ch_ix].queue;
        queue.push_back(QueuedItem::Stream { task, dst, stream });
        queue.push_back(QueuedItem::Fin { task, dst });
        self.pump(io, ch_ix);
    }

    fn pump(&mut self, io: &mut Io, ch_ix: usize) {
        let now = io.ctx.now();
        let (me, epoch, config) = (io.up.me(), io.up.known_epoch, &io.up.config);
        loop {
            let ch = &mut self.channels[ch_ix];
            if ch.queue.is_empty() || !ch.window.can_send() {
                return;
            }
            if ch.busy_until > now {
                if !ch.pump_armed {
                    ch.pump_armed = true;
                    io.ctx.set_timer(ch.busy_until - now, token_pump(ch_ix));
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
            let (frame, task) = match ch.queue.front_mut() {
                Some(QueuedItem::Stream { task, dst, stream }) => {
                    let built = timed(&mut self.packetize_ns, || {
                        stream.next_frame(&header(*task, *dst))
                    });
                    match built {
                        Some(frame) => (frame, *task),
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
                    (fin, task)
                }
                None => unreachable!("queue checked non-empty"),
            };
            let BuiltFrame { kind, bytes, wire } = frame;
            if kind != FrameKind::Fin {
                *ch.outstanding.entry(task).or_insert(0) += 1;
            }
            ch.window.register(kind, bytes.clone(), wire, task);
            ch.busy_until = now + config.cpu_per_packet;
            self.cpu_busy += config.cpu_per_packet;
            self.packets_sent += 1;
            self.bytes_sent += wire as u64;
            self.goodput_bytes_sent += (wire - PACKET_OVERHEAD) as u64;
            let _ = io
                .ctx
                .send(io.up.switch, Frame::with_wire_bytes(bytes, wire));
            let token = token_retx(ch_ix, epoch, seq.0);
            io.ctx.set_timer(config.retransmit_timeout, token);
        }
    }

    pub(super) fn on_ack(&mut self, io: &mut Io, channel: ChannelId, seq: SeqNo) {
        let ch_ix = channel.0.wrapping_sub(io.up.me() * CHANNEL_STRIDE) as usize;
        if ch_ix >= self.channels.len() {
            return; // not ours
        }
        let Some(inflight) = self.channels[ch_ix].window.ack(seq.0) else {
            return; // duplicate ACK
        };
        self.acks_received += 1;
        let task = inflight.task;
        match inflight.kind {
            FrameKind::Data | FrameKind::LongKv => {
                // A task's entry lives while it has unacked packets.
                match self.channels[ch_ix].outstanding.entry(task) {
                    Entry::Occupied(last) if *last.get() == 1 => {
                        last.remove();
                    }
                    Entry::Occupied(mut left) => *left.get_mut() -= 1,
                    Entry::Vacant(_) => debug_assert!(false, "an in-flight packet counts"),
                }
            }
            FrameKind::Fin => {
                self.send_done.insert(task, io.ctx.now());
            }
        }
        self.pump(io, ch_ix);
    }

    fn retransmit(&mut self, io: &mut Io, ch_ix: usize, seq: u64) {
        // Resend the stored wire bytes verbatim.
        let Some((bytes, wire)) = self.channels[ch_ix]
            .window
            .retransmit(seq)
            .map(|e| (e.encoded.clone(), e.wire))
        else {
            return; // already acknowledged
        };
        self.retransmissions += 1;
        self.cpu_busy += io.up.config.cpu_per_packet;
        self.bytes_sent += wire as u64;
        let _ = io
            .ctx
            .send(io.up.switch, Frame::with_wire_bytes(bytes, wire));
        let token = token_retx(ch_ix, io.up.known_epoch, seq);
        io.ctx.set_timer(io.up.config.retransmit_timeout, token);
    }

    pub(super) fn on_timer(&mut self, io: &mut Io, token: u64) {
        if token & RETX == 0 {
            let ch_ix = token as usize;
            self.channels[ch_ix].pump_armed = false;
            self.pump(io, ch_ix);
            return;
        }
        let ch_ix = ((token >> 48) & 0xff) as usize;
        // Armed before a resync: its seq names a window that is gone.
        if (token >> 40) & 0xff == u64::from(io.up.known_epoch) & 0xff {
            self.retransmit(io, ch_ix, token & 0xff_ffff_ffff);
        }
    }

    /// Restarts after a daemon crash: every in-flight packet is resent and
    /// pump pacing is reset, channels in index order.
    pub(super) fn recover(&mut self, io: &mut Io) {
        for ch_ix in 0..self.channels.len() {
            let seqs = {
                let ch = &mut self.channels[ch_ix];
                ch.pump_armed = false;
                ch.busy_until = SimTime::ZERO;
                ch.window.in_flight_seqs()
            };
            for seq in seqs {
                self.retransmit(io, ch_ix, seq);
            }
            self.pump(io, ch_ix);
        }
    }

    /// Resynchronizes to a restarted switch: every window is drained and
    /// its sequence space restarts at 0 (the switch's wiped even/odd dedup
    /// bitmaps only read correctly for a zero-based sequence space), and
    /// no task counts as sent. Returns every retained stream, in task
    /// order, for the daemon to replay.
    pub(super) fn resync(&mut self) -> Vec<(TaskId, u32, Arc<Vec<KvTuple>>)> {
        for ch in &mut self.channels {
            ch.window.drain_reset();
            ch.queue.clear();
            ch.outstanding.clear();
            ch.pump_armed = false;
            ch.busy_until = SimTime::ZERO;
        }
        self.send_done.clear();
        let mut replay: Vec<_> = self
            .sent_streams
            .iter()
            .map(|(&t, (r, tuples))| (t, *r, Arc::clone(tuples)))
            .collect();
        replay.sort_unstable_by_key(|&(t, ..)| t.0);
        replay
    }
}

impl AskDaemon {
    /// Turns on packetize-phase wall-time accounting (the stick's
    /// `service.packetize_share`). Off by default: the hot path must not
    /// pay for clock reads.
    pub fn enable_phase_timing(&mut self) {
        self.sender.packetize_ns.get_or_insert(0);
    }

    /// Nanoseconds spent classifying and building packets, when
    /// [`AskDaemon::enable_phase_timing`] was called.
    pub fn packetize_ns(&self) -> u64 {
        self.sender.packetize_ns.unwrap_or(0)
    }

    /// When this host's FIN for `task` was acknowledged (end of its sending
    /// phase), if it has been.
    pub fn send_complete_at(&self, task: TaskId) -> Option<SimTime> {
        self.sender.send_done.get(&task).copied()
    }

    /// Snapshots every data channel's window state (empty before the daemon
    /// has started).
    pub fn channel_snapshots(&self) -> Vec<ChannelSnapshot> {
        self.sender
            .channels
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_tasks_leave_no_outstanding_entry() {
        // A long-lived sender runs one task after another (one per window
        // in `apps::streaming`): its FIN-gating map must not keep one entry
        // per task it ever sent.
        use crate::service::AskServiceBuilder;
        use ask_wire::key::Key;
        let mut service = AskServiceBuilder::new(2).config(AskConfig::tiny()).build();
        let (receiver, sender) = (service.hosts()[0], service.hosts()[1]);
        for t in 1..=5 {
            let tuples = (0..40u64)
                .map(|i| KvTuple::new(Key::from_u64(i % 20), 1))
                .collect();
            service.submit_task(TaskId(t), receiver, &[sender]);
            service.submit_stream(TaskId(t), sender, tuples);
            service
                .run_until_complete(TaskId(t), receiver, 10_000_000)
                .expect("completes");
        }
        service.run_to_idle();
        let side = &service.daemon(sender).sender;
        assert_eq!(side.send_done.len(), 5);
        for ch in &side.channels {
            assert!(ch.outstanding.is_empty(), "{:?}", ch.outstanding);
        }
    }
}
