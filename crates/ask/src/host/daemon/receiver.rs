//! The receiver half of a daemon (§3.1): it registers each task's region,
//! announces the task, dedups its senders' frames per channel, merges the
//! residue, swaps and fetches, and completes once every FIN is in.

use super::{AskDaemon, Io, RECEIVER_TIMER};
use crate::fasthash::FastMap;
use crate::host::merge::{Merger, TaskResult};
use crate::host::receiver::ReceiverWindow;
use crate::stats::HostStats;
use crate::switch::aggregator::Observation;
use ask_simnet::network::Context;
use ask_simnet::time::SimDuration;
use ask_wire::codec::{ack_frame, fetch_request_frame, swap_frame};
use ask_wire::packet::{AggregateOp, ChannelId, ControlMsg, FetchScope, KvTuple, TaskId};
use ask_wire::view::{FrameView, PacketView};
use std::collections::hash_map::Entry;
use std::collections::HashSet;

// Timer kinds, in bits 56 and 57 of a receiver timer's token.
pub(super) const TK_FETCH: u64 = 0;
const TK_REGION: u64 = 1;
const TK_ANNOUNCE: u64 = 2;

/// A receiver timer's token: its kind and task, and for a fetch the low 24
/// bits of the `fetch_seq` it retries.
pub(super) fn timer_token(kind: u64, task: TaskId, fetch_seq: u32) -> u64 {
    RECEIVER_TIMER | (kind << 56) | ((task.0 as u64) << 24) | (fetch_seq as u64 & 0xff_ffff)
}

/// State of the receiver's (reliable) fetch exchange with the switch. The
/// final fetch is the one that harvests [`FetchScope::All`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum FetchState {
    #[default]
    Idle,
    Pending {
        fetch_seq: u32,
        scope: FetchScope,
    },
}

#[derive(Debug, Default)]
struct RecvTask {
    senders: HashSet<u32>,
    /// The task's aggregation operator (applied to residual merges too).
    op: AggregateOp,
    /// `Some(true)` once a region is granted, `Some(false)` on deny
    /// (host-only fallback), `None` while the controller RPC is in flight.
    ina: Option<bool>,
    fins: HashSet<u32>,
    packets_since_swap: u64,
    fetch_seq: u32,
    fetch: FetchState,
    want_final: bool,
    result: Option<TaskResult>,
}

/// The receiver role of one daemon.
#[derive(Debug, Default)]
pub(super) struct ReceiverSide {
    recv_windows: FastMap<ChannelId, ReceiverWindow>,
    recv_tasks: FastMap<TaskId, RecvTask>,
    /// Ships residual tuples to the merge worker that owns the tasks'
    /// tables.
    merger: Merger,
    // This half's share of `HostStats`, and its CPU time.
    packets_received: u64,
    duplicates_dropped: u64,
    tuples_host_aggregated: u64,
    tuples_fetched: u64,
    host_pure_view: u64,
    host_view_fallbacks: u64,
    cpu_busy: SimDuration,
    /// Tuples received for tasks this daemon never registered (misrouted).
    orphan_tuples: u64,
    /// Tuples received for tasks this daemon had already completed (a
    /// sender's crash-epoch replay of a stream the result already holds).
    late_tuples: u64,
}

impl ReceiverSide {
    /// Adds this half's counters to `stats`; returns its CPU time.
    pub(super) fn report(&self, stats: &mut HostStats) -> SimDuration {
        stats.packets_received += self.packets_received;
        stats.duplicates_dropped += self.duplicates_dropped;
        stats.tuples_host_aggregated += self.tuples_host_aggregated;
        stats.tuples_fetched += self.tuples_fetched;
        stats.host_pure_view += self.host_pure_view;
        stats.host_view_fallbacks += self.host_view_fallbacks;
        self.cpu_busy
    }

    /// This host's receive tasks that satisfy `pred`, in task-id order.
    fn tasks_where(&self, pred: impl Fn(&RecvTask) -> bool) -> Vec<TaskId> {
        let mut tasks: Vec<TaskId> = self
            .recv_tasks
            .iter()
            .filter(|(_, rt)| pred(rt))
            .map(|(&t, _)| t)
            .collect();
        tasks.sort_unstable_by_key(|t| t.0);
        tasks
    }

    /// Re-requests every pending fetch, in task-id order.
    pub(super) fn recover(&mut self, io: &mut Io) {
        for task in self.tasks_where(|rt| rt.fetch != FetchState::Idle) {
            if let FetchState::Pending { fetch_seq, scope } = self.recv_tasks[&task].fetch {
                request_fetch(io, task, scope, fetch_seq);
            }
        }
    }

    /// Resynchronizes to a restarted switch: receive windows are cleared
    /// and every unfinished task, in task order, re-requests its region
    /// and drops its partial residuals (the senders' replays re-deliver
    /// them).
    pub(super) fn resync(&mut self, io: &mut Io) {
        self.recv_windows.clear();
        for task in self.tasks_where(|rt| rt.result.is_none()) {
            let rt = self.recv_tasks.get_mut(&task).expect("listed above");
            rt.ina = None;
            self.merger.clear(task);
            rt.fins.clear();
            rt.packets_since_swap = 0;
            rt.fetch = FetchState::Idle;
            rt.want_final = false;
            request_region(io, task, rt.op);
        }
    }

    /// Merges this host's own stream for `task` into the task's table (§5.5:
    /// co-located mappers' data is aggregated by the local reducer) and
    /// counts it as this sender's FIN.
    pub(super) fn merge_colocated(&mut self, io: &mut Io, task: TaskId, tuples: &[KvTuple]) {
        if let Some(op) = self.merge_target(io, task, tuples.len() as u64) {
            for t in tuples {
                self.merger.push(task, op, t.key.as_bytes(), t.value);
            }
            let rt = self.recv_tasks.get_mut(&task).expect("a merge target");
            rt.fins.insert(io.up.me());
            self.check_completion(io, task);
        }
    }

    /// The one admission rule of a data, long-kv or FIN frame. Its
    /// channel's receive window classifies it: a stale frame is dropped
    /// unseen, and every other is ACKed, so its sender stops
    /// retransmitting. A window opens only for a channel of one of the
    /// task's registered senders, so a forged channel id cannot make this
    /// host allocate one: a frame on any other touches no window, and its
    /// tuples count as orphans. Returns whether this is the frame's first
    /// delivery, the one arrival its kind acts on.
    fn admit(&mut self, io: &mut Io, view: &FrameView) -> bool {
        let (task, channel, seq, tuples, payload) = match *view.packet() {
            PacketView::Data(ref d) => (d.task(), d.channel(), d.seq(), d.occupied() as u64, true),
            // Every long-kv frame counts, whatever the window says.
            PacketView::LongKv {
                task,
                channel,
                seq,
                entry_count,
            } => {
                self.host_view_fallbacks += 1;
                (task, channel, seq, u64::from(entry_count), true)
            }
            // A FIN carries no payload: it counts neither as a received
            // packet nor as a dropped duplicate.
            PacketView::Fin { task, channel, seq } => (task, channel, seq, 0, false),
            _ => unreachable!("only sequenced frames are admitted"),
        };
        self.cpu_busy += io.up.config.cpu_per_packet;
        let window = match self.recv_windows.entry(channel) {
            Entry::Occupied(open) => Some(open.into_mut()),
            Entry::Vacant(slot) => self
                .recv_tasks
                .get(&task)
                .is_some_and(|rt| rt.senders.contains(&channel.host()))
                .then(|| slot.insert(ReceiverWindow::new(io.up.config.window))),
        };
        let first = match window.map(|w| w.observe(seq.0)) {
            Some(Observation::Stale) => return false,
            None => {
                self.orphan_tuples += tuples;
                false
            }
            Some(Observation::Duplicate) => {
                self.duplicates_dropped += u64::from(payload);
                false
            }
            Some(Observation::First) => {
                self.packets_received += u64::from(payload);
                true
            }
        };
        // Merges emit no frame, so the ACK goes first for every kind.
        self.cpu_busy += io.up.config.cpu_per_packet;
        let ack = ack_frame(io.up.me(), view.src(), io.up.known_epoch, channel, seq);
        io.send(ack);
        first
    }

    /// One data, long-kv or FIN frame: admitted by [`ReceiverSide::admit`];
    /// a first delivery's tuples go to the merge worker straight off the
    /// frame bytes, and a first FIN counts towards completion.
    pub(super) fn on_sequenced(&mut self, io: &mut Io, view: &FrameView) {
        if !self.admit(io, view) {
            return;
        }
        match *view.packet() {
            // Any declared layout merges in place: the slot walk follows
            // the frame's own geometry and key hashes do not depend on it.
            PacketView::Data(ref d) => {
                self.host_pure_view += 1;
                if let Some(op) = self.merge_target(io, d.task(), d.occupied() as u64) {
                    for s in d.slots() {
                        self.merger.push(d.task(), op, s.key_bytes(), s.value());
                    }
                }
                self.maybe_swap(io, d.task());
            }
            PacketView::LongKv { task, .. } => {
                let entries = view.entries().expect("long-kv frames carry entries");
                if let Some(op) = self.merge_target(io, task, entries.len() as u64) {
                    for e in entries {
                        self.merger.push(task, op, e.key_bytes(), e.value());
                    }
                }
            }
            PacketView::Fin { task, channel, .. } => {
                if let Some(rt) = self.recv_tasks.get_mut(&task) {
                    rt.fins.insert(channel.host());
                }
                self.check_completion(io, task);
            }
            _ => unreachable!("admitted above"),
        }
    }

    /// The operator `tuples` tuples for `task` merge under, charged as
    /// host-aggregated; `None` once they have been counted as orphans (no
    /// such task) or late (the task completed — its table is the frozen
    /// result).
    fn merge_target(&mut self, io: &Io, task: TaskId, tuples: u64) -> Option<AggregateOp> {
        match self.recv_tasks.get(&task) {
            Some(rt) if rt.result.is_none() => {
                self.tuples_host_aggregated += tuples;
                self.cpu_busy += io.up.config.cpu_per_tuple.saturating_mul(tuples);
                Some(rt.op)
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

    /// Counts one first-delivery data packet towards `task`'s next shadow
    /// swap and arms the swap when the threshold is reached. A completed
    /// task counts nothing: its region is released.
    fn maybe_swap(&mut self, io: &mut Io, task: TaskId) {
        let threshold = io.up.config.swap_threshold;
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
        let up = io.up;
        io.send(swap_frame(up.me(), up.switch_index(), up.known_epoch, task));
        start_fetch(io, task, rt, FetchScope::Inactive);
    }

    fn check_completion(&mut self, io: &mut Io, task: TaskId) {
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return;
        };
        if rt.result.is_some() || !rt.fins.is_superset(&rt.senders) {
            return;
        }
        match rt.ina {
            Some(true) if rt.fetch == FetchState::Idle => {
                rt.want_final = false;
                start_fetch(io, task, rt, FetchScope::All);
            }
            Some(false) => self.complete(io, task),
            // A swap fetch or the region RPC is still in flight; its answer
            // re-checks completion.
            _ => rt.want_final = true,
        }
    }

    fn complete(&mut self, io: &mut Io, task: TaskId) {
        let rt = self.recv_tasks.get_mut(&task).expect("task present");
        debug_assert!(rt.result.is_none());
        // The worker hands the table over; late frames never push to it
        // again (`merge_target`).
        rt.result = Some(self.merger.finish(task, io.ctx.now()));
        if rt.ina == Some(true) {
            // Return the switch memory region (§3.1 step ⑫).
            io.send_control(io.up.switch_index(), &ControlMsg::RegionRelease { task });
        }
    }

    /// Merges a fetch reply's entries straight off the frame bytes — no
    /// `Arc<Vec<KvTuple>>` is ever built for the body.
    pub(super) fn on_fetch_reply(&mut self, io: &mut Io, view: &FrameView) {
        let PacketView::FetchReply {
            task, fetch_seq, ..
        } = *view.packet()
        else {
            unreachable!("dispatched on the fetch-reply kind");
        };
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return;
        };
        let FetchState::Pending {
            fetch_seq: pending,
            scope,
        } = rt.fetch
        else {
            return; // stray or already-handled reply
        };
        if fetch_seq != pending {
            return;
        }
        rt.fetch = FetchState::Idle;
        let entries = view.entries().expect("fetch replies carry entries");
        let n = entries.len() as u64;
        self.tuples_fetched += n;
        self.host_pure_view += 1;
        for e in entries {
            self.merger.push(task, rt.op, e.key_bytes(), e.value());
        }
        self.tuples_host_aggregated += n;
        self.cpu_busy += io.up.config.cpu_per_tuple.saturating_mul(n);
        if scope == FetchScope::All {
            self.complete(io, task);
        } else if rt.want_final {
            rt.want_final = false;
            start_fetch(io, task, rt, FetchScope::All);
        }
    }

    pub(super) fn on_region_reply(&mut self, io: &mut Io, task: TaskId, granted: bool) {
        let Some(rt) = self.recv_tasks.get_mut(&task) else {
            return;
        };
        if rt.ina.is_some() {
            return; // duplicate reply
        }
        rt.ina = Some(granted);
        // Sorted so announce order (and thus the event schedule) does not
        // depend on HashSet iteration order, which varies per process.
        let mut senders: Vec<u32> = rt.senders.iter().copied().collect();
        senders.sort_unstable();
        announce(io, task, &senders);
        // A co-located sender may already have recorded its FIN.
        self.check_completion(io, task);
    }

    pub(super) fn on_timer(&mut self, io: &mut Io, token: u64) {
        let task = TaskId(((token >> 24) & 0xffff_ffff) as u32);
        let Some(rt) = self.recv_tasks.get(&task) else {
            return;
        };
        // A fetch timer names the low 24 bits of the fetch it was armed for.
        let armed_for = |seq: u32| u64::from(seq) & 0xff_ffff == token & 0xff_ffff;
        match ((token >> 56) & 0x3, rt.fetch) {
            (TK_FETCH, FetchState::Pending { fetch_seq, scope }) if armed_for(fetch_seq) => {
                request_fetch(io, task, scope, fetch_seq)
            }
            // Until the region reply arrives.
            (TK_REGION, _) if rt.ina.is_none() => request_region(io, task, rt.op),
            // Until the task finishes.
            (TK_ANNOUNCE, _) if rt.result.is_none() => {
                let mut pending: Vec<u32> = rt.senders.difference(&rt.fins).copied().collect();
                pending.sort_unstable(); // deterministic retry order (see on_region_reply)
                announce(io, task, &pending);
            }
            _ => {}
        }
    }
}

/// Starts `task`'s next fetch, of `scope`, under a new `fetch_seq`.
fn start_fetch(io: &mut Io, task: TaskId, rt: &mut RecvTask, scope: FetchScope) {
    rt.fetch_seq += 1;
    rt.fetch = FetchState::Pending {
        fetch_seq: rt.fetch_seq,
        scope,
    };
    request_fetch(io, task, scope, rt.fetch_seq);
}

/// Sends `task`'s fetch request and arms its retry timer.
fn request_fetch(io: &mut Io, task: TaskId, scope: FetchScope, fetch_seq: u32) {
    let (up, token) = (io.up, timer_token(TK_FETCH, task, fetch_seq));
    let (me, sw, epoch) = (up.me(), up.switch_index(), up.known_epoch);
    io.send(fetch_request_frame(me, sw, epoch, task, scope, fetch_seq));
    io.ctx.set_timer(up.config.fetch_timeout, token);
}

/// Asks the switch controller for `task`'s region and arms the retry timer.
fn request_region(io: &mut Io, task: TaskId, op: AggregateOp) {
    let (up, token) = (io.up, timer_token(TK_REGION, task, 0));
    io.send_control(up.switch_index(), &ControlMsg::RegionRequest { task, op });
    io.ctx.set_timer(up.config.fetch_timeout, token);
}

/// Announces `task` to each of `senders` in order and arms the retry.
/// Announcements are not acknowledged; they repeat until the task
/// finishes (idempotent at the senders) so a lost one cannot hang it.
fn announce(io: &mut Io, task: TaskId, senders: &[u32]) {
    let receiver = io.up.me();
    for &sender in senders {
        io.send_control(sender, &ControlMsg::TaskAnnounce { task, receiver });
    }
    let retry = io.up.config.retransmit_timeout.saturating_mul(8);
    io.ctx.set_timer(retry, timer_token(TK_ANNOUNCE, task, 0));
}

impl AskDaemon {
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
        let rx = &mut self.receiver;
        assert!(
            !rx.recv_tasks.contains_key(&task),
            "task {task} already submitted"
        );
        let rt = RecvTask {
            senders: senders.iter().copied().collect(),
            op,
            ..RecvTask::default()
        };
        rx.recv_tasks.insert(task, rt);
        request_region(&mut Io { up: &self.up, ctx }, task, op);
    }

    /// The completed result of a receive task, if finished.
    pub fn task_result(&self, task: TaskId) -> Option<&TaskResult> {
        self.receiver.recv_tasks.get(&task)?.result.as_ref()
    }

    /// Tuples that arrived for tasks this daemon never registered.
    pub fn orphan_tuples(&self) -> u64 {
        self.receiver.orphan_tuples
    }

    /// Tuples that arrived for a task after it completed. A sender cannot
    /// know the receiver finished, so a crash-epoch replay re-sends the
    /// whole stream; the frames are ACKed like any other and their tuples
    /// counted here, never merged — the result is frozen.
    pub fn late_tuples(&self) -> u64 {
        self.receiver.late_tuples
    }

    /// Highest sequence number the receiver window has observed on
    /// `channel`, if any packet arrived on it.
    pub fn receiver_max_seq(&self, channel: ChannelId) -> Option<u64> {
        self.receiver
            .recv_windows
            .get(&channel)
            .map(|w| w.max_seq())
    }

    /// True while a fetch request for `task` is outstanding.
    pub fn fetch_pending(&self, task: TaskId) -> bool {
        self.receiver
            .recv_tasks
            .get(&task)
            .is_some_and(|rt| rt.fetch != FetchState::Idle)
    }
}
