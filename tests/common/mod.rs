//! A service's packet timeline, read from the simulator's frame trace:
//! every frame offered to a link, parsed, in send order.

// Each test binary that includes this module reads a different subset.
#![allow(dead_code)]

use ask::service::AskService;
use ask_simnet::frame::{Frame, NodeId};
use ask_simnet::network::TraceFate;
use ask_simnet::time::SimTime;
use ask_wire::packet::{ChannelId, ControlMsg, SeqNo, TaskId};
use ask_wire::view::{FrameView, PacketView};

/// Ring size: the tests' runs send a few thousand frames.
const CAPACITY: usize = 1 << 16;

/// Starts tracing every frame `service` sends from now on.
pub fn enable(service: &mut AskService) {
    service.network_mut().enable_frame_trace(CAPACITY);
}

/// What a traced frame is, with the channel and seq of a sequenced frame
/// or the task of a task-scoped one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    Data { channel: ChannelId, seq: SeqNo },
    LongKv { channel: ChannelId, seq: SeqNo },
    Fin { channel: ChannelId, seq: SeqNo },
    Ack { channel: ChannelId, seq: SeqNo },
    Swap { task: TaskId },
    FetchRequest { task: TaskId },
    FetchReply { task: TaskId },
    Control(ControlMsg),
}

/// One frame offered to a link.
#[derive(Debug, Clone)]
pub struct WireFrame {
    pub at: SimTime,
    pub from: NodeId,
    pub to: NodeId,
    pub fate: TraceFate,
    pub epoch: u32,
    pub kind: Kind,
    /// The bytes as sent, before any corruption.
    pub frame: Frame,
}

impl WireFrame {
    /// `(epoch, channel, seq)` of a data, long-kv or FIN frame: what its
    /// sender's window and its receiver's dedup key on.
    pub fn sent_seq(&self) -> Option<(u32, ChannelId, SeqNo)> {
        match self.kind {
            Kind::Data { channel, seq }
            | Kind::LongKv { channel, seq }
            | Kind::Fin { channel, seq } => Some((self.epoch, channel, seq)),
            _ => None,
        }
    }

    /// `(epoch, channel, seq)` an ACK names.
    pub fn acked_seq(&self) -> Option<(u32, ChannelId, SeqNo)> {
        match self.kind {
            Kind::Ack { channel, seq } => Some((self.epoch, channel, seq)),
            _ => None,
        }
    }

    /// Copies of the frame that reached `to`: 0, 1, or 2 when duplicated.
    pub fn copies_delivered(&self) -> usize {
        match self.fate {
            TraceFate::Dropped => 0,
            TraceFate::Delivered { duplicated, .. } => 1 + usize::from(duplicated),
        }
    }
}

/// Every frame traced since [`enable`], oldest first. Panics if the ring
/// evicted any, so a caller always sees the whole timeline.
pub fn frames(service: &mut AskService) -> Vec<WireFrame> {
    let net = service.network_mut();
    let entries: Vec<_> = net.frame_trace().cloned().collect();
    assert_eq!(
        entries.len() as u64,
        net.frames_traced(),
        "the frame ring evicted entries"
    );
    entries
        .into_iter()
        .map(|e| {
            let view = FrameView::parse(e.frame.payload().clone()).expect("traced frames parse");
            let kind = match view.packet() {
                PacketView::Data(d) => Kind::Data {
                    channel: d.channel(),
                    seq: d.seq(),
                },
                &PacketView::LongKv { channel, seq, .. } => Kind::LongKv { channel, seq },
                &PacketView::Fin { channel, seq, .. } => Kind::Fin { channel, seq },
                &PacketView::Ack { channel, seq } => Kind::Ack { channel, seq },
                &PacketView::Swap { task } => Kind::Swap { task },
                &PacketView::FetchRequest { task, .. } => Kind::FetchRequest { task },
                &PacketView::FetchReply { task, .. } => Kind::FetchReply { task },
                PacketView::Control(msg) => Kind::Control(msg.clone()),
            };
            WireFrame {
                at: e.at,
                from: e.from,
                to: e.to,
                fate: e.fate,
                epoch: view.epoch(),
                kind,
                frame: e.frame,
            }
        })
        .collect()
}
