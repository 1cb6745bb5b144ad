//! ASK packet types: identifiers, the slotted data packet, and control
//! messages.

use crate::constants::PACKET_OVERHEAD;
use crate::key::{Key, KPART_BYTES};
use core::fmt;

/// Identifier of one aggregation task (unique per receiver daemon).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Channel-id stride per host: host `h`'s data channels are numbered
/// `h * CHANNEL_STRIDE ..`, so the owning host is recoverable from any
/// [`ChannelId`] (used for FIN accounting and rack-locality checks).
pub const CHANNEL_STRIDE: u32 = 256;

/// Identifier of one persistent data channel (a sender-daemon flow). The
/// switch keeps its per-flow reliability state (`seen`, `PktState`) keyed by
/// this id, which is what bounds switch state (§3.3 "Bounding Switch
/// States").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The raw node index of the host owning this channel.
    pub fn host(self) -> u32 {
        self.0 / CHANNEL_STRIDE
    }
}

/// Per-channel packet sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqNo(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}
impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}
impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq{}", self.0)
    }
}

/// One key-value tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KvTuple {
    /// The aggregation key.
    pub key: Key,
    /// The value; aggregation uses wrapping 32-bit addition, matching the
    /// switch's 32-bit `vPart` ALU.
    pub value: u32,
}

impl KvTuple {
    /// Convenience constructor.
    pub fn new(key: Key, value: u32) -> Self {
        KvTuple { key, value }
    }
}

/// Static description of how a packet's payload slots map onto the switch's
/// aggregator arrays (§3.2).
///
/// A packet carries `short_slots` single-`kPart` tuples plus `medium_groups`
/// medium-key tuples, each of which occupies `medium_segments` coalesced
/// aggregator arrays in adjacent stages. The defaults mirror the paper's
/// implementation: 32 AAs per pipeline with `m = 2` and `k = 8` (§3.2.3,
/// §4), i.e. 16 short slots + 8 medium groups × 2 segments = 32 AAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketLayout {
    short_slots: usize,
    medium_groups: usize,
    medium_segments: usize,
}

impl PacketLayout {
    /// The paper's default layout: 16 short slots, 8 medium groups of 2
    /// segments (32 aggregator arrays total).
    pub fn paper_default() -> Self {
        PacketLayout {
            short_slots: 16,
            medium_groups: 8,
            medium_segments: 2,
        }
    }

    /// A layout with only short-key slots (used by the strawman and the
    /// value-stream compatibility mode).
    ///
    /// # Panics
    ///
    /// Panics if `short_slots` is zero or exceeds 128.
    pub fn short_only(short_slots: usize) -> Self {
        PacketLayout::custom(short_slots, 0, 2)
    }

    /// Fully custom layout.
    ///
    /// # Panics
    ///
    /// Panics if there are no slots at all, more than 128 logical slots
    /// (the chained-pipeline maximum), or `medium_segments < 2` while
    /// `medium_groups > 0`.
    pub fn custom(short_slots: usize, medium_groups: usize, medium_segments: usize) -> Self {
        let slots = short_slots + medium_groups;
        assert!(slots > 0, "layout needs at least one slot");
        assert!(
            slots <= 128,
            "at most 128 logical slots (4 chained pipelines)"
        );
        assert!(
            medium_groups == 0 || medium_segments >= 2,
            "medium groups need at least two segments"
        );
        PacketLayout {
            short_slots,
            medium_groups,
            medium_segments,
        }
    }

    /// Number of short-key slots.
    pub fn short_slots(&self) -> usize {
        self.short_slots
    }

    /// Number of medium-key groups (`k` in the paper).
    pub fn medium_groups(&self) -> usize {
        self.medium_groups
    }

    /// Aggregator arrays coalesced per medium group (`m` in the paper).
    pub fn medium_segments(&self) -> usize {
        self.medium_segments
    }

    /// Total logical payload slots (short + medium).
    pub fn slot_count(&self) -> usize {
        self.short_slots + self.medium_groups
    }

    /// Total aggregator arrays the layout occupies on the switch.
    pub fn aggregator_arrays(&self) -> usize {
        self.short_slots + self.medium_groups * self.medium_segments
    }

    /// True if logical slot `i` is a short-key slot.
    pub fn is_short_slot(&self, i: usize) -> bool {
        i < self.short_slots
    }

    /// Nominal on-the-wire bytes of logical slot `i` when occupied.
    pub fn slot_bytes(&self, i: usize) -> usize {
        if self.is_short_slot(i) {
            2 * KPART_BYTES // 4-byte key segment + 4-byte value
        } else {
            KPART_BYTES * self.medium_segments + KPART_BYTES
        }
    }

    /// Maximum key length (bytes) a medium slot can carry.
    pub fn medium_max_key_len(&self) -> usize {
        KPART_BYTES * self.medium_segments
    }
}

impl Default for PacketLayout {
    fn default() -> Self {
        PacketLayout::paper_default()
    }
}

/// A slotted ASK data packet (§3.1, Figure 5): a bitmap over logical slots
/// followed by the occupied slots' key-value tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// The aggregation task the tuples belong to.
    pub task: TaskId,
    /// The sending data channel (reliability flow).
    pub channel: ChannelId,
    /// Per-channel sequence number.
    pub seq: SeqNo,
    /// One entry per logical slot; `None` slots are blank (bitmap bit 0).
    pub slots: Vec<Option<KvTuple>>,
}

impl DataPacket {
    /// The slot-occupancy bitmap: bit `i` set iff slot `i` carries a tuple.
    pub fn bitmap(&self) -> u128 {
        let mut bm = 0u128;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.is_some() {
                bm |= 1 << i;
            }
        }
        bm
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True once every tuple has been consumed (fully aggregated).
    pub fn is_empty(&self) -> bool {
        self.occupied() == 0
    }

    /// Nominal wire bytes given `layout`: the fixed 78-byte overhead plus
    /// the nominal bytes of each occupied slot.
    pub fn wire_bytes(&self, layout: &PacketLayout) -> usize {
        let slots = self.slots.iter().enumerate().filter(|(_, s)| s.is_some());
        PACKET_OVERHEAD + slots.map(|(i, _)| layout.slot_bytes(i)).sum::<usize>()
    }
}

/// The aggregation operator applied to a task's values.
///
/// The paper's aggregation is commutative addition, but the service is
/// generic over any commutative, associative merge the switch ALU can
/// express — the same genericity that lets one service host `reduce()`,
/// `AllReduce()`, `MPI_Reduce()` and SQL `SUM()`/`MAX()`/`MIN()` (§1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregateOp {
    /// Wrapping 32-bit addition (the paper's operator).
    #[default]
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl AggregateOp {
    /// Applies the operator to two values.
    pub fn combine(self, a: u32, b: u32) -> u32 {
        match self {
            AggregateOp::Sum => a.wrapping_add(b),
            AggregateOp::Max => a.max(b),
            AggregateOp::Min => a.min(b),
        }
    }

    /// Wire/action-data encoding.
    pub fn to_code(self) -> u8 {
        match self {
            AggregateOp::Sum => 0,
            AggregateOp::Max => 1,
            AggregateOp::Min => 2,
        }
    }

    /// Decodes a wire/action-data code (unknown codes fall back to Sum,
    /// the paper's default).
    pub fn from_code(code: u8) -> Self {
        match code {
            1 => AggregateOp::Max,
            2 => AggregateOp::Min,
            _ => AggregateOp::Sum,
        }
    }
}

/// Which shadow copies a fetch should read and reset (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchScope {
    /// Only the inactive copy (runtime shadow-copy harvest).
    Inactive,
    /// Both copies (final harvest at task teardown).
    All,
}

/// Region of aggregator indices granted to a task: the slice
/// `[base, base + aggregators)` of every aggregator array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AaRegion {
    /// First aggregator index of the region within each AA copy.
    pub base: u32,
    /// Number of aggregators per AA (per copy).
    pub aggregators: u32,
}

/// Daemon-level control messages (task lifecycle, switch controller RPCs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// Receiver daemon asks the switch controller for an AA region.
    RegionRequest {
        /// The task needing memory.
        task: TaskId,
        /// The operator the switch ALU should apply for this task.
        op: AggregateOp,
    },
    /// Controller grants a region (per shadow copy).
    RegionGrant {
        /// The requesting task.
        task: TaskId,
        /// The granted slice of every AA.
        region: AaRegion,
    },
    /// Controller has no free memory; the task must run host-only.
    RegionDeny {
        /// The requesting task.
        task: TaskId,
    },
    /// Receiver daemon returns the region at teardown.
    RegionRelease {
        /// The finished task.
        task: TaskId,
    },
    /// Receiver daemon announces a task to a sender daemon (step ④ of
    /// Figure 4).
    TaskAnnounce {
        /// The new task.
        task: TaskId,
        /// Raw node index of the receiver host.
        receiver: u32,
    },
    /// Switch → host: the switch's current epoch. Sent when the switch
    /// drops a stale-epoch frame after a crash-restart, so the host learns
    /// the new epoch immediately instead of waiting for its next timeout.
    EpochNotify {
        /// The switch's current epoch.
        epoch: u32,
    },
}

/// Every packet the ASK protocol puts on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AskPacket {
    /// Key-value tuples travelling sender → switch → receiver.
    Data(DataPacket),
    /// Long-key tuples that bypass switch aggregation (§3.2.3) but share the
    /// channel's reliable sequence space.
    LongKv {
        /// The aggregation task.
        task: TaskId,
        /// The sending data channel.
        channel: ChannelId,
        /// Per-channel sequence number.
        seq: SeqNo,
        /// The long-key tuples.
        entries: Vec<KvTuple>,
    },
    /// Acknowledgment of `seq` on `channel`, sent by the switch (fully
    /// aggregated) or the receiver host.
    Ack {
        /// The acknowledged channel.
        channel: ChannelId,
        /// The acknowledged sequence number.
        seq: SeqNo,
    },
    /// End-of-stream marker for one task on one channel; reliable like data.
    Fin {
        /// The finished task.
        task: TaskId,
        /// The sending data channel.
        channel: ChannelId,
        /// Per-channel sequence number.
        seq: SeqNo,
    },
    /// Receiver → switch: flip the task's shadow-copy indicator (§3.4).
    Swap {
        /// The task whose copies swap.
        task: TaskId,
    },
    /// Receiver → switch: read and reset the task's aggregators.
    ///
    /// Fetches are made reliable by `fetch_seq`: the switch harvests (and
    /// resets) only when it sees `fetch_seq == last_seq + 1`, and otherwise
    /// replays its cached reply, so a lost [`AskPacket::FetchReply`] can be
    /// recovered by retrying without double-resetting the aggregators.
    FetchRequest {
        /// The task to harvest.
        task: TaskId,
        /// Which copies to harvest.
        scope: FetchScope,
        /// Monotonic per-task fetch sequence number (starts at 1).
        fetch_seq: u32,
    },
    /// Switch → receiver: harvested key-value pairs.
    FetchReply {
        /// The harvested task.
        task: TaskId,
        /// Echo of the request's fetch sequence number.
        fetch_seq: u32,
        /// Reconstructed (key, aggregated value) pairs.
        entries: Vec<KvTuple>,
    },
    /// Daemon/controller control-plane message.
    Control(ControlMsg),
}

impl AskPacket {
    /// Nominal wire bytes of this packet under `layout` (§5.3 accounting).
    pub fn wire_bytes(&self, layout: &PacketLayout) -> usize {
        match self {
            AskPacket::Data(d) => d.wire_bytes(layout),
            AskPacket::LongKv { entries, .. } | AskPacket::FetchReply { entries, .. } => {
                PACKET_OVERHEAD + entries.iter().map(|t| 2 + t.key.len() + 4).sum::<usize>()
            }
            // Pure header packets.
            AskPacket::Ack { .. }
            | AskPacket::Fin { .. }
            | AskPacket::Swap { .. }
            | AskPacket::FetchRequest { .. }
            | AskPacket::Control(_) => PACKET_OVERHEAD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(s: &str, v: u32) -> KvTuple {
        KvTuple::new(Key::from_str(s).unwrap(), v)
    }

    #[test]
    fn paper_default_layout_is_32_aas() {
        let l = PacketLayout::paper_default();
        assert_eq!(l.slot_count(), 24);
        assert_eq!(l.aggregator_arrays(), 32);
        assert_eq!(l.medium_max_key_len(), 8);
    }

    #[test]
    fn slot_bytes_short_vs_medium() {
        let l = PacketLayout::paper_default();
        assert_eq!(l.slot_bytes(0), 8); // short: 4 + 4
        assert_eq!(l.slot_bytes(16), 12); // medium m=2: 8 + 4
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_layout_rejected() {
        let _ = PacketLayout::custom(0, 0, 2);
    }

    #[test]
    #[should_panic(expected = "128")]
    fn oversized_layout_rejected() {
        let _ = PacketLayout::custom(129, 0, 2);
    }

    #[test]
    fn bitmap_reflects_occupancy() {
        let mut slots = vec![None; 4];
        slots[1] = Some(kv("a", 1));
        slots[3] = Some(kv("b", 2));
        let p = DataPacket {
            task: TaskId(1),
            channel: ChannelId(0),
            seq: SeqNo(0),
            slots,
        };
        assert_eq!(p.bitmap(), 0b1010);
        assert_eq!(p.occupied(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn wire_bytes_single_short_tuple_is_86() {
        // One 8-byte tuple + 78 bytes overhead — the §3.2 goodput example.
        let l = PacketLayout::short_only(1);
        let p = DataPacket {
            task: TaskId(0),
            channel: ChannelId(0),
            seq: SeqNo(0),
            slots: vec![Some(kv("k", 1))],
        };
        assert_eq!(p.wire_bytes(&l), 86);
    }

    #[test]
    fn wire_bytes_full_paper_packet() {
        let l = PacketLayout::paper_default();
        let mut slots = Vec::new();
        for i in 0..l.slot_count() {
            let name = format!("k{i:06}"); // 7 bytes: medium
            let s = if l.is_short_slot(i) { "abcd" } else { &name };
            slots.push(Some(kv(s, 1)));
        }
        let p = DataPacket {
            task: TaskId(0),
            channel: ChannelId(0),
            seq: SeqNo(0),
            slots,
        };
        // 16 short × 8 + 8 medium × 12 = 224 payload bytes + 78.
        assert_eq!(p.wire_bytes(&l), 224 + 78);
    }

    #[test]
    fn header_only_packets_cost_overhead() {
        let l = PacketLayout::paper_default();
        assert_eq!(
            AskPacket::Ack {
                channel: ChannelId(1),
                seq: SeqNo(9),
            }
            .wire_bytes(&l),
            78
        );
        assert_eq!(AskPacket::Swap { task: TaskId(0) }.wire_bytes(&l), 78);
    }

    #[test]
    fn long_kv_wire_bytes_scale_with_key_len() {
        let l = PacketLayout::paper_default();
        let p = AskPacket::LongKv {
            task: TaskId(0),
            channel: ChannelId(0),
            seq: SeqNo(0),
            entries: vec![kv("averylongkeyxxxx", 1)],
        };
        assert_eq!(p.wire_bytes(&l), 78 + 2 + 16 + 4);
    }
}
