//! Sender-assisted addressing and packet construction (§3.2.2, §3.2.3).
//!
//! The packetizer classifies each key as short / medium / long, assigns
//! short keys to one of the short slots and medium keys to one of the
//! medium groups by an *ordered key-space partition* (`hash(key) % N`), and
//! packs packets slot-by-slot so the same key always rides the same slot —
//! and therefore always meets the same aggregator array on the switch,
//! avoiding the single-key-multiple-spot problem.
//!
//! Long keys bypass the switch in dedicated batch packets.

use crate::host::window::FrameKind;
use ask_wire::codec::{FrameWriter, SendHeader};
use ask_wire::constants::PACKET_OVERHEAD;
use ask_wire::key::{KeyClass, KPART_BYTES};
use ask_wire::packet::{KvTuple, PacketLayout};
use bytes::Bytes;
use std::collections::VecDeque;

/// Output of packetizing one task's key-value stream.
#[derive(Debug, Clone, Default)]
pub struct PacketizedStream {
    /// Slot vectors for data packets, in send order.
    pub data_payloads: Vec<Vec<Option<KvTuple>>>,
    /// Long-key batches for bypass packets, in send order.
    pub long_batches: Vec<Vec<KvTuple>>,
}

impl PacketizedStream {
    /// Total packets (data + bypass).
    pub fn packet_count(&self) -> usize {
        self.data_payloads.len() + self.long_batches.len()
    }

    /// Total tuples across all packets.
    pub fn tuple_count(&self) -> usize {
        let in_data: usize = self
            .data_payloads
            .iter()
            .map(|p| p.iter().filter(|s| s.is_some()).count())
            .sum();
        let in_long: usize = self.long_batches.iter().map(|b| b.len()).sum();
        in_data + in_long
    }

    /// Mean occupied slots per data packet (Figure 8(b)'s metric).
    pub fn mean_occupancy(&self) -> f64 {
        if self.data_payloads.is_empty() {
            return 0.0;
        }
        let occupied: usize = self
            .data_payloads
            .iter()
            .map(|p| p.iter().filter(|s| s.is_some()).count())
            .sum();
        occupied as f64 / self.data_payloads.len() as f64
    }

    /// Per-packet occupied-slot counts (for occupancy CDFs).
    pub fn occupancies(&self) -> Vec<usize> {
        self.data_payloads
            .iter()
            .map(|p| p.iter().filter(|s| s.is_some()).count())
            .collect()
    }
}

/// Builds packets from key-value streams under a fixed [`PacketLayout`].
#[derive(Debug, Clone)]
pub struct Packetizer {
    layout: PacketLayout,
    long_kv_batch: usize,
}

impl Packetizer {
    /// Creates a packetizer.
    ///
    /// # Panics
    ///
    /// Panics if `long_kv_batch == 0`.
    pub fn new(layout: PacketLayout, long_kv_batch: usize) -> Self {
        assert!(long_kv_batch > 0, "long-kv batch must be positive");
        Packetizer {
            layout,
            long_kv_batch,
        }
    }

    /// The layout packets are built for.
    pub fn layout(&self) -> &PacketLayout {
        &self.layout
    }

    /// The slot a tuple's key maps to, or `None` if the key must bypass the
    /// switch (long keys, or no slot of the right class exists).
    pub fn slot_for(&self, tuple: &KvTuple) -> Option<usize> {
        let l = &self.layout;
        match tuple.key.class(l.medium_segments()) {
            KeyClass::Short if l.short_slots() > 0 => {
                Some((tuple.key.hash64() % l.short_slots() as u64) as usize)
            }
            KeyClass::Medium if l.medium_groups() > 0 => {
                Some(l.short_slots() + (tuple.key.hash64() % l.medium_groups() as u64) as usize)
            }
            _ => None,
        }
    }

    /// Packs a stream of tuples into owned packets — the reference model
    /// the send path ([`Packetizer::begin_stream`]) is checked against, and
    /// what figure code inspects for slot occupancy.
    ///
    /// Tuples within each slot keep their stream order; a packet takes the
    /// next tuple from every non-empty slot queue, so skew shows up as blank
    /// slots rather than reordering (§5.3, Figure 8(b)).
    pub fn packetize<I>(&self, tuples: I) -> PacketizedStream
    where
        I: IntoIterator<Item = KvTuple>,
    {
        let slots = self.layout.slot_count();
        let mut queues: Vec<VecDeque<KvTuple>> = vec![VecDeque::new(); slots];
        let mut long_queue: Vec<KvTuple> = Vec::new();
        for tuple in tuples {
            match self.slot_for(&tuple) {
                Some(s) => queues[s].push_back(tuple),
                None => long_queue.push(tuple),
            }
        }

        let mut out = PacketizedStream::default();
        while queues.iter().any(|q| !q.is_empty()) {
            out.data_payloads
                .push(queues.iter_mut().map(|q| q.pop_front()).collect());
        }
        out.long_batches = long_queue
            .chunks(self.long_kv_batch)
            .map(<[KvTuple]>::to_vec)
            .collect();
        out
    }

    /// Stages a stream for sending: every tuple is turned into its wire
    /// bytes once, here, and [`PendingStream::next_frame`] then builds each
    /// frame by copying byte ranges. The frames are those of
    /// [`Packetizer::packetize`] — same content, same order.
    ///
    /// A counting sort by slot: pass 1 records each tuple's slot and counts
    /// per slot, pass 2 writes each tuple's *slot record* (key zero-padded
    /// to the slot's width, then the big-endian value) at its slot's fill
    /// cursor, so a slot's records sit contiguously in stream order. Long
    /// keys are serialized in the long-kv entry format instead.
    pub fn begin_stream(&self, tuples: &[KvTuple]) -> PendingStream {
        let layout = self.layout;
        let widths = record_widths(&layout);
        let width_of = |slot: usize| widths[usize::from(!layout.is_short_slot(slot))];

        let mut counts = vec![0usize; layout.slot_count()];
        let slot_of: Vec<u8> = tuples
            .iter()
            .map(|t| match self.slot_for(t) {
                Some(s) => {
                    counts[s] += 1;
                    s as u8
                }
                None => LONG,
            })
            .collect();

        let mut at = 0;
        let mut lanes: Vec<Lane> = counts
            .iter()
            .enumerate()
            .map(|(slot, &n)| {
                let lane = Lane {
                    cursor: at,
                    end: at,
                };
                at += n * width_of(slot);
                lane
            })
            .collect();

        let mut records = vec![0u8; at];
        let mut long = LongLane::default();
        for (t, &slot) in tuples.iter().zip(&slot_of) {
            let key = t.key.as_bytes();
            if slot == LONG {
                long.offsets.push(long.bytes.len());
                long.bytes
                    .extend_from_slice(&(key.len() as u16).to_be_bytes());
                long.bytes.extend_from_slice(key);
                long.bytes.extend_from_slice(&t.value.to_be_bytes());
                continue;
            }
            let lane = &mut lanes[slot as usize];
            let value_at = lane.end + width_of(slot as usize) - VALUE_BYTES;
            records[lane.end..lane.end + key.len()].copy_from_slice(key);
            records[value_at..value_at + VALUE_BYTES].copy_from_slice(&t.value.to_be_bytes());
            lane.end = value_at + VALUE_BYTES;
        }

        let live = lanes
            .iter()
            .enumerate()
            .filter(|(_, lane)| lane.cursor < lane.end)
            .fold(0u128, |bitmap, (slot, _)| bitmap | 1 << slot);
        PendingStream {
            layout,
            records,
            lanes,
            live,
            long,
            long_kv_batch: self.long_kv_batch,
        }
    }
}

/// Bytes of a tuple's value on the wire.
const VALUE_BYTES: usize = 4;

/// Slot-record width of a short slot and of a medium group: the key
/// zero-padded to the slot's width, then the value.
fn record_widths(layout: &PacketLayout) -> [usize; 2] {
    [
        KPART_BYTES + VALUE_BYTES,
        layout.medium_max_key_len() + VALUE_BYTES,
    ]
}

/// Slot marker of a tuple that bypasses the switch (layouts have at most
/// 128 slots).
const LONG: u8 = u8::MAX;

/// The unsent records of one slot: `records[cursor..end]`.
#[derive(Debug)]
struct Lane {
    cursor: usize,
    end: usize,
}

/// Long-key tuples as long-kv entries (`u16 len · key · u32 value`), with
/// the offset of every entry so that a batch is one byte range.
#[derive(Debug, Default)]
struct LongLane {
    bytes: Vec<u8>,
    offsets: Vec<usize>,
    /// Entries already sent.
    sent: usize,
}

/// One frame of a [`PendingStream`], as it goes on the wire and into the
/// send window.
#[derive(Debug)]
pub struct BuiltFrame {
    /// Data or long-kv.
    pub kind: FrameKind,
    /// The encoded envelope.
    pub bytes: Bytes,
    /// Nominal wire size (§5.3 accounting).
    pub wire: usize,
}

/// A stream staged for sending as wire-ready slot lanes. Created by
/// [`Packetizer::begin_stream`].
#[derive(Debug)]
pub struct PendingStream {
    layout: PacketLayout,
    records: Vec<u8>,
    lanes: Vec<Lane>,
    /// Bit `s` set iff lane `s` still holds a record.
    live: u128,
    long: LongLane,
    long_kv_batch: usize,
}

impl PendingStream {
    /// Builds the stream's next frame — data frames first, one record from
    /// every non-empty lane each, then the long-key batches — or `None`
    /// once everything has been sent.
    pub fn next_frame(&mut self, h: &SendHeader) -> Option<BuiltFrame> {
        if self.live != 0 {
            return Some(self.next_data_frame(h));
        }
        let first = self.long.sent;
        let last = (first + self.long_kv_batch).min(self.long.offsets.len());
        if first == last {
            return None;
        }
        self.long.sent = last;
        let from = self.long.offsets[first];
        let to = self
            .long
            .offsets
            .get(last)
            .copied()
            .unwrap_or(self.long.bytes.len());
        let mut frame = FrameWriter::long_kv(h, (last - first) as u32, to - from);
        frame.put(&self.long.bytes[from..to]);
        Some(BuiltFrame {
            kind: FrameKind::LongKv,
            bytes: frame.finish(),
            wire: PACKET_OVERHEAD + (to - from),
        })
    }

    fn next_data_frame(&mut self, h: &SendHeader) -> BuiltFrame {
        let bitmap = self.live;
        let widths = record_widths(&self.layout);
        let short = self.layout.short_slots();
        // Two popcounts size the frame. A slot's nominal payload bytes are
        // its record's width, so the body size is also the frame's wire
        // size minus the overhead.
        let medium = bitmap.checked_shr(short as u32).unwrap_or(0).count_ones() as usize;
        let body_len = (bitmap.count_ones() as usize - medium) * widths[0] + medium * widths[1];
        let mut frame = FrameWriter::data(h, &self.layout, bitmap, body_len);
        let mut left = bitmap;
        while left != 0 {
            let slot = left.trailing_zeros() as usize;
            left &= left - 1;
            let lane = &mut self.lanes[slot];
            let next = lane.cursor + widths[usize::from(slot >= short)];
            frame.put(&self.records[lane.cursor..next]);
            lane.cursor = next;
            if next == lane.end {
                self.live &= !(1 << slot);
            }
        }
        BuiltFrame {
            kind: FrameKind::Data,
            bytes: frame.finish(),
            wire: PACKET_OVERHEAD + body_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ask_wire::key::Key;

    fn kv(s: &str, v: u32) -> KvTuple {
        KvTuple::new(Key::from_str(s).unwrap(), v)
    }

    fn packetizer() -> Packetizer {
        Packetizer::new(PacketLayout::custom(4, 2, 2), 3)
    }

    #[test]
    fn same_key_always_same_slot() {
        let p = packetizer();
        let s1 = p.slot_for(&kv("cat", 1)).unwrap();
        let s2 = p.slot_for(&kv("cat", 99)).unwrap();
        assert_eq!(s1, s2);
        assert!(s1 < 4, "short keys go to short slots");
        let m = p.slot_for(&kv("maples", 1)).unwrap();
        assert!(m >= 4, "medium keys go to medium slots");
    }

    #[test]
    fn long_keys_bypass() {
        let p = packetizer();
        assert_eq!(p.slot_for(&kv("waytoolongkey", 1)), None);
        let out = p.packetize(vec![kv("waytoolongkey", 1); 7]);
        assert!(out.data_payloads.is_empty());
        assert_eq!(out.long_batches.len(), 3, "7 tuples in batches of 3");
        assert_eq!(out.tuple_count(), 7);
    }

    #[test]
    fn uniform_keys_fill_packets_densely() {
        let p = Packetizer::new(PacketLayout::short_only(8), 8);
        // Many distinct short keys spread uniformly over slots.
        let tuples: Vec<KvTuple> = (0..8000)
            .map(|i| KvTuple::new(Key::from_u64(i), 1))
            .collect();
        let out = p.packetize(tuples);
        assert!(
            out.mean_occupancy() > 7.0,
            "uniform stream should nearly fill the 8 slots, got {}",
            out.mean_occupancy()
        );
        assert_eq!(out.tuple_count(), 8000);
    }

    #[test]
    fn single_hot_key_leaves_blanks() {
        let p = Packetizer::new(PacketLayout::short_only(8), 8);
        let out = p.packetize(vec![kv("hot", 1); 100]);
        // All 100 tuples share one slot: 100 packets, each with 1 tuple.
        assert_eq!(out.data_payloads.len(), 100);
        assert!((out.mean_occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stream_order_preserved_within_slot() {
        let p = packetizer();
        let out = p.packetize(vec![kv("cat", 1), kv("cat", 2), kv("cat", 3)]);
        let slot = p.slot_for(&kv("cat", 0)).unwrap();
        let values: Vec<u32> = out
            .data_payloads
            .iter()
            .filter_map(|pl| pl[slot].as_ref().map(|t| t.value))
            .collect();
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn short_keys_bypass_when_no_short_slots() {
        let p = Packetizer::new(PacketLayout::custom(0, 4, 2), 8);
        assert_eq!(p.slot_for(&kv("cat", 1)), None, "no short slots → bypass");
        assert!(p.slot_for(&kv("maples", 1)).is_some());
    }

    #[test]
    fn packet_count_sums() {
        let p = packetizer();
        let out = p.packetize(vec![kv("cat", 1), kv("waytoolongkey", 2)]);
        assert_eq!(out.packet_count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        let _ = Packetizer::new(PacketLayout::paper_default(), 0);
    }

    mod properties {
        use super::*;
        use ask_wire::codec::encode_envelope_parts;
        use ask_wire::packet::{AskPacket, ChannelId, DataPacket, SeqNo, TaskId};
        use ask_wire::view::{FrameView, PacketView};
        use proptest::prelude::*;

        /// `short_only(1)`, `short_only(n)`, or a custom layout with medium
        /// groups (and possibly no short slots at all).
        fn arb_layout() -> impl Strategy<Value = PacketLayout> {
            (0u8..3, 1usize..=32, (0usize..=8, 1usize..=4, 2usize..=4)).prop_map(
                |(pick, n, (short, groups, segments))| match pick {
                    0 => PacketLayout::short_only(1),
                    1 => PacketLayout::short_only(n),
                    _ => PacketLayout::custom(short, groups, segments),
                },
            )
        }

        /// Keys of 1..=20 bytes over a four-letter alphabet: short, medium
        /// and long under every layout above, colliding often enough that
        /// slots hold several tuples while others stay empty. `hot` of
        /// every four tuples are replaced by one hot key.
        fn arb_stream() -> impl Strategy<Value = Vec<KvTuple>> {
            let tuple = (proptest::collection::vec(1u8..=4, 1..=20), any::<u32>());
            (proptest::collection::vec(tuple, 0..120), 0usize..4).prop_map(|(raw, hot)| {
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (key, value))| {
                        let key = if i % 4 < hot { b"hot".to_vec() } else { key };
                        KvTuple::new(Key::new(key.into()).expect("no NUL, non-empty"), value)
                    })
                    .collect()
            })
        }

        proptest! {
            /// The lane path emits, frame for frame, the bytes the owned
            /// codec encodes for the owned packetizer's packets — data
            /// frames, then long-kv batches, same order, same count, same
            /// nominal wire size.
            #[test]
            fn lane_frames_match_owned_packetize_and_encode(
                layout in arb_layout(),
                long_kv_batch in 1usize..=5,
                stream in arb_stream(),
                addressing in (any::<u32>(), any::<u32>(), any::<u32>()),
                ids in (any::<u32>(), any::<u32>(), any::<u64>()),
            ) {
                let (src, dst, epoch) = addressing;
                let (task, channel, first_seq) = (TaskId(ids.0), ChannelId(ids.1), ids.2);
                let p = Packetizer::new(layout, long_kv_batch);
                let owned = p.packetize(stream.iter().cloned());
                let mut pending = p.begin_stream(&stream);

                let data = owned.data_payloads.into_iter().map(|slots| {
                    (FrameKind::Data, AskPacket::Data(DataPacket {
                        task, channel, seq: SeqNo(0), slots,
                    }))
                });
                let long = owned.long_batches.into_iter().map(|entries| {
                    (FrameKind::LongKv, AskPacket::LongKv {
                        task, channel, seq: SeqNo(0), entries,
                    })
                });
                let mut seq = SeqNo(first_seq);
                for (kind, mut packet) in data.chain(long) {
                    match &mut packet {
                        AskPacket::Data(d) => d.seq = seq,
                        AskPacket::LongKv { seq: s, .. } => *s = seq,
                        _ => unreachable!(),
                    }
                    let h = SendHeader { src, dst, epoch, task, channel, seq };
                    let frame = pending.next_frame(&h).expect("a frame per owned packet");
                    prop_assert_eq!(frame.kind, kind);
                    prop_assert_eq!(frame.wire, packet.wire_bytes(&layout));
                    prop_assert_eq!(
                        &frame.bytes,
                        &encode_envelope_parts(src, dst, epoch, 0, &packet, &layout)
                    );
                    let view = FrameView::parse(frame.bytes).expect("own frame parses");
                    prop_assert_eq!((view.src(), view.dst(), view.epoch()), (src, dst, epoch));
                    match (view.packet(), &packet) {
                        (PacketView::Data(v), AskPacket::Data(d)) => {
                            prop_assert_eq!((v.seq(), v.bitmap()), (seq, d.bitmap()));
                        }
                        (PacketView::LongKv { seq: s, entry_count, .. },
                         AskPacket::LongKv { entries, .. }) => {
                            prop_assert_eq!((*s, *entry_count as usize), (seq, entries.len()));
                        }
                        other => prop_assert!(false, "kinds differ: {:?}", other),
                    }
                    seq = SeqNo(seq.0.wrapping_add(1));
                }
                let h = SendHeader { src, dst, epoch, task, channel, seq };
                prop_assert!(pending.next_frame(&h).is_none());
            }
        }
    }
}
