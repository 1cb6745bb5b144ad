//! Borrowed, zero-materialization views over encoded frames.
//!
//! [`FrameView::parse`] validates an envelope exactly as strictly as
//! [`decode_envelope_pooled`](crate::codec::decode_envelope_pooled) — one
//! CRC pass, the same truncation/layout/key checks in the same order — but
//! builds **no** owned packet: no `Vec<Option<KvTuple>>`, no pool traffic,
//! no per-slot `Key` values. Header fields and slot (key, value) pairs are typed reads
//! over the raw frame bytes, which is how the paper's Tofino pipeline
//! consumes packets (the ASIC never "decodes"; it reads fields in place).
//!
//! The switch's hot ingest path parses a view, aggregates straight out of
//! the slot bytes, and — when a packet is only partially absorbed —
//! rewrites the frame with [`DataPacketView::residual_frame`], which copies
//! the surviving slots and patches the bitmap and CRC in one exact-size
//! buffer. Long-kv and fetch-reply bodies are read entry by entry with
//! [`FrameView::entries`]; every other kind is relayed from its bytes or
//! carries only header fields, so no frame is ever materialized.

use crate::codec::{
    check_envelope_header, crc32, CodecError, CTRL_EPOCH_NOTIFY, CTRL_REGION_DENY,
    CTRL_REGION_GRANT, CTRL_REGION_RELEASE, CTRL_REGION_REQUEST, CTRL_TASK_ANNOUNCE,
    ENVELOPE_HEADER_BYTES, KIND_ACK, KIND_CONTROL, KIND_DATA, KIND_FETCH_REPLY, KIND_FETCH_REQ,
    KIND_FIN, KIND_LONG_KV, KIND_SWAP,
};
use crate::key::{fnv1a, Key, KPART_BYTES};
use crate::packet::{
    AaRegion, AggregateOp, ChannelId, ControlMsg, FetchScope, PacketLayout, SeqNo, TaskId,
};
use bytes::{BufMut, Bytes, BytesMut};

/// Offset of the data-packet bitmap within a frame: envelope header, kind
/// byte, task/channel/seq, and the three declared-layout bytes.
const BITMAP_OFFSET: usize = ENVELOPE_HEADER_BYTES + 1 + 4 + 4 + 8 + 3;

/// Offset of the first slot's bytes within a data frame.
const SLOTS_OFFSET: usize = BITMAP_OFFSET + 16;

#[inline]
fn need(total: usize, pos: usize, n: usize) -> Result<(), CodecError> {
    if total - pos < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

#[inline]
fn rd_u32(b: &[u8], pos: usize) -> u32 {
    u32::from_be_bytes([b[pos], b[pos + 1], b[pos + 2], b[pos + 3]])
}

#[inline]
fn rd_u64(b: &[u8], pos: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[pos..pos + 8]);
    u64::from_be_bytes(w)
}

#[inline]
fn rd_u128(b: &[u8], pos: usize) -> u128 {
    let mut w = [0u8; 16];
    w.copy_from_slice(&b[pos..pos + 16]);
    u128::from_be_bytes(w)
}

/// A validated envelope whose packet body is still raw bytes.
///
/// Produced by [`FrameView::parse`]; the frame buffer is held by reference
/// count, so cloning a view (or the [`DataPacketView`] inside it) never
/// copies frame bytes.
#[derive(Debug, Clone)]
pub struct FrameView {
    bytes: Bytes,
    src: u32,
    dst: u32,
    epoch: u32,
    flags: u8,
    packet: PacketView,
}

/// The kind-discriminated body of a [`FrameView`].
///
/// Small fixed-size packets (acks, fins, control) are decoded outright —
/// they carry no slot payload, so there is nothing to borrow. Data packets
/// stay borrowed as a [`DataPacketView`]; long-kv and fetch-reply bodies
/// are *validated* (every entry length and key checked) and read in place
/// through [`FrameView::entries`].
#[derive(Debug, Clone)]
pub enum PacketView {
    /// A slotted data packet, readable in place.
    Data(DataPacketView),
    /// A long-key bypass packet; entries validated, read in place.
    LongKv {
        /// Aggregation task.
        task: TaskId,
        /// Data channel.
        channel: ChannelId,
        /// Channel sequence number.
        seq: SeqNo,
        /// Number of (key, value) entries in the body.
        entry_count: u32,
    },
    /// Per-channel cumulative acknowledgement.
    Ack {
        /// Acknowledged channel.
        channel: ChannelId,
        /// Acknowledged sequence number.
        seq: SeqNo,
    },
    /// End-of-stream marker.
    Fin {
        /// Aggregation task.
        task: TaskId,
        /// Data channel.
        channel: ChannelId,
        /// Final sequence number.
        seq: SeqNo,
    },
    /// Shadow-copy swap command.
    Swap {
        /// Aggregation task.
        task: TaskId,
    },
    /// Receiver-driven fetch of switch aggregator state.
    FetchRequest {
        /// Aggregation task.
        task: TaskId,
        /// Which aggregators to drain.
        scope: FetchScope,
        /// Fetch sequence number (idempotency token).
        fetch_seq: u32,
    },
    /// Reply to a fetch; entries validated, read in place.
    FetchReply {
        /// Aggregation task.
        task: TaskId,
        /// Echoed fetch sequence number.
        fetch_seq: u32,
        /// Number of (key, value) entries in the body.
        entry_count: u32,
    },
    /// Control-plane message, decoded outright (no payload to borrow).
    Control(ControlMsg),
}

/// A data packet readable directly from frame bytes.
///
/// Header fields are pre-decoded at parse time (they are read on every
/// path); slot bytes stay in place and are walked by
/// [`DataPacketView::slots`]. All slots were validated during
/// [`FrameView::parse`], so accessors never fail.
#[derive(Debug, Clone)]
pub struct DataPacketView {
    bytes: Bytes,
    task: TaskId,
    channel: ChannelId,
    seq: SeqNo,
    short_slots: u8,
    medium_groups: u8,
    medium_segments: u8,
    bitmap: u128,
}

/// One occupied slot of a [`DataPacketView`]: the zero-padded key bytes
/// exactly as stored on the wire (and in the switch's `kPart` registers),
/// plus the value.
#[derive(Debug, Clone, Copy)]
pub struct SlotView<'a> {
    index: usize,
    padded: &'a [u8],
    key_len: usize,
    value: u32,
}

/// Iterator over the occupied slots of a [`DataPacketView`], in slot-index
/// order (the wire order).
#[derive(Debug)]
pub struct SlotViews<'a> {
    view: &'a DataPacketView,
    index: usize,
    offset: usize,
}

/// One `(key, value)` entry of a long-kv or fetch-reply body, read in place
/// from frame bytes. Produced by [`FrameView::entries`]; the bytes were
/// validated during [`FrameView::parse`], so accessors never fail.
#[derive(Debug, Clone, Copy)]
pub struct EntryView<'a> {
    key: &'a [u8],
    value: u32,
}

/// Iterator over the validated entries of a long-kv or fetch-reply body, in
/// wire order. See [`FrameView::entries`].
#[derive(Debug)]
pub struct EntryViews<'a> {
    bytes: &'a [u8],
    offset: usize,
    remaining: u32,
}

impl FrameView {
    /// Parses and fully validates an encoded envelope without materializing
    /// the packet. Accept/reject behavior — including the specific error —
    /// is identical to
    /// [`decode_envelope_pooled`](crate::codec::decode_envelope_pooled).
    ///
    /// # Errors
    ///
    /// The same conditions, in the same order, as
    /// [`decode_envelope_pooled`](crate::codec::decode_envelope_pooled).
    pub fn parse(bytes: Bytes) -> Result<FrameView, CodecError> {
        let h = check_envelope_header(&bytes)?;
        let b: &[u8] = &bytes;
        let total = b.len();
        let mut pos = ENVELOPE_HEADER_BYTES;
        need(total, pos, 1)?;
        let kind = b[pos];
        pos += 1;
        let packet = match kind {
            KIND_DATA => {
                need(total, pos, 4 + 4 + 8 + 3 + 16)?;
                let task = TaskId(rd_u32(b, pos));
                let channel = ChannelId(rd_u32(b, pos + 4));
                let seq = SeqNo(rd_u64(b, pos + 8));
                let short_slots = b[pos + 16] as usize;
                let medium_groups = b[pos + 17] as usize;
                let medium_segments = b[pos + 18] as usize;
                let slots_total = short_slots + medium_groups;
                if slots_total == 0
                    || slots_total > 128
                    || (medium_groups > 0 && medium_segments < 2)
                {
                    return Err(CodecError::BadLayout);
                }
                let bitmap = rd_u128(b, pos + 19);
                if slots_total < 128 && bitmap >> slots_total != 0 {
                    return Err(CodecError::BadLayout);
                }
                pos += 4 + 4 + 8 + 3 + 16;
                for i in 0..slots_total {
                    if bitmap & (1 << i) == 0 {
                        continue;
                    }
                    let width = if i < short_slots {
                        KPART_BYTES
                    } else {
                        KPART_BYTES * medium_segments
                    };
                    need(total, pos, width + 4)?;
                    let raw = &b[pos..pos + width];
                    let key_len = raw.iter().rposition(|&x| x != 0).map_or(0, |p| p + 1);
                    if key_len == 0 {
                        return Err(crate::key::KeyError::Empty.into());
                    }
                    if raw[..key_len].contains(&0) {
                        return Err(crate::key::KeyError::ContainsNul.into());
                    }
                    pos += width + 4;
                }
                PacketView::Data(DataPacketView {
                    bytes: bytes.clone(),
                    task,
                    channel,
                    seq,
                    short_slots: short_slots as u8,
                    medium_groups: medium_groups as u8,
                    medium_segments: medium_segments as u8,
                    bitmap,
                })
            }
            KIND_LONG_KV => {
                need(total, pos, 4 + 4 + 8)?;
                let task = TaskId(rd_u32(b, pos));
                let channel = ChannelId(rd_u32(b, pos + 4));
                let seq = SeqNo(rd_u64(b, pos + 8));
                pos += 16;
                let entry_count = validate_entries(b, total, &mut pos)?;
                PacketView::LongKv {
                    task,
                    channel,
                    seq,
                    entry_count,
                }
            }
            KIND_ACK => {
                need(total, pos, 4 + 8)?;
                let v = PacketView::Ack {
                    channel: ChannelId(rd_u32(b, pos)),
                    seq: SeqNo(rd_u64(b, pos + 4)),
                };
                pos += 12;
                v
            }
            KIND_FIN => {
                need(total, pos, 4 + 4 + 8)?;
                let v = PacketView::Fin {
                    task: TaskId(rd_u32(b, pos)),
                    channel: ChannelId(rd_u32(b, pos + 4)),
                    seq: SeqNo(rd_u64(b, pos + 8)),
                };
                pos += 16;
                v
            }
            KIND_SWAP => {
                need(total, pos, 4)?;
                let v = PacketView::Swap {
                    task: TaskId(rd_u32(b, pos)),
                };
                pos += 4;
                v
            }
            KIND_FETCH_REQ => {
                need(total, pos, 9)?;
                let task = TaskId(rd_u32(b, pos));
                let scope = match b[pos + 4] {
                    0 => FetchScope::Inactive,
                    _ => FetchScope::All,
                };
                let fetch_seq = rd_u32(b, pos + 5);
                pos += 9;
                PacketView::FetchRequest {
                    task,
                    scope,
                    fetch_seq,
                }
            }
            KIND_FETCH_REPLY => {
                need(total, pos, 8)?;
                let task = TaskId(rd_u32(b, pos));
                let fetch_seq = rd_u32(b, pos + 4);
                pos += 8;
                let entry_count = validate_entries(b, total, &mut pos)?;
                PacketView::FetchReply {
                    task,
                    fetch_seq,
                    entry_count,
                }
            }
            KIND_CONTROL => {
                need(total, pos, 1)?;
                let ctrl = b[pos];
                pos += 1;
                let msg = match ctrl {
                    CTRL_REGION_REQUEST => {
                        need(total, pos, 5)?;
                        let m = ControlMsg::RegionRequest {
                            task: TaskId(rd_u32(b, pos)),
                            op: AggregateOp::from_code(b[pos + 4]),
                        };
                        pos += 5;
                        m
                    }
                    CTRL_REGION_GRANT => {
                        need(total, pos, 12)?;
                        let m = ControlMsg::RegionGrant {
                            task: TaskId(rd_u32(b, pos)),
                            region: AaRegion {
                                base: rd_u32(b, pos + 4),
                                aggregators: rd_u32(b, pos + 8),
                            },
                        };
                        pos += 12;
                        m
                    }
                    CTRL_REGION_DENY => {
                        need(total, pos, 4)?;
                        let m = ControlMsg::RegionDeny {
                            task: TaskId(rd_u32(b, pos)),
                        };
                        pos += 4;
                        m
                    }
                    CTRL_REGION_RELEASE => {
                        need(total, pos, 4)?;
                        let m = ControlMsg::RegionRelease {
                            task: TaskId(rd_u32(b, pos)),
                        };
                        pos += 4;
                        m
                    }
                    CTRL_TASK_ANNOUNCE => {
                        need(total, pos, 8)?;
                        let m = ControlMsg::TaskAnnounce {
                            task: TaskId(rd_u32(b, pos)),
                            receiver: rd_u32(b, pos + 4),
                        };
                        pos += 8;
                        m
                    }
                    CTRL_EPOCH_NOTIFY => {
                        need(total, pos, 4)?;
                        let m = ControlMsg::EpochNotify {
                            epoch: rd_u32(b, pos),
                        };
                        pos += 4;
                        m
                    }
                    other => return Err(CodecError::BadControlKind(other)),
                };
                PacketView::Control(msg)
            }
            other => return Err(CodecError::BadKind(other)),
        };
        if pos != total {
            return Err(CodecError::TrailingBytes(total - pos));
        }
        Ok(FrameView {
            bytes,
            src: h.src,
            dst: h.dst,
            epoch: h.epoch,
            flags: h.flags,
            packet,
        })
    }

    /// Originating node index.
    pub fn src(&self) -> u32 {
        self.src
    }

    /// Destination node index.
    pub fn dst(&self) -> u32 {
        self.dst
    }

    /// Switch epoch the frame was stamped with.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Envelope flag bits.
    pub fn flags(&self) -> u8 {
        self.flags
    }

    /// The still-borrowed packet body.
    pub fn packet(&self) -> &PacketView {
        &self.packet
    }

    /// Consumes the view, keeping only the packet body.
    pub fn into_packet(self) -> PacketView {
        self.packet
    }

    /// The underlying frame bytes (envelope header included).
    pub fn frame_bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Iterates the `(key, value)` entries of a long-kv or fetch-reply body
    /// straight off the frame bytes — how the host daemon merges both.
    /// Entries were validated during [`FrameView::parse`]; `None` for packet
    /// kinds that carry no entry list.
    pub fn entries(&self) -> Option<EntryViews<'_>> {
        // Body layout after the envelope header and kind byte:
        // long-kv     task(4) channel(4) seq(8)  count(4) entries…
        // fetch-reply task(4) fetch_seq(4)       count(4) entries…
        let (offset, remaining) = match self.packet {
            PacketView::LongKv { entry_count, .. } => {
                (ENVELOPE_HEADER_BYTES + 1 + 16 + 4, entry_count)
            }
            PacketView::FetchReply { entry_count, .. } => {
                (ENVELOPE_HEADER_BYTES + 1 + 8 + 4, entry_count)
            }
            _ => return None,
        };
        Some(EntryViews {
            bytes: &self.bytes,
            offset,
            remaining,
        })
    }
}

/// Walks a long-kv / fetch-reply entry list, applying exactly the
/// validation the owned decoder applies, without building tuples. Returns
/// the declared entry count.
fn validate_entries(b: &[u8], total: usize, pos: &mut usize) -> Result<u32, CodecError> {
    need(total, *pos, 4)?;
    let count = rd_u32(b, *pos);
    *pos += 4;
    for _ in 0..count {
        need(total, *pos, 2)?;
        let len = u16::from_be_bytes([b[*pos], b[*pos + 1]]) as usize;
        *pos += 2;
        need(total, *pos, len + 4)?;
        let key = &b[*pos..*pos + len];
        if key.is_empty() {
            return Err(crate::key::KeyError::Empty.into());
        }
        if key.contains(&0) {
            return Err(crate::key::KeyError::ContainsNul.into());
        }
        *pos += len + 4;
    }
    Ok(count)
}

impl DataPacketView {
    /// Aggregation task.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Data channel.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Channel sequence number.
    pub fn seq(&self) -> SeqNo {
        self.seq
    }

    /// Occupancy bitmap over logical slots.
    pub fn bitmap(&self) -> u128 {
        self.bitmap
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.bitmap.count_ones() as usize
    }

    /// Declared short-slot count.
    pub fn short_slots(&self) -> usize {
        self.short_slots as usize
    }

    /// Declared medium-group count.
    pub fn medium_groups(&self) -> usize {
        self.medium_groups as usize
    }

    /// Declared aggregator arrays per medium group (`m`).
    pub fn medium_segments(&self) -> usize {
        self.medium_segments as usize
    }

    /// True when the frame's declared slot layout equals `layout` — the
    /// precondition for aggregating in place (slot `i` addresses aggregator
    /// array `i`).
    pub fn matches_layout(&self, layout: &PacketLayout) -> bool {
        self.short_slots as usize == layout.short_slots()
            && self.medium_groups as usize == layout.medium_groups()
            && (self.medium_groups == 0
                || self.medium_segments as usize == layout.medium_segments())
    }

    /// Wire width (bytes) of logical slot `i`'s key field.
    fn slot_key_width(&self, i: usize) -> usize {
        if i < self.short_slots as usize {
            KPART_BYTES
        } else {
            KPART_BYTES * self.medium_segments as usize
        }
    }

    /// Iterates the occupied slots in slot-index order.
    pub fn slots(&self) -> SlotViews<'_> {
        SlotViews {
            view: self,
            index: 0,
            offset: SLOTS_OFFSET,
        }
    }

    /// Re-frames this packet keeping only the slots in `residual`,
    /// copying header and surviving slot bytes verbatim and patching the
    /// bitmap and CRC — the view path's partial-absorb rewrite. When the
    /// declared layout matches the encoder's, the result is byte-identical
    /// to decoding, clearing the absorbed slots, and re-encoding.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `residual` only keeps slots this packet carries.
    pub fn residual_frame(&self, residual: u128) -> Bytes {
        debug_assert_eq!(residual & !self.bitmap, 0, "residual must shrink the bitmap");
        let slot_count = self.short_slots as usize + self.medium_groups as usize;
        let mut size = SLOTS_OFFSET;
        for i in 0..slot_count {
            if residual & (1 << i) != 0 {
                size += self.slot_key_width(i) + 4;
            }
        }
        let mut buf = BytesMut::with_capacity(size);
        buf.put_u32(0); // checksum placeholder
        buf.put_slice(&self.bytes[4..BITMAP_OFFSET]);
        buf.put_u128(residual);
        let mut offset = SLOTS_OFFSET;
        for i in 0..slot_count {
            if self.bitmap & (1 << i) == 0 {
                continue;
            }
            let w = self.slot_key_width(i) + 4;
            if residual & (1 << i) != 0 {
                buf.put_slice(&self.bytes[offset..offset + w]);
            }
            offset += w;
        }
        let sum = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&sum.to_be_bytes());
        buf.freeze()
    }
}

impl<'a> Iterator for SlotViews<'a> {
    type Item = SlotView<'a>;

    fn next(&mut self) -> Option<SlotView<'a>> {
        let v = self.view;
        let slot_count = v.short_slots as usize + v.medium_groups as usize;
        while self.index < slot_count {
            let i = self.index;
            self.index += 1;
            if v.bitmap & (1 << i) == 0 {
                continue;
            }
            let width = v.slot_key_width(i);
            let padded = &v.bytes[self.offset..self.offset + width];
            let value = rd_u32(&v.bytes, self.offset + width);
            self.offset += width + 4;
            let key_len = padded.iter().rposition(|&x| x != 0).map_or(0, |p| p + 1);
            return Some(SlotView {
                index: i,
                padded,
                key_len,
                value,
            });
        }
        None
    }
}

impl SlotView<'_> {
    /// Logical slot index in the packet.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The key bytes zero-padded to the slot width, exactly as on the wire.
    pub fn padded(&self) -> &[u8] {
        self.padded
    }

    /// Length of the key without padding.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// The key bytes without padding — exactly [`Key::as_bytes`] of the
    /// materialized key.
    pub fn key_bytes(&self) -> &'_ [u8] {
        &self.padded[..self.key_len]
    }

    /// The slot's value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The key's stable 64-bit hash — identical to
    /// [`Key::hash64`] of the materialized key, computed without building
    /// a `Key`.
    pub fn hash64(&self) -> u64 {
        fnv1a(&self.padded[..self.key_len])
    }

    /// Packed `kPart` segment `j`, read straight from the padded wire
    /// bytes — identical to [`Key::segment`] of the materialized key.
    pub fn segment(&self, j: usize) -> u32 {
        rd_u32(self.padded, j * KPART_BYTES)
    }

    /// Materializes the key (tests and reference models).
    pub fn key(&self) -> Key {
        Key::from_validated_slice(&self.padded[..self.key_len])
    }
}

impl<'a> Iterator for EntryViews<'a> {
    type Item = EntryView<'a>;

    fn next(&mut self) -> Option<EntryView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let b = self.bytes;
        let len = u16::from_be_bytes([b[self.offset], b[self.offset + 1]]) as usize;
        let key = &b[self.offset + 2..self.offset + 2 + len];
        let value = rd_u32(b, self.offset + 2 + len);
        self.offset += 2 + len + 4;
        Some(EntryView { key, value })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for EntryViews<'_> {}

impl<'a> EntryView<'a> {
    /// The entry's key bytes, exactly as on the wire (no padding).
    pub fn key_bytes(&self) -> &'a [u8] {
        self.key
    }

    /// The entry's value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The key's stable 64-bit hash — identical to [`Key::hash64`] of the
    /// materialized key.
    pub fn hash64(&self) -> u64 {
        fnv1a(self.key)
    }

    /// Materializes the key (tests and reference models).
    pub fn key(&self) -> Key {
        Key::from_validated_slice(self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_envelope_pooled, encode_envelope_parts, Envelope};
    use crate::packet::{AskPacket, DataPacket, KvTuple};
    use crate::pool::PacketPool;
    use std::sync::Arc;

    fn kv(s: &str, v: u32) -> KvTuple {
        KvTuple::new(Key::from_str(s).unwrap(), v)
    }

    fn decode(bytes: Bytes) -> Result<Envelope, CodecError> {
        decode_envelope_pooled(bytes, &mut PacketPool::new())
    }

    /// The owned envelope a view's field reads describe, built from its
    /// accessors alone.
    fn read_back(view: &FrameView) -> Envelope {
        let entries = || -> Vec<KvTuple> {
            let it = view.entries().expect("entry-bearing kind");
            it.map(|e| KvTuple::new(e.key(), e.value())).collect()
        };
        let packet = match view.packet().clone() {
            PacketView::Data(d) => {
                let mut slots = vec![None; d.short_slots() + d.medium_groups()];
                for s in d.slots() {
                    slots[s.index()] = Some(KvTuple::new(s.key(), s.value()));
                }
                AskPacket::Data(DataPacket {
                    task: d.task(),
                    channel: d.channel(),
                    seq: d.seq(),
                    slots,
                })
            }
            PacketView::LongKv {
                task,
                channel,
                seq,
                ..
            } => AskPacket::LongKv {
                task,
                channel,
                seq,
                entries: entries(),
            },
            PacketView::Ack { channel, seq } => AskPacket::Ack { channel, seq },
            PacketView::Fin { task, channel, seq } => AskPacket::Fin { task, channel, seq },
            PacketView::Swap { task } => AskPacket::Swap { task },
            PacketView::FetchRequest {
                task,
                scope,
                fetch_seq,
            } => AskPacket::FetchRequest {
                task,
                scope,
                fetch_seq,
            },
            PacketView::FetchReply {
                task, fetch_seq, ..
            } => AskPacket::FetchReply {
                task,
                fetch_seq,
                entries: Arc::new(entries()),
            },
            PacketView::Control(msg) => AskPacket::Control(msg),
        };
        Envelope {
            src: view.src(),
            dst: view.dst(),
            epoch: view.epoch(),
            flags: view.flags(),
            packet,
        }
    }

    fn sample_data(layout: &PacketLayout) -> AskPacket {
        let mut slots = vec![None; layout.slot_count()];
        slots[0] = Some(kv("ab", 7));
        slots[2] = Some(kv("wxyz", 1));
        if layout.medium_groups() > 0 {
            slots[layout.short_slots()] = Some(kv("mediumk", 42));
        }
        AskPacket::Data(DataPacket {
            task: TaskId(5),
            channel: ChannelId(2),
            seq: SeqNo(99),
            slots,
        })
    }

    #[test]
    fn view_reads_every_data_field() {
        let layout = PacketLayout::paper_default();
        let pkt = sample_data(&layout);
        let bytes = encode_envelope_parts(3, 9, 4, 0, &pkt, &layout);
        let view = FrameView::parse(bytes).unwrap();
        assert_eq!((view.src(), view.dst(), view.epoch(), view.flags()), (3, 9, 4, 0));
        let PacketView::Data(d) = view.packet() else {
            panic!("expected data view");
        };
        let AskPacket::Data(ref p) = pkt else {
            unreachable!()
        };
        assert_eq!(d.task(), p.task);
        assert_eq!(d.channel(), p.channel);
        assert_eq!(d.seq(), p.seq);
        assert_eq!(d.bitmap(), p.bitmap());
        assert!(d.matches_layout(&layout));
        let got: Vec<(usize, Key, u32)> =
            d.slots().map(|s| (s.index(), s.key(), s.value())).collect();
        let want: Vec<(usize, Key, u32)> = p
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (i, t.key.clone(), t.value)))
            .collect();
        assert_eq!(got, want);
        for s in d.slots() {
            assert_eq!(s.hash64(), s.key().hash64());
            for j in 0..s.padded().len() / KPART_BYTES {
                assert_eq!(s.segment(j), s.key().segment(j));
            }
        }
    }

    #[test]
    fn nondata_kinds_agree_with_decode() {
        let layout = PacketLayout::paper_default();
        let packets = vec![
            AskPacket::LongKv {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
                entries: vec![kv("a-very-long-key-beyond-eight", 5)],
            },
            AskPacket::Ack {
                channel: ChannelId(1),
                seq: SeqNo(2),
            },
            AskPacket::Fin {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
            },
            AskPacket::Swap { task: TaskId(9) },
            AskPacket::FetchRequest {
                task: TaskId(4),
                scope: FetchScope::All,
                fetch_seq: 2,
            },
            AskPacket::FetchReply {
                task: TaskId(1),
                fetch_seq: 3,
                entries: Arc::new(vec![kv("x", 1)]),
            },
            AskPacket::Control(ControlMsg::EpochNotify { epoch: 42 }),
        ];
        for p in packets {
            let bytes = encode_envelope_parts(1, 0, 0, 0, &p, &layout);
            let view = FrameView::parse(bytes.clone()).unwrap();
            assert_eq!(read_back(&view), decode(bytes).unwrap());
        }
    }

    #[test]
    fn entry_views_match_materialized_entries() {
        let layout = PacketLayout::paper_default();
        let entries = vec![
            kv("a", 1),
            kv("a-very-long-key-beyond-the-inline-cap-entirely", 7),
            kv("mid", u32::MAX),
        ];
        let packets = vec![
            AskPacket::LongKv {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
                entries: entries.clone(),
            },
            AskPacket::FetchReply {
                task: TaskId(4),
                fetch_seq: 5,
                entries: Arc::new(entries.clone()),
            },
        ];
        for p in packets {
            let bytes = encode_envelope_parts(1, 0, 0, 0, &p, &layout);
            let view = FrameView::parse(bytes).unwrap();
            let it = view.entries().expect("entry-bearing packet");
            assert_eq!(it.len(), entries.len());
            for (e, want) in it.zip(entries.iter()) {
                assert_eq!(e.key_bytes(), want.key.as_bytes());
                assert_eq!(e.value(), want.value);
                assert_eq!(e.hash64(), want.key.hash64());
                assert_eq!(e.key(), want.key);
            }
        }
        // Entry-less kinds expose no iterator.
        let ack = AskPacket::Ack {
            channel: ChannelId(1),
            seq: SeqNo(2),
        };
        let bytes = encode_envelope_parts(1, 0, 0, 0, &ack, &layout);
        assert!(FrameView::parse(bytes).unwrap().entries().is_none());
    }

    #[test]
    fn corrupt_and_truncated_frames_agree_with_decode() {
        let layout = PacketLayout::paper_default();
        let pkt = sample_data(&layout);
        let bytes = encode_envelope_parts(1, 2, 0, 0, &pkt, &layout);
        for cut in 0..bytes.len() {
            let a = FrameView::parse(bytes.slice(0..cut)).map(|v| read_back(&v));
            let b = decode(bytes.slice(0..cut));
            assert_eq!(a, b, "cut at {cut}");
        }
        for byte_ix in 0..bytes.len() {
            let mut v = bytes.to_vec();
            v[byte_ix] ^= 0x40;
            let flipped = Bytes::from(v);
            let a = FrameView::parse(flipped.clone()).map(|w| read_back(&w));
            let b = decode(flipped);
            assert_eq!(a, b, "flip at {byte_ix}");
        }
    }
}
