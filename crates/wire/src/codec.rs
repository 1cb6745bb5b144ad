//! The wire format of every frame, written and read two ways.
//!
//! Every kind has exactly one body writer, which writes the frame straight
//! into the bytes it travels in: [`FrameWriter`] for the variable-size data,
//! long-kv and fetch-reply frames, and [`ack_frame`], [`fin_frame`],
//! [`swap_frame`], [`fetch_request_frame`] and [`control_frame`] for the
//! fixed-size ones, written on the stack. Hosts and the switch send through
//! these writers and read frames in place with
//! [`FrameView`](crate::view::FrameView). Beside them sits the owned
//! reference model: [`encode_envelope_parts`], the one encoder of an
//! [`AskPacket`] (it hands every kind to its writer), and
//! [`decode_envelope_pooled`], the one decoder back to an owned
//! [`Envelope`]. Writers and views are checked against that model.
//!
//! The encoding is compact enough that the serialized size never exceeds the
//! *nominal* wire size used for bandwidth accounting
//! ([`AskPacket::wire_bytes`]), so frames can carry real bytes while the
//! simulator charges the paper's 78-byte overhead model.
//!
//! Short and medium slots are encoded as fixed-width zero-padded key
//! segments (exactly what the switch's `kPart` registers store), which is
//! reversible because [`Key`]s never contain NUL bytes.

use crate::key::{Key, KeyError, KPART_BYTES};
use crate::packet::{
    AaRegion, AggregateOp, AskPacket, ChannelId, ControlMsg, DataPacket, FetchScope, KvTuple,
    PacketLayout, SeqNo, TaskId,
};
use crate::pool::PacketPool;
use bytes::{Buf, Bytes};
use core::fmt;

pub(crate) const KIND_DATA: u8 = 0;
pub(crate) const KIND_LONG_KV: u8 = 1;
pub(crate) const KIND_ACK: u8 = 2;
pub(crate) const KIND_FIN: u8 = 3;
pub(crate) const KIND_SWAP: u8 = 4;
pub(crate) const KIND_FETCH_REQ: u8 = 5;
pub(crate) const KIND_FETCH_REPLY: u8 = 6;
pub(crate) const KIND_CONTROL: u8 = 7;

pub(crate) const CTRL_REGION_REQUEST: u8 = 0;
pub(crate) const CTRL_REGION_GRANT: u8 = 1;
pub(crate) const CTRL_REGION_DENY: u8 = 2;
pub(crate) const CTRL_REGION_RELEASE: u8 = 3;
pub(crate) const CTRL_TASK_ANNOUNCE: u8 = 4;
pub(crate) const CTRL_EPOCH_NOTIFY: u8 = 5;

/// Envelope header length: checksum, source, destination, epoch, and a
/// reserved flags byte that every writer sets to 0.
pub const ENVELOPE_HEADER_BYTES: usize = 4 + 4 + 4 + 4 + 1;

/// Error decoding a byte buffer into an [`AskPacket`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the packet was complete.
    Truncated,
    /// The envelope checksum did not match — the frame was corrupted in
    /// transit and must be treated as lost.
    ChecksumMismatch,
    /// Unknown packet kind byte.
    BadKind(u8),
    /// Unknown control-message kind byte.
    BadControlKind(u8),
    /// A decoded key failed validation.
    BadKey(KeyError),
    /// Bytes remained after a complete packet.
    TrailingBytes(usize),
    /// A data packet declared an impossible slot layout.
    BadLayout,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "packet truncated"),
            CodecError::ChecksumMismatch => write!(f, "envelope checksum mismatch"),
            CodecError::BadKind(k) => write!(f, "unknown packet kind {k}"),
            CodecError::BadControlKind(k) => write!(f, "unknown control kind {k}"),
            CodecError::BadKey(e) => write!(f, "invalid key: {e}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after packet"),
            CodecError::BadLayout => write!(f, "invalid slot layout in data packet"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::BadKey(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<KeyError> for CodecError {
    fn from(e: KeyError) -> Self {
        CodecError::BadKey(e)
    }
}

/// Serialized bytes of an entry list (`u16 len · key · u32 value` each),
/// the body of a long-kv or fetch-reply frame behind its entry count.
fn entries_len(entries: &[KvTuple]) -> usize {
    entries.iter().map(|t| 2 + t.key.len() + 4).sum()
}

fn put_entries(frame: &mut FrameWriter, entries: &[KvTuple]) {
    for t in entries {
        frame.put(&(t.key.len() as u16).to_be_bytes());
        frame.put(t.key.as_bytes());
        frame.put(&t.value.to_be_bytes());
    }
}

/// Serializes an addressed packet, checksummed: a CRC-32 over everything
/// behind it, so in-transit corruption is detected at the next hop and the
/// frame is treated as lost (recovered by retransmission).
///
/// Every kind is handed to its one body writer — [`FrameWriter`],
/// [`ack_frame`], [`fin_frame`], [`swap_frame`], [`fetch_request_frame`]
/// and [`control_frame`] — the very writers the hosts and the switch send
/// through, so the model and the datapath share one body layout per kind.
/// The writers leave the reserved flags byte 0; a nonzero `flags` is
/// patched in afterwards, so the reference codec round-trips whatever the
/// byte holds.
///
/// # Panics
///
/// Panics if a [`DataPacket`]'s slot vector length differs from
/// `layout.slot_count()`, or a slot carries a key wider than its slot.
pub fn encode_envelope_parts(
    src: u32,
    dst: u32,
    epoch: u32,
    flags: u8,
    packet: &AskPacket,
    layout: &PacketLayout,
) -> Bytes {
    let header = |task, channel, seq| SendHeader {
        src,
        dst,
        epoch,
        task,
        channel,
        seq,
    };
    let frame = match packet {
        AskPacket::Data(d) => {
            assert_eq!(
                d.slots.len(),
                layout.slot_count(),
                "slot vector must match layout"
            );
            let slot_width = |i| {
                if layout.is_short_slot(i) {
                    KPART_BYTES
                } else {
                    layout.medium_max_key_len()
                }
            };
            let body_len = (0..d.slots.len())
                .filter(|&i| d.slots[i].is_some())
                .map(|i| slot_width(i) + 4)
                .sum();
            let h = header(d.task, d.channel, d.seq);
            let mut frame = FrameWriter::data(&h, layout, d.bitmap(), body_len);
            for (i, slot) in d.slots.iter().enumerate() {
                let Some(t) = slot else { continue };
                let width = slot_width(i);
                assert!(
                    t.key.len() <= width,
                    "key {} too long for slot {i} (width {width})",
                    t.key
                );
                frame.put(t.key.as_bytes());
                frame.pad(width - t.key.len());
                frame.put(&t.value.to_be_bytes());
            }
            frame.finish()
        }
        AskPacket::LongKv {
            task,
            channel,
            seq,
            entries,
        } => {
            let h = header(*task, *channel, *seq);
            let count = entries.len() as u32;
            let mut frame = FrameWriter::long_kv(&h, count, entries_len(entries));
            put_entries(&mut frame, entries);
            frame.finish()
        }
        AskPacket::Ack { channel, seq } => ack_frame(src, dst, epoch, *channel, *seq),
        AskPacket::Fin { task, channel, seq } => fin_frame(&header(*task, *channel, *seq)),
        AskPacket::Swap { task } => swap_frame(src, dst, epoch, *task),
        AskPacket::FetchRequest {
            task,
            scope,
            fetch_seq,
        } => fetch_request_frame(src, dst, epoch, *task, *scope, *fetch_seq),
        AskPacket::FetchReply {
            task,
            fetch_seq,
            entries,
        } => {
            let count = entries.len() as u32;
            let body_len = entries_len(entries);
            let mut frame =
                FrameWriter::fetch_reply(src, dst, epoch, *task, *fetch_seq, count, body_len);
            put_entries(&mut frame, entries);
            frame.finish()
        }
        AskPacket::Control(msg) => control_frame(src, dst, epoch, msg),
    };
    if flags == 0 {
        frame
    } else {
        reflag(&frame, flags)
    }
}

/// An [`AskPacket`] wrapped with source/destination addressing, the unit a
/// host actually puts on the wire. The addresses stand in for the IP header
/// the paper's packets carry ("the sender streams the packets to the
/// receiver with the task ID and the destination IP address in the packet",
/// §3.1); they are raw simulator node indices here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Originating node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Switch epoch the frame was stamped with. Bumped by every
    /// switch crash-restart; frames from an older epoch are stale and must
    /// be dropped, not processed (their reliability state died with the
    /// crash). `0` is the boot epoch, so crash-free runs never see a
    /// mismatch.
    pub epoch: u32,
    /// The reserved flags byte (0 from every writer).
    pub flags: u8,
    /// The carried packet.
    pub packet: AskPacket,
}

/// Lookup tables for slice-by-8 CRC-32: `CRC32_TABLES[0]` is the classic
/// byte-at-a-time table for the reflected IEEE 802.3 polynomial; table `t`
/// advances a byte through `t` additional zero bytes, letting eight input
/// bytes fold into the CRC per step.
const CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial) over a byte slice — the envelope's
/// integrity check, standing in for the Ethernet FCS the simulator's
/// framing-overhead constant already accounts for. Slice-by-8 table
/// lookup; identical values to the bitwise definition.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = CRC32_TABLES[7][(lo & 0xff) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xff) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// What every frame a sender's data channel builds starts with: the
/// envelope addressing and the reliability header (`task · channel · seq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendHeader {
    /// Originating node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Switch epoch the frame is stamped with.
    pub epoch: u32,
    /// The aggregation task.
    pub task: TaskId,
    /// The sending data channel.
    pub channel: ChannelId,
    /// Per-channel sequence number.
    pub seq: SeqNo,
}

/// Serialized size of a data packet's fixed header: kind, task, channel,
/// seq, the three declared-layout bytes and the slot bitmap.
const DATA_HEADER_BYTES: usize = 1 + 4 + 4 + 8 + 3 + 16;

/// Serialized size of a long-kv packet's fixed header: kind, task, channel,
/// seq and the entry count.
const LONG_KV_HEADER_BYTES: usize = 1 + 4 + 4 + 8 + 4;

/// Serialized size of a fetch reply's fixed header: kind, task, fetch
/// sequence and the entry count.
const FETCH_REPLY_HEADER_BYTES: usize = 1 + 4 + 4 + 4;

fn put_envelope(buf: &mut Vec<u8>, kind: u8, src: u32, dst: u32, epoch: u32) {
    buf.extend_from_slice(&[0; 4]); // checksum placeholder
    buf.extend_from_slice(&src.to_be_bytes());
    buf.extend_from_slice(&dst.to_be_bytes());
    buf.extend_from_slice(&epoch.to_be_bytes());
    buf.push(0); // reserved flags
    buf.push(kind);
}

fn put_send_header(buf: &mut Vec<u8>, kind: u8, h: &SendHeader) {
    put_envelope(buf, kind, h.src, h.dst, h.epoch);
    buf.extend_from_slice(&h.task.0.to_be_bytes());
    buf.extend_from_slice(&h.channel.0.to_be_bytes());
    buf.extend_from_slice(&h.seq.0.to_be_bytes());
}

/// Checksums everything behind the placeholder and patches it in.
fn seal(frame: &mut [u8]) {
    let sum = crc32(&frame[4..]);
    frame[..4].copy_from_slice(&sum.to_be_bytes());
}

/// Writes a data, long-kv or fetch-reply frame once, from body bytes that
/// are already in wire form, straight into the buffer the frame keeps:
/// headers, then one [`FrameWriter::put`] per body piece, then the
/// checksum. It is the one body writer of these kinds: the send path, the
/// switch and [`encode_envelope_parts`] alike write through it.
#[derive(Debug)]
pub struct FrameWriter {
    buf: Vec<u8>,
    size: usize,
}

impl FrameWriter {
    /// Starts a data frame whose occupied slots are `bitmap` and whose slot
    /// records — for each set bit in ascending order, the key zero-padded
    /// to the slot's width followed by the big-endian value — total
    /// `body_len` bytes.
    pub fn data(h: &SendHeader, layout: &PacketLayout, bitmap: u128, body_len: usize) -> Self {
        let size = ENVELOPE_HEADER_BYTES + DATA_HEADER_BYTES + body_len;
        let mut buf = Vec::with_capacity(size);
        put_send_header(&mut buf, KIND_DATA, h);
        buf.extend_from_slice(&[
            layout.short_slots() as u8,
            layout.medium_groups() as u8,
            layout.medium_segments() as u8,
        ]);
        buf.extend_from_slice(&bitmap.to_be_bytes());
        FrameWriter { buf, size }
    }

    /// Starts a long-kv frame of `count` entries, serialized as
    /// `u16 len · key · u32 value` each and `body_len` bytes in total.
    pub fn long_kv(h: &SendHeader, count: u32, body_len: usize) -> Self {
        let size = ENVELOPE_HEADER_BYTES + LONG_KV_HEADER_BYTES + body_len;
        let mut buf = Vec::with_capacity(size);
        put_send_header(&mut buf, KIND_LONG_KV, h);
        buf.extend_from_slice(&count.to_be_bytes());
        FrameWriter { buf, size }
    }

    /// Starts a fetch reply of `count` entries, serialized as
    /// `u16 len · key · u32 value` each and `body_len` bytes in total.
    pub fn fetch_reply(
        src: u32,
        dst: u32,
        epoch: u32,
        task: TaskId,
        fetch_seq: u32,
        count: u32,
        body_len: usize,
    ) -> Self {
        let size = ENVELOPE_HEADER_BYTES + FETCH_REPLY_HEADER_BYTES + body_len;
        let mut buf = Vec::with_capacity(size);
        put_envelope(&mut buf, KIND_FETCH_REPLY, src, dst, epoch);
        buf.extend_from_slice(&task.0.to_be_bytes());
        buf.extend_from_slice(&fetch_seq.to_be_bytes());
        buf.extend_from_slice(&count.to_be_bytes());
        FrameWriter { buf, size }
    }

    /// Appends body bytes.
    #[inline]
    pub fn put(&mut self, body: &[u8]) {
        self.buf.extend_from_slice(body);
    }

    /// Appends `n` zero bytes: the padding behind an owned slot's key.
    fn pad(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Checksums the frame and freezes it; the buffer was sized exactly, so
    /// nothing is copied or reallocated.
    ///
    /// # Panics
    ///
    /// Panics if the body written is not the `body_len` announced.
    pub fn finish(mut self) -> Bytes {
        assert_eq!(self.buf.len(), self.size, "frame body size mismatch");
        seal(&mut self.buf);
        Bytes::from(self.buf)
    }
}

/// Writes source, destination and epoch into a zeroed fixed-size frame
/// (checksum and flags stay zero).
fn stamp_addressing(frame: &mut [u8], src: u32, dst: u32, epoch: u32) {
    frame[4..8].copy_from_slice(&src.to_be_bytes());
    frame[8..12].copy_from_slice(&dst.to_be_bytes());
    frame[12..16].copy_from_slice(&epoch.to_be_bytes());
}

/// An ACK frame, written on the stack and copied out once.
pub fn ack_frame(src: u32, dst: u32, epoch: u32, channel: ChannelId, seq: SeqNo) -> Bytes {
    let mut f = [0u8; ENVELOPE_HEADER_BYTES + 1 + 4 + 8];
    stamp_addressing(&mut f, src, dst, epoch);
    f[17] = KIND_ACK;
    f[18..22].copy_from_slice(&channel.0.to_be_bytes());
    f[22..30].copy_from_slice(&seq.0.to_be_bytes());
    seal(&mut f);
    Bytes::copy_from_slice(&f)
}

/// A FIN frame, written on the stack and copied out once.
pub fn fin_frame(h: &SendHeader) -> Bytes {
    let mut f = [0u8; ENVELOPE_HEADER_BYTES + 1 + 4 + 4 + 8];
    stamp_addressing(&mut f, h.src, h.dst, h.epoch);
    f[17] = KIND_FIN;
    f[18..22].copy_from_slice(&h.task.0.to_be_bytes());
    f[22..26].copy_from_slice(&h.channel.0.to_be_bytes());
    f[26..34].copy_from_slice(&h.seq.0.to_be_bytes());
    seal(&mut f);
    Bytes::copy_from_slice(&f)
}

/// A swap frame, written on the stack and copied out once.
pub fn swap_frame(src: u32, dst: u32, epoch: u32, task: TaskId) -> Bytes {
    let mut f = [0u8; ENVELOPE_HEADER_BYTES + 1 + 4];
    stamp_addressing(&mut f, src, dst, epoch);
    f[17] = KIND_SWAP;
    f[18..22].copy_from_slice(&task.0.to_be_bytes());
    seal(&mut f);
    Bytes::copy_from_slice(&f)
}

/// A fetch request, written on the stack and copied out once.
pub fn fetch_request_frame(
    src: u32,
    dst: u32,
    epoch: u32,
    task: TaskId,
    scope: FetchScope,
    fetch_seq: u32,
) -> Bytes {
    let mut f = [0u8; ENVELOPE_HEADER_BYTES + 1 + 4 + 1 + 4];
    stamp_addressing(&mut f, src, dst, epoch);
    f[17] = KIND_FETCH_REQ;
    f[18..22].copy_from_slice(&task.0.to_be_bytes());
    f[22] = match scope {
        FetchScope::Inactive => 0,
        FetchScope::All => 1,
    };
    f[23..27].copy_from_slice(&fetch_seq.to_be_bytes());
    seal(&mut f);
    Bytes::copy_from_slice(&f)
}

/// A control frame, written on the stack and copied out once. Every
/// message is a sub-kind byte and a 32-bit word (a task id, or the epoch of
/// a [`ControlMsg::EpochNotify`]), then 0, 1, 4 or 8 bytes more.
pub fn control_frame(src: u32, dst: u32, epoch: u32, msg: &ControlMsg) -> Bytes {
    let mut f = [0u8; ENVELOPE_HEADER_BYTES + 2 + 4 + 8];
    stamp_addressing(&mut f, src, dst, epoch);
    f[17] = KIND_CONTROL;
    let (ctrl, word, tail) = match *msg {
        ControlMsg::RegionRequest { task, op } => {
            f[23] = op.to_code();
            (CTRL_REGION_REQUEST, task.0, 1)
        }
        ControlMsg::RegionGrant { task, region } => {
            f[23..27].copy_from_slice(&region.base.to_be_bytes());
            f[27..31].copy_from_slice(&region.aggregators.to_be_bytes());
            (CTRL_REGION_GRANT, task.0, 8)
        }
        ControlMsg::RegionDeny { task } => (CTRL_REGION_DENY, task.0, 0),
        ControlMsg::RegionRelease { task } => (CTRL_REGION_RELEASE, task.0, 0),
        ControlMsg::TaskAnnounce { task, receiver } => {
            f[23..27].copy_from_slice(&receiver.to_be_bytes());
            (CTRL_TASK_ANNOUNCE, task.0, 4)
        }
        ControlMsg::EpochNotify { epoch } => (CTRL_EPOCH_NOTIFY, epoch, 0),
    };
    f[18] = ctrl;
    f[19..23].copy_from_slice(&word.to_be_bytes());
    let frame = &mut f[..23 + tail];
    seal(frame);
    Bytes::copy_from_slice(frame)
}

/// A copy of an encoded frame with its flags byte set to `flags` and the
/// checksum redone.
fn reflag(frame: &[u8], flags: u8) -> Bytes {
    let mut out = frame.to_vec();
    out[ENVELOPE_HEADER_BYTES - 1] = flags;
    seal(&mut out);
    Bytes::from(out)
}

/// The addressing fields of a validated envelope header — the single
/// checksum-and-header pass shared by [`decode_envelope_pooled`] and
/// [`crate::view::FrameView::parse`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnvelopeHeader {
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) epoch: u32,
    pub(crate) flags: u8,
}

/// Verifies the envelope checksum and reads the addressing header.
pub(crate) fn check_envelope_header(bytes: &[u8]) -> Result<EnvelopeHeader, CodecError> {
    if bytes.len() < ENVELOPE_HEADER_BYTES {
        return Err(CodecError::Truncated);
    }
    let expected = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if crc32(&bytes[4..]) != expected {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(EnvelopeHeader {
        src: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        dst: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        epoch: u32::from_be_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
        flags: bytes[16],
    })
}

/// Deserializes an addressed packet, verifying the integrity checksum
/// first — the one owned decoder. Slot and tuple vectors are drawn from
/// `pool`; vectors taken for a packet that later fails to decode are
/// dropped, not returned.
///
/// # Errors
///
/// [`CodecError::ChecksumMismatch`] for corrupted frames; otherwise
/// [`CodecError`] on truncation, unknown kinds, invalid keys, an impossible
/// declared layout, or trailing bytes.
pub fn decode_envelope_pooled(bytes: Bytes, pool: &mut PacketPool) -> Result<Envelope, CodecError> {
    let h = check_envelope_header(&bytes)?;
    let mut body = bytes.slice(ENVELOPE_HEADER_BYTES..);
    let packet = decode_body(&mut body, pool)?;
    if !body.is_empty() {
        return Err(CodecError::TrailingBytes(body.len()));
    }
    Ok(Envelope {
        src: h.src,
        dst: h.dst,
        epoch: h.epoch,
        flags: h.flags,
        packet,
    })
}

fn need(buf: &Bytes, n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

/// Reads one packet body off `buf`, drawing slot and tuple vectors from
/// `pool`.
fn decode_body(buf: &mut Bytes, pool: &mut PacketPool) -> Result<AskPacket, CodecError> {
    need(buf, 1)?;
    let kind = buf.get_u8();
    match kind {
        KIND_DATA => {
            need(buf, 4 + 4 + 8 + 3 + 16)?;
            let task = TaskId(buf.get_u32());
            let channel = ChannelId(buf.get_u32());
            let seq = SeqNo(buf.get_u64());
            let short_slots = buf.get_u8() as usize;
            let medium_groups = buf.get_u8() as usize;
            let medium_segments = buf.get_u8() as usize;
            let slots_total = short_slots + medium_groups;
            if slots_total == 0 || slots_total > 128 || (medium_groups > 0 && medium_segments < 2) {
                return Err(CodecError::BadLayout);
            }
            let layout = PacketLayout::custom(short_slots, medium_groups, medium_segments);
            let bitmap = buf.get_u128();
            if slots_total < 128 && bitmap >> slots_total != 0 {
                return Err(CodecError::BadLayout);
            }
            let mut slots = pool.take_slots(slots_total);
            for i in 0..slots_total {
                if bitmap & (1 << i) == 0 {
                    slots.push(None);
                    continue;
                }
                let width = if layout.is_short_slot(i) {
                    KPART_BYTES
                } else {
                    layout.medium_max_key_len()
                };
                need(buf, width + 4)?;
                // Scan the padded segment through the plain byte view first,
                // then borrow the key bytes from the input buffer with a
                // single O(1) slice of the shared backing storage — no
                // per-slot allocation and only one refcount touch.
                let raw = &buf[..width];
                let key_len = raw.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
                if key_len == 0 {
                    return Err(KeyError::Empty.into());
                }
                if raw[..key_len].contains(&0) {
                    return Err(KeyError::ContainsNul.into());
                }
                let key = Key::from_validated_slice(&raw[..key_len]);
                buf.advance(width);
                let value = buf.get_u32();
                slots.push(Some(KvTuple::new(key, value)));
            }
            Ok(AskPacket::Data(DataPacket {
                task,
                channel,
                seq,
                slots,
            }))
        }
        KIND_LONG_KV => {
            need(buf, 4 + 4 + 8)?;
            let task = TaskId(buf.get_u32());
            let channel = ChannelId(buf.get_u32());
            let seq = SeqNo(buf.get_u64());
            let entries = get_entries(buf, pool)?;
            Ok(AskPacket::LongKv {
                task,
                channel,
                seq,
                entries,
            })
        }
        KIND_ACK => {
            need(buf, 4 + 8)?;
            Ok(AskPacket::Ack {
                channel: ChannelId(buf.get_u32()),
                seq: SeqNo(buf.get_u64()),
            })
        }
        KIND_FIN => {
            need(buf, 4 + 4 + 8)?;
            Ok(AskPacket::Fin {
                task: TaskId(buf.get_u32()),
                channel: ChannelId(buf.get_u32()),
                seq: SeqNo(buf.get_u64()),
            })
        }
        KIND_SWAP => {
            need(buf, 4)?;
            Ok(AskPacket::Swap {
                task: TaskId(buf.get_u32()),
            })
        }
        KIND_FETCH_REQ => {
            need(buf, 9)?;
            let task = TaskId(buf.get_u32());
            let scope = match buf.get_u8() {
                0 => FetchScope::Inactive,
                _ => FetchScope::All,
            };
            let fetch_seq = buf.get_u32();
            Ok(AskPacket::FetchRequest {
                task,
                scope,
                fetch_seq,
            })
        }
        KIND_FETCH_REPLY => {
            need(buf, 8)?;
            let task = TaskId(buf.get_u32());
            let fetch_seq = buf.get_u32();
            let entries = get_entries(buf, pool)?;
            Ok(AskPacket::FetchReply {
                task,
                fetch_seq,
                entries,
            })
        }
        KIND_CONTROL => {
            need(buf, 1)?;
            let ctrl = buf.get_u8();
            match ctrl {
                CTRL_REGION_REQUEST => {
                    need(buf, 5)?;
                    Ok(AskPacket::Control(ControlMsg::RegionRequest {
                        task: TaskId(buf.get_u32()),
                        op: AggregateOp::from_code(buf.get_u8()),
                    }))
                }
                CTRL_REGION_GRANT => {
                    need(buf, 12)?;
                    Ok(AskPacket::Control(ControlMsg::RegionGrant {
                        task: TaskId(buf.get_u32()),
                        region: AaRegion {
                            base: buf.get_u32(),
                            aggregators: buf.get_u32(),
                        },
                    }))
                }
                CTRL_REGION_DENY => {
                    need(buf, 4)?;
                    Ok(AskPacket::Control(ControlMsg::RegionDeny {
                        task: TaskId(buf.get_u32()),
                    }))
                }
                CTRL_REGION_RELEASE => {
                    need(buf, 4)?;
                    Ok(AskPacket::Control(ControlMsg::RegionRelease {
                        task: TaskId(buf.get_u32()),
                    }))
                }
                CTRL_TASK_ANNOUNCE => {
                    need(buf, 8)?;
                    Ok(AskPacket::Control(ControlMsg::TaskAnnounce {
                        task: TaskId(buf.get_u32()),
                        receiver: buf.get_u32(),
                    }))
                }
                CTRL_EPOCH_NOTIFY => {
                    need(buf, 4)?;
                    Ok(AskPacket::Control(ControlMsg::EpochNotify {
                        epoch: buf.get_u32(),
                    }))
                }
                other => Err(CodecError::BadControlKind(other)),
            }
        }
        other => Err(CodecError::BadKind(other)),
    }
}

fn get_entries(buf: &mut Bytes, pool: &mut PacketPool) -> Result<Vec<KvTuple>, CodecError> {
    need(buf, 4)?;
    let count = buf.get_u32() as usize;
    let mut entries = pool.take_tuples(count.min(4096));
    for _ in 0..count {
        need(buf, 2)?;
        let len = buf.get_u16() as usize;
        need(buf, len + 4)?;
        let key = Key::new(buf.copy_to_bytes(len))?;
        let value = buf.get_u32();
        entries.push(KvTuple::new(key, value));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    fn kv(s: &str, v: u32) -> KvTuple {
        KvTuple::new(Key::from_str(s).unwrap(), v)
    }

    fn decode(bytes: Bytes) -> Result<Envelope, CodecError> {
        decode_envelope_pooled(bytes, &mut PacketPool::new())
    }

    fn roundtrip(p: &AskPacket, layout: &PacketLayout) {
        let bytes = encode_envelope_parts(3, 9, 4, 0, p, layout);
        let back = decode(bytes).expect("decode");
        assert_eq!((back.src, back.dst, back.epoch, back.flags), (3, 9, 4, 0));
        assert_eq!(&back.packet, p);
    }

    /// A frame around a hand-written body with a valid checksum — how a
    /// hostile peer gets a malformed body past the CRC.
    fn sealed(body: &[u8]) -> Bytes {
        let mut frame = vec![0u8; ENVELOPE_HEADER_BYTES];
        frame.extend_from_slice(body);
        seal(&mut frame);
        Bytes::from(frame)
    }

    fn data_header(short: u8, groups: u8, segments: u8, bitmap: u128) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u8(KIND_DATA);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u64(0);
        buf.put_u8(short);
        buf.put_u8(groups);
        buf.put_u8(segments);
        buf.put_u128(bitmap);
        buf
    }

    #[test]
    fn data_packet_roundtrips() {
        let layout = PacketLayout::paper_default();
        let mut slots = vec![None; layout.slot_count()];
        slots[0] = Some(kv("ab", 7));
        slots[3] = Some(kv("wxyz", 1));
        slots[16] = Some(kv("mediumk", 42)); // 7-byte medium key
        let p = AskPacket::Data(DataPacket {
            task: TaskId(5),
            channel: ChannelId(2),
            seq: SeqNo(99),
            slots,
        });
        roundtrip(&p, &layout);
    }

    #[test]
    fn encoded_size_never_exceeds_nominal_wire_size() {
        let layout = PacketLayout::paper_default();
        let mut slots = Vec::new();
        for i in 0..layout.slot_count() {
            let name = format!("k{i:06}");
            let s = if layout.is_short_slot(i) {
                "abcd"
            } else {
                &name
            };
            slots.push(Some(kv(s, i as u32)));
        }
        let p = AskPacket::Data(DataPacket {
            task: TaskId(0),
            channel: ChannelId(0),
            seq: SeqNo(0),
            slots,
        });
        let encoded = encode_envelope_parts(0, 0, 0, 0, &p, &layout);
        assert!(
            encoded.len() <= p.wire_bytes(&layout),
            "{} > {}",
            encoded.len(),
            p.wire_bytes(&layout)
        );
    }

    #[test]
    fn all_header_packets_roundtrip() {
        let layout = PacketLayout::paper_default();
        let packets = vec![
            AskPacket::Ack {
                channel: ChannelId(1),
                seq: SeqNo(u64::MAX),
            },
            AskPacket::Fin {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
            },
            AskPacket::Swap { task: TaskId(9) },
            AskPacket::FetchRequest {
                task: TaskId(4),
                scope: FetchScope::Inactive,
                fetch_seq: 1,
            },
            AskPacket::FetchRequest {
                task: TaskId(4),
                scope: FetchScope::All,
                fetch_seq: 2,
            },
            AskPacket::Control(ControlMsg::RegionRequest {
                task: TaskId(7),
                op: AggregateOp::Max,
            }),
            AskPacket::Control(ControlMsg::RegionGrant {
                task: TaskId(7),
                region: AaRegion {
                    base: 64,
                    aggregators: 1024,
                },
            }),
            AskPacket::Control(ControlMsg::RegionDeny { task: TaskId(7) }),
            AskPacket::Control(ControlMsg::RegionRelease { task: TaskId(7) }),
            AskPacket::Control(ControlMsg::TaskAnnounce {
                task: TaskId(7),
                receiver: 3,
            }),
            AskPacket::Control(ControlMsg::EpochNotify { epoch: 42 }),
        ];
        for p in &packets {
            roundtrip(p, &layout);
        }
    }

    #[test]
    fn long_kv_and_fetch_reply_roundtrip() {
        let layout = PacketLayout::paper_default();
        roundtrip(
            &AskPacket::LongKv {
                task: TaskId(1),
                channel: ChannelId(1),
                seq: SeqNo(12),
                entries: vec![kv("a-very-long-key-beyond-eight", 5), kv("another1234", 6)],
            },
            &layout,
        );
        roundtrip(
            &AskPacket::FetchReply {
                task: TaskId(1),
                fetch_seq: 3,
                entries: vec![kv("x", 1)],
            },
            &layout,
        );
    }

    #[test]
    fn encoded_size_is_exact() {
        // Each frame is exactly its header and body, counted by hand: the
        // 17-byte envelope, the kind's fixed fields, then the payload.
        let layout = PacketLayout::paper_default();
        let mut slots = vec![None; layout.slot_count()];
        slots[0] = Some(kv("ab", 7)); // short: 4-byte segment + value
        slots[17] = Some(kv("mediumk", 42)); // medium: 8-byte field + value
        let packets = vec![
            (
                AskPacket::Data(DataPacket {
                    task: TaskId(5),
                    channel: ChannelId(2),
                    seq: SeqNo(99),
                    slots,
                }),
                36 + 8 + 12,
            ),
            (
                AskPacket::LongKv {
                    task: TaskId(1),
                    channel: ChannelId(1),
                    seq: SeqNo(12),
                    entries: vec![kv("a-very-long-key", 5)],
                },
                21 + 2 + 15 + 4,
            ),
            (
                AskPacket::Ack {
                    channel: ChannelId(1),
                    seq: SeqNo(2),
                },
                13,
            ),
            (
                AskPacket::Fin {
                    task: TaskId(1),
                    channel: ChannelId(2),
                    seq: SeqNo(3),
                },
                17,
            ),
            (AskPacket::Swap { task: TaskId(9) }, 5),
            (
                AskPacket::FetchRequest {
                    task: TaskId(4),
                    scope: FetchScope::All,
                    fetch_seq: 2,
                },
                10,
            ),
            (
                AskPacket::FetchReply {
                    task: TaskId(1),
                    fetch_seq: 3,
                    entries: vec![kv("x", 1), kv("yy", 2)],
                },
                13 + (2 + 1 + 4) + (2 + 2 + 4),
            ),
            (
                AskPacket::Control(ControlMsg::RegionRequest {
                    task: TaskId(7),
                    op: AggregateOp::Min,
                }),
                7,
            ),
            (
                AskPacket::Control(ControlMsg::RegionGrant {
                    task: TaskId(7),
                    region: AaRegion {
                        base: 0,
                        aggregators: 8,
                    },
                }),
                14,
            ),
            (
                AskPacket::Control(ControlMsg::RegionDeny { task: TaskId(7) }),
                6,
            ),
            (
                AskPacket::Control(ControlMsg::TaskAnnounce {
                    task: TaskId(7),
                    receiver: 3,
                }),
                10,
            ),
            (AskPacket::Control(ControlMsg::EpochNotify { epoch: 9 }), 6),
        ];
        for (p, body) in &packets {
            assert_eq!(
                encode_envelope_parts(1, 2, 0, 0, p, &layout).len(),
                ENVELOPE_HEADER_BYTES + body,
                "size mismatch for {p:?}"
            );
        }
    }

    #[test]
    fn truncated_buffers_error() {
        let layout = PacketLayout::paper_default();
        let ack = AskPacket::Ack {
            channel: ChannelId(1),
            seq: SeqNo(2),
        };
        let bytes = encode_envelope_parts(1, 2, 0, 0, &ack, &layout);
        for cut in 0..ENVELOPE_HEADER_BYTES {
            assert_eq!(decode(bytes.slice(0..cut)), Err(CodecError::Truncated));
        }
        let body = &bytes[ENVELOPE_HEADER_BYTES..];
        for cut in 0..body.len() {
            let err = decode(sealed(&body[..cut])).unwrap_err();
            assert_eq!(err, CodecError::Truncated, "body cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let layout = PacketLayout::paper_default();
        let swap = AskPacket::Swap { task: TaskId(1) };
        let frame = encode_envelope_parts(1, 2, 0, 0, &swap, &layout);
        let mut body = frame[ENVELOPE_HEADER_BYTES..].to_vec();
        body.push(0xAA);
        assert_eq!(decode(sealed(&body)), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(decode(sealed(&[200])), Err(CodecError::BadKind(200)));
    }

    #[test]
    fn bad_layout_rejected() {
        // A data packet header declaring zero slots.
        let body = data_header(0, 0, 2, 0);
        assert_eq!(decode(sealed(&body)), Err(CodecError::BadLayout));
    }

    #[test]
    fn bitmap_beyond_slots_rejected() {
        // Bit 2 set but only slots 0..2 exist.
        let body = data_header(2, 0, 2, 0b100);
        assert_eq!(decode(sealed(&body)), Err(CodecError::BadLayout));
    }

    #[test]
    fn envelope_roundtrips_with_checksum() {
        let layout = PacketLayout::paper_default();
        let swap = AskPacket::Swap { task: TaskId(5) };
        let bytes = encode_envelope_parts(3, 9, 0, 0, &swap, &layout);
        let want = Envelope {
            src: 3,
            dst: 9,
            epoch: 0,
            flags: 0,
            packet: swap,
        };
        assert_eq!(decode(bytes), Ok(want));
    }

    #[test]
    fn envelope_epoch_and_flags_roundtrip() {
        // The reserved flags byte round-trips through the reference codec
        // for every kind, whichever writer built the body.
        let layout = PacketLayout::paper_default();
        let mut slots = vec![None; layout.slot_count()];
        slots[1] = Some(kv("ab", 7));
        let (task, channel, seq) = (TaskId(5), ChannelId(2), SeqNo(9));
        let packets = [
            AskPacket::Swap { task },
            AskPacket::Data(DataPacket {
                task,
                channel,
                seq,
                slots,
            }),
            AskPacket::LongKv {
                task,
                channel,
                seq,
                entries: vec![kv("a-very-long-key-beyond-eight", 5)],
            },
            AskPacket::Ack { channel, seq },
            AskPacket::Fin { task, channel, seq },
        ];
        for packet in packets {
            let bytes = encode_envelope_parts(1, 2, 3, 0x5a, &packet, &layout);
            let back = decode(bytes).unwrap();
            assert_eq!((back.epoch, back.flags), (3, 0x5a), "{packet:?}");
            assert_eq!(back.packet, packet);
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let layout = PacketLayout::paper_default();
        let fin = AskPacket::Fin {
            task: TaskId(1),
            channel: ChannelId(2),
            seq: SeqNo(3),
        };
        let bytes = encode_envelope_parts(1, 2, 0, 0, &fin, &layout);
        for byte_ix in 0..bytes.len() {
            for bit in 0..8 {
                let mut v = bytes.to_vec();
                v[byte_ix] ^= 1 << bit;
                assert!(
                    decode(Bytes::from(v)).is_err(),
                    "flip at {byte_ix}.{bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            CodecError::Truncated,
            CodecError::ChecksumMismatch,
            CodecError::BadKind(1),
            CodecError::BadControlKind(1),
            CodecError::BadKey(KeyError::Empty),
            CodecError::TrailingBytes(2),
            CodecError::BadLayout,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
