//! Decode-never-panics fuzz corpus for the one owned decoder
//! ([`decode_envelope_pooled`]) and the borrowed view ([`FrameView`]).
//!
//! Every packet kind is encoded under several layouts by the one owned
//! encoder, then attacked with systematic truncation and single-bit flips;
//! finally both parsers eat seeded random byte soup. Mangled frames are
//! tried twice: as they are, where the envelope CRC must catch every flip
//! and cut, and with the checksum re-stamped over the damage, as a hostile
//! peer would send them, so both parsers meet the bodies behind the CRC.
//! The contract: `Err(CodecError)` (or, for a flipped value byte, a
//! different valid packet) — never a panic — and the same verdict and the
//! same field reads from both parsers.

use ask_wire::codec::{
    crc32, decode_envelope_pooled, encode_envelope_parts, CodecError, Envelope,
    ENVELOPE_HEADER_BYTES,
};
use ask_wire::key::Key;
use ask_wire::packet::{
    AaRegion, AggregateOp, AskPacket, ChannelId, ControlMsg, DataPacket, FetchScope, KvTuple,
    PacketLayout, SeqNo, TaskId,
};
use ask_wire::pool::PacketPool;
use ask_wire::view::{FrameView, PacketView};
use bytes::Bytes;
use std::sync::Arc;

fn decode(bytes: Bytes) -> Result<Envelope, CodecError> {
    decode_envelope_pooled(bytes, &mut PacketPool::new())
}

fn encode(packet: &AskPacket, layout: &PacketLayout) -> Bytes {
    encode_envelope_parts(2, 7, 0, 0, packet, layout)
}

/// `frame` with its checksum recomputed over whatever follows it.
fn restamped(mut frame: Vec<u8>) -> Bytes {
    if frame.len() >= 4 {
        let sum = crc32(&frame[4..]);
        frame[..4].copy_from_slice(&sum.to_be_bytes());
    }
    Bytes::from(frame)
}

/// The owned envelope a view's field reads describe, built from its
/// accessors alone: header fields, every slot's `(index, key, value)` and
/// every entry's `(key, value)` in wire order.
fn read_back(view: &FrameView) -> Envelope {
    let entries = || -> Vec<KvTuple> {
        let it = view.entries().expect("entry-bearing kind");
        it.map(|e| KvTuple::new(e.key(), e.value())).collect()
    };
    let packet = match view.packet().clone() {
        PacketView::Data(d) => {
            let mut slots = vec![None; d.short_slots() + d.medium_groups()];
            for s in d.slots() {
                assert_eq!(s.key_len(), s.key_bytes().len());
                assert_eq!(s.hash64(), s.key().hash64());
                slots[s.index()] = Some(KvTuple::new(s.key(), s.value()));
            }
            assert_eq!(
                slots.iter().flatten().count(),
                d.occupied(),
                "the walk visits every occupied slot"
            );
            AskPacket::Data(DataPacket {
                task: d.task(),
                channel: d.channel(),
                seq: d.seq(),
                slots,
            })
        }
        PacketView::LongKv {
            task, channel, seq, ..
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

/// The borrowed-view parser must agree with the owned decoder on *every*
/// input: the same accept/reject verdict, the same typed error on reject,
/// and on accept the same envelope and packet as read through the view's
/// accessors.
fn assert_view_agrees_with_decode(bytes: Bytes) {
    let view = FrameView::parse(bytes.clone()).map(|v| read_back(&v));
    assert_eq!(view, decode(bytes), "view and decoder disagree");
}

/// Tiny deterministic PRNG (splitmix64) so the corpus needs no rand dep.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn layouts() -> Vec<PacketLayout> {
    vec![
        PacketLayout::paper_default(),
        PacketLayout::custom(4, 2, 2),
        PacketLayout::custom(2, 2, 3),
        PacketLayout::custom(1, 0, 2),
    ]
}

fn tuple(key: &str, value: u32) -> KvTuple {
    KvTuple::new(Key::from_str(key).unwrap(), value)
}

/// Every packet kind, with empty/sparse/full payload variants.
fn corpus(layout: &PacketLayout) -> Vec<AskPacket> {
    let slots = layout.slot_count();
    let full: Vec<Option<KvTuple>> = (0..slots)
        .map(|i| Some(tuple(&format!("k{i}"), i as u32 + 1)))
        .collect();
    let sparse: Vec<Option<KvTuple>> = (0..slots)
        .map(|i| (i % 2 == 0).then(|| tuple(&format!("s{i}"), 7)))
        .collect();
    let empty: Vec<Option<KvTuple>> = vec![None; slots];
    let data = |slots: Vec<Option<KvTuple>>| {
        AskPacket::Data(DataPacket {
            task: TaskId(3),
            channel: ChannelId(12),
            seq: SeqNo(u64::MAX - 1),
            slots,
        })
    };
    vec![
        data(full),
        data(sparse),
        data(empty),
        AskPacket::LongKv {
            task: TaskId(3),
            channel: ChannelId(12),
            seq: SeqNo(0),
            entries: vec![tuple("a-very-long-key-indeed", 9), tuple("another-one", 1)],
        },
        AskPacket::LongKv {
            task: TaskId(3),
            channel: ChannelId(0),
            seq: SeqNo(5),
            entries: vec![],
        },
        // Keys either side of 20 / 21 bytes and one past 255, whose length
        // field needs both of its bytes.
        AskPacket::LongKv {
            task: TaskId(3),
            channel: ChannelId(12),
            seq: SeqNo(6),
            entries: [20, 21, 300]
                .into_iter()
                .map(|n| KvTuple::new(Key::from_slice(&vec![b'k'; n]).unwrap(), n as u32))
                .collect(),
        },
        AskPacket::Ack {
            channel: ChannelId(1),
            seq: SeqNo(42),
        },
        AskPacket::Fin {
            task: TaskId(3),
            channel: ChannelId(12),
            seq: SeqNo(1000),
        },
        AskPacket::Swap { task: TaskId(3) },
        AskPacket::FetchRequest {
            task: TaskId(3),
            scope: FetchScope::Inactive,
            fetch_seq: 1,
        },
        AskPacket::FetchRequest {
            task: TaskId(3),
            scope: FetchScope::All,
            fetch_seq: 2,
        },
        AskPacket::FetchReply {
            task: TaskId(3),
            fetch_seq: 2,
            entries: Arc::new(vec![tuple("fetched", 77)]),
        },
        AskPacket::Control(ControlMsg::RegionRequest {
            task: TaskId(3),
            op: AggregateOp::Max,
        }),
        AskPacket::Control(ControlMsg::RegionGrant {
            task: TaskId(3),
            region: AaRegion {
                base: 64,
                aggregators: 32,
            },
        }),
        AskPacket::Control(ControlMsg::RegionDeny { task: TaskId(3) }),
        AskPacket::Control(ControlMsg::RegionRelease { task: TaskId(3) }),
        AskPacket::Control(ControlMsg::TaskAnnounce {
            task: TaskId(3),
            receiver: 5,
        }),
    ]
}

#[test]
fn every_truncation_of_every_packet_is_an_error_not_a_panic() {
    // The checksum is re-stamped over every cut, so each one reaches the
    // body parsers.
    for layout in layouts() {
        for packet in corpus(&layout) {
            let bytes = encode(&packet, &layout);
            assert_eq!(decode(bytes.clone()).map(|e| e.packet), Ok(packet.clone()));
            for cut in 0..bytes.len() {
                let truncated = restamped(bytes[..cut].to_vec());
                assert!(
                    decode(truncated.clone()).is_err(),
                    "truncating {packet} to {cut} of {} bytes must fail",
                    bytes.len(),
                );
                assert_view_agrees_with_decode(truncated);
            }
        }
    }
}

#[test]
fn every_envelope_truncation_is_an_error() {
    let layout = PacketLayout::paper_default();
    for packet in corpus(&layout) {
        let bytes = encode(&packet, &layout);
        for cut in 0..bytes.len() {
            assert!(decode(bytes.slice(..cut)).is_err());
            assert_view_agrees_with_decode(bytes.slice(..cut));
        }
        assert_view_agrees_with_decode(bytes);
    }
}

#[test]
fn every_single_bit_flip_in_an_envelope_is_caught_by_the_crc() {
    let layout = PacketLayout::custom(4, 2, 2);
    for packet in corpus(&layout) {
        let bytes = encode(&packet, &layout);
        for byte_ix in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[byte_ix] ^= 1 << bit;
                let flipped = Bytes::from(flipped);
                assert!(
                    decode(flipped.clone()).is_err(),
                    "flipping bit {bit} of byte {byte_ix} in {packet} must be rejected",
                );
                assert_view_agrees_with_decode(flipped);
            }
        }
    }
}

#[test]
fn view_accessors_agree_with_decode_on_every_valid_frame() {
    for layout in layouts() {
        for packet in corpus(&layout) {
            assert_view_agrees_with_decode(encode(&packet, &layout));
        }
    }
}

#[test]
fn raw_decode_survives_single_bit_flips() {
    // With the checksum re-stamped over the flip, a flipped value byte may
    // legitimately decode to a different valid packet; the contract is "no
    // panic, errors are typed, and both parsers agree".
    let layout = PacketLayout::paper_default();
    for packet in corpus(&layout) {
        let bytes = encode(&packet, &layout);
        for byte_ix in 4..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[byte_ix] ^= 1 << bit;
                let flipped = restamped(flipped);
                match decode(flipped.clone()) {
                    Ok(_) => {}
                    Err(
                        CodecError::Truncated
                        | CodecError::ChecksumMismatch
                        | CodecError::BadKind(_)
                        | CodecError::BadControlKind(_)
                        | CodecError::BadKey(_)
                        | CodecError::TrailingBytes(_)
                        | CodecError::BadLayout,
                    ) => {}
                }
                assert_view_agrees_with_decode(flipped);
            }
        }
    }
}

#[test]
fn random_byte_soup_never_panics_either_decoder() {
    let mut rng = Mix(0xF00D);
    for case in 0..4000 {
        let len = (rng.next() % 192) as usize;
        let mut buf = Vec::with_capacity(len);
        while buf.len() < len {
            buf.extend_from_slice(&rng.next().to_le_bytes());
        }
        buf.truncate(len);
        // Bias some cases toward plausible kind bytes so the fuzz reaches
        // deep into each variant's field parsing instead of bouncing off
        // BadKind immediately.
        if case % 2 == 0 && buf.len() > ENVELOPE_HEADER_BYTES {
            buf[ENVELOPE_HEADER_BYTES] = (rng.next() % 12) as u8;
        }
        // Most soup carries a valid checksum, so it reaches the bodies.
        let soup = if case % 4 == 3 {
            Bytes::from(buf)
        } else {
            restamped(buf)
        };
        assert_view_agrees_with_decode(soup);
    }
}
