//! # ask-wire — ASK's packet formats and codecs
//!
//! The on-the-wire vocabulary of the ASK protocol: [`key::Key`]s with their
//! short/medium/long classification (§3.2.3 of the paper), the slotted
//! [`packet::DataPacket`] whose bitmap the switch rewrites as it consumes
//! tuples (Figure 5), control-plane messages for task setup and switch
//! memory management, and a compact binary [`codec`]: every frame kind is
//! written once, by its one writer in the codec, and read in place as a
//! [`view::FrameView`]. The owned [`packet::AskPacket`] with its one encoder
//! and one decoder is the reference model the writers and views are
//! checked against; the datapath never builds one.
//!
//! Size accounting follows the paper's §5.3 model: every packet costs
//! [`constants::PACKET_OVERHEAD`] = 78 bytes of framing/headers plus its
//! nominal payload, so goodput math in the benchmarks reproduces
//! Figure 8(a)'s `8x / (8x + 78)` curve exactly.
//!
//! ```
//! use ask_wire::prelude::*;
//!
//! let layout = PacketLayout::paper_default();
//! let mut slots = vec![None; layout.slot_count()];
//! slots[0] = Some(KvTuple::new(Key::from_str("cat")?, 2));
//! let pkt = AskPacket::Data(DataPacket {
//!     task: TaskId(1), channel: ChannelId(0), seq: SeqNo(0), slots,
//! });
//! let bytes = encode_envelope_parts(2, 1, 0, 0, &pkt, &layout);
//!
//! // The datapath reads the frame in place…
//! let view = FrameView::parse(bytes.clone())?;
//! let PacketView::Data(data) = view.packet() else { unreachable!() };
//! let slot = data.slots().next().expect("one occupied slot");
//! assert_eq!((slot.key_bytes(), slot.value()), (&b"cat"[..], 2));
//!
//! // …and the reference decoder agrees.
//! assert_eq!(decode_envelope_pooled(bytes, &mut PacketPool::new())?.packet, pkt);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod constants;
pub mod key;
pub mod packet;
pub mod pool;
pub mod view;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::codec::{
        crc32, decode_envelope_pooled, encode_envelope_parts, CodecError, Envelope,
    };
    pub use crate::constants::PACKET_OVERHEAD;
    pub use crate::key::{Key, KeyClass, KeyError};
    pub use crate::packet::{
        AaRegion, AggregateOp, AskPacket, ChannelId, ControlMsg, DataPacket, FetchScope, KvTuple,
        PacketLayout, SeqNo, TaskId,
    };
    pub use crate::pool::PacketPool;
    pub use crate::view::{DataPacketView, FrameView, PacketView, SlotView};
}

#[cfg(test)]
mod proptests {
    use crate::codec::ENVELOPE_HEADER_BYTES;
    use crate::prelude::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn decode(bytes: Bytes) -> Result<Envelope, CodecError> {
        decode_envelope_pooled(bytes, &mut PacketPool::new())
    }

    /// `p` through the one encoder and back through the one decoder.
    fn roundtrip(p: &AskPacket, layout: &PacketLayout) -> Result<AskPacket, CodecError> {
        decode(encode_envelope_parts(1, 2, 0, 0, p, layout)).map(|env| env.packet)
    }

    /// `frame` is byte for byte the owned encoding of `owned`, the owned
    /// decoder reads `owned` back, and the view reads the same addressing.
    fn matches_model(
        frame: &Bytes,
        owned: &AskPacket,
        (src, dst, epoch): (u32, u32, u32),
    ) -> FrameView {
        let layout = PacketLayout::paper_default();
        prop_assert_eq!(
            frame,
            &encode_envelope_parts(src, dst, epoch, 0, owned, &layout)
        );
        prop_assert_eq!(&decode(frame.clone()).unwrap().packet, owned);
        let view = FrameView::parse(frame.clone()).unwrap();
        prop_assert_eq!((view.src(), view.dst(), view.epoch()), (src, dst, epoch));
        view
    }

    fn arb_key() -> impl Strategy<Value = Key> {
        proptest::collection::vec(1u8..=255, 1..20)
            .prop_map(|v| Key::new(Bytes::from(v)).expect("no NUL, non-empty"))
    }

    fn arb_short_key() -> impl Strategy<Value = Key> {
        proptest::collection::vec(1u8..=255, 1..=4)
            .prop_map(|v| Key::new(Bytes::from(v)).expect("no NUL, non-empty"))
    }

    /// Raw material for one slot: key bytes (clamped to the slot class
    /// later) and a value.
    type RawSlot = Option<(Vec<u8>, u32)>;

    fn arb_raw_slots() -> impl Strategy<Value = Vec<RawSlot>> {
        proptest::collection::vec(
            proptest::option::of((proptest::collection::vec(1u8..=255, 1..=16), any::<u32>())),
            1..=40,
        )
    }

    /// One of the paper-default, short-only, and fully custom layouts
    /// (mixed short/medium slots), with `raw` fitted to its slot vector.
    fn layout_and_slots(
        (pick, short, groups, segments): (u8, usize, usize, usize),
        mut raw: Vec<RawSlot>,
    ) -> (PacketLayout, Vec<Option<KvTuple>>) {
        let layout = match pick {
            0 => PacketLayout::paper_default(),
            1 => PacketLayout::short_only(short),
            _ => PacketLayout::custom(short.min(8), groups, segments),
        };
        raw.resize(layout.slot_count(), None);
        let slots = raw
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.map(|(mut k, v)| {
                    // Clamp the key to what the slot class can carry.
                    let max = if layout.is_short_slot(i) {
                        4
                    } else {
                        layout.medium_max_key_len()
                    };
                    k.truncate(max);
                    KvTuple::new(Key::new(Bytes::from(k)).expect("no NUL, non-empty"), v)
                })
            })
            .collect();
        (layout, slots)
    }

    proptest! {
        /// Any data packet round-trips through the codec.
        #[test]
        fn data_roundtrip(
            task in any::<u32>(),
            channel in any::<u32>(),
            seq in any::<u64>(),
            present in proptest::collection::vec(proptest::option::of((arb_short_key(), any::<u32>())), 1..=16),
        ) {
            let layout = PacketLayout::short_only(present.len());
            let slots: Vec<Option<KvTuple>> = present
                .into_iter()
                .map(|o| o.map(|(k, v)| KvTuple::new(k, v)))
                .collect();
            let p = AskPacket::Data(DataPacket {
                task: TaskId(task),
                channel: ChannelId(channel),
                seq: SeqNo(seq),
                slots,
            });
            let bytes = encode_envelope_parts(1, 2, 0, 0, &p, &layout);
            prop_assert!(bytes.len() <= p.wire_bytes(&layout));
            prop_assert_eq!(roundtrip(&p, &layout).unwrap(), p);
        }

        /// Long-kv packets round-trip for arbitrary key lengths.
        #[test]
        fn long_kv_roundtrip(
            entries in proptest::collection::vec((arb_key(), any::<u32>()), 0..20),
        ) {
            let layout = PacketLayout::paper_default();
            let p = AskPacket::LongKv {
                task: TaskId(1),
                channel: ChannelId(2),
                seq: SeqNo(3),
                entries: entries.into_iter().map(|(k, v)| KvTuple::new(k, v)).collect(),
            };
            prop_assert_eq!(roundtrip(&p, &layout).unwrap(), p);
        }

        /// Data packets round-trip across the paper-default, short-only,
        /// and fully custom layouts (mixed short/medium slots).
        #[test]
        fn data_roundtrip_across_layouts(
            pick in 0u8..3,
            short in 1usize..=32,
            groups in 1usize..=4,
            segments in 2usize..=4,
            task in any::<u32>(),
            channel in any::<u32>(),
            seq in any::<u64>(),
            raw in arb_raw_slots(),
        ) {
            let (layout, slots) = layout_and_slots((pick, short, groups, segments), raw);
            let p = AskPacket::Data(DataPacket {
                task: TaskId(task),
                channel: ChannelId(channel),
                seq: SeqNo(seq),
                slots,
            });
            prop_assert_eq!(roundtrip(&p, &layout).unwrap(), p);
        }

        /// The in-place partial-absorb rewrite agrees with the owned codec:
        /// for any layout (medium groups included) and any surviving subset
        /// `r` of the occupied slots, `residual_frame(r)` is byte for byte
        /// what decoding, clearing the slots outside `r`, and re-encoding
        /// produces — envelope header, epoch and flags included.
        #[test]
        fn residual_frame_matches_owned_reencode(
            pick in 0u8..3,
            short in 1usize..=32,
            groups in 1usize..=4,
            segments in 2usize..=4,
            raw in arb_raw_slots(),
            keep in any::<u128>(),
            header in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u8>()),
        ) {
            let (src, dst, epoch, flags) = header;
            let (layout, slots) = layout_and_slots((pick, short, groups, segments), raw);
            let p = AskPacket::Data(DataPacket {
                task: TaskId(5),
                channel: ChannelId(2),
                seq: SeqNo(99),
                slots,
            });
            let bytes = encode_envelope_parts(src, dst, epoch, flags, &p, &layout);
            let PacketView::Data(d) = FrameView::parse(bytes.clone()).unwrap().into_packet() else {
                panic!("data frames parse to data views");
            };
            // A random subset, everything (the relay-unchanged case), nothing.
            for r in [d.bitmap() & keep, d.bitmap(), 0] {
                let mut owned = decode(bytes.clone()).unwrap();
                let AskPacket::Data(pkt) = &mut owned.packet else {
                    panic!("data frames decode to data packets");
                };
                for (i, slot) in pkt.slots.iter_mut().enumerate() {
                    if r & (1 << i) == 0 {
                        *slot = None;
                    }
                }
                let (src, dst, epoch, flags) = (owned.src, owned.dst, owned.epoch, owned.flags);
                prop_assert_eq!(
                    d.residual_frame(r),
                    encode_envelope_parts(src, dst, epoch, flags, &owned.packet, &layout)
                );
            }
        }

        /// Every writer produces the owned codec's bytes, and its frame
        /// parses back to the same fields: ACK, FIN, swap, fetch request,
        /// each control message, and a fetch reply of random entries.
        #[test]
        fn writers_match_owned_encode(
            addressing in (any::<u32>(), any::<u32>(), any::<u32>()),
            task in any::<u32>(),
            channel in any::<u32>(),
            seq in any::<u64>(),
            words in (any::<u32>(), any::<u32>(), any::<u32>()),
            op in (0u8..3).prop_map(AggregateOp::from_code),
            scope in prop_oneof![Just(FetchScope::Inactive), Just(FetchScope::All)],
            entries in proptest::collection::vec((arb_key(), any::<u32>()), 0..20),
        ) {
            use crate::codec::{
                ack_frame, control_frame, fetch_request_frame, fin_frame, swap_frame,
                FrameWriter, SendHeader,
            };
            let (src, dst, epoch) = addressing;
            let (task, channel, seq) = (TaskId(task), ChannelId(channel), SeqNo(seq));
            let (fetch_seq, base, aggregators) = words;

            let ack = ack_frame(src, dst, epoch, channel, seq);
            let view = matches_model(&ack, &AskPacket::Ack { channel, seq }, addressing);
            prop_assert!(matches!(
                view.packet(),
                PacketView::Ack { channel: c, seq: s } if (*c, *s) == (channel, seq)
            ));

            let fin = fin_frame(&SendHeader { src, dst, epoch, task, channel, seq });
            let view = matches_model(&fin, &AskPacket::Fin { task, channel, seq }, addressing);
            prop_assert!(matches!(
                view.packet(),
                PacketView::Fin { task: t, channel: c, seq: s } if (*t, *c, *s) == (task, channel, seq)
            ));

            let swap = swap_frame(src, dst, epoch, task);
            let view = matches_model(&swap, &AskPacket::Swap { task }, addressing);
            prop_assert!(matches!(view.packet(), PacketView::Swap { task: t } if *t == task));

            let request = fetch_request_frame(src, dst, epoch, task, scope, fetch_seq);
            let owned = AskPacket::FetchRequest { task, scope, fetch_seq };
            let view = matches_model(&request, &owned, addressing);
            prop_assert!(matches!(
                view.packet(),
                PacketView::FetchRequest { task: t, scope: s, fetch_seq: f }
                    if (*t, *s, *f) == (task, scope, fetch_seq)
            ));

            let region = AaRegion { base, aggregators };
            for msg in [
                ControlMsg::RegionRequest { task, op },
                ControlMsg::RegionGrant { task, region },
                ControlMsg::RegionDeny { task },
                ControlMsg::RegionRelease { task },
                ControlMsg::TaskAnnounce { task, receiver: base },
                ControlMsg::EpochNotify { epoch: aggregators },
            ] {
                let frame = control_frame(src, dst, epoch, &msg);
                let view = matches_model(&frame, &AskPacket::Control(msg.clone()), addressing);
                prop_assert!(matches!(view.packet(), PacketView::Control(m) if *m == msg));
            }

            let entries: Vec<KvTuple> =
                entries.into_iter().map(|(k, v)| KvTuple::new(k, v)).collect();
            let body_len = entries.iter().map(|t| 2 + t.key.len() + 4).sum();
            let count = entries.len() as u32;
            let mut reply =
                FrameWriter::fetch_reply(src, dst, epoch, task, fetch_seq, count, body_len);
            for t in &entries {
                reply.put(&(t.key.len() as u16).to_be_bytes());
                reply.put(t.key.as_bytes());
                reply.put(&t.value.to_be_bytes());
            }
            let owned = AskPacket::FetchReply { task, fetch_seq, entries: entries.clone() };
            let view = matches_model(&reply.finish(), &owned, addressing);
            prop_assert!(matches!(
                view.packet(),
                PacketView::FetchReply { task: t, fetch_seq: f, entry_count: n }
                    if (*t, *f, *n) == (task, fetch_seq, count)
            ));
            let read = view.entries().unwrap().map(|e| KvTuple::new(e.key(), e.value()));
            prop_assert_eq!(read.collect::<Vec<_>>(), entries);
        }

        /// Decoding arbitrary garbage never panics, even when it carries a
        /// valid checksum and a plausible kind byte, as a hostile peer's
        /// frame would.
        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let mut bytes = bytes;
            if bytes.len() > ENVELOPE_HEADER_BYTES {
                bytes[ENVELOPE_HEADER_BYTES] %= 8;
            }
            if bytes.len() >= 4 {
                let sum = crc32(&bytes[4..]);
                bytes[..4].copy_from_slice(&sum.to_be_bytes());
            }
            let _ = decode(Bytes::from(bytes.clone()));
            let _ = FrameView::parse(Bytes::from(bytes));
        }

        /// Key segmentation round-trips for every valid key.
        #[test]
        fn key_segments_roundtrip(key in arb_key()) {
            let segs: Vec<u32> = (0..key.segments()).map(|i| key.segment(i)).collect();
            prop_assert_eq!(Key::from_segments(&segs).unwrap(), key);
        }
    }
}
