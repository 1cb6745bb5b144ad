//! Property: the switch engine, fed one data view at a time, absorbs
//! exactly what the first sighting of each `(channel, seq)` reports as
//! absorbed, answers every later sighting from the recorded residual, and
//! drops as stale exactly what lies a window behind the channel's maximum —
//! for channel-interleaved streams of two tasks with re-injected
//! retransmissions, checked against an independent oracle.

use ask::config::AskConfig;
use ask::switch::aggregator::AggregatorEngine;
use ask::switch::ViewVerdict;
use ask_wire::codec::encode_envelope_parts;
use ask_wire::key::Key;
use ask_wire::packet::{
    AskPacket, ChannelId, DataPacket, FetchScope, KvTuple, PacketLayout, SeqNo, TaskId,
};
use ask_wire::view::{DataPacketView, FrameView, PacketView};
use proptest::prelude::*;
use std::collections::HashMap;

const SLOTS: usize = 8;
const TASKS: u32 = 2;
/// Small enough that streams of up to 24 packets per channel wrap the
/// even/odd `seen` phase several times and late retransmissions go stale.
const WINDOW: usize = 4;

/// One packet's worth of generated `(key, value)` slot fills.
type Fill = Vec<(u64, u32)>;
/// One task's generated traffic: `[channel][packet] -> slot fills`.
type ChannelPackets = Vec<Vec<Fill>>;
/// An in-order per-(task, channel) send queue with its next sequence number.
type SendQueue = (TaskId, ChannelId, u64, std::collections::VecDeque<Fill>);

fn engine() -> AggregatorEngine {
    let mut cfg = AskConfig::paper_default();
    cfg.layout = PacketLayout::short_only(SLOTS);
    cfg.aggregators_per_aa = 16 * TASKS as usize;
    cfg.region_aggregators = 16;
    cfg.max_channels = 8;
    cfg.window = WINDOW;
    cfg.swap_threshold = 0;
    cfg.absorption_audit = true;
    let mut e = AggregatorEngine::new(cfg);
    for t in 0..TASKS {
        e.register_task(TaskId(t), t).expect("region fits");
    }
    e
}

/// Builds the frame stream the switch sees: per-(task, channel) in-order
/// sequences, merged by an arbitrary interleaving, with some packets
/// re-injected at a later position as retransmissions (a copy never
/// overtakes its original, so every channel's first sightings stay dense —
/// the precondition of the compact `seen` bitmap).
fn build_stream(
    per_channel: &[ChannelPackets],
    interleave: &[usize],
    dup_from: &[(usize, usize)],
) -> Vec<DataPacketView> {
    let mut queues: Vec<SendQueue> = Vec::new();
    for (t, channels) in per_channel.iter().enumerate() {
        for (c, fills) in channels.iter().enumerate() {
            queues.push((
                TaskId(t as u32),
                ChannelId((t * channels.len() + c) as u32),
                0,
                fills.iter().cloned().collect(),
            ));
        }
    }
    let mut out = Vec::new();
    for &pick in interleave {
        let n = queues.len();
        let q = &mut queues[pick % n];
        let Some(fill) = q.3.pop_front() else {
            continue;
        };
        let mut slots = vec![None; SLOTS];
        for &(key, value) in &fill {
            let ix = (key % SLOTS as u64) as usize;
            slots[ix] = Some(KvTuple::new(Key::from_u64(key), value));
        }
        out.push(DataPacket {
            task: q.0,
            channel: q.1,
            seq: SeqNo(q.2),
            slots,
        });
        q.2 += 1;
    }
    for &(src, at) in dup_from {
        if out.is_empty() {
            break;
        }
        let src = src % out.len();
        let copy = out[src].clone();
        let at = src + 1 + at % (out.len() - src);
        out.insert(at, copy);
    }
    let layout = PacketLayout::short_only(SLOTS);
    out.into_iter()
        .map(|p| {
            let frame = encode_envelope_parts(1, 0, 0, 0, &AskPacket::Data(p), &layout);
            match FrameView::parse(frame).expect("valid").into_packet() {
                PacketView::Data(d) => d,
                _ => unreachable!("data frames parse to data views"),
            }
        })
        .collect()
}

/// The slots a verdict sends on to the receiver (none when absorbed or
/// dropped).
fn residual(verdict: ViewVerdict) -> u128 {
    match verdict {
        ViewVerdict::Forward { residual } => residual,
        ViewVerdict::FullyAggregated | ViewVerdict::Stale => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn engine_absorbs_exactly_each_first_sighting(
        per_channel in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0u64..32, 1u32..100), 0..SLOTS),
                    0..24,
                ),
                1..3, // channels per task
            ),
            TASKS as usize..=TASKS as usize,
        ),
        interleave in proptest::collection::vec(0usize..64, 0..96),
        dup_from in proptest::collection::vec((0usize..96, 0usize..96), 0..12),
    ) {
        let stream = build_stream(&per_channel, &interleave, &dup_from);
        let mut engine = engine();
        let w = WINDOW as u64;

        // Oracle state: each sighting's residual by (channel, seq), the
        // channel's highest seq so far, and what each task absorbed.
        let mut first: HashMap<(ChannelId, u64), u128> = HashMap::new();
        let mut max_seq: HashMap<ChannelId, u64> = HashMap::new();
        let mut absorbed: Vec<HashMap<Key, u32>> = vec![HashMap::new(); TASKS as usize];
        for view in &stream {
            let verdict = engine.process_data_view(view);
            let (channel, seq) = (view.channel(), view.seq().0);
            let max = max_seq.entry(channel).or_insert(seq);
            *max = (*max).max(seq);
            prop_assert_eq!(
                verdict == ViewVerdict::Stale,
                *max - seq >= w,
                "stale exactly when seq + W <= max_seq (seq {}, max {})", seq, *max
            );
            if verdict == ViewVerdict::Stale {
                continue;
            }
            let got = residual(verdict);
            match first.get(&(channel, seq)) {
                Some(&kept) => prop_assert_eq!(
                    got,
                    view.bitmap() & kept,
                    "a duplicate carries the first sighting's residual"
                ),
                None => {
                    prop_assert_eq!(got & !view.bitmap(), 0, "residual within the bitmap");
                    first.insert((channel, seq), got);
                    let sums = &mut absorbed[view.task().0 as usize];
                    for s in view.slots().filter(|s| got & (1u128 << s.index()) == 0) {
                        let sum = sums.entry(s.key()).or_insert(0);
                        *sum = sum.wrapping_add(s.value());
                    }
                }
            }
        }

        for t in 0..TASKS {
            let mut fetched: HashMap<Key, u32> = HashMap::new();
            for (key, value) in engine.fetch(TaskId(t), FetchScope::All, 1).iter() {
                let sum = fetched.entry(Key::from_slice(key).unwrap()).or_insert(0);
                *sum = sum.wrapping_add(value);
            }
            prop_assert_eq!(&fetched, &absorbed[t as usize], "task {} switch memory", t);
        }
        prop_assert_eq!(engine.duplicate_absorptions(), 0);
    }
}
