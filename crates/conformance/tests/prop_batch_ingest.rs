//! Property: the switch engine's burst ingest (`process_batch_views`) is
//! observationally identical to one-at-a-time `process_data_view` — same
//! verdicts in the same order, same per-task counters, same fetchable switch
//! memory — for arbitrary channel-interleaved bursts including the
//! duplicates and reorderings a chaotic network produces.

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

const SLOTS: usize = 8;
const TASKS: u32 = 2;

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
/// re-injected later as retransmission duplicates.
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
    // Re-inject earlier packets as duplicates/stale arrivals at arbitrary
    // later positions (a retransmit that raced its ACK).
    for &(src, at) in dup_from {
        if out.is_empty() {
            break;
        }
        let copy = out[src % out.len()].clone();
        let at = at % (out.len() + 1);
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn batch_ingest_matches_sequential(
        per_channel in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0u64..32, 1u32..100), 0..SLOTS),
                    0..12,
                ),
                1..3, // channels per task
            ),
            TASKS as usize..=TASKS as usize,
        ),
        interleave in proptest::collection::vec(0usize..64, 0..64),
        dup_from in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        burst_sizes in proptest::collection::vec(1usize..9, 1..64),
    ) {
        let stream = build_stream(&per_channel, &interleave, &dup_from);

        // Sequential reference.
        let mut seq_engine = engine();
        let seq_verdicts: Vec<ViewVerdict> =
            stream.iter().map(|v| seq_engine.process_data_view(v)).collect();

        // Batched run over arbitrary burst boundaries.
        let mut bat_engine = engine();
        let mut bat_verdicts = Vec::new();
        let mut rest = &stream[..];
        let mut sizes = burst_sizes.iter().cycle();
        while !rest.is_empty() {
            let n = (*sizes.next().expect("cycled")).min(rest.len());
            let (burst, tail) = rest.split_at(n);
            let mut verdicts = Vec::new();
            bat_engine.process_batch_views(burst, &mut verdicts);
            prop_assert_eq!(verdicts.len(), n, "one verdict per packet");
            bat_verdicts.extend(verdicts);
            rest = tail;
        }

        prop_assert_eq!(&seq_verdicts, &bat_verdicts);

        for t in 0..TASKS {
            let task = TaskId(t);
            let mut s = seq_engine.task_stats(task).expect("registered");
            let mut b = bat_engine.task_stats(task).expect("registered");
            // The burst histogram is the one intentionally batch-only
            // observable; every protocol counter must match exactly.
            s.burst_len = Default::default();
            b.burst_len = Default::default();
            prop_assert_eq!(s, b);

            // Switch memory is identical: a full fetch drains the same
            // key-value set from both engines.
            let sf = seq_engine.fetch(task, FetchScope::All, 1);
            let bf = bat_engine.fetch(task, FetchScope::All, 1);
            prop_assert_eq!(sf, bf);
        }
    }
}
