//! Criterion microbenchmarks of ASK's hot paths and design-choice
//! ablations: packetization, the switch pipeline pass (vectorized vs
//! single-key), the compact dedup window, the codec, and shadow-copy
//! swap/fetch.

use ask::prelude::*;
use ask::switch::AggregatorEngine;
use ask_bench::runners::FrameFeed;
use ask_wire::codec::{decode, encode};
use ask_wire::packet::{AskPacket, ChannelId, DataPacket, FetchScope, SeqNo, TaskId};
use ask_workloads::text::uniform_stream;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn engine_with(layout: PacketLayout) -> AggregatorEngine {
    let mut cfg = AskConfig::paper_default();
    cfg.layout = layout;
    let mut engine = AggregatorEngine::new(cfg);
    engine.register_task(TaskId(1), 0).expect("region");
    engine
}

fn payloads(packetizer: &Packetizer, tuples: u64) -> Vec<Vec<Option<KvTuple>>> {
    packetizer
        .packetize(uniform_stream(5, tuples / 4, tuples))
        .data_payloads
}

/// One full switch pass per packet, paper layout (24 slots).
fn bench_switch_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("switch_pass");
    for (name, layout) in [
        ("vectorized_24slot", PacketLayout::paper_default()),
        ("single_key_ablation", PacketLayout::short_only(1)),
    ] {
        let mut engine = engine_with(layout);
        let mut feed = FrameFeed::new(layout, 24_000);
        group.throughput(Throughput::Elements(feed.tuples_per_frame()));
        group.bench_function(name, |b| {
            b.iter_batched(
                || feed.next_frame(),
                |v| engine.process_data_view(&v),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Sender-side packetization of a uniform stream.
fn bench_packetizer(c: &mut Criterion) {
    let packetizer = Packetizer::new(PacketLayout::paper_default(), 64);
    let stream = uniform_stream(5, 10_000, 50_000);
    let mut group = c.benchmark_group("packetizer");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("uniform_50k", |b| {
        b.iter_batched(
            || stream.clone(),
            |s| packetizer.packetize(s),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// The compact seen-window dedup gate.
fn bench_dedup_window(c: &mut Criterion) {
    let mut engine = engine_with(PacketLayout::paper_default());
    let mut seq = 0u64;
    c.bench_function("dedup_observe_bypass", |b| {
        b.iter(|| {
            seq += 1;
            engine.observe_bypass(ChannelId(0), SeqNo(seq))
        });
    });
}

/// Wire codec round-trip of a full data packet.
fn bench_codec(c: &mut Criterion) {
    let layout = PacketLayout::paper_default();
    let packetizer = Packetizer::new(layout, 64);
    let slots = payloads(&packetizer, 2_400).remove(0);
    let pkt = AskPacket::Data(DataPacket {
        task: TaskId(1),
        channel: ChannelId(0),
        seq: SeqNo(1),
        slots,
    });
    c.bench_function("codec_encode", |b| b.iter(|| encode(&pkt, &layout)));
    let bytes = encode(&pkt, &layout);
    c.bench_function("codec_decode", |b| {
        b.iter(|| decode(bytes.clone()).expect("valid"))
    });
    c.bench_function("codec_roundtrip", |b| {
        b.iter(|| decode(encode(&pkt, &layout)).expect("valid"))
    });
}

/// Shadow-copy swap + inactive-copy harvest.
fn bench_shadow_swap(c: &mut Criterion) {
    let mut engine = engine_with(PacketLayout::paper_default());
    let mut feed = FrameFeed::new(PacketLayout::paper_default(), 48_000);
    for _ in 0..feed.cycle_len() {
        engine.process_data_view(&feed.next_frame());
    }
    let mut fetch_seq = 0u32;
    c.bench_function("shadow_swap_and_fetch", |b| {
        b.iter(|| {
            engine.swap(TaskId(1));
            fetch_seq += 1;
            engine.fetch(TaskId(1), FetchScope::Inactive, fetch_seq)
        });
    });
}

/// CRC-32 integrity check over a full-size data packet.
fn bench_checksum(c: &mut Criterion) {
    use ask_wire::codec::crc32;
    let layout = PacketLayout::paper_default();
    let packetizer = Packetizer::new(layout, 64);
    let slots = payloads(&packetizer, 2_400).remove(0);
    let bytes = encode(
        &AskPacket::Data(DataPacket {
            task: TaskId(1),
            channel: ChannelId(0),
            seq: SeqNo(1),
            slots,
        }),
        &layout,
    );
    let mut group = c.benchmark_group("checksum");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("crc32_data_packet", |b| b.iter(|| crc32(&bytes)));
    group.finish();
}

/// The per-task ALU operators: the op selection must not cost anything.
fn bench_aggregate_ops(c: &mut Criterion) {
    use ask_wire::packet::AggregateOp;
    let mut group = c.benchmark_group("aggregate_op");
    for (name, op) in [
        ("sum", AggregateOp::Sum),
        ("max", AggregateOp::Max),
        ("min", AggregateOp::Min),
    ] {
        let mut cfg = AskConfig::paper_default();
        cfg.layout = PacketLayout::paper_default();
        let mut feed = FrameFeed::new(cfg.layout, 12_000);
        let mut engine = AggregatorEngine::new(cfg);
        engine
            .register_task_with_op(TaskId(1), 0, op)
            .expect("region");
        group.bench_function(name, |b| {
            b.iter_batched(
                || feed.next_frame(),
                |v| engine.process_data_view(&v),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_switch_pass,
    bench_packetizer,
    bench_dedup_window,
    bench_codec,
    bench_shadow_swap,
    bench_checksum,
    bench_aggregate_ops
);
criterion_main!(benches);
