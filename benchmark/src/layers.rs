//! Per-layer drives: each layer's public entry points, called from outside
//! on the workload's own packets and frames, one span per drive.
//!
//! The drives run in pipeline order — what one layer produces is what the
//! next one is fed — so the packetizer's payloads become the wire layer's
//! frames, the switch's residual frames become the host's input, and so
//! on. They cost what the layer costs in isolation, with warm caches and no
//! simulator around it; the shares the layers take of a real iteration come
//! from `service.*_share` instead.

use crate::metrics::Metric;
use crate::trace::Tracer;
use crate::workloads::{Inputs, Workload, TASKS};
use ask::host::daemon::{AskDaemon, CHANNEL_STRIDE};
use ask::host::packetizer::Packetizer;
use ask::host::table::TaskTable;
use ask::switch::{AggregatorEngine, Observation, ViewVerdict};
use ask_simnet::bench_api::BenchEventQueue;
use ask_simnet::frame::{Frame, NodeId};
use ask_simnet::network::{Context, Network, NetworkBuilder, Node};
use ask_simnet::time::{SimDuration, SimTime};
use ask_wire::codec::{crc32, decode_envelope_pooled, encode_envelope_parts};
use ask_wire::packet::{
    AggregateOp, AskPacket, ChannelId, ControlMsg, DataPacket, FetchScope, SeqNo, TaskId,
};
use ask_wire::pool::PacketPool;
use ask_wire::view::{FrameView, PacketView};
use bytes::Bytes;
use std::collections::VecDeque;
use std::hint::black_box;

/// Node indices `AskServiceBuilder` hands out: the switch first, then the
/// receiver, then the senders. The drives address frames the same way so
/// that they are the frames an iteration carries.
const SWITCH: u32 = 0;
const RECEIVER: u32 = 1;
const FIRST_SENDER: u32 = 2;

/// Events the hold-model queue drive keeps pending.
const QUEUE_DEPTH: u64 = 1024;

/// Frames handed to the daemon between two network drains.
const RECV_CHUNK: usize = 256;

/// One encoded frame of the workload with its nominal wire size.
struct WireFrame {
    bytes: Bytes,
    wire: usize,
}

/// Drives every layer on the workload's own inputs and returns the timed
/// per-layer metrics plus the counts only the drives can see.
///
/// `events` is the number of simulator events one iteration popped; the
/// queue drive pushes and pops as many.
pub fn drive(
    workload: &Workload,
    inputs: &Inputs,
    events: u64,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let tuples = workload.tuples() as f64;
    let config = &workload.config;
    let layout = config.layout;
    let mut out = Vec::new();

    // packetizer: every (sender, task) chunk, as `dispatch_send` does.
    let packetizer = Packetizer::new(layout, config.long_kv_batch);
    let chunks: Vec<_> = inputs.chunks.iter().flatten().cloned().collect();
    let streams = tracer.span("packetizer.packetize", |_| {
        chunks
            .into_iter()
            .map(|chunk| packetizer.packetize(chunk))
            .collect::<Vec<_>>()
    });
    out.push(Metric::timed(
        "packetizer.ns_per_tuple",
        tracer.total_ns("packetizer.packetize") as f64 / tuples,
        "ns/tuple",
    ));
    let data_packets: usize = streams.iter().map(|s| s.data_payloads.len()).sum();
    let occupied: f64 = streams
        .iter()
        .map(|s| s.mean_occupancy() * s.data_payloads.len() as f64)
        .sum();
    let long_tuples: usize = streams
        .iter()
        .flat_map(|s| &s.long_batches)
        .map(Vec::len)
        .sum();
    out.push(Metric::count(
        "packetizer.slot_fill",
        occupied / (data_packets * layout.slot_count()) as f64,
        "ratio",
    ));
    out.push(Metric::count(
        "packetizer.longkv_tuple_share",
        long_tuples as f64 / tuples,
        "ratio",
    ));

    // The packets of every channel in send order (data, then long-kv),
    // channels interleaved round-robin as concurrent senders interleave at
    // the switch.
    let mut channels: Vec<VecDeque<(u32, AskPacket)>> = Vec::new();
    for (ix, stream) in streams.into_iter().enumerate() {
        let (sender, task) = (
            FIRST_SENDER + (ix / TASKS) as u32,
            TaskId((ix % TASKS) as u32),
        );
        let channel = ChannelId(sender * CHANNEL_STRIDE + task.0 % config.data_channels as u32);
        let data = stream.data_payloads.into_iter().map(|slots| {
            AskPacket::Data(DataPacket {
                task,
                channel,
                seq: SeqNo(0),
                slots,
            })
        });
        let long = stream
            .long_batches
            .into_iter()
            .map(|entries| AskPacket::LongKv {
                task,
                channel,
                seq: SeqNo(0),
                entries,
            });
        let mut seq = 0u64;
        channels.push(
            data.chain(long)
                .map(|mut packet| {
                    match &mut packet {
                        AskPacket::Data(d) => d.seq = SeqNo(seq),
                        AskPacket::LongKv { seq: s, .. } => *s = SeqNo(seq),
                        _ => unreachable!("only data and long-kv packets are built"),
                    }
                    seq += 1;
                    (sender, packet)
                })
                .collect(),
        );
    }
    let mut packets = Vec::new();
    while channels.iter().any(|c| !c.is_empty()) {
        packets.extend(channels.iter_mut().filter_map(VecDeque::pop_front));
    }
    let n_frames = packets.len() as f64;

    // wire: encode, parse, materializing decode, CRC.
    let encoded = tracer.span("wire.encode", |_| {
        packets
            .iter()
            .map(|(src, packet)| encode_envelope_parts(*src, RECEIVER, 0, 0, packet, &layout))
            .collect::<Vec<Bytes>>()
    });
    out.push(Metric::timed(
        "wire.encode_ns_per_frame",
        tracer.total_ns("wire.encode") as f64 / n_frames,
        "ns/frame",
    ));
    let frames: Vec<WireFrame> = encoded
        .into_iter()
        .zip(&packets)
        .map(|(bytes, (_, packet))| WireFrame {
            wire: packet.wire_bytes(&layout).max(bytes.len()),
            bytes,
        })
        .collect();
    drop(packets);
    let wire_bytes: usize = frames.iter().map(|f| f.bytes.len()).sum();
    out.push(Metric::count(
        "wire.bytes_per_tuple",
        wire_bytes as f64 / tuples,
        "bytes/tuple",
    ));
    let copies = || {
        frames
            .iter()
            .map(|f| f.bytes.clone())
            .collect::<Vec<Bytes>>()
    };

    let input = copies();
    tracer.span("wire.parse", |_| {
        for bytes in input {
            black_box(FrameView::parse(bytes).expect("own frame parses"));
        }
    });
    out.push(Metric::timed(
        "wire.parse_ns_per_frame",
        tracer.total_ns("wire.parse") as f64 / n_frames,
        "ns/frame",
    ));

    let input = copies();
    let mut pool = PacketPool::new();
    tracer.span("wire.decode", |_| {
        for bytes in input {
            let envelope = decode_envelope_pooled(bytes, &mut pool).expect("own frame decodes");
            match black_box(envelope).packet {
                AskPacket::Data(d) => pool.recycle_slots(d.slots),
                AskPacket::LongKv { entries, .. } => pool.recycle_tuples(entries),
                _ => unreachable!("only data and long-kv frames are built"),
            }
        }
    });
    out.push(Metric::timed(
        "wire.decode_ns_per_frame",
        tracer.total_ns("wire.decode") as f64 / n_frames,
        "ns/frame",
    ));

    tracer.span("wire.crc", |_| {
        for f in &frames {
            black_box(crc32(black_box(&f.bytes[4..])));
        }
    });
    out.push(Metric::timed(
        "wire.crc_ns_per_byte",
        tracer.total_ns("wire.crc") as f64 / (wire_bytes - 4 * frames.len()) as f64,
        "ns/byte",
    ));

    // switch: parse → aggregate (burst 1) → re-frame, on a fresh engine with
    // the tasks registered; swaps and fetches at the receiver's cadence.
    let mut engine = AggregatorEngine::new(config.clone());
    for task in 0..TASKS as u32 {
        engine
            .register_task(TaskId(task), RECEIVER)
            .expect("every workload grants every task a region");
    }
    let input = copies();
    let mut residual: Vec<Bytes> = Vec::new();
    let mut forwarded = [0u64; TASKS];
    let mut fetch_seq = [0u32; TASKS];
    let mut fetched = 0usize;
    let mut verdicts = Vec::new();
    tracer.span("switch.ingest", |tracer| {
        for bytes in input {
            let view = FrameView::parse(bytes.clone()).expect("own frame parses");
            let task = match view.packet() {
                PacketView::Data(d) => {
                    verdicts.clear();
                    engine.process_batch_views(std::slice::from_ref(d), &mut verdicts);
                    match verdicts[0] {
                        ViewVerdict::Stale => unreachable!("sequence numbers only grow"),
                        ViewVerdict::FullyAggregated => continue,
                        ViewVerdict::Forward { residual: keep } if keep == d.bitmap() => {
                            residual.push(bytes)
                        }
                        ViewVerdict::Forward { residual: keep } => {
                            residual.push(d.residual_frame(keep))
                        }
                    }
                    d.task()
                }
                &PacketView::LongKv {
                    task,
                    channel,
                    seq,
                    entry_count,
                } => {
                    assert_ne!(engine.observe_bypass(channel, seq), Observation::Stale);
                    engine.note_longkv_forwarded(task, entry_count as u64);
                    residual.push(bytes);
                    task
                }
                _ => unreachable!("only data and long-kv frames are built"),
            };
            // The receiver swaps a task's shadow copies after every
            // `swap_threshold` packets forwarded to it, then harvests the
            // copy that went inactive.
            let t = task.0 as usize;
            forwarded[t] += 1;
            if config.swap_threshold > 0 && forwarded[t] % config.swap_threshold == 0 {
                fetch_seq[t] += 1;
                fetched += tracer.span("switch.fetch", |_| {
                    engine.swap(task);
                    engine.fetch(task, FetchScope::Inactive, fetch_seq[t]).len()
                });
            }
        }
        for (t, seq) in fetch_seq.iter_mut().enumerate() {
            *seq += 1;
            fetched += tracer.span("switch.fetch", |_| {
                engine.fetch(TaskId(t as u32), FetchScope::All, *seq).len()
            });
        }
    });
    let fetch_ns = tracer.total_ns("switch.fetch");
    let ingest_ns = tracer.total_ns("switch.ingest") - fetch_ns;
    out.push(Metric::timed(
        "switch.ingest_ns_per_frame",
        ingest_ns as f64 / n_frames,
        "ns/frame",
    ));
    out.push(Metric::timed(
        "switch.ingest_ns_per_tuple",
        ingest_ns as f64 / tuples,
        "ns/tuple",
    ));
    out.push(Metric::timed(
        "switch.fetch_ns_per_tuple",
        fetch_ns as f64 / fetched.max(1) as f64,
        "ns/tuple",
    ));
    assert_eq!(
        engine.constraint_violations(),
        0,
        "switch drive broke a PISA constraint"
    );

    // host: the daemon's receive path on the switch drive's residual frames.
    let residual_tuples = host_recv(workload, &residual, tracer);
    let recv_ns = tracer.total_ns("host.recv") as f64;
    out.push(Metric::timed(
        "host.recv_ns_per_frame",
        recv_ns / residual.len().max(1) as f64,
        "ns/frame",
    ));
    out.push(Metric::timed(
        "host.recv_ns_per_tuple",
        recv_ns / residual_tuples.max(1) as f64,
        "ns/tuple",
    ));

    // host: the residual table alone, on the same tuples pre-extracted.
    let mut keys: Vec<u8> = Vec::new();
    let mut entries: Vec<(usize, u64, usize, usize, u32)> = Vec::new();
    for bytes in &residual {
        let view = FrameView::parse(bytes.clone()).expect("residual frame parses");
        let mut keep = |task: TaskId, hash: u64, key: &[u8], value: u32| {
            entries.push((task.0 as usize, hash, keys.len(), key.len(), value));
            keys.extend_from_slice(key);
        };
        match view.packet() {
            PacketView::Data(d) => {
                for slot in d.slots() {
                    keep(d.task(), slot.hash64(), slot.key_bytes(), slot.value());
                }
            }
            PacketView::LongKv { task, .. } => {
                for entry in view.entries().expect("long-kv body has entries") {
                    keep(*task, entry.hash64(), entry.key_bytes(), entry.value());
                }
            }
            _ => unreachable!("only data and long-kv frames are forwarded"),
        }
    }
    let mut tables: Vec<TaskTable> = (0..TASKS).map(|_| TaskTable::new()).collect();
    tracer.span("host.merge", |_| {
        for &(task, hash, at, len, value) in &entries {
            tables[task].merge_hashed(hash, &keys[at..at + len], value, AggregateOp::Sum);
        }
    });
    black_box(&tables);
    out.push(Metric::timed(
        "host.merge_ns_per_tuple",
        tracer.total_ns("host.merge") as f64 / entries.len().max(1) as f64,
        "ns/tuple",
    ));

    // simnet: the event queue alone, then a bare relay of the same frames.
    let mean_wire = frames.iter().map(|f| f.wire).sum::<usize>() / frames.len();
    let gap = workload
        .link
        .serialization_delay(mean_wire)
        .as_nanos()
        .max(1);
    let mut queue = BenchEventQueue::new();
    tracer.span("simnet.queue", |_| {
        for i in 0..QUEUE_DEPTH {
            queue.push_timer(i * gap, i);
        }
        for i in 0..events {
            let (at, _) = queue.pop().expect("hold model keeps the queue full");
            queue.push_timer(at + QUEUE_DEPTH * gap, i);
        }
    });
    black_box(&queue);
    out.push(Metric::timed(
        "simnet.queue_ns_per_event",
        tracer.total_ns("simnet.queue") as f64 / (events + QUEUE_DEPTH) as f64,
        "ns/event",
    ));

    let mut b = NetworkBuilder::new(1);
    let sink = b.add_node(Sink);
    let source = b.add_node(Source {
        to: sink,
        gap: SimDuration::from_nanos(gap),
        frames: frames
            .iter()
            .map(|f| Frame::with_wire_bytes(f.bytes.clone(), f.wire))
            .collect(),
    });
    b.connect(source, sink, workload.link.clone());
    let mut net = b.build();
    tracer.span("simnet.relay", |_| net.run_to_idle());
    out.push(Metric::timed(
        "simnet.relay_ns_per_frame",
        tracer.total_ns("simnet.relay") as f64 / n_frames,
        "ns/frame",
    ));

    out
}

/// Swallows whatever reaches it: the switch stand-in of the host drive and
/// the far end of the relay drive.
struct Sink;

impl Node for Sink {
    fn on_frame(&mut self, _from: NodeId, _frame: Frame, _ctx: &mut Context<'_>) {}
}

/// Sends its frames to `to`, one per timer tick, `gap` apart.
struct Source {
    to: NodeId,
    gap: SimDuration,
    frames: VecDeque<Frame>,
}

impl Node for Source {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.gap, 0);
    }

    fn on_frame(&mut self, _from: NodeId, _frame: Frame, _ctx: &mut Context<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        if let Some(frame) = self.frames.pop_front() {
            let _ = ctx.send(self.to, frame);
            ctx.set_timer(self.gap, 0);
        }
    }
}

/// Feeds `frames` to a daemon in a two-node network (a sink stands in for
/// the switch), one frame per delivery burst as every end-to-end run
/// delivers them, one `host.recv` span per chunk of frames. The ACKs the
/// daemon emits are drained between chunks, outside the spans. Returns the
/// tuples the frames carried.
///
/// The tasks are denied switch memory first, so that the daemon merges
/// every delivered tuple but never starts the swap/fetch exchange, which
/// needs a live switch to answer it.
fn host_recv(workload: &Workload, frames: &[Bytes], tracer: &mut Tracer) -> u64 {
    let layout = workload.config.layout;
    let mut b = NetworkBuilder::new(1);
    let sink = b.add_node(Sink);
    let daemon = b.add_node(AskDaemon::new(workload.config.clone(), sink));
    assert_eq!(
        (sink.index() as u32, daemon.index() as u32),
        (SWITCH, RECEIVER)
    );
    b.connect(sink, daemon, workload.link.clone());
    let mut net = b.build();
    let senders: Vec<u32> = (0..workload.senders as u32)
        .map(|s| FIRST_SENDER + s)
        .collect();
    for task in (0..TASKS as u32).map(TaskId) {
        net.with_node::<AskDaemon, _>(daemon, |d, ctx| d.submit_receive_task(task, &senders, ctx));
        let deny = AskPacket::Control(ControlMsg::RegionDeny { task });
        let deny = encode_envelope_parts(SWITCH, RECEIVER, 0, 0, &deny, &layout);
        net.with_node::<AskDaemon, _>(daemon, |d, ctx| d.on_frame(sink, Frame::new(deny), ctx));
    }
    drain(&mut net);

    let before = net.node::<AskDaemon>(daemon).stats().tuples_host_aggregated;
    let mut burst: Vec<(NodeId, Frame)> = Vec::with_capacity(1);
    for chunk in frames.chunks(RECV_CHUNK) {
        let chunk: Vec<Frame> = chunk.iter().map(|b| Frame::new(b.clone())).collect();
        tracer.span("host.recv", |_| {
            net.with_node::<AskDaemon, _>(daemon, |d, ctx| {
                for frame in chunk {
                    burst.push((sink, frame));
                    d.on_frames(&mut burst, ctx);
                }
            })
        });
        drain(&mut net);
    }
    net.node::<AskDaemon>(daemon).stats().tuples_host_aggregated - before
}

/// Delivers what the daemon has sent (ACKs, announcements) by running the
/// network a little way on. Not to idle: the daemon re-announces unfinished
/// tasks on a timer for as long as it lives.
fn drain(net: &mut Network) {
    let until = SimTime::from_nanos(net.now().as_nanos() + 50_000);
    net.run(Some(until), None);
}
