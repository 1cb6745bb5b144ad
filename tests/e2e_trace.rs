//! Protocol-sequencing assertions via the daemons' trace logs: properties
//! the aggregate counters cannot express.

use ask::host::trace::TraceEvent;
use ask::prelude::*;
use ask_simnet::faults::FaultModel;
use ask_simnet::link::LinkConfig;
use ask_simnet::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

fn traced_config() -> AskConfig {
    let mut cfg = AskConfig::tiny();
    cfg.trace_capacity = 100_000;
    cfg
}

fn stream(seed: u64, n: usize) -> Vec<KvTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| KvTuple::new(Key::from_u64(rng.gen_range(0..64)), rng.gen_range(1..9)))
        .collect()
}

fn run(cfg: AskConfig, loss: f64, seed: u64) -> AskService {
    run_stream(cfg, loss, seed, stream(seed, 800))
}

fn run_stream(cfg: AskConfig, loss: f64, seed: u64, tuples: Vec<KvTuple>) -> AskService {
    let link = LinkConfig::new(100e9, SimDuration::from_micros(1))
        .with_faults(FaultModel::reliable().with_loss(loss));
    let mut service = AskServiceBuilder::new(2)
        .config(cfg)
        .link(link)
        .seed(seed)
        .build();
    let hosts = service.hosts().to_vec();
    service.submit_task(TaskId(1), hosts[0], &[hosts[1]]);
    service.submit_stream(TaskId(1), hosts[1], tuples);
    service
        .run_until_complete(TaskId(1), hosts[0], 50_000_000)
        .expect("completes");
    service
}

fn events(service: &AskService, host: usize) -> Vec<TraceEvent> {
    let h = service.hosts()[host];
    service
        .daemon(h)
        .trace()
        .events()
        .map(|(_, e)| e.clone())
        .collect()
}

#[test]
fn every_ack_has_a_preceding_send() {
    let service = run(traced_config(), 0.0, 1);
    let sender = events(&service, 1);
    let mut sent: HashSet<(u32, u64)> = HashSet::new();
    for e in &sender {
        match e {
            TraceEvent::PacketSent { channel, seq, .. } => {
                sent.insert((channel.0, seq.0));
            }
            TraceEvent::AckReceived { channel, seq } => {
                assert!(
                    sent.contains(&(channel.0, seq.0)),
                    "ACK for unsent packet {channel:?}/{seq:?}"
                );
            }
            _ => {}
        }
    }
    assert!(
        sender
            .iter()
            .any(|e| matches!(e, TraceEvent::PacketSent { .. })),
        "sender traced its sends"
    );
}

#[test]
fn clean_network_never_retransmits_or_duplicates() {
    let service = run(traced_config(), 0.0, 2);
    for host in 0..2 {
        for e in events(&service, host) {
            assert!(
                !matches!(
                    e,
                    TraceEvent::Retransmitted { .. } | TraceEvent::DuplicateDropped { .. }
                ),
                "unexpected {e:?} on a clean network"
            );
        }
    }
}

#[test]
fn lossy_network_retransmits_before_duplicates_surface() {
    let service = run(traced_config(), 0.08, 3);
    let sender = events(&service, 1);
    let retx: Vec<(u32, u64)> = sender
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Retransmitted { channel, seq } => Some((channel.0, seq.0)),
            _ => None,
        })
        .collect();
    assert!(!retx.is_empty(), "8% loss must force retransmissions");
    // Every retransmitted sequence was originally sent.
    let sent: HashSet<(u32, u64)> = sender
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PacketSent { channel, seq, .. } => Some((channel.0, seq.0)),
            _ => None,
        })
        .collect();
    for r in &retx {
        assert!(sent.contains(r), "retransmit of unsent {r:?}");
    }
}

#[test]
fn completion_follows_region_resolution_and_fetch() {
    let service = run(traced_config(), 0.0, 4);
    let receiver = events(&service, 0);
    let pos = |pred: &dyn Fn(&TraceEvent) -> bool| receiver.iter().position(pred);
    let region = pos(&|e| matches!(e, TraceEvent::RegionResolved { granted: true, .. }))
        .expect("region granted");
    let fetch = pos(&|e| matches!(e, TraceEvent::FetchSent { .. })).expect("fetch sent");
    let merged = pos(&|e| matches!(e, TraceEvent::FetchMerged { .. })).expect("fetch merged");
    let done = pos(&|e| matches!(e, TraceEvent::TaskCompleted { .. })).expect("completed");
    assert!(region < fetch, "region before fetch");
    assert!(fetch < merged, "fetch before merge");
    assert!(merged <= done, "merge before completion");
}

#[test]
fn tracing_disabled_records_nothing() {
    let service = run(AskConfig::tiny(), 0.0, 5);
    for host in 0..2 {
        assert!(events(&service, host).is_empty());
    }
}

#[test]
fn receiver_traces_every_long_kv_and_fin_once() {
    // Short keys ride data frames, which the switch may absorb whole. The
    // long keys ride long-kv frames, sent after every data frame and before
    // the FIN on the task's one channel, and those always reach the
    // receiver: each must be traced `Received` there exactly once.
    let cfg = traced_config();
    let long_kv_frames = 200usize.div_ceil(cfg.long_kv_batch);
    let mut tuples = stream(6, 800);
    tuples.extend((0..200).map(|i| {
        let key = Key::from_str(&format!("a-long-key-{:03}", i % 40)).unwrap();
        KvTuple::new(key, 1)
    }));
    let service = run_stream(cfg, 0.0, 6, tuples);

    let mut sent: Vec<(u32, u64)> = events(&service, 1)
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::PacketSent { channel, seq, .. } => Some((channel.0, seq.0)),
            _ => None,
        })
        .collect();
    sent.sort_unstable_by_key(|&(_, seq)| seq);
    let mut received: HashMap<(u32, u64), usize> = HashMap::new();
    for e in events(&service, 0) {
        if let TraceEvent::Received { channel, seq } = e {
            *received.entry((channel.0, seq.0)).or_default() += 1;
        }
    }
    let bypass = &sent[sent.len() - (long_kv_frames + 1)..];
    for frame in bypass {
        assert_eq!(received.get(frame), Some(&1), "long-kv or FIN {frame:?}");
    }
    for (frame, &n) in &received {
        assert!(sent.contains(frame), "received unsent {frame:?}");
        assert_eq!(n, 1, "{frame:?} received twice on a clean network");
    }
}
