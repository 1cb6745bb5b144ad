//! Protocol-sequencing assertions read from the simulator's frame trace:
//! properties of what crosses the wire that the aggregate counters cannot
//! express.

mod common;

use ask::prelude::*;
use ask_simnet::faults::FaultModel;
use ask_simnet::link::LinkConfig;
use ask_simnet::time::SimDuration;
use ask_wire::packet::ControlMsg;
use common::{Kind, WireFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

fn stream(seed: u64, n: usize) -> Vec<KvTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| KvTuple::new(Key::from_u64(rng.gen_range(0..64)), rng.gen_range(1..9)))
        .collect()
}

fn run(loss: f64, seed: u64) -> (AskService, Vec<WireFrame>) {
    run_stream(loss, seed, stream(seed, 800))
}

/// Host 1 streams `tuples` to host 0 over links losing `loss` of frames;
/// returns the finished service and every frame it sent.
fn run_stream(loss: f64, seed: u64, tuples: Vec<KvTuple>) -> (AskService, Vec<WireFrame>) {
    let link = LinkConfig::new(100e9, SimDuration::from_micros(1))
        .with_faults(FaultModel::reliable().with_loss(loss));
    let mut service = AskServiceBuilder::new(2)
        .config(AskConfig::tiny())
        .link(link)
        .seed(seed)
        .build();
    common::enable(&mut service);
    let hosts = service.hosts().to_vec();
    service.submit_task(TaskId(1), hosts[0], &[hosts[1]]);
    service.submit_stream(TaskId(1), hosts[1], tuples);
    service
        .run_until_complete(TaskId(1), hosts[0], 50_000_000)
        .expect("completes");
    let frames = common::frames(&mut service);
    (service, frames)
}

#[test]
fn every_ack_has_a_preceding_send() {
    let (service, frames) = run(0.0, 1);
    let sender = service.hosts()[1];
    let mut sent = HashSet::new();
    let mut acks = 0;
    for f in &frames {
        if f.from == sender {
            sent.extend(f.sent_seq());
        }
        if let Some(acked) = f.acked_seq().filter(|_| f.to == sender) {
            acks += f.copies_delivered();
            assert!(sent.contains(&acked), "ACK for unsent packet {acked:?}");
        }
    }
    assert!(!sent.is_empty(), "the sender sent sequenced frames");
    assert!(acks > 0, "ACKs reached the sender");
}

#[test]
fn clean_network_never_retransmits_or_duplicates() {
    let (service, frames) = run(0.0, 2);
    let receiver = service.hosts()[0];
    for &host in service.hosts() {
        let mut sent = HashSet::new();
        for key in frames
            .iter()
            .filter(|f| f.from == host)
            .filter_map(WireFrame::sent_seq)
        {
            assert!(sent.insert(key), "{host} resent {key:?} on a clean network");
        }
    }
    let mut delivered: HashMap<_, usize> = HashMap::new();
    for f in frames.iter().filter(|f| f.to == receiver) {
        if let Some(key) = f.sent_seq() {
            *delivered.entry(key).or_default() += f.copies_delivered();
        }
    }
    assert!(!delivered.is_empty(), "frames reached the receiver");
    for (key, n) in delivered {
        assert!(
            n <= 1,
            "{key:?} reached the receiver {n} times on a clean network"
        );
    }
}

#[test]
fn lossy_network_retransmits_before_duplicates_surface() {
    let (service, frames) = run(0.08, 3);
    let sender = service.hosts()[1];
    let rto = service.config().retransmit_timeout;
    let mut last: HashMap<_, &WireFrame> = HashMap::new();
    let mut resends = 0;
    for f in frames.iter().filter(|f| f.from == sender) {
        let Some(key) = f.sent_seq() else { continue };
        let Some(prev) = last.insert(key, f) else {
            continue;
        };
        resends += 1;
        assert_eq!(f.frame, prev.frame, "{key:?} resent with other bytes");
        assert_eq!(
            f.at,
            prev.at + rto,
            "{key:?} copy at {} was not resent one flat timeout later",
            prev.at
        );
    }
    assert!(resends > 0, "8% loss must force retransmissions");
    assert_eq!(resends, service.host_stats(sender).retransmissions);
}

#[test]
fn completion_follows_region_resolution_and_fetch() {
    let (service, frames) = run(0.0, 4);
    let receiver = service.hosts()[0];
    let switch = service.switch_id();
    let pos = |what: &str, pred: &dyn Fn(&WireFrame) -> bool| {
        frames
            .iter()
            .position(pred)
            .unwrap_or_else(|| panic!("no {what}"))
    };
    let grant = pos("grant", &|f| {
        f.to == receiver && matches!(f.kind, Kind::Control(ControlMsg::RegionGrant { .. }))
    });
    let fetch = pos("fetch request", &|f| {
        f.from == receiver && matches!(f.kind, Kind::FetchRequest { .. })
    });
    let reply = pos("fetch reply", &|f| {
        f.from == switch && f.to == receiver && matches!(f.kind, Kind::FetchReply { .. })
    });
    assert!(grant < fetch, "region granted before the fetch");
    assert!(fetch < reply, "fetch requested before the reply");
    let done = service.task_result(TaskId(1), receiver).expect("completed");
    assert!(
        frames[reply].at <= done.completed_at,
        "reply sent by completion"
    );
}

#[test]
fn receiver_traces_every_long_kv_and_fin_once() {
    // Short keys ride data frames, which the switch may absorb whole. The
    // long keys ride long-kv frames, sent after every data frame and before
    // the FIN on the task's one channel, and those always reach the
    // receiver: each must be delivered there exactly once.
    let long_kv_frames = 200usize.div_ceil(AskConfig::tiny().long_kv_batch);
    let mut tuples = stream(6, 800);
    tuples.extend((0..200).map(|i| {
        let key = Key::from_str(&format!("a-long-key-{:03}", i % 40)).unwrap();
        KvTuple::new(key, 1)
    }));
    let (service, frames) = run_stream(0.0, 6, tuples);
    let (receiver, sender) = (service.hosts()[0], service.hosts()[1]);

    let bypass = |f: &&WireFrame| matches!(f.kind, Kind::LongKv { .. } | Kind::Fin { .. });
    let sent: HashSet<_> = frames
        .iter()
        .filter(|f| f.from == sender)
        .filter(bypass)
        .filter_map(WireFrame::sent_seq)
        .collect();
    assert_eq!(sent.len(), long_kv_frames + 1, "long-kv frames and one FIN");
    let mut delivered: HashMap<_, usize> = HashMap::new();
    for f in frames.iter().filter(|f| f.to == receiver).filter(bypass) {
        *delivered.entry(f.sent_seq().unwrap()).or_default() += f.copies_delivered();
    }
    for key in &sent {
        assert_eq!(delivered.get(key), Some(&1), "long-kv or FIN {key:?}");
    }
    assert_eq!(
        delivered.len(),
        sent.len(),
        "the receiver got only what was sent"
    );
}
