//! End-to-end correctness: the distributed ASK result must equal the
//! reference host-side aggregation — *exactly once* per tuple — under clean
//! and adversarial network conditions (§3.3's correctness claim).

use ask::prelude::*;
use ask_simnet::faults::FaultModel;
use ask_simnet::link::LinkConfig;
use ask_simnet::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn kv(s: &str, v: u32) -> KvTuple {
    KvTuple::new(Key::from_str(s).unwrap(), v)
}

/// Builds a service, runs one task over the given streams, and checks the
/// result against the reference aggregation.
fn run_and_check(
    config: AskConfig,
    link: LinkConfig,
    streams: Vec<Vec<KvTuple>>,
    seed: u64,
) -> (AskService, TaskId) {
    let hosts_n = streams.len() + 1;
    let mut service = AskServiceBuilder::new(hosts_n)
        .config(config)
        .link(link)
        .seed(seed)
        .build();
    let hosts = service.hosts().to_vec();
    let receiver = hosts[0];
    let senders = &hosts[1..];
    let task = TaskId(7);

    let expected = reference_aggregate(streams.iter().flatten().cloned());

    service.submit_task(task, receiver, senders);
    for (i, stream) in streams.into_iter().enumerate() {
        service.submit_stream(task, senders[i], stream);
    }
    service
        .run_until_complete(task, receiver, 50_000_000)
        .expect("task completes");
    let got = service.result(task, receiver).expect("result present");
    assert_eq!(got.len(), expected.len(), "distinct key count");
    for (k, v) in &expected {
        assert_eq!(got.get(k), Some(v), "key {k}");
    }
    (service, task)
}

fn clean_link() -> LinkConfig {
    LinkConfig::new(100e9, SimDuration::from_micros(1))
}

fn nasty_link(loss: f64, dup: f64) -> LinkConfig {
    LinkConfig::new(100e9, SimDuration::from_micros(1)).with_faults(
        FaultModel::reliable()
            .with_loss(loss)
            .with_duplication(dup)
            .with_reordering(0.05, SimDuration::from_micros(30)),
    )
}

fn random_stream(seed: u64, n: usize, distinct: u64) -> Vec<KvTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            KvTuple::new(
                Key::from_u64(rng.gen_range(0..distinct)),
                rng.gen_range(1..10),
            )
        })
        .collect()
}

#[test]
fn two_senders_clean_network() {
    run_and_check(
        AskConfig::tiny(),
        clean_link(),
        vec![
            vec![kv("apple", 1), kv("banana", 2), kv("apple", 3)],
            vec![kv("banana", 10), kv("cherry", 5)],
        ],
        1,
    );
}

#[test]
fn large_uniform_streams_mostly_absorbed_by_switch() {
    let mut cfg = AskConfig::tiny();
    cfg.aggregators_per_aa = 4096;
    cfg.region_aggregators = 4096;
    let streams: Vec<Vec<KvTuple>> = (0..3).map(|s| random_stream(s, 4000, 500)).collect();
    let (service, task) = run_and_check(cfg, clean_link(), streams, 2);
    let stats = service.switch_stats(task).expect("switch saw the task");
    assert!(
        stats.tuple_aggregation_ratio() > 0.95,
        "uniform small-key-space workload should aggregate on-switch, got {}",
        stats.tuple_aggregation_ratio()
    );
    assert_eq!(stats.stale_dropped, 0);
}

#[test]
fn correctness_under_heavy_loss() {
    run_and_check(
        AskConfig::tiny(),
        nasty_link(0.05, 0.0),
        (0..2).map(|s| random_stream(10 + s, 1500, 120)).collect(),
        3,
    );
}

#[test]
fn correctness_under_duplication_and_reordering() {
    run_and_check(
        AskConfig::tiny(),
        nasty_link(0.0, 0.05),
        (0..2).map(|s| random_stream(20 + s, 1500, 120)).collect(),
        4,
    );
}

#[test]
fn correctness_under_combined_faults() {
    let (service, task) = run_and_check(
        AskConfig::tiny(),
        nasty_link(0.03, 0.03),
        (0..3).map(|s| random_stream(30 + s, 1000, 100)).collect(),
        5,
    );
    let hstats = service.host_stats(service.hosts()[1]);
    assert!(hstats.retransmissions > 0, "loss must trigger retransmits");
    let sstats = service.switch_stats(task).unwrap();
    assert!(
        sstats.duplicates_detected > 0,
        "retransmits over a duplicating link must hit the dedup logic"
    );
}

#[test]
fn window_that_is_not_a_power_of_two_runs_end_to_end() {
    // W = 6 sits in a ring of 8 slots: the sender must fill the window to
    // exactly 6 and no further, and losses, duplicates and reordering must
    // not let a stray ACK or timer reach a slot through its alias.
    let mut cfg = AskConfig::tiny();
    cfg.window = 6;
    let (service, _) = run_and_check(
        cfg,
        nasty_link(0.03, 0.03),
        (0..2).map(|s| random_stream(40 + s, 1500, 120)).collect(),
        6,
    );
    for &sender in &service.hosts()[1..] {
        let stats = service.host_stats(sender);
        assert!(stats.retransmissions > 0, "loss must trigger retransmits");
        for ch in service.daemon(sender).channel_snapshots() {
            assert_eq!(ch.peak_in_flight, 6, "{}: window fills to W", ch.channel);
            assert_eq!((ch.in_flight, ch.queued, ch.outstanding), (0, 0, 0));
        }
    }
}

#[test]
fn long_keys_bypass_switch_but_aggregate_correctly() {
    let streams = vec![
        vec![
            kv("a-key-way-beyond-eight-bytes", 4),
            kv("another-quite-long-key", 6),
            kv("a-key-way-beyond-eight-bytes", 1),
        ],
        vec![kv("another-quite-long-key", 10), kv("ok", 1)],
    ];
    let (service, task) = run_and_check(AskConfig::tiny(), clean_link(), streams, 6);
    let stats = service.switch_stats(task).unwrap();
    assert!(stats.longkv_packets_forwarded > 0, "bypass path exercised");
    assert!(
        stats.tuples_long_forwarded >= 4,
        "every long tuple rides a bypass packet"
    );
    assert_eq!(
        stats.tuples_aggregated + stats.tuples_forwarded,
        1,
        "only the one short key enters the aggregation path"
    );
}

#[test]
fn skewed_workload_with_tiny_region_and_swapping() {
    let mut cfg = AskConfig::tiny();
    cfg.region_aggregators = 8;
    cfg.aggregators_per_aa = 8;
    cfg.swap_threshold = 50;
    // Zipf-ish skew: key i appears ~ 1/(i+1) times.
    let mut stream = Vec::new();
    for i in 0u64..200 {
        for _ in 0..(400 / (i + 1)).max(1) {
            stream.push(KvTuple::new(Key::from_u64(i), 1));
        }
    }
    let (service, task) = run_and_check(cfg, clean_link(), vec![stream], 7);
    let stats = service.switch_stats(task).unwrap();
    assert!(stats.swaps > 0, "swap threshold must trigger swaps");
    assert!(stats.tuples_fetched > 0, "periodic fetches harvest results");
}

#[test]
fn region_denial_falls_back_to_host_only() {
    let mut cfg = AskConfig::tiny();
    // First task grabs the whole per-copy space; second task is denied.
    cfg.region_aggregators = cfg.aggregators_per_aa;
    let mut service = AskServiceBuilder::new(3).config(cfg).seed(8).build();
    let hosts = service.hosts().to_vec();

    let t1 = TaskId(1);
    let t2 = TaskId(2);
    service.submit_task(t1, hosts[0], &[hosts[1]]);
    service.submit_task(t2, hosts[1], &[hosts[2]]);
    let s1 = random_stream(100, 500, 50);
    let s2 = random_stream(200, 500, 50);
    let e1 = reference_aggregate(s1.iter().cloned());
    let e2 = reference_aggregate(s2.iter().cloned());
    service.submit_stream(t1, hosts[1], s1);
    service.submit_stream(t2, hosts[2], s2);
    service
        .run_until_complete(t1, hosts[0], 20_000_000)
        .unwrap();
    service
        .run_until_complete(t2, hosts[1], 20_000_000)
        .unwrap();

    let g1 = service.result(t1, hosts[0]).unwrap();
    let g2 = service.result(t2, hosts[1]).unwrap();
    assert_eq!(g1, e1);
    assert_eq!(g2, e2, "denied task must still aggregate correctly");
    let st2 = service.switch_stats(t2);
    assert!(
        st2.is_none() || st2.unwrap().tuples_aggregated == 0,
        "denied task never aggregates on switch"
    );
}

#[test]
fn concurrent_tasks_are_isolated() {
    let mut cfg = AskConfig::tiny();
    cfg.region_aggregators = 16; // 4 tasks fit in the 64-aggregator space
    let mut service = AskServiceBuilder::new(4).config(cfg).seed(9).build();
    let hosts = service.hosts().to_vec();

    // Two tasks sharing the same keys but different values.
    let t1 = TaskId(11);
    let t2 = TaskId(22);
    service.submit_task(t1, hosts[0], &[hosts[2], hosts[3]]);
    service.submit_task(t2, hosts[1], &[hosts[2], hosts[3]]);
    let mk = |mult: u32| -> Vec<KvTuple> {
        (0..300u64)
            .map(|i| KvTuple::new(Key::from_u64(i % 40), mult))
            .collect()
    };
    service.submit_stream(t1, hosts[2], mk(1));
    service.submit_stream(t1, hosts[3], mk(1));
    service.submit_stream(t2, hosts[2], mk(100));
    service.submit_stream(t2, hosts[3], mk(100));
    service
        .run_until_complete(t1, hosts[0], 20_000_000)
        .unwrap();
    service
        .run_until_complete(t2, hosts[1], 20_000_000)
        .unwrap();

    let g1 = service.result(t1, hosts[0]).unwrap();
    let g2 = service.result(t2, hosts[1]).unwrap();
    // 300 tuples over 40 keys: keys 0..20 appear 8 times, 20..40 appear 7.
    for i in 0..40u64 {
        let per_sender = if i < 20 { 8 } else { 7 };
        let k = Key::from_u64(i);
        assert_eq!(g1[&k], 2 * per_sender, "task 1, key {i}");
        assert_eq!(g2[&k], 2 * per_sender * 100, "task 2, key {i}");
    }
}

#[test]
fn sequential_tasks_reuse_channels_and_regions() {
    let mut service = AskServiceBuilder::new(2)
        .config(AskConfig::tiny())
        .seed(10)
        .build();
    let hosts = service.hosts().to_vec();
    for round in 0..5u32 {
        let task = TaskId(round);
        let stream = random_stream(round as u64, 400, 60);
        let expected = reference_aggregate(stream.iter().cloned());
        service.submit_task(task, hosts[0], &[hosts[1]]);
        service.submit_stream(task, hosts[1], stream);
        service
            .run_until_complete(task, hosts[0], 20_000_000)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(service.result(task, hosts[0]).unwrap(), expected);
    }
    // Persistent channels: sequence numbers continue across tasks, so the
    // switch kept one window per channel throughout.
    let stats = service.host_stats(hosts[1]);
    assert!(stats.packets_sent >= 5, "five tasks sent packets");
}

#[test]
fn co_located_sender_merges_locally() {
    let mut service = AskServiceBuilder::new(2)
        .config(AskConfig::tiny())
        .seed(11)
        .build();
    let hosts = service.hosts().to_vec();
    let task = TaskId(1);
    // hosts[0] is receiver AND sender; hosts[1] is a remote sender.
    service.submit_task(task, hosts[0], &[hosts[0], hosts[1]]);
    let local = vec![kv("x", 1), kv("y", 2)];
    let remote = vec![kv("x", 10), kv("z", 3)];
    let expected = reference_aggregate(local.iter().cloned().chain(remote.iter().cloned()));
    service.submit_stream(task, hosts[0], local);
    service.submit_stream(task, hosts[1], remote);
    service
        .run_until_complete(task, hosts[0], 10_000_000)
        .unwrap();
    assert_eq!(service.result(task, hosts[0]).unwrap(), expected);
    // Local tuples never crossed the network as data packets.
    let local_stats = service.host_stats(hosts[0]);
    assert!(local_stats.tuples_host_aggregated >= 2);
}

#[test]
fn value_stream_mode_indices_as_keys() {
    // Backward compatibility with value-stream aggregation (§5.6): the
    // "keys" are tensor indices, every sender contributes every index.
    let n_senders = 3;
    let len = 256u64;
    let streams: Vec<Vec<KvTuple>> = (0..n_senders)
        .map(|_| {
            (0..len)
                .map(|i| KvTuple::new(Key::from_u64(i), 1))
                .collect()
        })
        .collect();
    let (service, task) = run_and_check(AskConfig::tiny(), clean_link(), streams, 12);
    let got = service.result(task, service.hosts()[0]).unwrap();
    assert!(got.values().all(|&v| v == n_senders as u32));
}

#[test]
fn wrapping_values_are_consistent() {
    // Values near u32::MAX must wrap identically on switch and host.
    let streams = vec![
        vec![kv("w", u32::MAX), kv("w", 2)],
        vec![kv("w", u32::MAX), kv("w", 5)],
    ];
    run_and_check(AskConfig::tiny(), clean_link(), streams, 13);
}

#[test]
fn one_key_wraps_in_the_switch_in_the_host_merge_and_in_a_fetch_reply() {
    // ROADMAP 4c. One slot, one aggregator per copy: "v" arrives first and
    // claims copy A, so every "w" behind it is forwarded and merged by the
    // receiver; those residual packets trigger the shadow swap, "w" claims
    // the empty copy B and is absorbed from then on; the final fetch
    // returns its switch partial into the host's. Each "w" is worth more
    // than half the value space, so any two of them wrap wherever they
    // meet — and all three places must land on `reference_aggregate`.
    let mut cfg = AskConfig::tiny();
    cfg.layout = PacketLayout::short_only(1);
    cfg.region_aggregators = 1;
    cfg.swap_threshold = 4;
    const W: u32 = 0x9fff_ffff;
    let mut stream = vec![kv("v", 1)];
    stream.extend((0..40).map(|_| kv("w", W)));
    let (service, task) = run_and_check(cfg, clean_link(), vec![stream], 21);

    let switch = service.switch_stats(task).unwrap();
    let receiver = service.host_stats(service.hosts()[0]);
    // "v" is one tuple, absorbed once and fetched once; the rest is "w".
    let in_switch = (switch.tuples_aggregated - 1) as u32;
    let in_host_merge = (receiver.tuples_host_aggregated - receiver.tuples_fetched) as u32;
    assert_eq!(in_switch + in_host_merge, 40);
    assert!(
        in_switch >= 2,
        "w wrapped in the switch ALU ({in_switch} absorbed)"
    );
    assert!(
        in_host_merge >= 2,
        "w wrapped in the host merge ({in_host_merge} residual)"
    );
    assert_eq!(
        (switch.swaps, receiver.tuples_fetched),
        (1, 2),
        "v, then w, was fetched"
    );
    assert!(
        W.wrapping_mul(in_host_merge)
            .checked_add(W.wrapping_mul(in_switch))
            .is_none(),
        "merging the fetched partial into the host's wrapped once more"
    );
    let got = service.result(task, service.hosts()[0]).unwrap();
    assert_eq!(got[&Key::from_str("w").unwrap()], W.wrapping_mul(40));
}

#[test]
fn u32_sums_wrap_alike_on_every_path() {
    // ROADMAP 1(b). One task in which every key's total passes 2^32, and the
    // keys spread over all four places a SUM is formed: the switch ALU
    // (absorbed short and medium slots), the receiver's merge of conflict
    // residuals, its merge of long-kv entries, and its merge of the final
    // fetch. Every tuple is worth more than a quarter of the value space,
    // every key arrives six times, and no two of its six values are equal,
    // so each total is a real chain of wrapping adds.
    let mut cfg = AskConfig::tiny();
    cfg.region_aggregators = 2; // 2 aggregators per array: most keys conflict
    const W: u32 = 0x4000_0001;
    let keys: Vec<String> = (0..24)
        .map(|i| format!("k{i}")) // short
        .chain((0..8).map(|i| format!("medium{i}"))) // medium
        .chain((0..6).map(|i| format!("a-long-key-number-{i}"))) // long
        .collect();
    // Contribution j of 0..6 is W + j: sender s sends j = 2 * round + s.
    let stream = |s: u32| -> Vec<KvTuple> {
        (0..3)
            .flat_map(|round| keys.iter().map(move |k| kv(k, W + 2 * round + s)))
            .collect()
    };
    let streams = vec![stream(0), stream(1)];
    let expected = reference_aggregate(streams.iter().flatten().cloned());
    assert!(
        6 * u64::from(W) > u64::from(u32::MAX),
        "every key's total wraps"
    );
    let (service, task) = run_and_check(cfg, clean_link(), streams, 22);

    let switch = service.switch_stats(task).unwrap();
    let receiver = service.host_stats(service.hosts()[0]);
    assert!(
        switch.tuples_aggregated > 0,
        "the switch ALU summed some tuples"
    );
    assert!(
        switch.tuples_forwarded > 0,
        "conflict residuals reached the host"
    );
    assert!(
        receiver.tuples_host_aggregated > 0,
        "the host merge summed some tuples"
    );
    assert_eq!(
        switch.tuples_long_forwarded,
        6 * 6,
        "every long tuple bypassed"
    );
    assert!(
        receiver.tuples_fetched > 0,
        "the final fetch returned partials"
    );
    let got = service.result(task, service.hosts()[0]).unwrap();
    assert_eq!(
        got, expected,
        "the service and the reference aggregator agree"
    );
    let total = (0..6).fold(0u32, |sum, j| sum.wrapping_add(W + j));
    assert_eq!(
        total, 0x8000_0015,
        "6 * W + (0 + 1 + ... + 5) = 0x1_8000_0015, wrapped"
    );
    for k in &keys {
        assert_eq!(got[&Key::from_str(k).unwrap()], total, "{k}");
    }
}

#[test]
fn single_sender_many_keys_medium_and_short_mixed() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut stream = Vec::new();
    for _ in 0..2000 {
        let len = rng.gen_range(1..=10);
        let s: String = (0..len)
            .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
            .collect();
        stream.push(kv(&s, rng.gen_range(1..5)));
    }
    run_and_check(AskConfig::tiny(), clean_link(), vec![stream], 14);
}

#[test]
fn eight_senders_scale_out() {
    let streams: Vec<Vec<KvTuple>> = (0..8).map(|s| random_stream(s, 800, 100)).collect();
    run_and_check(AskConfig::tiny(), clean_link(), streams, 15);
}

#[test]
fn channel_state_exhaustion_degrades_to_pure_forwarding() {
    // §7 "Deployment in Multi-rack networks": a ToR can only keep
    // reliability state for its own rack's data channels; traffic from
    // channels beyond that capacity must still aggregate correctly at the
    // receiver, just without in-network aggregation.
    let mut cfg = AskConfig::tiny();
    cfg.max_channels = 2; // the first two channels get switch state
    let streams: Vec<Vec<KvTuple>> = (0..4).map(|s| random_stream(80 + s, 400, 60)).collect();
    let (service, task) = run_and_check(cfg, clean_link(), streams, 31);
    // Some channels were tracked (switch aggregated something), and the
    // overflow channels' tuples still arrived via the receiver.
    let stats = service.switch_stats(task).unwrap();
    assert!(stats.tuples_aggregated > 0, "in-rack channels get INA");
    let recv = service.host_stats(service.hosts()[0]);
    assert!(
        recv.tuples_host_aggregated > 0,
        "out-of-capacity channels fall back to host aggregation"
    );
}

#[test]
fn chained_pipeline_64_slot_layout() {
    // Four chained pipelines carry up to 128 tuples per packet in the
    // paper (§4); our PktState register bounds the layout at 64 slots.
    let mut cfg = AskConfig::tiny();
    cfg.layout = ask_wire::packet::PacketLayout::short_only(64);
    let streams = vec![random_stream(90, 3000, 400)];
    let (service, task) = run_and_check(cfg, clean_link(), streams, 32);
    let stats = service.switch_stats(task).unwrap();
    assert!(stats.tuples_aggregated > 0);
}

#[test]
fn faulty_control_plane_still_completes() {
    // Aggressive loss on every link: region requests, announces, fetches,
    // swaps, and FINs all face drops; retries must win eventually.
    run_and_check(
        AskConfig::tiny(),
        nasty_link(0.10, 0.02),
        vec![random_stream(55, 600, 80), random_stream(56, 600, 80)],
        16,
    );
}

#[test]
fn corruption_is_detected_and_recovered() {
    // Bit flips in transit fail the envelope CRC at the next hop; the
    // frame is discarded like a loss and the timeout recovers it, so the
    // aggregation stays exact even on a corrupting link.
    let link = LinkConfig::new(100e9, SimDuration::from_micros(1))
        .with_faults(FaultModel::reliable().with_corruption(0.05));
    let (service, _) = run_and_check(
        AskConfig::tiny(),
        link,
        vec![random_stream(60, 800, 90), random_stream(61, 800, 90)],
        41,
    );
    let retx: u64 = service
        .hosts()
        .iter()
        .map(|&h| service.host_stats(h).retransmissions)
        .sum();
    assert!(retx > 0, "corrupted frames must be retransmitted");
}

#[test]
fn max_and_min_operators_end_to_end() {
    // Per-task operators (§1's "generic" promise): MAX and MIN ride the
    // switch's match-table action data and the host merges alike — exact
    // under faults, including the idempotence MAX/MIN enjoy under
    // duplication.
    use ask::service::reference_aggregate_op;
    for op in [AggregateOp::Max, AggregateOp::Min] {
        let streams: Vec<Vec<KvTuple>> = (0..2).map(|s| random_stream(500 + s, 900, 70)).collect();
        let expected = reference_aggregate_op(streams.iter().flatten().cloned(), op);

        let mut service = AskServiceBuilder::new(3)
            .config(AskConfig::tiny())
            .link(nasty_link(0.03, 0.03))
            .seed(51)
            .build();
        let hosts = service.hosts().to_vec();
        let task = TaskId(1);
        service.submit_task_with_op(task, hosts[0], &hosts[1..], op);
        for (i, s) in streams.into_iter().enumerate() {
            service.submit_stream(task, hosts[1 + i], s);
        }
        service
            .run_until_complete(task, hosts[0], 50_000_000)
            .expect("completes");
        assert_eq!(
            service.result(task, hosts[0]).unwrap(),
            expected,
            "{op:?} must aggregate exactly"
        );
    }
}

#[test]
fn concurrent_tasks_with_different_operators() {
    // One SUM task and one MAX task share the switch simultaneously; the
    // per-task ALU selection must not leak between regions.
    use ask::service::reference_aggregate_op;
    let mut cfg = AskConfig::tiny();
    cfg.region_aggregators = 16;
    let mut service = AskServiceBuilder::new(3).config(cfg).seed(52).build();
    let hosts = service.hosts().to_vec();
    let stream_a = random_stream(600, 600, 50);
    let stream_b = random_stream(601, 600, 50);
    let e_sum = reference_aggregate(stream_a.iter().cloned());
    let e_max = reference_aggregate_op(stream_b.iter().cloned(), AggregateOp::Max);

    service.submit_task_with_op(TaskId(1), hosts[0], &[hosts[2]], AggregateOp::Sum);
    service.submit_task_with_op(TaskId(2), hosts[1], &[hosts[2]], AggregateOp::Max);
    service.submit_stream(TaskId(1), hosts[2], stream_a);
    service.submit_stream(TaskId(2), hosts[2], stream_b);
    service
        .run_until_complete(TaskId(1), hosts[0], 50_000_000)
        .unwrap();
    service
        .run_until_complete(TaskId(2), hosts[1], 50_000_000)
        .unwrap();
    assert_eq!(service.result(TaskId(1), hosts[0]).unwrap(), e_sum);
    assert_eq!(service.result(TaskId(2), hosts[1]).unwrap(), e_max);
}

#[test]
fn task_churn_exercises_region_allocator() {
    // Thirty sequential tasks of varying shapes through one service
    // instance: regions are granted, fragmented, coalesced, and reused;
    // persistent channels carry ever-growing sequence numbers; every task
    // stays exactly-once.
    let mut cfg = AskConfig::tiny();
    cfg.region_aggregators = 16; // 4 concurrent regions fit
    let mut service = AskServiceBuilder::new(4).config(cfg).seed(71).build();
    let hosts = service.hosts().to_vec();
    let mut rng = StdRng::seed_from_u64(72);

    for round in 0..30u32 {
        let task = TaskId(round);
        let receiver = hosts[(round as usize) % hosts.len()];
        let senders: Vec<_> = hosts
            .iter()
            .copied()
            .filter(|h| *h != receiver)
            .take(1 + (round as usize) % 3)
            .collect();
        let streams: Vec<Vec<KvTuple>> = senders
            .iter()
            .map(|_| random_stream(rng.gen(), 100 + (round as usize * 17) % 300, 40))
            .collect();
        let expected = reference_aggregate(streams.iter().flatten().cloned());
        service.submit_task(task, receiver, &senders);
        for (i, s) in streams.into_iter().enumerate() {
            service.submit_stream(task, senders[i], s);
        }
        service
            .run_until_complete(task, receiver, 20_000_000)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(
            service.result(task, receiver).unwrap(),
            expected,
            "round {round}"
        );
        // The region was granted (the allocator kept up with churn).
        let stats = service.switch_stats(task).unwrap();
        assert!(
            stats.tuples_aggregated > 0,
            "round {round} should get switch memory after earlier releases"
        );
    }
}
