//! Defensive paths: garbage frames, misrouted packets, and orphan data
//! must be counted and contained, never panicking or corrupting results.

use ask::prelude::*;
use ask::switch::AskSwitch;
use ask_simnet::frame::Frame;
use bytes::Bytes;

#[test]
fn garbage_frames_are_counted_and_ignored() {
    let mut service = AskServiceBuilder::new(2)
        .config(AskConfig::tiny())
        .seed(1)
        .build();
    let hosts = service.hosts().to_vec();
    let switch = service.switch_id();

    // Inject undecodable junk into the switch from a host.
    for junk in [
        Bytes::from_static(b""),
        Bytes::from_static(b"ab"),
        Bytes::from_static(&[0xff; 64]),
    ] {
        service
            .network_mut()
            .with_node::<AskDaemon, _>(hosts[1], |_daemon, ctx| {
                let _ = ctx.send(switch, Frame::new(junk.clone()));
            });
    }
    service.run_to_idle();
    let sw: &AskSwitch = service.network_mut().node(switch);
    assert_eq!(sw.unroutable(), 0);
    assert_eq!(sw.undecodable(), 3, "every junk frame counted");

    // The service still works afterwards.
    let task = TaskId(1);
    let stream = vec![KvTuple::new(Key::from_u64(1), 5)];
    service.submit_task(task, hosts[0], &[hosts[1]]);
    service.submit_stream(task, hosts[1], stream);
    service
        .run_until_complete(task, hosts[0], 5_000_000)
        .unwrap();
    assert_eq!(
        service.result(task, hosts[0]).unwrap()[&Key::from_u64(1)],
        5
    );
}

#[test]
fn host_counts_frames_that_fail_to_parse() {
    // A data frame whose CRC no longer matches (one bit flipped in transit)
    // reaches a daemon: it is counted as undecodable and nothing else moves.
    use ask::stats::HostStats;
    use ask_simnet::network::Node;
    use ask_wire::codec::encode_envelope_parts;
    use ask_wire::packet::{AskPacket, ChannelId, DataPacket, SeqNo, CHANNEL_STRIDE};

    let cfg = AskConfig::tiny();
    let layout = cfg.layout;
    let mut service = AskServiceBuilder::new(2).config(cfg).seed(3).build();
    let hosts = service.hosts().to_vec();
    let switch = service.switch_id();
    let task = TaskId(1);
    service.submit_task(task, hosts[0], &[hosts[1]]);
    service.submit_stream(task, hosts[1], vec![KvTuple::new(Key::from_u64(1), 1)]);
    service
        .run_until_complete(task, hosts[0], 5_000_000)
        .unwrap();

    let mut slots = vec![None; layout.slot_count()];
    slots[0] = Some(KvTuple::new(Key::from_u64(7), 42));
    let data = AskPacket::Data(DataPacket {
        task,
        channel: ChannelId(hosts[1].index() as u32 * CHANNEL_STRIDE),
        seq: SeqNo(5),
        slots,
    });
    let (src, dst) = (hosts[1].index() as u32, hosts[0].index() as u32);
    let mut bytes = encode_envelope_parts(src, dst, 0, 0, &data, &layout).to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;

    let before: HostStats = service.daemon(hosts[0]).stats();
    let busy = service.host_cpu_busy(hosts[0]);
    service
        .network_mut()
        .with_node::<AskDaemon, _>(hosts[0], |daemon, ctx| {
            daemon.on_frame(switch, Frame::new(Bytes::from(bytes)), ctx);
        });
    let after = service.daemon(hosts[0]).stats();
    assert_eq!(
        after,
        HostStats {
            undecodable: before.undecodable + 1,
            ..before
        },
        "one frame counted as undecodable, every other counter unchanged"
    );
    assert_eq!(before.undecodable, 0);
    assert_eq!(service.host_cpu_busy(hosts[0]), busy);
}

#[test]
fn misrouted_data_is_orphaned_and_acked() {
    // A forged data packet for a task the receiver never registered (a
    // misconfigured or malicious sender): the receiver must ACK it (no
    // retransmission livelock), count the tuples as orphans, and keep its
    // real tasks intact.
    use ask_wire::codec::encode_envelope_parts;
    use ask_wire::packet::{AskPacket, ChannelId, DataPacket, SeqNo, CHANNEL_STRIDE};

    let cfg = AskConfig::tiny();
    let layout = cfg.layout;
    let mut service = AskServiceBuilder::new(2).config(cfg).seed(2).build();
    let hosts = service.hosts().to_vec();
    let switch = service.switch_id();

    // A legitimate task first.
    let task = TaskId(1);
    service.submit_task(task, hosts[0], &[hosts[1]]);
    service.submit_stream(task, hosts[1], vec![KvTuple::new(Key::from_u64(1), 1)]);
    service
        .run_until_complete(task, hosts[0], 5_000_000)
        .unwrap();

    // Forge a data packet for unregistered task 99 from host 1 to host 0,
    // on a channel the real daemon is not using (so its sequence space is
    // untouched).
    let forged_channel = ChannelId(hosts[1].index() as u32 * CHANNEL_STRIDE + 7);
    let mut slots = vec![None; layout.slot_count()];
    slots[0] = Some(KvTuple::new(Key::from_u64(7), 42));
    let forged = AskPacket::Data(DataPacket {
        task: TaskId(99),
        channel: forged_channel,
        seq: SeqNo(0),
        slots,
    });
    let (src, dst) = (hosts[1].index() as u32, hosts[0].index() as u32);
    let wire = forged.wire_bytes(&layout);
    let bytes = encode_envelope_parts(src, dst, 0, 0, &forged, &layout);
    let to_forger = service.downlink_stats(hosts[1]).frames_sent;
    service
        .network_mut()
        .with_node::<AskDaemon, _>(hosts[1], |_daemon, ctx| {
            let _ = ctx.send(switch, Frame::with_wire_bytes(bytes, wire));
        });
    service.run_to_idle();

    let recv = service.daemon(hosts[0]);
    assert_eq!(recv.orphan_tuples(), 1, "forged tuple counted as orphaned");
    assert_eq!(
        recv.receiver_max_seq(forged_channel),
        None,
        "a frame for a task this host never registered opens no receive window"
    );
    assert_eq!(
        service.downlink_stats(hosts[1]).frames_sent,
        to_forger + 1,
        "the forged frame is ACKed, so its sender would stop retransmitting"
    );
    // The completed result is untouched.
    let result = service.result(task, hosts[0]).unwrap();
    assert_eq!(result.len(), 1);
    assert_eq!(result[&Key::from_u64(1)], 1);
}

// ---------------------------------------------------------------------------
// Foreign slot layouts: a CRC-valid data frame may declare any slot geometry.
// The switch can aggregate only its own (slot `i` is aggregator array `i`),
// so anything else must travel as bypass traffic — untouched, never a panic —
// while the receiving host merges whatever geometry arrives.
// ---------------------------------------------------------------------------

mod foreign_layout {
    use ask::prelude::*;
    use ask::switch::AskSwitch;
    use ask_simnet::frame::{Frame, NodeId};
    use ask_simnet::link::LinkConfig;
    use ask_simnet::network::{Context, NetworkBuilder, Node};
    use ask_simnet::time::SimDuration;
    use ask_wire::codec::encode_envelope_parts;
    use ask_wire::packet::{
        AskPacket, ChannelId, DataPacket, FetchScope, SeqNo, CHANNEL_STRIDE,
    };
    use bytes::Bytes;

    /// Records every payload it is handed.
    #[derive(Default)]
    struct Sink(Vec<Bytes>);

    impl Node for Sink {
        fn on_frame(&mut self, _from: NodeId, frame: Frame, _ctx: &mut Context<'_>) {
            self.0.push(frame.into_payload());
        }
    }

    /// A data frame from node `src` to node `dst` in `layout`.
    fn data_frame(
        (src, dst): (u32, u32),
        layout: PacketLayout,
        task: TaskId,
        channel: ChannelId,
        seq: u64,
        tuples: &[(usize, &str, u32)],
    ) -> Bytes {
        let mut slots = vec![None; layout.slot_count()];
        for &(slot, key, value) in tuples {
            slots[slot] = Some(KvTuple::new(Key::from_str(key).unwrap(), value));
        }
        let packet = AskPacket::Data(DataPacket {
            task,
            channel,
            seq: SeqNo(seq),
            slots,
        });
        encode_envelope_parts(src, dst, 0, 0, &packet, &layout)
    }

    #[test]
    fn switch_relays_foreign_layout_data_untouched() {
        // A 6-slot / 8-array switch; one aggregator per task, so the second
        // key hashed into an array conflicts.
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 1;
        let own = cfg.layout;
        let mut b = NetworkBuilder::new(1);
        let receiver = b.add_node(Sink::default());
        let sender = b.add_node(Sink::default());
        let switch = b.add_node(AskSwitch::new(cfg));
        let link = LinkConfig::new(100e9, SimDuration::from_micros(1));
        b.connect(receiver, switch, link.clone());
        b.connect(sender, switch, link);
        let mut net = b.build();

        let (forged, honest) = (TaskId(1), TaskId(2));
        net.with_node::<AskSwitch, _>(switch, |sw, _| {
            sw.engine_mut().register_task(forged, 0).expect("region");
            sw.engine_mut().register_task(honest, 0).expect("region");
        });
        let ends = (sender.index() as u32, receiver.index() as u32);
        let base = ends.0 * CHANNEL_STRIDE;
        let (ch_f, ch_h) = (ChannelId(base), ChannelId(base + 1));
        let narrow = PacketLayout::short_only(2);
        let wide = PacketLayout::short_only(12);
        let foreign = [
            // Taken for the switch's own layout, the second of these would
            // be partially absorbed (slot 0 conflicts, slot 1 claims) and
            // its residual re-encoded in a layout it does not fit.
            data_frame(ends, narrow, forged, ch_f, 0, &[(0, "aaa", 1)]),
            data_frame(ends, narrow, forged, ch_f, 1, &[(0, "bbb", 2), (1, "ccc", 3)]),
            // Slot 11 addresses an aggregator array the switch does not have.
            data_frame(ends, wide, forged, ch_f, 2, &[(11, "ddd", 4)]),
        ];
        let honest_frames = [
            data_frame(ends, own, honest, ch_h, 0, &[(0, "cat", 3)]),
            data_frame(ends, own, honest, ch_h, 1, &[(0, "cat", 4), (1, "dog", 5)]),
        ];
        let arrivals = [
            &honest_frames[0],
            &foreign[0],
            &foreign[1],
            &honest_frames[1],
            &foreign[2],
        ];
        for bytes in arrivals {
            net.with_node::<AskSwitch, _>(switch, |sw, ctx| {
                sw.on_frame(sender, Frame::new(bytes.clone()), ctx)
            });
        }
        net.run_to_idle();

        assert_eq!(
            net.node::<Sink>(receiver).0,
            foreign,
            "every foreign frame reaches the receiver byte for byte, and nothing else does"
        );
        assert_eq!(net.node::<Sink>(sender).0.len(), 2, "one ACK per absorbed honest frame");
        let sw = net.node_mut::<AskSwitch>(switch);
        assert_eq!(sw.foreign_layout_relayed(), 3);
        assert_eq!(sw.undecodable(), 0);
        assert!(
            sw.engine_mut().fetch(forged, FetchScope::All, 1).is_empty(),
            "foreign frames are never aggregated"
        );
        let mut got: Vec<(Vec<u8>, u32)> = sw
            .engine_mut()
            .fetch(honest, FetchScope::All, 1)
            .iter()
            .map(|t| (t.key.as_bytes().to_vec(), t.value))
            .collect();
        got.sort();
        assert_eq!(got, vec![(b"cat".to_vec(), 7), (b"dog".to_vec(), 5)]);

        // Like any bypass traffic: a retransmission is relayed again (the
        // receiver dedups), a frame behind the window is dropped.
        let window = AskConfig::tiny().window as u64;
        let ahead = data_frame(ends, narrow, forged, ch_f, window, &[(0, "eee", 5)]);
        for bytes in [&foreign[0], &ahead, &foreign[0]] {
            net.with_node::<AskSwitch, _>(switch, |sw, ctx| {
                sw.on_frame(sender, Frame::new(bytes.clone()), ctx)
            });
        }
        net.run_to_idle();
        assert_eq!(net.node::<Sink>(receiver).0[3..], [foreign[0].clone(), ahead]);
        assert_eq!(net.node::<AskSwitch>(switch).foreign_layout_relayed(), 5);
    }

    #[test]
    fn host_merges_foreign_layout_data_in_place() {
        let mut service = AskServiceBuilder::new(2)
            .config(AskConfig::tiny())
            .seed(4)
            .build();
        let hosts = service.hosts().to_vec();
        let switch = service.switch_id();
        let task = TaskId(1);
        service.submit_task(task, hosts[0], &[hosts[1]]);

        // Straight to the receiving daemon, on a channel the real sender
        // does not use: slot 11 of 12 on a host configured for 6 slots.
        let ends = (hosts[1].index() as u32, hosts[0].index() as u32);
        let channel = ChannelId(ends.0 * CHANNEL_STRIDE + 7);
        let wide = PacketLayout::short_only(12);
        let frame = data_frame(ends, wide, task, channel, 0, &[(3, "abc", 40), (11, "zz", 2)]);
        service
            .network_mut()
            .with_node::<AskDaemon, _>(hosts[0], |d, ctx| {
                d.on_frame(switch, Frame::new(frame.clone()), ctx)
            });
        let stats = service.host_stats(hosts[0]);
        assert_eq!(stats.host_pure_view, 1, "merged in place like any data view");
        assert_eq!(stats.host_view_fallbacks, 0, "not a long-kv frame");
        assert_eq!(stats.tuples_host_aggregated, 2);

        service.submit_stream(task, hosts[1], vec![KvTuple::new(Key::from_str("zz").unwrap(), 5)]);
        service
            .run_until_complete(task, hosts[0], 5_000_000)
            .unwrap();
        let result = service.result(task, hosts[0]).unwrap();
        assert_eq!(result[&Key::from_str("abc").unwrap()], 40);
        assert_eq!(result[&Key::from_str("zz").unwrap()], 7);
        assert_eq!(service.daemon(hosts[0]).orphan_tuples(), 0);
    }
}

// ---------------------------------------------------------------------------
// Switch-crash matrix: the switch dies at a chosen fraction of the clean
// run's completion time, loses every register array and dedup window, and
// comes back in a new epoch. Whatever the crash instant, the per-key result
// must equal the fault-free run exactly.
// ---------------------------------------------------------------------------

mod switch_crash {
    use ask::prelude::*;
    use ask::service::AskService;
    use ask_simnet::faults::FaultModel;
    use ask_simnet::frame::{Frame, NodeId};
    use ask_simnet::link::LinkConfig;
    use ask_simnet::time::{SimDuration, SimTime};
    use std::collections::HashMap;

    const BUDGET: u64 = 50_000_000;

    fn streams() -> Vec<Vec<KvTuple>> {
        (0..2u64)
            .map(|s| {
                (0..150u64)
                    .map(|i| KvTuple::new(Key::from_u64((s * 37 + i * 5) % 60), (i % 9 + 1) as u32))
                    .collect()
            })
            .collect()
    }

    /// Builds the standard crash workload: one receiver, two senders, a
    /// 60-key SUM stream per sender. Daemons trace their protocol actions.
    fn build(link: LinkConfig, seed: u64) -> (AskService, Vec<NodeId>, TaskId, HashMap<Key, u32>) {
        let mut cfg = AskConfig::tiny();
        cfg.trace_capacity = 100_000;
        let mut service = AskServiceBuilder::new(3)
            .config(cfg)
            .link(link)
            .seed(seed)
            .build();
        let hosts = service.hosts().to_vec();
        let task = TaskId(7);
        let st = streams();
        let expected = reference_aggregate(st.iter().flatten().cloned());
        service.submit_task(task, hosts[0], &[hosts[1], hosts[2]]);
        service.submit_stream(task, hosts[1], st[0].clone());
        service.submit_stream(task, hosts[2], st[1].clone());
        (service, hosts, task, expected)
    }

    fn clean_link() -> LinkConfig {
        LinkConfig::new(100e9, SimDuration::from_micros(1))
    }

    /// Completion time of the fault-free golden run (also asserts its
    /// result, so every crash case compares against a verified baseline).
    fn clean_completion(seed: u64) -> SimTime {
        let (mut service, hosts, task, expected) = build(clean_link(), seed);
        let done = service.run_until_complete(task, hosts[0], BUDGET).unwrap();
        assert_eq!(service.result(task, hosts[0]).unwrap(), expected);
        done
    }

    /// Runs the workload with one switch outage starting at `permille`
    /// thousandths of the clean completion time, then asserts the per-key
    /// result matches the fault-free run.
    fn run_with_outage(
        permille: u64,
        outage: SimDuration,
        seed: u64,
    ) -> (AskService, Vec<NodeId>, TaskId) {
        let t = clean_completion(seed).as_nanos();
        let (mut service, hosts, task, expected) = build(clean_link(), seed);
        let down = SimTime::from_nanos((t * permille / 1000).max(1));
        service.schedule_switch_outage(down, down + outage);
        service.run_until_complete(task, hosts[0], BUDGET).unwrap();
        assert_eq!(
            service.result(task, hosts[0]).unwrap(),
            expected,
            "per-key aggregate must equal the fault-free run (crash at {permille}‰)"
        );
        (service, hosts, task)
    }

    #[test]
    fn crash_before_first_verdict() {
        // Down at t=1ns: the switch never sees the region request. The
        // announce/region retry timers must carry the whole setup through
        // the restarted epoch.
        let (mut service, _, _) = run_with_outage(0, SimDuration::from_micros(50), 11);
        service.run_to_idle();
        assert_eq!(service.switch_epoch(), 1);
    }

    #[test]
    fn crash_mid_window() {
        let (mut service, _, _) = run_with_outage(500, SimDuration::from_micros(50), 12);
        service.run_to_idle();
        assert_eq!(service.switch_epoch(), 1);
        assert!(
            service.switch_ref().stale_epoch_drops() > 0,
            "old-epoch retransmits must be rejected by the restarted switch"
        );
    }

    #[test]
    fn crash_during_fetch_drain() {
        // 90% of the clean runtime: shadow-copy swaps and fetch drains are
        // in flight when the registers vanish.
        let (mut service, _, _) = run_with_outage(900, SimDuration::from_micros(50), 13);
        service.run_to_idle();
        assert_eq!(service.switch_epoch(), 1);
    }

    #[test]
    fn double_crash_recovers_twice() {
        let t = clean_completion(14).as_nanos();
        let (mut service, hosts, task, expected) = build(clean_link(), 14);
        let outage = SimDuration::from_micros(30);
        let down1 = SimTime::from_nanos((t * 400 / 1000).max(1));
        service.schedule_switch_outage(down1, down1 + outage);
        // Run just past the first recovery's start, then pull the rug again
        // while the replay is in flight.
        service
            .network_mut()
            .run(Some(down1 + outage + outage), None);
        let down2 = service.now() + SimDuration::from_micros(5);
        service.schedule_switch_outage(down2, down2 + outage);
        service.run_until_complete(task, hosts[0], BUDGET).unwrap();
        assert_eq!(
            service.result(task, hosts[0]).unwrap(),
            expected,
            "double crash must still converge to the fault-free result"
        );
        service.run_to_idle();
        assert_eq!(service.switch_epoch(), 2);
    }

    #[test]
    fn timers_armed_before_a_resync_do_not_retransmit_the_replay() {
        // Regression: a retransmit timer names `(channel, seq)`, a resync
        // restarts every channel at seq 0, and timers cannot be cancelled.
        // The first crash swallows a sender's first window; its timers fire,
        // retransmit, re-arm, and the EpochNotify those retransmissions
        // provoke resyncs the sender. A second crash then swallows the
        // replayed first window, so the replayed seq 0 is still in flight
        // when the re-armed epoch-0 timer for "seq 0" fires — a round trip
        // before the replay's own timer. It must not resend the replay.
        use ask::host::trace::TraceEvent;

        let (mut service, hosts, task, expected) = build(clean_link(), 18);
        let rto = service.config().retransmit_timeout;
        let step = SimDuration::from_nanos(100);
        let outage = SimDuration::from_micros(50);
        let crash_once = |service: &mut AskService, ready: &dyn Fn(&AskService) -> bool| {
            while !ready(service) {
                let next = service.now() + step;
                service.network_mut().run(Some(next), None);
            }
            let down = service.now() + step;
            service.schedule_switch_outage(down, down + outage);
        };
        // Crash 1: the first frame of the first window is on the wire.
        crash_once(&mut service, &|s| s.host_stats(hosts[1]).packets_sent > 0);
        // Crash 2: the sender has just resynced and is replaying.
        crash_once(&mut service, &|s| s.daemon(hosts[1]).known_epoch() == 1);
        service.run_until_complete(task, hosts[0], BUDGET).unwrap();
        assert_eq!(service.result(task, hosts[0]).unwrap(), expected);
        service.run_to_idle();
        assert_eq!(service.switch_epoch(), 2);

        for &host in &hosts[1..] {
            let mut last_sent: HashMap<(u32, u64), SimTime> = HashMap::new();
            let mut retransmitted = 0;
            for (at, event) in service.daemon(host).trace().events() {
                match event {
                    TraceEvent::PacketSent { channel, seq, .. } => {
                        last_sent.insert((channel.0, seq.0), *at);
                    }
                    TraceEvent::Retransmitted { channel, seq } => {
                        retransmitted += 1;
                        let sent = last_sent.insert((channel.0, seq.0), *at).expect("sent");
                        assert_eq!(
                            *at,
                            sent + rto,
                            "{host}: {channel:?}/{seq:?} sent at {sent} was not resent exactly \
                             one flat timeout later"
                        );
                    }
                    _ => {}
                }
            }
            assert_eq!(retransmitted, service.host_stats(host).retransmissions);
        }
    }

    #[test]
    fn replay_to_a_finished_task_is_counted_late_and_not_merged() {
        // Two tasks into one receiver; the switch dies after the first
        // completed and while the second is still streaming. A sender
        // cannot know the receiver finished, so the resync replays both
        // retained streams: the first task's frames are ACKed and counted
        // late, its frozen result does not move, and the second task still
        // converges to the reference.
        let (mut service, hosts, first, expected_first) = build(clean_link(), 16);
        service.run_until_complete(first, hosts[0], BUDGET).unwrap();
        let done_first = service.task_result(first, hosts[0]).unwrap();
        assert_eq!(done_first.to_map(), expected_first);
        let aggregated_first = service.host_stats(hosts[0]).tuples_host_aggregated;

        let second = TaskId(8);
        let st: Vec<Vec<KvTuple>> = streams()
            .into_iter()
            .map(|s| s.into_iter().map(|t| KvTuple::new(t.key, t.value + 3)).collect())
            .collect();
        let expected_second = reference_aggregate(st.iter().flatten().cloned());
        service.submit_task(second, hosts[0], &[hosts[1], hosts[2]]);
        service.submit_stream(second, hosts[1], st[0].clone());
        service.submit_stream(second, hosts[2], st[1].clone());
        let down = service.now() + SimDuration::from_micros(3);
        service.schedule_switch_outage(down, down + SimDuration::from_micros(50));
        service.run_until_complete(second, hosts[0], BUDGET).unwrap();
        service.run_to_idle();

        assert_eq!(service.switch_epoch(), 1);
        let receiver = service.daemon(hosts[0]);
        let replayed: u64 = streams().iter().map(|s| s.len() as u64).sum();
        assert_eq!(
            receiver.late_tuples(),
            replayed,
            "the first task's region is gone, so its whole replay reaches the receiver late"
        );
        assert_eq!(receiver.orphan_tuples(), 0);
        let after = service.task_result(first, hosts[0]).unwrap();
        assert_eq!(after.completed_at, done_first.completed_at);
        assert_eq!(after.to_map(), expected_first, "a frozen result never moves");
        assert_eq!(service.result(second, hosts[0]).unwrap(), expected_second);
        assert!(
            service.host_stats(hosts[0]).tuples_host_aggregated - aggregated_first < replayed,
            "late tuples are not host-aggregated"
        );
    }

    #[test]
    fn long_outage_recovers_exactly_through_the_resync() {
        // The outage spans six retransmit timeouts: the flat timer keeps
        // resending into the dark switch, and the epoch resync alone brings
        // the task to the exact result (checked by `run_with_outage`).
        let (mut service, hosts, _) = run_with_outage(400, SimDuration::from_micros(600), 15);
        service.run_to_idle();
        assert_eq!(service.switch_epoch(), 1);
        let retransmissions: u64 = hosts[1..]
            .iter()
            .map(|h| service.host_stats(*h).retransmissions)
            .sum();
        assert!(retransmissions > 0, "a 6xRTO outage must fire the retransmit timer");
    }

    #[test]
    fn heavy_loss_without_a_crash_is_exact_in_epoch_zero() {
        // No crash at all: 20 % loss is recovered by the flat retransmit
        // timer and the dedup gates alone, the result is exact, and no host
        // ever leaves the boot epoch.
        let link = LinkConfig::new(100e9, SimDuration::from_micros(1))
            .with_faults(FaultModel::reliable().with_loss(0.2));
        let (mut service, hosts, task, expected) = build(link, 16);
        service.run_until_complete(task, hosts[0], BUDGET).unwrap();
        assert_eq!(service.result(task, hosts[0]).unwrap(), expected);
        assert_eq!(service.switch_epoch(), 0, "no crash was injected");
        for &host in &hosts {
            assert_eq!(service.daemon(host).known_epoch(), 0);
        }
        assert!(service.host_stats(hosts[1]).retransmissions > 0);
    }

    #[test]
    fn stale_epoch_verdict_after_restart_is_dropped() {
        // Regression for a seeded bug: a pre-crash verdict (an ACK computed
        // by the dead incarnation) delivered after the restart must be
        // dropped by the host's epoch gate and counted, not applied.
        use ask_wire::codec::encode_envelope_parts;
        use ask_wire::packet::{AskPacket, ChannelId, SeqNo, CHANNEL_STRIDE};

        let (mut service, hosts, _) = run_with_outage(500, SimDuration::from_micros(50), 17);
        service.run_to_idle();
        assert_eq!(service.daemon(hosts[1]).known_epoch(), 1);
        let before = service.host_stats(hosts[1]).stale_epoch_drops;

        // Forge an epoch-0 ACK "from the switch" and deliver it to a host
        // that has already resynchronized to epoch 1.
        let layout = service.config().layout;
        let switch = service.switch_id();
        let stale_ack = AskPacket::Ack {
            channel: ChannelId(hosts[1].index() as u32 * CHANNEL_STRIDE),
            seq: SeqNo(0),
        };
        let bytes = encode_envelope_parts(
            switch.index() as u32,
            hosts[1].index() as u32,
            0,
            0,
            &stale_ack,
            &layout,
        );
        let target = hosts[1];
        service
            .network_mut()
            .with_node::<AskSwitch, _>(switch, |_sw, ctx| {
                let _ = ctx.send(target, Frame::new(bytes.clone()));
            });
        service.run_to_idle();
        assert_eq!(
            service.host_stats(hosts[1]).stale_epoch_drops,
            before + 1,
            "the stale ACK must be dropped and counted, not applied"
        );
    }

    #[test]
    fn forged_max_epoch_frame_does_not_wedge_a_host() {
        // Regression: epochs compared as plain integers, so one CRC-valid
        // frame stamped `u32::MAX` looked newer than epoch 0, the host
        // resynchronized to it, and every genuine frame from the switch was
        // stale from then on. In serial-number arithmetic `u32::MAX` is the
        // epoch just before 0: the frame is stale and the task is untouched.
        use ask_wire::codec::encode_envelope_parts;
        use ask_wire::packet::{AskPacket, ChannelId, SeqNo, CHANNEL_STRIDE};

        let (mut service, hosts, task, expected) = build(clean_link(), 18);
        let layout = service.config().layout;
        let switch = service.switch_id();
        let target = hosts[1];
        let forged_ack = AskPacket::Ack {
            channel: ChannelId(target.index() as u32 * CHANNEL_STRIDE),
            seq: SeqNo(0),
        };
        let bytes = encode_envelope_parts(
            switch.index() as u32,
            target.index() as u32,
            u32::MAX,
            0,
            &forged_ack,
            &layout,
        );
        service
            .network_mut()
            .with_node::<AskSwitch, _>(switch, |_sw, ctx| {
                let _ = ctx.send(target, Frame::new(bytes));
            });
        service.run_until_complete(task, hosts[0], 5_000_000).unwrap();
        assert_eq!(service.result(task, hosts[0]).unwrap(), expected);
        assert_eq!(service.daemon(target).known_epoch(), 0);
        assert_eq!(
            service.host_stats(target).stale_epoch_drops,
            1,
            "the forged frame must be dropped and counted, not resynced to"
        );
    }

    /// Sends `forged(task)` to the switch from a *sender* of the standard
    /// workload, in the current epoch, 50 events into the run, and checks
    /// that the switch drops it and the receiver's result stays exact.
    fn forged_task_control_is_dropped(forged: impl Fn(TaskId) -> ask_wire::packet::AskPacket) {
        use ask_wire::codec::encode_envelope_parts;

        let (mut service, hosts, task, expected) = build(clean_link(), 18);
        service.network_mut().run(None, Some(50));
        assert!(
            service.switch_ref().engine().task_receiver(task).is_some(),
            "the receiver's region request is through"
        );
        let layout = service.config().layout;
        let switch = service.switch_id();
        let packet = forged(task);
        let bytes = encode_envelope_parts(
            hosts[1].index() as u32,
            switch.index() as u32,
            service.switch_epoch(),
            0,
            &packet,
            &layout,
        );
        service
            .network_mut()
            .with_node::<AskDaemon, _>(hosts[1], |_daemon, ctx| {
                let _ = ctx.send(switch, Frame::new(bytes));
            });
        service.run_until_complete(task, hosts[0], BUDGET).unwrap();
        assert_eq!(
            service.result(task, hosts[0]).unwrap(),
            expected,
            "{packet:?}"
        );
        assert_eq!(service.switch_ref().control_source_drops(), 1);
    }

    #[test]
    fn region_release_from_a_sender_is_dropped() {
        // Regression: the switch released any task on any host's word,
        // zeroing the region the senders were aggregating into.
        use ask_wire::packet::{AskPacket, ControlMsg};
        forged_task_control_is_dropped(|task| {
            AskPacket::Control(ControlMsg::RegionRelease { task })
        });
    }

    #[test]
    fn fetch_request_from_a_sender_is_dropped() {
        // Regression: a forged fetch harvested the task's registers into a
        // reply to the forger and cached it under `fetch_seq` u32::MAX, so
        // every honest fetch after it replayed that reply.
        use ask_wire::packet::{AskPacket, FetchScope};
        forged_task_control_is_dropped(|task| AskPacket::FetchRequest {
            task,
            scope: FetchScope::All,
            fetch_seq: u32::MAX,
        });
    }
}

#[test]
fn trace_ring_buffer_bounds_memory() {
    let mut cfg = AskConfig::tiny();
    cfg.trace_capacity = 16; // absurdly small: must drop, not grow
    let mut service = AskServiceBuilder::new(2).config(cfg).seed(3).build();
    let hosts = service.hosts().to_vec();
    let task = TaskId(1);
    let stream: Vec<KvTuple> = (0..500)
        .map(|i| KvTuple::new(Key::from_u64(i % 50), 1))
        .collect();
    service.submit_task(task, hosts[0], &[hosts[1]]);
    service.submit_stream(task, hosts[1], stream);
    service
        .run_until_complete(task, hosts[0], 10_000_000)
        .unwrap();
    let trace = service.daemon(hosts[1]).trace();
    assert_eq!(trace.len(), 16);
    assert!(trace.dropped() > 0, "the ring must have evicted");
}
