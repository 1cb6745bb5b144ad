//! Seeded regression tests for bug classes the old value-comparing e2e
//! suite could not catch, plus sweep-level determinism guarantees.

use ask::config::AskConfig;
use ask::switch::{AggregatorEngine, ViewVerdict};
use ask_wire::codec::encode_envelope_parts;
use ask_wire::key::Key;
use ask_wire::packet::{
    AggregateOp, AskPacket, ChannelId, DataPacket, FetchScope, KvTuple, SeqNo, TaskId,
};
use ask_wire::view::{DataPacketView, FrameView, PacketView};
use conformance::sweep::run_sweep;
use conformance::{FaultSpec, Scenario, SweepConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A one-tuple data frame in the tiny layout, as the switch sees it.
fn pkt(task: u32, seq: u64, slot: usize, key: &str, value: u32) -> DataPacketView {
    let layout = AskConfig::tiny().layout;
    let mut slots = vec![None; layout.slot_count()];
    slots[slot] = Some(KvTuple::new(Key::from_str(key).unwrap(), value));
    let packet = AskPacket::Data(DataPacket {
        task: TaskId(task),
        channel: ChannelId(0),
        seq: SeqNo(seq),
        slots,
    });
    let frame = encode_envelope_parts(1, 0, 0, 0, &packet, &layout);
    match FrameView::parse(frame).expect("valid").into_packet() {
        PacketView::Data(d) => d,
        _ => unreachable!("data frames parse to data views"),
    }
}

/// The bug class that motivated the absorption audit: under `MAX`, a
/// duplicate absorption is value-invisible (`max(v, v) = v`), so an e2e
/// suite that only compares the delivered aggregate to the oracle passes
/// even though exactly-once absorption is broken. The audit must not.
#[test]
fn seeded_max_bitflip_double_absorption_escapes_value_oracle_but_not_audit() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut cfg = AskConfig::tiny();
    cfg.absorption_audit = true;
    let mut engine = AggregatorEngine::new(cfg);
    engine
        .register_task_with_op(TaskId(1), 9, AggregateOp::Max)
        .unwrap();

    // A seeded stream of one-tuple packets, one distinct key per seq.
    let mut packets = Vec::new();
    let mut reference: HashMap<Key, u32> = HashMap::new();
    for seq in 0..6u64 {
        let value = rng.gen_range(1..100);
        let key = format!("k{seq}");
        packets.push(pkt(1, seq, 0, &key, value));
        let k = Key::from_str(&key).unwrap();
        reference
            .entry(k)
            .and_modify(|v| *v = (*v).max(value))
            .or_insert(value);
    }
    for p in &packets {
        assert_eq!(engine.process_data_view(p), ViewVerdict::FullyAggregated);
    }

    // Chaos: flip the seen bit of one absorbed sequence number, then replay
    // that exact packet — the corrupted dedup gate waves it through.
    let victim = rng.gen_range(0..packets.len());
    assert!(engine.inject_seen_bit_flip(ChannelId(0), SeqNo(victim as u64)));
    assert_eq!(
        engine.process_data_view(&packets[victim]),
        ViewVerdict::FullyAggregated,
        "replay passed the dedup gate after the bit flip"
    );

    // The value oracle sees nothing wrong: the final harvest still equals
    // the reference aggregate exactly.
    let harvest: HashMap<Key, u32> = engine
        .fetch(TaskId(1), FetchScope::All, 1)
        .iter()
        .map(|t| (t.key.clone(), t.value))
        .collect();
    assert_eq!(harvest, reference, "MAX hides the double absorption");

    // The absorption audit does not.
    assert_eq!(engine.duplicate_absorptions(), 1);
    assert_eq!(
        engine.task_stats(TaskId(1)).unwrap().duplicate_absorptions,
        1
    );
}

/// Heavy duplication and loss together force honest retransmissions to
/// overlap with network-duplicated frames — the scenario where a buggy
/// dedup gate would double-absorb. All three invariants must still hold.
#[test]
fn dup_retransmit_overlap_holds_all_invariants() {
    let mut s = Scenario::base(0xD1CE);
    s.faults = FaultSpec {
        loss: 0.15,
        duplication: 0.35,
        reorder: 0.3,
        reorder_jitter_us: 10,
        corruption: 0.0,
    };
    let report = s.run();
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.retransmissions > 0, "loss must force retransmissions");
    assert!(
        report.duplicates_detected > 0,
        "duplication must exercise the dedup gate"
    );
}

/// A mid-run crash-restart of every daemon must not break conservation,
/// exactly-once absorption, or window accounting.
#[test]
fn mid_run_restart_holds_all_invariants() {
    let mut s = Scenario::base(0xBEEF);
    s.restart_mid_run = true;
    s.faults.loss = 0.05;
    let report = s.run();
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(
        report.retransmissions > 0,
        "recovery retransmits the in-flight window"
    );
}

/// Two sweeps from the same seed must render byte-identical reports — the
/// property that makes a printed `(seed, grid-point)` pair a full repro.
#[test]
fn quick_sweep_is_deterministic_and_green() {
    let a = run_sweep(SweepConfig::quick(3));
    let b = run_sweep(SweepConfig::quick(3));
    assert_eq!(a.text, b.text, "sweep reports must be byte-identical");
    assert_eq!(a.points, 12);
    assert!(a.ok(), "report:\n{}", a.text);
}

/// A grid point re-run through the repro path (seed + indices) must agree
/// with what the sweep executed.
#[test]
fn repro_path_reconstructs_the_grid_point_run() {
    let cfg = SweepConfig::quick(11);
    let point = cfg.point((2, 1, 1)).unwrap();
    let first = point.scenario(cfg.seed).run();
    let again = cfg.point((2, 1, 1)).unwrap().scenario(cfg.seed).run();
    assert_eq!(first, again);
}
