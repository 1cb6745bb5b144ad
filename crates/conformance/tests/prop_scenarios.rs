//! Property-based scenario generation: random workload shapes, key skew,
//! fault models, and lifecycle chaos, all funneled through the invariant
//! checker. Every generated case must conform.

use ask_wire::packet::AggregateOp;
use conformance::{CrashSpec, FaultSpec, Scenario};
use proptest::prelude::*;

fn op_strategy() -> impl Strategy<Value = AggregateOp> {
    prop_oneof![
        Just(AggregateOp::Sum),
        Just(AggregateOp::Max),
        Just(AggregateOp::Min),
    ]
}

// Each case is a full end-to-end simulation; keep the counts modest so
// `cargo test` stays fast (raise with PROPTEST_CASES for deep soaks).
proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any random scenario — workload shape, Zipf skew, operator, fault
    /// mix, co-located sender, mid-run restart — satisfies all three
    /// invariants. Corruption flips a single bit, which the CRC always
    /// catches, so to the protocol it must be just more loss.
    #[test]
    fn random_scenarios_conform(
        seed in any::<u64>(),
        senders in 1usize..4,
        colocated in any::<bool>(),
        tuples in 50usize..250,
        distinct in 8usize..128,
        skew_permille in 400u64..1800,
        long_ratio_ix in 0usize..3,
        op in op_strategy(),
        loss_permille in 0u64..200,
        dup_permille in 0u64..250,
        reorder_permille in 0u64..500,
        corrupt_permille in 0u64..30,
        window in 4usize..16,
        swap_threshold in prop_oneof![Just(0u64), Just(8u64), Just(32u64)],
        restart in any::<bool>(),
    ) {
        let scenario = Scenario {
            seed,
            fault_seed: None,
            senders,
            racks: 1,
            colocated_sender: colocated,
            tuples_per_sender: tuples,
            distinct_keys: distinct,
            zipf_s: skew_permille as f64 / 1000.0,
            long_key_ratio: [0.0, 1.0 / 16.0, 1.0 / 4.0][long_ratio_ix],
            op,
            faults: FaultSpec {
                loss: loss_permille as f64 / 1000.0,
                duplication: dup_permille as f64 / 1000.0,
                reorder: reorder_permille as f64 / 1000.0,
                reorder_jitter_us: 10,
                corruption: corrupt_permille as f64 / 1000.0,
            },
            window,
            data_channels: 1,
            swap_threshold,
            region_aggregators: 32,
            restart_mid_run: restart,
            crash: None,
        };
        let report = scenario.run();
        prop_assert!(
            report.ok(),
            "scenario {:?} violated invariants: {:?}",
            scenario,
            report.violations
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The §7 fabric under the same oracle: 2–3 racks, the receiver in
    /// rack 0 with rack-local and cross-rack senders, any fault mix,
    /// co-located sender, mid-run daemon restart and operator. Only the
    /// receiver's ToR aggregates; every cross-rack stream is merged at the
    /// receiver, and the result must still be exact.
    #[test]
    fn multirack_scenarios_conform(
        seed in any::<u64>(),
        racks in 2usize..4,
        extra_senders in 0usize..2,
        colocated in any::<bool>(),
        op in op_strategy(),
        loss_permille in 0u64..200,
        dup_permille in 0u64..250,
        reorder_permille in 0u64..500,
        corrupt_permille in 0u64..30,
        restart in any::<bool>(),
    ) {
        let mut scenario = Scenario::base(seed);
        scenario.racks = racks;
        scenario.senders = racks + extra_senders;
        scenario.colocated_sender = colocated;
        scenario.tuples_per_sender = 150;
        scenario.op = op;
        scenario.faults = FaultSpec {
            loss: loss_permille as f64 / 1000.0,
            duplication: dup_permille as f64 / 1000.0,
            reorder: reorder_permille as f64 / 1000.0,
            reorder_jitter_us: 10,
            corruption: corrupt_permille as f64 / 1000.0,
        };
        scenario.restart_mid_run = restart;
        let report = scenario.run();
        prop_assert!(
            report.ok(),
            "multi-rack scenario {:?} violated invariants: {:?}",
            scenario,
            report.violations
        );
    }

    /// SUM/MAX/MIN conservation holds for every random crash instant
    /// crossed with loss and reorder: the switch dies somewhere between 0
    /// and 99.9% of the clean runtime, loses all state, and the delivered
    /// aggregate must still equal the oracle's exactly.
    #[test]
    fn prop_crash_conservation(
        seed in any::<u64>(),
        senders in 1usize..4,
        op in op_strategy(),
        loss_permille in 0u64..200,
        reorder_permille in 0u64..500,
        down_at_permille in 0u32..1000,
        outage_us in 30u64..400,
    ) {
        let mut scenario = Scenario::base(seed);
        scenario.senders = senders;
        scenario.tuples_per_sender = 150;
        scenario.op = op;
        scenario.faults = FaultSpec {
            loss: loss_permille as f64 / 1000.0,
            duplication: 0.0,
            reorder: reorder_permille as f64 / 1000.0,
            reorder_jitter_us: 10,
            corruption: 0.0,
        };
        scenario.crash = Some(CrashSpec { down_at_permille, outage_us });
        let report = scenario.run();
        prop_assert!(
            report.ok(),
            "crash scenario {:?} violated invariants: {:?}",
            scenario,
            report.violations
        );
    }

    /// The same scenario run twice produces the identical report — the
    /// determinism that makes every failure reproducible from its seed.
    #[test]
    fn scenario_runs_are_deterministic(seed in any::<u64>()) {
        let mut s = Scenario::base(seed);
        s.faults = FaultSpec {
            loss: 0.1,
            duplication: 0.15,
            reorder: 0.3,
            reorder_jitter_us: 5,
            corruption: 0.0,
        };
        s.tuples_per_sender = 120;
        let a = s.run();
        let b = s.run();
        prop_assert_eq!(a, b);
    }
}
