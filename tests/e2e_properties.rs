//! Property-based end-to-end tests: for *any* random workload, fault mix,
//! and configuration in range, the distributed result equals the reference
//! aggregation — the paper's exactly-once correctness invariant.

use ask::prelude::*;
use ask_simnet::faults::FaultModel;
use ask_simnet::link::LinkConfig;
use ask_simnet::time::SimDuration;
use proptest::prelude::*;

fn link(loss: f64, dup: f64, reorder: f64) -> LinkConfig {
    LinkConfig::new(100e9, SimDuration::from_micros(1)).with_faults(
        FaultModel::reliable()
            .with_loss(loss)
            .with_duplication(dup)
            .with_reordering(reorder, SimDuration::from_micros(20)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Exactly-once aggregation for arbitrary streams and fault rates.
    #[test]
    fn distributed_result_equals_reference(
        seed in any::<u64>(),
        n_senders in 1usize..4,
        tuples_per_sender in 1usize..400,
        distinct in 1u64..80,
        loss in 0.0f64..0.08,
        dup in 0.0f64..0.08,
        reorder in 0.0f64..0.10,
        swap_threshold in prop_oneof![Just(0u64), Just(16u64), Just(100u64)],
        region in prop_oneof![Just(4usize), Just(16usize), Just(64usize)],
        op in prop_oneof![
            Just(AggregateOp::Sum),
            Just(AggregateOp::Max),
            Just(AggregateOp::Min)
        ],
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);

        let mut cfg = AskConfig::tiny();
        cfg.swap_threshold = swap_threshold;
        cfg.region_aggregators = region.min(cfg.aggregators_per_aa);

        let streams: Vec<Vec<KvTuple>> = (0..n_senders)
            .map(|_| {
                (0..tuples_per_sender)
                    .map(|_| KvTuple::new(
                        Key::from_u64(rng.gen_range(0..distinct)),
                        rng.gen_range(1..100),
                    ))
                    .collect()
            })
            .collect();
        let expected =
            ask::service::reference_aggregate_op(streams.iter().flatten().cloned(), op);

        let mut service = AskServiceBuilder::new(n_senders + 1)
            .config(cfg)
            .link(link(loss, dup, reorder))
            .seed(seed ^ 0xabcd)
            .build();
        let hosts = service.hosts().to_vec();
        let task = TaskId(1);
        service.submit_task_with_op(task, hosts[0], &hosts[1..], op);
        for (i, s) in streams.into_iter().enumerate() {
            service.submit_stream(task, hosts[1 + i], s);
        }
        service.run_until_complete(task, hosts[0], 50_000_000)
            .expect("task completes under faults");
        let got = service.result(task, hosts[0]).expect("result");
        prop_assert_eq!(got, expected);
    }

    /// Multi-rack deployments (§7) aggregate exactly once for arbitrary
    /// rack shapes and sender/receiver placements, with faults on every
    /// access link.
    #[test]
    fn multirack_placements_are_exact(
        seed in any::<u64>(),
        rack_a in 1usize..4,
        rack_b in 1usize..4,
        tuples in 50usize..400,
        distinct in 1u64..60,
        loss in 0.0f64..0.05,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);

        let mut svc = AskServiceBuilder::with_racks(&[rack_a, rack_b])
            .config(AskConfig::tiny())
            .link(link(loss, 0.0, 0.0))
            .seed(seed ^ 0x77)
            .build();
        let hosts: Vec<_> = (0..2).flat_map(|r| svc.rack(r).to_vec()).collect();
        let receiver = hosts[rng.gen_range(0..hosts.len())];
        let senders: Vec<_> = hosts
            .iter()
            .copied()
            .filter(|h| *h != receiver)
            .collect();
        prop_assume!(!senders.is_empty());

        let streams: Vec<Vec<KvTuple>> = senders
            .iter()
            .map(|_| {
                (0..tuples)
                    .map(|_| KvTuple::new(
                        Key::from_u64(rng.gen_range(0..distinct)),
                        rng.gen_range(1..20),
                    ))
                    .collect()
            })
            .collect();
        let expected = reference_aggregate(streams.iter().flatten().cloned());
        let task = TaskId(1);
        svc.submit_task(task, receiver, &senders);
        for (i, s) in streams.into_iter().enumerate() {
            svc.submit_stream(task, senders[i], s);
        }
        svc.run_until_complete(task, receiver, 50_000_000)
            .expect("multi-rack task completes");
        prop_assert_eq!(svc.task_result(task, receiver).unwrap().to_map(), expected);
    }

    /// The switch never aggregates a tuple twice: total value mass is
    /// conserved between (switch fetches + host residual) and the input.
    #[test]
    fn value_mass_conserved(
        seed in any::<u64>(),
        tuples in 1usize..500,
        distinct in 1u64..50,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let stream: Vec<KvTuple> = (0..tuples)
            .map(|_| KvTuple::new(Key::from_u64(rng.gen_range(0..distinct)), rng.gen_range(1..10)))
            .collect();
        let mass: u64 = stream.iter().map(|t| t.value as u64).sum();

        let mut service = AskServiceBuilder::new(2)
            .config(AskConfig::tiny())
            .link(link(0.02, 0.02, 0.02))
            .seed(seed)
            .build();
        let hosts = service.hosts().to_vec();
        let task = TaskId(1);
        service.submit_task(task, hosts[0], &[hosts[1]]);
        service.submit_stream(task, hosts[1], stream);
        service.run_until_complete(task, hosts[0], 50_000_000).expect("completes");
        let got = service.result(task, hosts[0]).unwrap();
        let got_mass: u64 = got.values().map(|&v| v as u64).sum();
        prop_assert_eq!(got_mass, mass);
    }
}
