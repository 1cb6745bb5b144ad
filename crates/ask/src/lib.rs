//! # ask — a generic in-network aggregation service for key-value streams
//!
//! A from-scratch Rust reproduction of **ASK** (He et al., ASPLOS 2023): a
//! switch–host co-designed service that aggregates key-value streams inside
//! a programmable top-of-rack switch, with
//!
//! - **vectorized multi-key packets** (§3.2): one packet carries one tuple
//!   per aggregator array; the sender's ordered key-space partition pins
//!   every key to a single slot/array, and coalesced groups of adjacent
//!   arrays handle variable-length keys;
//! - **a lightweight reliability mechanism for asynchronous aggregation**
//!   (§3.3): a sliding-window sender with a fine-grained timeout, a compact
//!   per-flow `seen` bitmap on the switch built from atomic
//!   `set_bit`/`clr_bitc`, a `max_seq` stale guard, and per-packet
//!   `PktState` bitmaps so retransmitted partially-aggregated packets are
//!   deduplicated tuple-by-tuple;
//! - **hot-key agnostic prioritization** (§3.4): every aggregator array is
//!   split into two shadow copies that the receiver periodically swaps and
//!   harvests, giving hot keys fresh chances to claim switch memory.
//!
//! The switch program runs on a PISA model ([`ask_pisa`]) whose passes
//! panic on any register access out of stage order or repeated within the
//! pass, the real hardware's one-access-per-array-per-pass restriction.
//! Every pass of the program touches its arrays in a fixed order, so it is
//! legal by construction. Hosts talk over a deterministic discrete-event
//! network ([`ask_simnet`]).
//!
//! ## Quick start
//!
//! ```
//! use ask::prelude::*;
//!
//! let mut service = AskServiceBuilder::new(3).config(AskConfig::tiny()).build();
//! let hosts = service.hosts().to_vec();
//! let task = TaskId(1);
//!
//! // hosts[0] receives; hosts[1] and hosts[2] send.
//! service.submit_task(task, hosts[0], &[hosts[1], hosts[2]]);
//! for sender in &hosts[1..] {
//!     let stream = vec![
//!         KvTuple::new(Key::from_str("apple")?, 1),
//!         KvTuple::new(Key::from_str("pie")?, 2),
//!     ];
//!     service.submit_stream(task, *sender, stream);
//! }
//! service.run_until_complete(task, hosts[0], 1_000_000)?;
//! let result = service.result(task, hosts[0]).expect("completed");
//! assert_eq!(result[&Key::from_str("apple")?], 2);
//! assert_eq!(result[&Key::from_str("pie")?], 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod fasthash;
pub mod host;
pub mod multirack;
pub mod service;
pub mod stats;
pub mod switch;
pub mod valuestream;

/// Encodes `pkt` as a frame in `layout` and parses it back into the
/// borrowed view the receive datapath consumes — how unit tests hand the
/// engine a data packet.
#[cfg(test)]
pub(crate) fn data_view(
    pkt: ask_wire::packet::DataPacket,
    layout: &ask_wire::packet::PacketLayout,
) -> ask_wire::view::DataPacketView {
    use ask_wire::view::{FrameView, PacketView};
    let packet = ask_wire::packet::AskPacket::Data(pkt);
    let bytes = ask_wire::codec::encode_envelope_parts(1, 0, 0, 0, &packet, layout);
    match FrameView::parse(bytes).expect("freshly encoded").into_packet() {
        PacketView::Data(d) => d,
        _ => unreachable!("data frames parse to data views"),
    }
}

#[cfg(test)]
mod engine_proptests {
    //! Engine-level property tests: the switch program plus a software
    //! receiver window, driven directly (no event simulation), must
    //! aggregate exactly once for arbitrary workloads, retransmission
    //! patterns, and shadow-copy swap schedules.

    use crate::config::AskConfig;
    use crate::data_view;
    use crate::host::packetizer::Packetizer;
    use crate::host::receiver::ReceiverWindow;
    use crate::service::reference_aggregate;
    use crate::switch::aggregator::{AggregatorEngine, Observation, ViewVerdict};
    use ask_wire::key::Key;
    use ask_wire::packet::{ChannelId, DataPacket, FetchScope, KvTuple, SeqNo, TaskId};
    use ask_wire::view::DataPacketView;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// switch memory + receiver residual == reference aggregation, for
        /// any tuple stream, any bounded retransmission pattern, and any
        /// swap cadence.
        #[test]
        fn exactly_once_under_retransmission(
            seed in any::<u64>(),
            n_tuples in 1usize..600,
            distinct in 1u64..120,
            dup_rate in 0.0f64..0.4,
            swap_every in prop_oneof![Just(0u64), Just(7u64), Just(64u64)],
            region in prop_oneof![Just(2usize), Just(16usize), Just(64usize)],
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);

            let mut cfg = AskConfig::tiny();
            cfg.region_aggregators = region.min(cfg.aggregators_per_aa);
            let window = cfg.window;
            let task = TaskId(1);
            let channel = ChannelId(0);

            let tuples: Vec<KvTuple> = (0..n_tuples)
                .map(|_| KvTuple::new(Key::from_u64(rng.gen_range(0..distinct)), rng.gen_range(1..50)))
                .collect();
            let expected = reference_aggregate(tuples.iter().cloned());

            let mut engine = AggregatorEngine::new(cfg.clone());
            engine.register_task(task, 0).expect("region");
            let packetizer = Packetizer::new(cfg.layout, cfg.long_kv_batch);
            let stream = packetizer.packetize(tuples);

            let mut receiver = ReceiverWindow::new(window);
            let mut residual: HashMap<Key, u32> = HashMap::new();
            // The receiver merges the slots the switch's verdict left in
            // the frame, once per sequence number.
            let receive = |pkt: &DataPacketView, kept: u128, receiver: &mut ReceiverWindow,
                               residual: &mut HashMap<Key, u32>| {
                if receiver.observe(pkt.seq().0) == Observation::First {
                    for s in pkt.slots().filter(|s| kept & (1 << s.index()) != 0) {
                        let slot = residual.entry(s.key()).or_insert(0);
                        *slot = slot.wrapping_add(s.value());
                    }
                }
            };

            // Long keys bypass: the receiver ingests them directly (with
            // their own dedup), sharing the channel's sequence space.
            let mut seq = 0u64;
            let mut recent: Vec<DataPacketView> = Vec::new();
            let mut fetch_seq = 0u32;
            let process = |pkt: &DataPacketView,
                               engine: &mut AggregatorEngine,
                               receiver: &mut ReceiverWindow,
                               residual: &mut HashMap<Key, u32>| {
                match engine.process_data_view(pkt) {
                    ViewVerdict::FullyAggregated | ViewVerdict::Stale => {}
                    ViewVerdict::Forward { residual: kept } => {
                        receive(pkt, kept, receiver, residual);
                    }
                }
            };

            for payload in stream.data_payloads {
                let pkt = DataPacket { task, channel, seq: SeqNo(seq), slots: payload };
                let pkt = data_view(pkt, &cfg.layout);
                seq += 1;
                process(&pkt, &mut engine, &mut receiver, &mut residual);
                recent.push(pkt);
                if recent.len() > window / 2 {
                    recent.remove(0);
                }
                // Retransmit a random recent (in-window) packet.
                if !recent.is_empty() && rng.gen_bool(dup_rate) {
                    let dup = &recent[rng.gen_range(0..recent.len())];
                    process(dup, &mut engine, &mut receiver, &mut residual);
                }
                if swap_every > 0 && seq.is_multiple_of(swap_every) {
                    engine.swap(task);
                    fetch_seq += 1;
                    for t in engine.fetch(task, FetchScope::Inactive, fetch_seq).iter() {
                        let slot = residual.entry(t.key.clone()).or_insert(0);
                        *slot = slot.wrapping_add(t.value);
                    }
                }
            }
            for batch in stream.long_batches {
                let pkt_seq = seq;
                seq += 1;
                // Long-kv packets share the seq space; dedup at receiver.
                if engine.observe_bypass(channel, SeqNo(pkt_seq)) != Observation::Stale
                    && receiver.observe(pkt_seq) == Observation::First
                {
                    for t in batch {
                        let slot = residual.entry(t.key).or_insert(0);
                        *slot = slot.wrapping_add(t.value);
                    }
                }
            }
            fetch_seq += 1;
            for t in engine.fetch(task, FetchScope::All, fetch_seq).iter() {
                let slot = residual.entry(t.key.clone()).or_insert(0);
                *slot = slot.wrapping_add(t.value);
            }
            residual.retain(|_, v| *v != 0);
            let mut expected = expected;
            expected.retain(|_, v| *v != 0);
            prop_assert_eq!(residual, expected);
        }

        /// Task isolation: interleaved packets from two tasks on separate
        /// channels never contaminate each other's regions.
        #[test]
        fn tasks_never_interfere(
            seed in any::<u64>(),
            n in 1usize..200,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cfg = AskConfig::tiny();
            cfg.region_aggregators = 16;
            let layout = cfg.layout;
            let mut engine = AggregatorEngine::new(cfg);
            engine.register_task(TaskId(1), 0).expect("t1");
            engine.register_task(TaskId(2), 0).expect("t2");
            let packetizer = Packetizer::new(layout, 8);

            let mut seqs = [0u64, 0];
            let mut totals = [0u64, 0];
            for _ in 0..n {
                let which = rng.gen_range(0..2usize);
                let value = rng.gen_range(1..10u32);
                let tuple = KvTuple::new(Key::from_u64(rng.gen_range(0..8)), value);
                let stream = packetizer.packetize(vec![tuple]);
                for payload in stream.data_payloads {
                    let pkt = DataPacket {
                        task: TaskId(1 + which as u32),
                        channel: ChannelId(which as u32),
                        seq: SeqNo(seqs[which]),
                        slots: payload,
                    };
                    seqs[which] += 1;
                    match engine.process_data_view(&data_view(pkt, &layout)) {
                        ViewVerdict::FullyAggregated => totals[which] += value as u64,
                        ViewVerdict::Forward { .. } => {}
                        ViewVerdict::Stale => unreachable!(),
                    }
                }
            }
            for (ix, task) in [TaskId(1), TaskId(2)].into_iter().enumerate() {
                let fetched: u64 = engine
                    .fetch(task, FetchScope::All, 1)
                    .iter()
                    .map(|t| t.value as u64)
                    .sum();
                prop_assert_eq!(fetched, totals[ix], "task {} mass", ix + 1);
            }
        }
    }
}

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::config::AskConfig;
    pub use crate::host::daemon::{AskDaemon, TaskResult};
    pub use crate::host::packetizer::{PacketizedStream, Packetizer};
    pub use crate::multirack::{MultiRackBuilder, MultiRackService};
    pub use crate::service::{
        reference_aggregate, reference_aggregate_op, AskService, AskServiceBuilder, RunError,
    };
    pub use crate::stats::{HostStats, SwitchTaskStats};
    pub use crate::switch::{AggregatorEngine, AskSwitch, ViewVerdict};
    pub use crate::valuestream::{decode_vector, encode_vector, DecodeVectorError};
    pub use ask_wire::key::{Key, KeyClass};
    pub use ask_wire::packet::{AggregateOp, KvTuple, PacketLayout, TaskId};
}
