//! # ask-simnet — deterministic discrete-event network simulation
//!
//! This crate is the network substrate of the [ASK reproduction]: a small,
//! deterministic discrete-event simulator with just enough fidelity to
//! reproduce the paper's evaluation — FIFO link serialization at a configured
//! bandwidth, propagation delay, per-frame framing overhead, probabilistic
//! loss / duplication / reordering, per-node timers, and a CPU-pool cost
//! model for host-side work.
//!
//! Determinism: every run is a pure function of the topology and the seed
//! passed to [`network::NetworkBuilder::new`].
//!
//! [ASK reproduction]: https://doi.org/10.1145/3575693.3575708
//!
//! ## Example
//!
//! ```
//! use ask_simnet::prelude::*;
//! use bytes::Bytes;
//!
//! /// A node that counts every frame it receives.
//! struct Sink { frames: usize }
//! impl Node for Sink {
//!     fn on_frame(&mut self, _from: NodeId, _frame: Frame, _ctx: &mut Context<'_>) {
//!         self.frames += 1;
//!     }
//! }
//!
//! /// A node that fires one frame at its peer on start.
//! struct Source { peer: NodeId }
//! impl Node for Source {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         let peer = self.peer;
//!         ctx.send(peer, Frame::new(Bytes::from_static(b"hi"))).expect("linked");
//!     }
//!     fn on_frame(&mut self, _: NodeId, _: Frame, _: &mut Context<'_>) {}
//! }
//!
//! let mut b = NetworkBuilder::new(42);
//! let sink = b.add_node(Sink { frames: 0 });
//! let src = b.add_node(Source { peer: sink });
//! b.connect(src, sink, LinkConfig::new(100e9, SimDuration::from_micros(1)));
//! let mut net = b.build();
//! net.run_to_idle();
//! assert_eq!(net.node::<Sink>(sink).frames, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench_api;
pub mod cpu;
mod event;
pub mod faults;
pub mod frame;
pub mod link;
pub mod network;
pub mod time;

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    /// Records the order in which tagged frames arrive.
    struct Recorder {
        seen: Vec<u64>,
    }
    impl Node for Recorder {
        fn on_frame(&mut self, _: NodeId, frame: Frame, _: &mut Context<'_>) {
            let mut b = [0u8; 8];
            b.copy_from_slice(&frame.payload()[..8]);
            self.seen.push(u64::from_be_bytes(b));
        }
    }

    /// Emits tagged frames at given delays.
    struct Emitter {
        peer: NodeId,
        sends: Vec<(u64, usize)>, // (delay ns, wire size)
    }
    impl Node for Emitter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for (i, &(delay, _)) in self.sends.iter().enumerate() {
                ctx.set_timer(SimDuration::from_nanos(delay), i as u64);
            }
        }
        fn on_frame(&mut self, _: NodeId, _: Frame, _: &mut Context<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            let (_, wire) = self.sends[token as usize];
            let frame =
                Frame::with_wire_bytes(Bytes::copy_from_slice(&token.to_be_bytes()), wire.max(8));
            let _ = ctx.send(self.peer, frame);
        }
    }

    proptest! {
        /// Without faults, a link never reorders: frames arrive in the
        /// order they were handed to the transmitter, regardless of sizes.
        #[test]
        fn fifo_links_never_reorder(
            sends in proptest::collection::vec((0u64..10_000, 8usize..2000), 1..40),
            bw in 1u64..=100,
        ) {
            let mut b = NetworkBuilder::new(1);
            let sink = b.add_node(Recorder { seen: vec![] });
            let src = b.add_node(Emitter { peer: sink, sends: sends.clone() });
            b.connect(src, sink, LinkConfig::new(bw as f64 * 1e9, SimDuration::from_micros(1)));
            let mut net = b.build();
            net.run_to_idle();

            // Expected order: by send time, ties by timer insertion order.
            let mut order: Vec<(u64, u64)> = sends
                .iter()
                .enumerate()
                .map(|(i, &(delay, _))| (delay, i as u64))
                .collect();
            order.sort();
            let expected: Vec<u64> = order.into_iter().map(|(_, i)| i).collect();
            prop_assert_eq!(&net.node::<Recorder>(sink).seen, &expected);
        }

        /// Byte accounting is exact: the link's sent-byte counter equals
        /// the sum of wire sizes.
        #[test]
        fn link_byte_accounting_is_exact(
            sends in proptest::collection::vec((0u64..1_000, 8usize..3000), 1..30),
        ) {
            let mut b = NetworkBuilder::new(1);
            let sink = b.add_node(Recorder { seen: vec![] });
            let src = b.add_node(Emitter { peer: sink, sends: sends.clone() });
            b.connect(src, sink, LinkConfig::new(1e9, SimDuration::ZERO));
            let mut net = b.build();
            net.run_to_idle();
            let total: u64 = sends.iter().map(|&(_, w)| w.max(8) as u64).sum();
            prop_assert_eq!(net.link_stats(src, sink).bytes_sent, total);
            prop_assert_eq!(net.link_stats(src, sink).frames_delivered, sends.len() as u64);
        }
    }

    /// A leaf that fires `count` frames at the hub on a timer cadence and
    /// counts the echoes it gets back.
    struct Pinger {
        hub: NodeId,
        count: u64,
        gap_ns: u64,
        got: u64,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for i in 0..self.count {
                ctx.set_timer(SimDuration::from_nanos(1 + i * self.gap_ns), i);
            }
        }
        fn on_frame(&mut self, _: NodeId, _: Frame, _: &mut Context<'_>) {
            self.got += 1;
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            let hub = self.hub;
            let _ = ctx.send(
                hub,
                Frame::new(Bytes::copy_from_slice(&token.to_be_bytes())),
            );
        }
    }

    /// A hub that echoes every frame back after a short delay, so its timers
    /// are in flight between (and at the same instants as) later deliveries.
    struct EchoHub {
        delay_ns: u64,
        echoes: u64,
    }
    impl Node for EchoHub {
        fn on_frame(&mut self, from: NodeId, _: Frame, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_nanos(self.delay_ns), from.index() as u64);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            self.echoes += 1;
            let to = NodeId::from_index(token as usize);
            let _ = ctx.send(to, Frame::new(Bytes::from_static(b"echo")));
        }
    }

    /// Everything observable about one run of the random star scenario.
    #[derive(Debug, PartialEq)]
    struct Observed {
        trace: Vec<FrameTraceEntry>,
        events: u64,
        now: SimTime,
        echoes: u64,
        got: Vec<u64>,
    }

    /// One random loss×reorder×dup×crash scenario on a star topology.
    #[derive(Debug, Clone)]
    struct StarScenario {
        leaves: usize,
        count: u64,
        gap_ns: u64,
        echo_delay_ns: u64,
        loss: f64,
        dup: f64,
        reorder: f64,
        jitter_ns: u64,
        crash: Option<(u64, u64)>, // hub (down_at ns, outage ns)
        seed: u64,
        fault_seed: u64,
    }

    fn star_scenario() -> impl Strategy<Value = StarScenario> {
        (
            (2usize..5, 1u64..12, 0u64..2_500, 1u64..1_500),
            (0.0f64..0.3, 0.0f64..0.2, 0.0f64..0.3, 0u64..2_000),
            proptest::option::of((500u64..8_000, 300u64..4_000)),
            (1u64..u64::MAX, 1u64..u64::MAX),
        )
            .prop_map(
                |(
                    (leaves, count, gap_ns, echo_delay_ns),
                    (loss, dup, reorder, jitter_ns),
                    crash,
                    (seed, fault_seed),
                )| StarScenario {
                    leaves,
                    count,
                    gap_ns,
                    echo_delay_ns,
                    loss,
                    dup,
                    reorder,
                    jitter_ns,
                    crash,
                    seed,
                    fault_seed,
                },
            )
    }

    /// Runs `sc` to idle: straight through, or in `run(None, Some(chunk))`
    /// pieces.
    fn run_star_scenario(sc: &StarScenario, chunk: Option<u64>) -> Observed {
        let mut b = NetworkBuilder::new(sc.seed);
        b.set_fault_seed(sc.fault_seed);
        let hub = b.add_node(EchoHub {
            delay_ns: sc.echo_delay_ns,
            echoes: 0,
        });
        let faults = FaultModel::reliable()
            .with_loss(sc.loss)
            .with_duplication(sc.dup)
            .with_reordering(sc.reorder, SimDuration::from_nanos(sc.jitter_ns));
        let link = LinkConfig::new(100e9, SimDuration::from_micros(1));
        let leaves: Vec<NodeId> = (0..sc.leaves)
            .map(|_| {
                let leaf = b.add_node(Pinger {
                    hub,
                    count: sc.count,
                    gap_ns: sc.gap_ns,
                    got: 0,
                });
                b.connect(leaf, hub, link.clone().with_faults(faults.clone()));
                leaf
            })
            .collect();
        let mut net = b.build();
        net.enable_frame_trace(4096);
        if let Some((down_at, outage)) = sc.crash {
            net.schedule_node_down(hub, SimTime::from_nanos(down_at));
            net.schedule_node_up(hub, SimTime::from_nanos(down_at + outage));
        }
        while net.run(None, chunk) != StopReason::Idle {}
        Observed {
            trace: net.frame_trace().cloned().collect(),
            events: net.events_processed(),
            now: net.now(),
            echoes: net.node::<EchoHub>(hub).echoes,
            got: leaves.iter().map(|&l| net.node::<Pinger>(l).got).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// A run is a pure function of topology, seed and fault seed:
        /// under random loss × reorder × duplication × hub outage, a second
        /// run reproduces the full frame trace and every counter and clock.
        #[test]
        fn same_seeds_reproduce_the_run(sc in star_scenario()) {
            prop_assert_eq!(run_star_scenario(&sc, None), run_star_scenario(&sc, None));
        }

        /// Event-budget stops are invisible: driving to idle through
        /// `run(None, Some(k))` for a small `k` — cuts landing inside
        /// runs of same-instant deliveries, between a delivery and the timer it armed,
        /// and on either side of the outage — ends in the same state as one
        /// straight run.
        #[test]
        fn chunked_runs_end_where_run_to_idle_does(sc in star_scenario(), k in 1u64..12) {
            prop_assert_eq!(run_star_scenario(&sc, Some(k)), run_star_scenario(&sc, None));
        }
    }
}

/// Convenient glob import of the types almost every user needs.
pub mod prelude {
    pub use crate::faults::FaultModel;
    pub use crate::frame::{Frame, NodeId};
    pub use crate::link::{LinkConfig, LinkStats};
    pub use crate::network::{
        Context, FrameTraceEntry, Network, NetworkBuilder, Node, SendError, StopReason, TraceFate,
    };
    pub use crate::time::{SimDuration, SimTime};
}
