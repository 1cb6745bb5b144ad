//! The four frozen workloads.
//!
//! Each one pins a topology, a switch configuration and a stream generator,
//! and exists because it makes one layer of the stack do most of the work
//! and another do little (README.md, "Workloads"). Later issues refer to
//! them by name, so names, sizes and parameters here are not tuning knobs.
//!
//! The program under test only ever sees the generated `Vec<KvTuple>`s: the
//! seed is consumed here and in the simulator's fault RNG, nowhere else.

use ask::config::AskConfig;
use ask::service::reference_aggregate;
use ask_simnet::faults::FaultModel;
use ask_simnet::link::LinkConfig;
use ask_simnet::time::SimDuration;
use ask_wire::key::Key;
use ask_wire::packet::{KvTuple, PacketLayout};
use ask_workloads::text::{uniform_stream, TextCorpus};
use ask_workloads::zipf::{zipf_stream, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Aggregation tasks per iteration, one per data channel.
pub const TASKS: usize = 4;

/// How a sender's stream is drawn.
#[derive(Debug, Clone, Copy)]
enum Stream {
    /// Zipf-ranked `Key::from_u64` keys, i.i.d. arrival order.
    Zipf { distinct: usize, skew: f64 },
    /// Uniform `Key::from_u64` keys.
    Uniform { distinct: u64 },
    /// `TextCorpus::yelp()` words: short, medium and long keys.
    Yelp,
}

/// One frozen workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name later issues use.
    pub name: &'static str,
    /// Sending hosts (the receiver is one more host).
    pub senders: usize,
    /// Tuples each sender streams per iteration.
    pub tuples_per_sender: u64,
    stream: Stream,
    /// Switch and daemon configuration.
    pub config: AskConfig,
    /// Host↔switch links.
    pub link: LinkConfig,
}

/// Every workload name, in reporting order.
pub const NAMES: [&str; 4] = ["absorb_zipf", "spill_uniform", "tiny_pkt", "lossy_text"];

/// Paper-default configuration with the per-copy aggregator space split so
/// that every one of the [`TASKS`] tasks is granted a region. With the
/// default whole-switch region the first task takes all switch memory and
/// the other three silently run host-only.
fn shared_switch(region_aggregators: usize) -> AskConfig {
    let mut config = AskConfig::paper_default();
    config.data_channels = TASKS;
    config.region_aggregators = region_aggregators;
    config
}

fn clean_link() -> LinkConfig {
    LinkConfig::new(100e9, SimDuration::from_micros(1))
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let name = NAMES.iter().copied().find(|known| *known == name)?;
        let quarter = AskConfig::paper_default().aggregators_per_aa / TASKS;
        Some(match name {
            // The paper's happy path: a skewed stream over a key space that
            // fits the switch, so nearly every tuple dies in the switch.
            "absorb_zipf" => Workload {
                name,
                senders: 4,
                tuples_per_sender: 250_000,
                stream: Stream::Zipf {
                    distinct: 20_000,
                    skew: 1.1,
                },
                config: shared_switch(quarter),
                link: clean_link(),
            },
            // The opposite: a key space far larger than a 64-aggregator
            // region, so nearly every tuple is re-framed by the switch and
            // merged by the receiver.
            "spill_uniform" => Workload {
                name,
                senders: 4,
                tuples_per_sender: 150_000,
                stream: Stream::Uniform {
                    distinct: 1_000_000,
                },
                config: shared_switch(64),
                link: clean_link(),
            },
            // One tuple per packet: per-frame costs (event queue, links,
            // headers, ACKs, windows) with per-tuple costs diluted.
            "tiny_pkt" => Workload {
                name,
                senders: 1,
                tuples_per_sender: 240_000,
                stream: Stream::Uniform { distinct: 30_000 },
                config: AskConfig {
                    layout: PacketLayout::short_only(1),
                    ..shared_switch(quarter)
                },
                link: clean_link(),
            },
            // The recovery paths: mixed key classes over faulty links.
            "lossy_text" => Workload {
                name,
                senders: 4,
                tuples_per_sender: 200_000,
                stream: Stream::Yelp,
                config: shared_switch(quarter),
                link: clean_link().with_faults(
                    FaultModel::reliable()
                        .with_loss(0.02)
                        .with_duplication(0.01)
                        .with_reordering(0.01, SimDuration::from_micros(5)),
                ),
            },
            _ => unreachable!("every name in NAMES has a workload"),
        })
    }

    /// Input tuples per iteration.
    pub fn tuples(&self) -> u64 {
        self.senders as u64 * self.tuples_per_sender
    }

    fn sender_stream(&self, seed: u64, sender: usize) -> Vec<KvTuple> {
        let seed = splitmix64(seed ^ splitmix64(sender as u64 + 1));
        match self.stream {
            Stream::Zipf { distinct, skew } => {
                let mut rng = StdRng::seed_from_u64(seed);
                zipf_stream(
                    &mut rng,
                    distinct,
                    self.tuples_per_sender,
                    skew,
                    StreamOrder::Shuffled,
                )
                .into_iter()
                .map(|rank| KvTuple::new(Key::from_u64(rank), 1))
                .collect()
            }
            Stream::Uniform { distinct } => uniform_stream(seed, distinct, self.tuples_per_sender),
            Stream::Yelp => TextCorpus::yelp().stream(seed, self.tuples_per_sender),
        }
    }

    /// Generates the sender streams from `seed` and splits each one
    /// round-robin over the tasks.
    pub fn generate(&self, seed: u64) -> Inputs {
        let chunks = (0..self.senders)
            .map(|sender| {
                let mut per_task: Vec<Vec<KvTuple>> = vec![Vec::new(); TASKS];
                for (i, tuple) in self.sender_stream(seed, sender).into_iter().enumerate() {
                    per_task[i % TASKS].push(tuple);
                }
                per_task
            })
            .collect();
        Inputs { chunks }
    }
}

/// The generated inputs of one workload run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `chunks[sender][task]`: what `sender` streams for `task`.
    pub chunks: Vec<Vec<Vec<KvTuple>>>,
}

impl Inputs {
    /// What each task's result must equal.
    pub fn reference(&self) -> Vec<HashMap<Key, u32>> {
        (0..TASKS)
            .map(|task| {
                reference_aggregate(self.chunks.iter().flat_map(|s| s[task].iter().cloned()))
            })
            .collect()
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
