//! A scenario driver: run one ASK aggregation over a synthetic workload
//! with the knobs exposed as flags, and print the full measurement report.
//!
//! ```sh
//! cargo run --release -p ask-bench --bin simulate -- \
//!     --senders 4 --tuples 200000 --workload zipf --skew 1.1 \
//!     --distinct 20000 --loss 0.01 --channels 4
//! ```

use ask::prelude::*;
use ask_bench::output::{gbps, pct};
use ask_bench::runners::{run_ask, AskRun};
use ask_simnet::faults::FaultModel;
use ask_simnet::link::LinkConfig;
use ask_simnet::time::SimDuration;
use ask_workloads::text::{uniform_stream, TextCorpus};
use ask_workloads::zipf::{zipf_stream, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug)]
struct Args {
    senders: usize,
    tuples: u64,
    distinct: u64,
    workload: String,
    skew: f64,
    loss: f64,
    channels: usize,
    seed: u64,
    swap_threshold: u64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            senders: 2,
            tuples: 100_000,
            distinct: 10_000,
            workload: "uniform".into(),
            skew: 1.0,
            loss: 0.0,
            channels: 4,
            seed: 1,
            swap_threshold: 4096,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
            match flag.as_str() {
                "--senders" => args.senders = value()?.parse().map_err(|e| format!("{e}"))?,
                "--tuples" => args.tuples = value()?.parse().map_err(|e| format!("{e}"))?,
                "--distinct" => args.distinct = value()?.parse().map_err(|e| format!("{e}"))?,
                "--workload" => args.workload = value()?,
                "--skew" => args.skew = value()?.parse().map_err(|e| format!("{e}"))?,
                "--loss" => args.loss = value()?.parse().map_err(|e| format!("{e}"))?,
                "--channels" => args.channels = value()?.parse().map_err(|e| format!("{e}"))?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("{e}"))?,
                "--swap-threshold" => {
                    args.swap_threshold = value()?.parse().map_err(|e| format!("{e}"))?
                }
                "--help" | "-h" => {
                    println!(
                        "usage: simulate [--senders N] [--tuples N] [--distinct N]\n\
                         \t[--workload uniform|zipf|yelp|NG|BAC|LMDB] [--skew S]\n\
                         \t[--loss P] [--channels N] [--seed N] [--swap-threshold N]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }

    fn stream(&self, sender: usize) -> Vec<KvTuple> {
        let seed = self.seed ^ ((sender as u64) << 24);
        match self.workload.as_str() {
            "uniform" => uniform_stream(seed, self.distinct, self.tuples),
            "zipf" => {
                let mut rng = StdRng::seed_from_u64(seed);
                zipf_stream(
                    &mut rng,
                    self.distinct as usize,
                    self.tuples,
                    self.skew,
                    StreamOrder::Shuffled,
                )
                .into_iter()
                .map(|r| KvTuple::new(Key::from_u64(r), 1))
                .collect()
            }
            name => {
                let corpus = TextCorpus::paper_datasets()
                    .into_iter()
                    .find(|c| c.name.eq_ignore_ascii_case(name))
                    .unwrap_or_else(|| {
                        eprintln!("unknown workload {name}");
                        std::process::exit(2);
                    });
                corpus.stream(seed, self.tuples)
            }
        }
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };

    let mut cfg = AskConfig::paper_default();
    cfg.data_channels = args.channels;
    cfg.region_aggregators = cfg.aggregators_per_aa / args.channels.max(1);
    cfg.swap_threshold = args.swap_threshold;
    let run = AskRun {
        tasks: args.channels,
        link: LinkConfig::new(100e9, SimDuration::from_micros(1))
            .with_faults(FaultModel::reliable().with_loss(args.loss)),
        seed: args.seed,
        config: cfg,
    };
    let streams: Vec<Vec<KvTuple>> = (0..args.senders).map(|s| args.stream(s)).collect();
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    println!(
        "ASK simulation: {} senders × {} tuples ({} workload, loss {}%)",
        args.senders,
        args.tuples,
        args.workload,
        args.loss * 100.0
    );
    let report = run_ask(&run, streams);

    println!("\nresults:");
    println!("  job completion time     {:.3} ms", report.jct_s * 1e3);
    println!(
        "  switch absorption       {} of {} eligible tuples",
        pct(report.absorption()),
        report.switch.tuples_aggregated + report.switch.tuples_forwarded
    );
    println!(
        "  packets switch-ACKed    {}",
        pct(report.switch.packet_absorption_ratio())
    );
    println!("  shadow swaps            {}", report.switch.swaps);
    println!(
        "  duplicates deduped      {} switch / {} host",
        report.switch.duplicates_detected, report.receiver.duplicates_dropped
    );
    let retx: u64 = report.senders.iter().map(|s| s.retransmissions).sum();
    println!("  retransmissions         {retx}");
    for (i, bps) in report.sender_goodput_bps.iter().enumerate() {
        println!(
            "  sender {i} goodput        {} Gbps over {:.3} ms",
            gbps(*bps),
            report.sender_elapsed_s[i] * 1e3
        );
    }
    println!(
        "  receiver residual       {} tuples merged on host",
        report.receiver.tuples_host_aggregated
    );
    println!("  total tuples in         {total}");
}
