//! Figure 8: effectiveness of multi-key vectorization.
//!
//! (a) Goodput between two servers vs key-value tuples per packet, against
//!     the ideal `8x / (8x + 78) × 100 Gbps` curve — PPS-bound below ~32
//!     tuples/packet, wire-bound above.
//! (b) Distribution of non-blank tuples per packet when packetizing the
//!     real-trace stand-ins (paper: uniform ≈ full, yelp worst at ≈ 16.91
//!     of 32 slots).

use crate::output::{gbps, Table};
use crate::runners::{run_ask, AskRun, Scale};
use ask::prelude::*;
use ask_wire::constants::ideal_goodput_fraction;
use ask_workloads::text::{uniform_stream, TextCorpus};

/// Regenerates Figure 8(a): goodput vs tuples per packet.
pub fn run_goodput(scale: Scale) -> String {
    let mut t = Table::new(
        "Figure 8(a) — goodput vs tuples per packet (2 servers, 100 Gbps)",
        &["tuples/pkt", "goodput Gbps", "ideal Gbps"],
    );
    for x in [1usize, 2, 4, 8, 16, 24, 32, 48, 64] {
        let mut cfg = AskConfig::paper_default();
        cfg.layout = PacketLayout::short_only(x);
        cfg.data_channels = 4;
        // Keep the switch out of the equation: a large keyspace with a
        // small region means most tuples forward, but goodput is measured
        // at the sender and unaffected by absorption.
        cfg.region_aggregators = cfg.aggregators_per_aa;
        let run_cfg = AskRun {
            tasks: 4,
            ..AskRun::paper(cfg)
        };
        let tuples = scale.count(60_000, 600_000) * (x as u64).min(8);
        let stream = uniform_stream(11, tuples / 4, tuples);
        let report = run_ask(&run_cfg, vec![stream]);
        let ideal = ideal_goodput_fraction(x) * 100e9;
        t.row(&[
            x.to_string(),
            gbps(report.sender_goodput_bps[0]),
            gbps(ideal),
        ]);
    }
    t.note("paper: linear PPS-bound growth to 32 tuples/pkt, then matches the ideal curve");
    t.render()
}

/// Regenerates Figure 8(b): non-blank tuples per packet per dataset.
pub fn run_occupancy(scale: Scale) -> String {
    let tuples = scale.count(200_000, 2_000_000);
    let layout = PacketLayout::paper_default();
    let packetizer = Packetizer::new(layout, 64);
    let mut t = Table::new(
        "Figure 8(b) — non-blank tuples per packet (24 logical slots)",
        &["dataset", "mean", "p10", "p50", "p90"],
    );
    let mut add = |name: &str, stream: Vec<KvTuple>| {
        let out = packetizer.packetize(stream);
        let mut occ = out.occupancies();
        occ.sort_unstable();
        let q = |p: f64| occ[((occ.len() - 1) as f64 * p) as usize];
        t.row(&[
            name.to_string(),
            format!("{:.2}", out.mean_occupancy()),
            q(0.1).to_string(),
            q(0.5).to_string(),
            q(0.9).to_string(),
        ]);
    };
    add("Uniform", uniform_stream(3, tuples / 8, tuples));
    for corpus in TextCorpus::paper_datasets() {
        add(corpus.name, corpus.stream(5, tuples));
    }
    t.note("paper: uniform packs nearly all slots; yelp is worst at mean 16.91 of 32 slots");
    t.note("our layout has 24 logical slots (16 short + 8 medium groups of m = 2)");
    t.render()
}

/// Regenerates both panels.
pub fn run(scale: Scale) -> String {
    format!("{}\n{}", run_goodput(scale), run_occupancy(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_grows_with_tuples_per_packet() {
        let measure = |x: usize| {
            let mut cfg = AskConfig::paper_default();
            cfg.layout = PacketLayout::short_only(x);
            cfg.data_channels = 4;
            let run_cfg = AskRun {
                tasks: 4,
                ..AskRun::paper(cfg)
            };
            let stream = uniform_stream(11, 5_000, 40_000);
            run_ask(&run_cfg, vec![stream]).sender_goodput_bps[0]
        };
        let g1 = measure(1);
        let g16 = measure(16);
        assert!(g16 > 5.0 * g1, "g1={g1} g16={g16}");
    }

    #[test]
    fn view_path_absorbs_without_any_switch_pool_traffic() {
        // Fig8(a) shape, small: every data frame carries short keys in the
        // switch's layout. The switch has no packet pool to touch — absorb
        // verdicts read slots straight off the wire bytes and partial
        // absorbs re-frame the inbound buffer — and the pure-absorb counter
        // must show frames dying in the switch without a single slot vector
        // materialized.
        let mut cfg = AskConfig::paper_default();
        cfg.layout = PacketLayout::short_only(16);
        cfg.data_channels = 4;
        cfg.region_aggregators = cfg.aggregators_per_aa;
        let run_cfg = AskRun {
            tasks: 4,
            ..AskRun::paper(cfg)
        };
        let stream = uniform_stream(11, 10_000, 80_000);
        let report = run_ask(&run_cfg, vec![stream]);
        assert!(
            report.switch.tuples_aggregated > 0,
            "the switch must actually absorb traffic"
        );
        assert!(
            report.switch_pure_absorb > 0,
            "fully-absorbed frames must be counted as pure absorbs"
        );
    }

    #[test]
    fn host_view_path_receives_without_receiver_pool_traffic() {
        // The host-side mirror of the switch pure-absorb invariant: with
        // all-short keys on the default layout, every frame the receiver
        // sees (forwarded data, fins, the final fetch reply) is consumed
        // straight from wire bytes — first-delivery data merges via
        // borrowed slot views into the open-addressed task table, fetch
        // replies via borrowed entry views — so the pure-view counter must
        // be hot and no long-kv frame arrives.
        let mut cfg = AskConfig::paper_default();
        cfg.layout = PacketLayout::short_only(16);
        cfg.data_channels = 4;
        cfg.region_aggregators = cfg.aggregators_per_aa;
        let run_cfg = AskRun {
            tasks: 4,
            ..AskRun::paper(cfg)
        };
        let stream = uniform_stream(11, 10_000, 80_000);
        let report = run_ask(&run_cfg, vec![stream]);
        assert!(
            report.receiver.host_pure_view > 0,
            "view-consumed frames must be counted"
        );
        assert_eq!(
            report.receiver.host_view_fallbacks, 0,
            "short-key traffic on the native layout sends no long-kv frame"
        );
    }

    #[test]
    fn uniform_occupancy_beats_skewed() {
        let layout = PacketLayout::paper_default();
        let p = Packetizer::new(layout, 64);
        let uni = p
            .packetize(uniform_stream(3, 10_000, 80_000))
            .mean_occupancy();
        let yelp = p
            .packetize(TextCorpus::yelp().stream(5, 80_000))
            .mean_occupancy();
        assert!(uni > yelp, "uniform {uni} vs yelp {yelp}");
        assert!(yelp > 4.0, "yelp still packs several tuples per packet");
    }
}
