//! The end-to-end metrics and their regression bounds, as fixed in
//! `BENCHMARK.json` (a test keeps the two in step).

/// One end-to-end metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True if larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every end-to-end metric, in reporting order. The bounds are about three
/// times the spread seen over ten seeds on the reference box, noisy spells
/// included (README.md, "Bounds"). The simulated metrics repeat exactly for
/// one seed; their bounds cover how much the seed moves them.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "tuples_per_s",
        unit: "tuples/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_mtuple",
        unit: "s/Mtuple",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_jct_us",
        unit: "sim_us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_goodput_gbps",
        unit: "sim_Gbit/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "switch_absorption",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.03,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];
