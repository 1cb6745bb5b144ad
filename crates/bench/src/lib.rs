//! # ask-bench — the benchmark harness regenerating the paper's evaluation
//!
//! One module per table/figure of the ASK paper's §5, each exposing
//! `run(Scale) -> String` that prints the reproduced rows/series with the
//! paper's reference values as footnotes:
//!
//! | module | regenerates | driven by |
//! |---|---|---|
//! | [`fig3`] | Fig. 3 AKV/s vs cores | calibrated throughput models |
//! | [`fig7`] | Fig. 7 JCT + CPU vs PreAggr | real stack (scaled) + model |
//! | [`table1`] | Table 1 traffic reduction | real stack on trace stand-ins |
//! | [`fig8`] | Fig. 8 goodput & occupancy | real stack + packetizer |
//! | [`fig9`] | Fig. 9 hot-key prioritization | switch engine, direct drive |
//! | [`fig10`] | Figs. 10 & 11 WordCount JCT/TCT | mini-Spark + measured absorption |
//! | [`fig12`] | Fig. 12 training throughput | training models |
//! | [`fig13`] | Fig. 13 overhead & scalability | real stack + NoAggr sim |
//!
//! Run everything with `cargo run -p ask-bench --release --bin all_figures`
//! or a single figure with e.g. `cargo run -p ask-bench --release --bin fig9`.
//! Set `ASK_BENCH_SCALE=full` for larger workloads.

#![warn(missing_docs)]

pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod output;
pub mod runners;
pub mod table1;

pub use runners::Scale;

/// Runs every figure and table in report order, returning the concatenated
/// report.
pub fn run_all(scale: Scale) -> String {
    let sections = [
        fig3::run(scale),
        fig7::run(scale),
        table1::run(scale),
        fig8::run(scale),
        fig9::run(scale),
        fig10::run(scale),
        fig12::run(scale),
        fig13::run(scale),
    ];
    sections.join("\n")
}
