//! # ask-pisa — a PISA programmable-switch resource & access model
//!
//! ASK's switch program is shaped by three hardware restrictions of
//! Protocol-Independent Switch Architecture (PISA) chips like Intel Tofino
//! (§2.2.1 of the paper):
//!
//! 1. a packet traverses the match-action stages **sequentially, once** per
//!    pipeline pass;
//! 2. each register array can be **read and written at most once** per pass
//!    (a single stateful-ALU read-modify-write);
//! 3. memory is scarce and per-stage (≈1280 KB SRAM per stage, at most 4
//!    register arrays per stage).
//!
//! This crate models exactly those constraints: [`pipeline::Pipeline`] holds
//! register arrays inside per-stage SRAM budgets, and every packet is
//! processed through a [`pipeline::Pass`] that keeps one high-water mark,
//! the last array it touched. An access at or below the mark, in stage and
//! then slot order, panics, which is rules 1 and 2 in one compare. The
//! arrays a pass touches are fixed by the program, not by traffic, so legal
//! programs never panic and register access returns plain values. Higher
//! layers (the `ask` crate) implement the paper's switch program on top, so
//! the reproduced design decisions — two-dimensional aggregator arrays, the
//! compact `seen` window, shadow copies — are forced by the same
//! constraints that forced them on real hardware.
//!
//! ## Example
//!
//! ```
//! use ask_pisa::prelude::*;
//!
//! let mut pipe = Pipeline::new(PipelineSpec::tofino3());
//! let seen = pipe.alloc_array(0, 256, 1)?;   // 1-bit receive-window bits
//! let agg = pipe.alloc_array(1, 1024, 64)?;  // 64-bit aggregators
//!
//! // One packet pass: dedup bit, then aggregate.
//! let mut pass = pipe.begin_pass();
//! let seen_before = pass.set_bit(seen, 17);
//! if !seen_before {
//!     pass.access(agg, 42, |v| *v += 5);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod pipeline;
pub mod spec;
pub mod table;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::error::AllocError;
    pub use crate::pipeline::{ArrayId, Pass, Pipeline, ResourceReport, StageUsage};
    pub use crate::spec::PipelineSpec;
    pub use crate::table::TableId;
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever sequence of single accesses runs, a register never holds
        /// a value wider than its declared width.
        #[test]
        fn registers_never_exceed_width(
            width in 1u32..=63,
            writes in proptest::collection::vec(any::<u64>(), 1..50),
        ) {
            let mut p = Pipeline::new(PipelineSpec::tofino3());
            let a = p.alloc_array(0, 1, width).unwrap();
            for w in writes {
                p.begin_pass().access(a, 0, |v| *v = v.wrapping_add(w));
                prop_assert!(p.control_read(a, 0) < (1u64 << width));
            }
        }

        /// set_bit followed by clr_bitc round-trips the paper's four-case
        /// table for any initial bit value.
        #[test]
        fn bit_instructions_match_table(initial in 0u64..=1) {
            let mut p = Pipeline::new(PipelineSpec::tofino3());
            let bits = p.alloc_array(0, 1, 1).unwrap();
            p.control_write(bits, 0, initial);
            // Even segment: observed == previous bit.
            let observed = p.begin_pass().set_bit(bits, 0);
            prop_assert_eq!(observed, initial == 1);
            prop_assert_eq!(p.control_read(bits, 0), 1);
            // Odd segment: observed == !previous bit.
            let observed = p.begin_pass().clr_bitc(bits, 0);
            prop_assert_eq!(observed, false); // bit was 1 => complement false
            prop_assert_eq!(p.control_read(bits, 0), 0);
        }

        /// Allocation accounting: sum of array footprints equals sram_used,
        /// and allocation never exceeds the stage budget.
        #[test]
        fn sram_accounting_is_exact(
            sizes in proptest::collection::vec((1usize..10_000, 1u32..=64), 1..4)
        ) {
            let mut p = Pipeline::new(PipelineSpec::tofino3());
            let mut expect = 0usize;
            for (len, width) in sizes {
                if p.alloc_array(0, len, width).is_ok() {
                    expect += Pipeline::array_footprint_bytes(len, width);
                }
            }
            prop_assert_eq!(p.resource_report().stages[0].sram_used, expect);
            prop_assert!(expect <= PipelineSpec::tofino3().sram_per_stage_bytes());
        }
    }
}
