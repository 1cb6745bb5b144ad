//! Pipelines, stages, register arrays, and the single-pass access model.
//!
//! A PISA pipeline processes one packet per *pass*: the packet traverses the
//! match-action stages strictly in order, and each register array can be
//! read-modified-written **at most once** per pass through its stateful ALU
//! (§2.2.1 of the paper). A [`Pass`] enforces both rules with one
//! high-water mark, the last array it touched: arrays are ordered by
//! `(stage, slot)`, and an access at or below the mark panics. Which
//! arrays a pass touches, and in what order, is fixed by the program that
//! drives the pipeline, never by packet contents, so a violation is a bug
//! in that program and not a condition to handle at run time.

use crate::error::AllocError;
use crate::spec::PipelineSpec;
use crate::table::{self, TableId};

/// Match-action tables one stage may declare (separate resource from the
/// register-array slots; generous because tables share match crossbars).
const MAX_TABLES_PER_STAGE: usize = 8;

/// Handle to a register array declared in a pipeline. Handles order by
/// `(stage, slot)`, the order in which one pass may touch the arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId {
    pub(crate) stage: usize,
    pub(crate) slot: usize,
}

impl ArrayId {
    /// Stage the array lives in.
    pub fn stage(self) -> usize {
        self.stage
    }
}

#[derive(Debug)]
struct RegisterArray {
    cells: Vec<u64>,
    width_bits: u32,
}

impl RegisterArray {
    fn mask(&self) -> u64 {
        if self.width_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.width_bits) - 1
        }
    }
}

#[derive(Debug)]
struct Stage {
    arrays: Vec<RegisterArray>,
    tables: usize,
    sram_used: usize,
}

/// A programmable packet-processing pipeline.
///
/// # Examples
///
/// ```
/// use ask_pisa::prelude::*;
///
/// let mut pipe = Pipeline::new(PipelineSpec::tofino3());
/// let counters = pipe.alloc_array(0, 1024, 32)?;
/// let mut pass = pipe.begin_pass();
/// let old = pass.access(counters, 7, |v| { let old = *v; *v += 1; old });
/// assert_eq!(old, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Pipeline {
    spec: PipelineSpec,
    stages: Vec<Stage>,
    passes_executed: u64,
}

impl Pipeline {
    /// Creates an empty pipeline with the given resource envelope.
    pub fn new(spec: PipelineSpec) -> Self {
        let stages = (0..spec.stages())
            .map(|_| Stage {
                arrays: Vec::new(),
                tables: 0,
                sram_used: 0,
            })
            .collect();
        Pipeline {
            spec,
            stages,
            passes_executed: 0,
        }
    }

    /// Number of packet passes executed so far.
    pub fn passes_executed(&self) -> u64 {
        self.passes_executed
    }

    /// SRAM bytes a register array of `len` × `width_bits` occupies.
    pub fn array_footprint_bytes(len: usize, width_bits: u32) -> usize {
        // Real hardware packs words; we charge the exact bit volume rounded
        // up to bytes, which is what the paper's budget arithmetic does.
        (len * width_bits as usize).div_ceil(8)
    }

    /// Declares a register array of `len` registers of `width_bits` each in
    /// `stage`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the stage does not exist, the stage already
    /// declares the maximum number of arrays, the SRAM budget is exceeded,
    /// the width is outside `1..=64`, or `len == 0`.
    pub fn alloc_array(
        &mut self,
        stage: usize,
        len: usize,
        width_bits: u32,
    ) -> Result<ArrayId, AllocError> {
        if stage >= self.stages.len() {
            return Err(AllocError::UnknownStage {
                stage,
                stages: self.stages.len(),
            });
        }
        if !(1..=64).contains(&width_bits) {
            return Err(AllocError::UnsupportedWidth { bits: width_bits });
        }
        if len == 0 {
            return Err(AllocError::EmptyArray);
        }
        let st = &mut self.stages[stage];
        if st.arrays.len() >= self.spec.max_arrays_per_stage() {
            return Err(AllocError::ArraySlotsExhausted {
                stage,
                limit: self.spec.max_arrays_per_stage(),
            });
        }
        let footprint = Self::array_footprint_bytes(len, width_bits);
        let available = self.spec.sram_per_stage_bytes() - st.sram_used;
        if footprint > available {
            return Err(AllocError::SramExhausted {
                stage,
                requested: footprint,
                available,
            });
        }
        st.sram_used += footprint;
        st.arrays.push(RegisterArray {
            cells: vec![0; len],
            width_bits,
        });
        Ok(ArrayId {
            stage,
            slot: st.arrays.len() - 1,
        })
    }

    /// Declares an exact-match table of `capacity` entries, each carrying
    /// `action_words` 64-bit action-data words, in `stage`, charging its
    /// SRAM to the stage (see [`crate::table`]).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the stage does not exist, already declares
    /// the maximum number of tables, lacks SRAM for the table, or
    /// `capacity == 0`.
    pub fn alloc_table(
        &mut self,
        stage: usize,
        capacity: usize,
        action_words: usize,
    ) -> Result<TableId, AllocError> {
        if stage >= self.stages.len() {
            return Err(AllocError::UnknownStage {
                stage,
                stages: self.stages.len(),
            });
        }
        if capacity == 0 {
            return Err(AllocError::EmptyArray);
        }
        let st = &mut self.stages[stage];
        if st.tables >= MAX_TABLES_PER_STAGE {
            return Err(AllocError::ArraySlotsExhausted {
                stage,
                limit: MAX_TABLES_PER_STAGE,
            });
        }
        let footprint = table::footprint_bytes(capacity, action_words);
        let available = self.spec.sram_per_stage_bytes() - st.sram_used;
        if footprint > available {
            return Err(AllocError::SramExhausted {
                stage,
                requested: footprint,
                available,
            });
        }
        st.sram_used += footprint;
        st.tables += 1;
        Ok(TableId {
            stage,
            slot: st.tables - 1,
        })
    }

    /// Per-stage resource usage, for capacity planning and documentation.
    pub fn resource_report(&self) -> ResourceReport {
        ResourceReport {
            stages: self
                .stages
                .iter()
                .map(|st| StageUsage {
                    arrays: st.arrays.len(),
                    tables: st.tables,
                    sram_used: st.sram_used,
                    sram_total: self.spec.sram_per_stage_bytes(),
                })
                .collect(),
        }
    }

    /// Starts processing one packet; the returned [`Pass`] enforces the
    /// stage-order and single-access constraints for the packet's lifetime.
    pub fn begin_pass(&mut self) -> Pass<'_> {
        self.passes_executed += 1;
        Pass {
            stages: &mut self.stages,
            mark: None,
        }
    }

    /// Control-plane read of a register, bypassing the per-pass constraints.
    ///
    /// Models the (slow) control channel the switch OS exposes; ASK's
    /// controller uses it for memory-region bookkeeping, *not* for data-path
    /// aggregation.
    ///
    /// # Panics
    ///
    /// Panics if the array id or index is invalid.
    pub fn control_read(&self, array: ArrayId, index: usize) -> u64 {
        self.stages[array.stage].arrays[array.slot].cells[index]
    }

    /// Control-plane write of a register, bypassing the per-pass constraints.
    ///
    /// # Panics
    ///
    /// Panics if the array id or index is invalid, or if the value does not
    /// fit in the register width.
    pub fn control_write(&mut self, array: ArrayId, index: usize, value: u64) {
        let arr = &mut self.stages[array.stage].arrays[array.slot];
        assert!(
            value & !arr.mask() == 0,
            "value {value:#x} exceeds register width {}",
            arr.width_bits
        );
        arr.cells[index] = value;
    }
}

/// One packet's traversal of the pipeline.
///
/// The pass remembers only its high-water mark, the last array it touched.
/// Dropping the pass models the packet leaving the pipeline.
#[derive(Debug)]
pub struct Pass<'p> {
    stages: &'p mut [Stage],
    mark: Option<ArrayId>,
}

impl Pass<'_> {
    /// Performs this pass's single read-modify-write on `array`.
    ///
    /// The closure receives the current register value (masked to the
    /// declared width) and may mutate it; the result is masked back into the
    /// register. Returns whatever the closure returns, letting callers
    /// extract the read value ([C-INTERMEDIATE]).
    ///
    /// # Panics
    ///
    /// Panics if `array` is at or below the pass's high-water mark: the
    /// pass already touched `array`, an array in a later stage, or a
    /// later slot of the same stage. Also panics for a bad register index.
    pub fn access<T>(&mut self, array: ArrayId, index: usize, f: impl FnOnce(&mut u64) -> T) -> T {
        assert!(
            Some(array) > self.mark,
            "PISA pass touched {array:?} at or below its high-water mark {:?}",
            self.mark
        );
        self.mark = Some(array);
        let arr = &mut self.stages[array.stage].arrays[array.slot];
        let mask = arr.mask();
        let cell = &mut arr.cells[index];
        let mut value = *cell & mask;
        let out = f(&mut value);
        *cell = value & mask;
        out
    }

    /// Atomic `set_bit`: sets the register (width must be 1) and returns the
    /// previous value, exactly as the paper's footnote 4 defines.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Pass::access`].
    pub fn set_bit(&mut self, array: ArrayId, index: usize) -> bool {
        debug_assert_eq!(
            self.stages[array.stage].arrays[array.slot].width_bits, 1,
            "set_bit requires a 1-bit register array"
        );
        self.access(array, index, |v| {
            let prev = *v != 0;
            *v = 1;
            prev
        })
    }

    /// Atomic `clr_bitc`: clears the register (width must be 1) and returns
    /// the *complement* of the previous value, exactly as the paper's
    /// footnote 5 defines.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Pass::access`].
    pub fn clr_bitc(&mut self, array: ArrayId, index: usize) -> bool {
        debug_assert_eq!(
            self.stages[array.stage].arrays[array.slot].width_bits, 1,
            "clr_bitc requires a 1-bit register array"
        );
        self.access(array, index, |v| {
            let prev = *v != 0;
            *v = 0;
            !prev
        })
    }
}

/// Per-stage resource usage snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceReport {
    /// One entry per stage, in pipeline order.
    pub stages: Vec<StageUsage>,
}

/// Usage of one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageUsage {
    /// Register arrays declared.
    pub arrays: usize,
    /// Match-action tables declared.
    pub tables: usize,
    /// SRAM bytes allocated.
    pub sram_used: usize,
    /// SRAM budget of the stage.
    pub sram_total: usize,
}

impl core::fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "stage | arrays | tables |        SRAM")?;
        for (i, s) in self.stages.iter().enumerate() {
            if s.arrays == 0 && s.tables == 0 && s.sram_used == 0 {
                continue;
            }
            writeln!(
                f,
                "{:>5} | {:>6} | {:>6} | {:>7} / {} KB",
                i,
                s.arrays,
                s.tables,
                s.sram_used / 1024,
                s.sram_total / 1024
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe() -> Pipeline {
        Pipeline::new(PipelineSpec::tofino3())
    }

    fn sram_used(p: &Pipeline, stage: usize) -> usize {
        p.resource_report().stages[stage].sram_used
    }

    #[test]
    fn read_modify_write_masks_width() {
        let mut p = pipe();
        let a = p.alloc_array(0, 4, 8).unwrap();
        p.begin_pass().access(a, 0, |v| *v = 0x1ff);
        assert_eq!(p.control_read(a, 0), 0xff, "write masked to 8 bits");
    }

    #[test]
    #[should_panic(expected = "high-water mark")]
    fn double_access_same_pass_rejected() {
        let mut p = pipe();
        let a = p.alloc_array(0, 4, 32).unwrap();
        let mut pass = p.begin_pass();
        pass.access(a, 0, |v| *v += 1);
        pass.access(a, 1, |v| *v += 1);
    }

    #[test]
    fn next_pass_may_access_again() {
        let mut p = pipe();
        let a = p.alloc_array(0, 4, 32).unwrap();
        p.begin_pass().access(a, 0, |v| *v += 1);
        p.begin_pass().access(a, 0, |v| *v += 1);
        assert_eq!(p.control_read(a, 0), 2);
        assert_eq!(p.passes_executed(), 2);
    }

    #[test]
    #[should_panic(expected = "high-water mark")]
    fn stage_order_is_enforced() {
        let mut p = pipe();
        let early = p.alloc_array(0, 4, 32).unwrap();
        let late = p.alloc_array(5, 4, 32).unwrap();
        let mut pass = p.begin_pass();
        pass.access(late, 0, |_| ());
        pass.access(early, 0, |_| ());
    }

    #[test]
    fn same_stage_different_arrays_ok() {
        let mut p = pipe();
        let a = p.alloc_array(3, 4, 32).unwrap();
        let b = p.alloc_array(3, 4, 32).unwrap();
        let mut pass = p.begin_pass();
        pass.access(a, 0, |v| *v = 1);
        pass.access(b, 0, |v| *v = 2);
    }

    #[test]
    #[should_panic(expected = "high-water mark")]
    fn same_stage_arrays_go_in_slot_order() {
        let mut p = pipe();
        let a = p.alloc_array(3, 4, 32).unwrap();
        let b = p.alloc_array(3, 4, 32).unwrap();
        let mut pass = p.begin_pass();
        pass.access(b, 0, |_| ());
        pass.access(a, 0, |_| ());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn index_bounds_checked() {
        let mut p = pipe();
        let a = p.alloc_array(0, 4, 32).unwrap();
        p.begin_pass().access(a, 4, |_| ());
    }

    #[test]
    fn array_slots_per_stage_limited() {
        let mut p = pipe();
        for _ in 0..4 {
            p.alloc_array(0, 4, 32).unwrap();
        }
        let err = p.alloc_array(0, 4, 32).unwrap_err();
        assert_eq!(err, AllocError::ArraySlotsExhausted { stage: 0, limit: 4 });
    }

    #[test]
    fn sram_budget_enforced() {
        let mut p = pipe();
        // 1280 KB stage: a 320k × 32-bit array uses exactly the budget.
        let full = 1280 * 1024 / 4;
        p.alloc_array(0, full, 32).unwrap();
        let err = p.alloc_array(0, 1, 32).unwrap_err();
        assert!(matches!(err, AllocError::SramExhausted { stage: 0, .. }));
        assert_eq!(sram_used(&p, 0), 1280 * 1024);
    }

    #[test]
    fn footprint_rounds_bits_up() {
        assert_eq!(Pipeline::array_footprint_bytes(3, 1), 1);
        assert_eq!(Pipeline::array_footprint_bytes(9, 1), 2);
        assert_eq!(Pipeline::array_footprint_bytes(2, 32), 8);
    }

    #[test]
    fn unknown_stage_and_width_rejected() {
        let mut p = pipe();
        assert!(matches!(
            p.alloc_array(16, 4, 32),
            Err(AllocError::UnknownStage {
                stage: 16,
                stages: 16
            })
        ));
        assert!(matches!(
            p.alloc_array(0, 4, 65),
            Err(AllocError::UnsupportedWidth { bits: 65 })
        ));
        assert!(matches!(
            p.alloc_array(0, 0, 32),
            Err(AllocError::EmptyArray)
        ));
    }

    #[test]
    fn set_bit_semantics() {
        let mut p = pipe();
        let bits = p.alloc_array(0, 8, 1).unwrap();
        assert!(!p.begin_pass().set_bit(bits, 3), "first set sees 0");
        assert!(p.begin_pass().set_bit(bits, 3), "second set sees 1");
        assert_eq!(p.control_read(bits, 3), 1);
    }

    #[test]
    fn clr_bitc_semantics() {
        let mut p = pipe();
        let bits = p.alloc_array(0, 8, 1).unwrap();
        // Bit starts 0: clr_bitc returns complement of previous (true) and
        // leaves the bit 0.
        assert!(p.begin_pass().clr_bitc(bits, 0));
        assert_eq!(p.control_read(bits, 0), 0);
        // Set it, then clr_bitc returns false and clears.
        p.control_write(bits, 0, 1);
        assert!(!p.begin_pass().clr_bitc(bits, 0));
        assert_eq!(p.control_read(bits, 0), 0);
    }

    #[test]
    fn control_plane_bypasses_pass_rules() {
        let mut p = pipe();
        let a = p.alloc_array(0, 2, 16).unwrap();
        p.control_write(a, 0, 0xffff);
        p.control_write(a, 1, 1);
        assert_eq!(p.control_read(a, 0), 0xffff);
        assert_eq!(p.control_read(a, 1), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds register width")]
    fn control_write_checks_width() {
        let mut p = pipe();
        let a = p.alloc_array(0, 2, 8).unwrap();
        p.control_write(a, 0, 0x100);
    }

    #[test]
    #[should_panic(expected = "high-water mark")]
    fn table_respects_stage_order() {
        // The stage that holds a table (ASK's task table, with the copy
        // indicator beside it) is still behind every later stage.
        let mut p = pipe();
        p.alloc_table(0, 4, 1).unwrap();
        let beside = p.alloc_array(0, 4, 1).unwrap();
        let late = p.alloc_array(3, 4, 32).unwrap();
        let mut pass = p.begin_pass();
        pass.access(late, 0, |_| ());
        pass.access(beside, 0, |_| ());
    }

    #[test]
    fn table_sram_charged() {
        let mut p = pipe();
        let before = sram_used(&p, 0);
        p.alloc_table(0, 256, 3).unwrap();
        assert_eq!(sram_used(&p, 0) - before, 256 * (8 + 24));
    }

    #[test]
    fn resource_report_reflects_allocations() {
        let mut p = pipe();
        p.alloc_array(0, 128, 64).unwrap();
        p.alloc_table(0, 32, 2).unwrap();
        p.alloc_array(2, 16, 1).unwrap();
        let report = p.resource_report();
        assert_eq!(report.stages[0].arrays, 1);
        assert_eq!(report.stages[0].tables, 1);
        assert_eq!(report.stages[2].arrays, 1);
        assert_eq!(report.stages[0].sram_used, 128 * 8 + 32 * (8 + 16));
        let text = report.to_string();
        assert!(text.contains("stage"));
        assert!(!text.contains("\n15 |"), "idle stages omitted");
    }

    #[test]
    fn sixty_four_bit_registers_work() {
        let mut p = pipe();
        let a = p.alloc_array(0, 1, 64).unwrap();
        p.begin_pass().access(a, 0, |v| *v = u64::MAX);
        assert_eq!(p.control_read(a, 0), u64::MAX);
    }
}
