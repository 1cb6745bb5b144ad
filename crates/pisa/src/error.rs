//! Errors for resource allocation.

use core::fmt;

/// Error returned when declaring a register array would exceed the hardware
/// envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The stage index does not exist in this pipeline.
    UnknownStage {
        /// Requested stage.
        stage: usize,
        /// Number of stages in the pipeline.
        stages: usize,
    },
    /// The stage already declares the maximum number of register arrays.
    ArraySlotsExhausted {
        /// The full stage.
        stage: usize,
        /// The per-stage array limit.
        limit: usize,
    },
    /// The array's SRAM footprint does not fit in the stage's remaining
    /// budget.
    SramExhausted {
        /// The stage that ran out.
        stage: usize,
        /// Bytes requested by this array.
        requested: usize,
        /// Bytes still available in the stage.
        available: usize,
    },
    /// Register width outside the supported 1..=64 bits.
    UnsupportedWidth {
        /// The rejected width.
        bits: u32,
    },
    /// Arrays must have at least one register.
    EmptyArray,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::UnknownStage { stage, stages } => {
                write!(f, "stage {stage} out of range (pipeline has {stages})")
            }
            AllocError::ArraySlotsExhausted { stage, limit } => {
                write!(f, "stage {stage} already declares {limit} register arrays")
            }
            AllocError::SramExhausted {
                stage,
                requested,
                available,
            } => write!(
                f,
                "stage {stage} SRAM exhausted: requested {requested} B, {available} B available"
            ),
            AllocError::UnsupportedWidth { bits } => {
                write!(f, "register width {bits} bits unsupported (1..=64)")
            }
            AllocError::EmptyArray => write!(f, "register arrays must be non-empty"),
        }
    }
}

impl std::error::Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = AllocError::SramExhausted {
            stage: 3,
            requested: 100,
            available: 10,
        };
        let s = e.to_string();
        assert!(s.contains("stage 3") && s.contains("100") && s.contains("10"));
    }
}
