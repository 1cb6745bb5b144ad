//! Match-action tables.
//!
//! Besides register arrays, a PISA stage holds match-action tables that the
//! control plane fills with entries (key → action data). ASK declares one
//! to map a packet's task ID to its aggregator-array region and
//! copy-indicator index ("The ASK switch uses the task ID to identify the
//! aggregator memory region", §3.1). The model reserves a table's stage
//! slot and SRAM and keeps no entries: the switch program reads a task's
//! action data from the control-plane state that installed it, so no pass
//! ever looks a table up.

/// Handle to a match-action table declared in a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId {
    pub(crate) stage: usize,
    pub(crate) slot: usize,
}

impl TableId {
    /// Stage the table lives in.
    pub fn stage(self) -> usize {
        self.stage
    }
}

/// SRAM footprint of an exact-match table: key (8 B) plus action words per
/// entry, at capacity.
pub(crate) fn footprint_bytes(capacity: usize, action_words: usize) -> usize {
    capacity * (8 + action_words * 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_formula() {
        assert_eq!(footprint_bytes(256, 3), 256 * 32);
    }
}
