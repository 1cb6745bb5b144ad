//! Model-based conformance harness for the ASK reliability protocol.
//!
//! The full stack (host daemon → wire codec → PISA switch → simulated
//! network) is run against a trivially-correct in-memory oracle
//! ([`ask::service::reference_aggregate_op`]), and three end-to-end
//! invariants are asserted after every run:
//!
//! 1. **Conservation** — the delivered aggregate equals the oracle's
//!    aggregate of every ingested tuple, per key;
//! 2. **No duplicate absorption** — a sequence number's tuples enter switch
//!    memory at most once, however often the network duplicates or the
//!    sender retransmits (checked by the switch's absorption audit, which
//!    catches violations even when the operator makes them value-invisible,
//!    e.g. `MAX`);
//! 3. **Window safety** — no sender channel ever holds more than `W`
//!    unacknowledged packets, everything drains by completion, and no
//!    fetched tuple is lost between switch and receiver.
//!
//! PISA legality holds by construction: every pass of the switch program
//! touches its register arrays in a fixed stage order, and `ask-pisa`
//! panics on any access at or below a pass's high-water mark, so a run that
//! completes made no illegal access.
//!
//! Two drivers feed the harness: a deterministic chaos [`sweep`] over a
//! loss × duplication × reorder grid (every failure reproducible from its
//! `(seed, grid-point)` pair), and proptest scenario generators in this
//! crate's test suite (workload shape, key skew, fault model, mid-run
//! daemon restart).

pub mod invariants;
pub mod scenario;
pub mod sweep;

pub use invariants::InvariantReport;
pub use scenario::{CrashSpec, FaultSpec, RunReport, Scenario};
pub use sweep::{run_crash_sweep, run_sweep, CrashGridPoint, GridPoint, SweepConfig};
