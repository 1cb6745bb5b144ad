//! Fault injection: packet loss, duplication, and reordering.
//!
//! ASK's reliability mechanism (§3.3 of the paper) exists because datacenter
//! networks drop, duplicate, and reorder packets. The [`FaultModel`] lets
//! tests and benchmarks dial those behaviours in deterministically.

use crate::time::SimDuration;
use rand::Rng;

/// Probabilistic fault model applied per frame on a directed link.
///
/// # Examples
///
/// ```
/// use ask_simnet::faults::FaultModel;
///
/// assert!(FaultModel::reliable().is_reliable());
/// let lossy = FaultModel::reliable().with_loss(0.01);
/// assert!(!lossy.is_reliable());
/// ```
#[derive(Debug, Clone)]
pub struct FaultModel {
    loss: f64,
    duplication: f64,
    /// Maximum extra delay added to a frame to force reordering; zero
    /// disables reordering.
    reorder_jitter: SimDuration,
    /// Probability that a frame receives reorder jitter.
    reorder: f64,
    /// Probability that one payload byte is flipped in transit.
    corruption: f64,
}

impl FaultModel {
    /// A perfectly reliable link: no loss, duplication, or reordering.
    pub fn reliable() -> Self {
        FaultModel {
            loss: 0.0,
            duplication: 0.0,
            reorder_jitter: SimDuration::ZERO,
            reorder: 0.0,
            corruption: 0.0,
        }
    }

    /// Sets the independent per-frame payload-corruption probability (one
    /// random byte is XOR-flipped). End-to-end integrity then depends on
    /// the protocol's checksum.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_corruption(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.corruption = p;
        self
    }

    /// The per-frame corruption probability.
    pub fn corruption_probability(&self) -> f64 {
        self.corruption
    }

    /// Sets the independent per-frame loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.loss = p;
        self
    }

    /// Sets the independent per-frame duplication probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.duplication = p;
        self
    }

    /// With probability `p`, delays a frame by a uniform random amount in
    /// `[0, jitter]`, which lets later frames overtake it.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_reordering(mut self, p: f64, jitter: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.reorder = p;
        self.reorder_jitter = jitter;
        self
    }

    /// True if no fault can ever fire.
    pub fn is_reliable(&self) -> bool {
        self.loss == 0.0 && self.duplication == 0.0 && self.reorder == 0.0 && self.corruption == 0.0
    }

    /// Draws the fate of one frame.
    pub(crate) fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> FrameFate {
        if self.loss > 0.0 && rng.gen_bool(self.loss) {
            return FrameFate::Dropped;
        }
        let duplicated = self.duplication > 0.0 && rng.gen_bool(self.duplication);
        let delay = if self.reorder > 0.0 && rng.gen_bool(self.reorder) {
            SimDuration::from_nanos(rng.gen_range(0..=self.reorder_jitter.as_nanos()))
        } else {
            SimDuration::ZERO
        };
        let corrupted = self.corruption > 0.0 && rng.gen_bool(self.corruption);
        FrameFate::Delivered {
            duplicated,
            delay,
            corrupted,
        }
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::reliable()
    }
}

/// Outcome drawn for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameFate {
    Dropped,
    Delivered {
        duplicated: bool,
        delay: SimDuration,
        corrupted: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reliable_never_faults() {
        let m = FaultModel::reliable();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(
                m.draw(&mut rng),
                FrameFate::Delivered {
                    duplicated: false,
                    delay: SimDuration::ZERO,
                    corrupted: false,
                }
            );
        }
        assert!(m.is_reliable());
    }

    #[test]
    fn loss_rate_is_roughly_respected() {
        let m = FaultModel::reliable().with_loss(0.25);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let dropped = (0..n)
            .filter(|_| m.draw(&mut rng) == FrameFate::Dropped)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn duplication_flags_fire() {
        let m = FaultModel::reliable().with_duplication(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        match m.draw(&mut rng) {
            FrameFate::Delivered { duplicated, .. } => assert!(duplicated),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corruption_flag_fires() {
        let m = FaultModel::reliable().with_corruption(1.0);
        let mut rng = StdRng::seed_from_u64(5);
        match m.draw(&mut rng) {
            FrameFate::Delivered { corrupted, .. } => assert!(corrupted),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!m.is_reliable());
        assert_eq!(m.corruption_probability(), 1.0);
    }

    #[test]
    fn reordering_adds_bounded_delay() {
        let jitter = SimDuration::from_micros(10);
        let m = FaultModel::reliable().with_reordering(1.0, jitter);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            match m.draw(&mut rng) {
                FrameFate::Delivered { delay, .. } => assert!(delay <= jitter),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_probability_rejected() {
        let _ = FaultModel::reliable().with_loss(1.5);
    }
}
