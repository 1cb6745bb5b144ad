//! Host CPU cost model.
//!
//! The paper's evaluation reports CPU utilization alongside throughput
//! (Figures 3 and 7). [`CpuPool`] models a host with a fixed number of cores:
//! work items occupy a core for a computed span of simulated time, and the
//! pool reports both when the work completes and how busy the host was.
//!
//! The model is intentionally simple — greedy earliest-available-core
//! scheduling with no preemption — which matches how the paper's daemon pins
//! one data channel per core.

use crate::time::{SimDuration, SimTime};

/// A pool of identical cores with earliest-available greedy scheduling.
///
/// # Examples
///
/// ```
/// use ask_simnet::cpu::CpuPool;
/// use ask_simnet::time::{SimDuration, SimTime};
///
/// let mut pool = CpuPool::new(2);
/// let d = SimDuration::from_micros(10);
/// // Two jobs run in parallel, the third queues behind the first.
/// assert_eq!(pool.run(SimTime::ZERO, d).as_nanos(), 10_000);
/// assert_eq!(pool.run(SimTime::ZERO, d).as_nanos(), 10_000);
/// assert_eq!(pool.run(SimTime::ZERO, d).as_nanos(), 20_000);
/// ```
#[derive(Debug, Clone)]
pub struct CpuPool {
    /// Time each core becomes free.
    cores: Vec<SimTime>,
    busy_total: SimDuration,
}

impl CpuPool {
    /// Creates a pool of `cores` identical cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a host needs at least one core");
        CpuPool {
            cores: vec![SimTime::ZERO; cores],
            busy_total: SimDuration::ZERO,
        }
    }

    /// Number of cores in the pool.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Schedules a job of length `work` that becomes runnable at `ready`.
    /// Returns the completion time.
    pub fn run(&mut self, ready: SimTime, work: SimDuration) -> SimTime {
        let core = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(_, free_at)| **free_at)
            .map(|(ix, _)| ix)
            .expect("pool is non-empty");
        let start = ready.max(self.cores[core]);
        let done = start + work;
        self.cores[core] = done;
        self.busy_total += work;
        done
    }

    /// Total core-busy time accumulated so far.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Average utilization over `[0, horizon]` across all cores, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        let capacity = horizon.as_secs_f64() * self.cores.len() as f64;
        (self.busy_total.as_secs_f64() / capacity).min(1.0)
    }
}

/// Converts a per-item processing rate (items per second per core) into the
/// span one core needs for `items` items.
///
/// # Examples
///
/// ```
/// use ask_simnet::cpu::work_for_items;
///
/// // 10 M items at 1 M items/s/core is 10 core-seconds.
/// let d = work_for_items(10_000_000, 1_000_000.0);
/// assert_eq!(d.as_nanos(), 10_000_000_000);
/// ```
///
/// # Panics
///
/// Panics if `rate_per_sec` is not strictly positive.
pub fn work_for_items(items: u64, rate_per_sec: f64) -> SimDuration {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    SimDuration::from_secs_f64(items as f64 / rate_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_packs_parallel_then_queues() {
        let mut pool = CpuPool::new(4);
        let w = SimDuration::from_secs(1);
        let mut finishes: Vec<u64> = (0..8)
            .map(|_| pool.run(SimTime::ZERO, w).as_nanos())
            .collect();
        finishes.sort_unstable();
        assert_eq!(
            finishes,
            vec![1, 1, 1, 1, 2, 2, 2, 2]
                .into_iter()
                .map(|s: u64| s * 1_000_000_000)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn utilization_counts_busy_share() {
        let mut pool = CpuPool::new(2);
        pool.run(SimTime::ZERO, SimDuration::from_secs(1));
        // 1 busy core-second out of 2 cores × 2 s = 0.25.
        let u = pool.utilization(SimTime::from_nanos(2_000_000_000));
        assert!((u - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ready_time_is_respected() {
        let mut pool = CpuPool::new(1);
        let done = pool.run(SimTime::from_nanos(500), SimDuration::from_nanos(10));
        assert_eq!(done.as_nanos(), 510);
    }

    #[test]
    fn busy_total_accumulates() {
        let mut pool = CpuPool::new(3);
        pool.run(SimTime::ZERO, SimDuration::from_millis(5));
        pool.run(SimTime::ZERO, SimDuration::from_millis(7));
        assert_eq!(pool.busy_total(), SimDuration::from_millis(12));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CpuPool::new(0);
    }

    #[test]
    fn work_for_items_scales() {
        assert_eq!(work_for_items(0, 100.0), SimDuration::ZERO);
        assert_eq!(work_for_items(200, 100.0), SimDuration::from_secs(2));
    }
}
