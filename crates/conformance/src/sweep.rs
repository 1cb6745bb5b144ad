//! Deterministic chaos sweep over a loss × duplication × reorder grid.
//!
//! Every grid point runs a fixed base scenario under a seeded fault model;
//! the per-point seed is derived from the sweep seed and the point's grid
//! indices, so any failure is reproducible from the printed
//! `(seed, grid-point)` pair alone:
//!
//! ```text
//! cargo run -p conformance -- repro --seed <seed> --point <i,j,k>
//! ```

use crate::scenario::{CrashSpec, FaultSpec, RunReport, Scenario};
use std::fmt::Write as _;

/// Loss-probability axis (index `i`).
const LOSS_QUICK: &[f64] = &[0.0, 0.05, 0.2];
const LOSS_FULL: &[f64] = &[0.0, 0.02, 0.1, 0.25];

/// Duplication-probability axis (index `j`).
const DUP_QUICK: &[f64] = &[0.0, 0.2];
const DUP_FULL: &[f64] = &[0.0, 0.1, 0.3];

/// Reorder axis (index `k`): `(probability, jitter in µs)`.
const REORDER_QUICK: &[(f64, u64)] = &[(0.0, 0), (0.5, 10)];
const REORDER_FULL: &[(f64, u64)] = &[(0.0, 0), (0.3, 5), (0.8, 20)];

/// Crash-sweep axes: loss (index `i`), reorder (index `j`), and crash
/// instant in permille of the clean completion time (index `k`). The
/// outage is fixed well above the reorder jitter bound so delayed
/// old-epoch frames always land on the restarted switch.
const CRASH_LOSS_QUICK: &[f64] = &[0.0, 0.2];
const CRASH_LOSS_FULL: &[f64] = &[0.0, 0.05, 0.2];
const CRASH_REORDER: &[(f64, u64)] = &[(0.0, 0), (0.5, 10)];
const CRASH_PERMILLE_QUICK: &[u32] = &[250, 600, 900];
const CRASH_PERMILLE_FULL: &[u32] = &[100, 350, 600, 850, 990];
const CRASH_OUTAGE_US: u64 = 50;

/// Sweep shape: seed plus grid resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Base seed mixed into every grid point's scenario seed.
    pub seed: u64,
    /// Coarse 3×2×2 grid (CI smoke) instead of the full 4×3×3 one.
    pub quick: bool,
}

impl SweepConfig {
    /// The coarse 12-point grid used by the CI smoke job.
    pub fn quick(seed: u64) -> Self {
        SweepConfig { seed, quick: true }
    }

    /// The full 36-point grid.
    pub fn full(seed: u64) -> Self {
        SweepConfig { seed, quick: false }
    }

    fn axes(&self) -> (&'static [f64], &'static [f64], &'static [(f64, u64)]) {
        if self.quick {
            (LOSS_QUICK, DUP_QUICK, REORDER_QUICK)
        } else {
            (LOSS_FULL, DUP_FULL, REORDER_FULL)
        }
    }

    /// All grid points of this sweep, in row-major `(i, j, k)` order.
    pub fn grid(&self) -> Vec<GridPoint> {
        let (loss, dup, reorder) = self.axes();
        let mut points = Vec::with_capacity(loss.len() * dup.len() * reorder.len());
        for (i, &l) in loss.iter().enumerate() {
            for (j, &d) in dup.iter().enumerate() {
                for (k, &(r, jit)) in reorder.iter().enumerate() {
                    points.push(GridPoint {
                        ix: (i, j, k),
                        faults: FaultSpec {
                            loss: l,
                            duplication: d,
                            reorder: r,
                            reorder_jitter_us: jit,
                            corruption: 0.0,
                        },
                    });
                }
            }
        }
        points
    }

    /// The grid point at `(i, j, k)`, if within this sweep's grid.
    pub fn point(&self, ix: (usize, usize, usize)) -> Option<GridPoint> {
        let (loss, dup, reorder) = self.axes();
        let (&l, &d, &(r, jit)) = (loss.get(ix.0)?, dup.get(ix.1)?, reorder.get(ix.2)?);
        Some(GridPoint {
            ix,
            faults: FaultSpec {
                loss: l,
                duplication: d,
                reorder: r,
                reorder_jitter_us: jit,
                corruption: 0.0,
            },
        })
    }

    fn crash_axes(&self) -> (&'static [f64], &'static [(f64, u64)], &'static [u32]) {
        if self.quick {
            (CRASH_LOSS_QUICK, CRASH_REORDER, CRASH_PERMILLE_QUICK)
        } else {
            (CRASH_LOSS_FULL, CRASH_REORDER, CRASH_PERMILLE_FULL)
        }
    }

    /// All points of the crash sweep's loss × reorder × crash-instant grid,
    /// in row-major `(i, j, k)` order.
    pub fn crash_grid(&self) -> Vec<CrashGridPoint> {
        let (loss, reorder, permille) = self.crash_axes();
        let mut points = Vec::with_capacity(loss.len() * reorder.len() * permille.len());
        for (i, &l) in loss.iter().enumerate() {
            for (j, &(r, jit)) in reorder.iter().enumerate() {
                for (k, &p) in permille.iter().enumerate() {
                    points.push(CrashGridPoint {
                        ix: (i, j, k),
                        faults: FaultSpec {
                            loss: l,
                            duplication: 0.0,
                            reorder: r,
                            reorder_jitter_us: jit,
                            corruption: 0.0,
                        },
                        crash: CrashSpec {
                            down_at_permille: p,
                            outage_us: CRASH_OUTAGE_US,
                        },
                    });
                }
            }
        }
        points
    }

    /// The crash-grid point at `(i, j, k)`, if within this sweep's grid.
    pub fn crash_point(&self, ix: (usize, usize, usize)) -> Option<CrashGridPoint> {
        let (loss, reorder, permille) = self.crash_axes();
        let (&l, &(r, jit), &p) = (loss.get(ix.0)?, reorder.get(ix.1)?, permille.get(ix.2)?);
        Some(CrashGridPoint {
            ix,
            faults: FaultSpec {
                loss: l,
                duplication: 0.0,
                reorder: r,
                reorder_jitter_us: jit,
                corruption: 0.0,
            },
            crash: CrashSpec {
                down_at_permille: p,
                outage_us: CRASH_OUTAGE_US,
            },
        })
    }
}

/// One cell of the chaos grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Grid indices `(loss, duplication, reorder)` — the repro coordinates.
    pub ix: (usize, usize, usize),
    /// The fault model this cell injects.
    pub faults: FaultSpec,
}

impl GridPoint {
    /// The fully-specified scenario this point runs under `base_seed`.
    pub fn scenario(&self, base_seed: u64) -> Scenario {
        let seed = point_seed(base_seed, self.ix);
        let mut s = Scenario::base(seed);
        // Fault draws get their own stream so the same sweep seed exercises
        // the same workload/timing at every grid point.
        s.fault_seed = Some(splitmix64(seed ^ 0x5bd1_e995));
        s.faults = self.faults;
        s
    }
}

/// One cell of the crash grid: a fault model plus a crash instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashGridPoint {
    /// Grid indices `(loss, reorder, crash-instant)` — the repro coordinates.
    pub ix: (usize, usize, usize),
    /// The fault model this cell injects.
    pub faults: FaultSpec,
    /// The switch outage this cell injects.
    pub crash: CrashSpec,
}

impl CrashGridPoint {
    /// The fully-specified scenario this point runs under `base_seed`.
    /// Seeds are salted differently from the fault grid's, so the two
    /// sweeps never share a scenario seed.
    pub fn scenario(&self, base_seed: u64) -> Scenario {
        let seed = point_seed(base_seed ^ 0xc4a5_0c8a_11e0_u64, self.ix);
        let mut s = Scenario::base(seed);
        s.fault_seed = Some(splitmix64(seed ^ 0x5bd1_e995));
        s.faults = self.faults;
        s.crash = Some(self.crash);
        s
    }
}

/// Everything one sweep produced: the printable report plus the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// Full human-readable report; byte-identical across repeat runs.
    pub text: String,
    /// Grid points run.
    pub points: usize,
    /// Grid points with at least one invariant violation.
    pub failures: usize,
}

impl SweepReport {
    /// True when every grid point conformed.
    pub fn ok(&self) -> bool {
        self.failures == 0
    }
}

/// Runs every grid point of `config` and renders the deterministic report.
pub fn run_sweep(config: SweepConfig) -> SweepReport {
    let grid = config.grid();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "conformance sweep: seed={} grid={} ({} points)",
        config.seed,
        if config.quick { "quick" } else { "full" },
        grid.len(),
    );
    let mut failures = 0;
    for point in &grid {
        let report = point.scenario(config.seed).run();
        let _ = writeln!(text, "{}", render_point(config.seed, point, &report));
        if !report.ok() {
            failures += 1;
            for v in &report.violations {
                let _ = writeln!(text, "    violation: {v}");
            }
        }
    }
    let _ = writeln!(
        text,
        "result: {} ({} of {} points failed)",
        if failures == 0 { "PASS" } else { "FAIL" },
        failures,
        grid.len(),
    );
    SweepReport {
        text,
        points: grid.len(),
        failures,
    }
}

/// Runs every point of `config`'s crash grid and renders the deterministic
/// report: the same scenario re-run with a switch outage at each crash
/// instant, with epoch and stale-drop counters in every line.
pub fn run_crash_sweep(config: SweepConfig) -> SweepReport {
    let grid = config.crash_grid();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "conformance crash sweep: seed={} grid={} ({} points, outage={}us)",
        config.seed,
        if config.quick { "quick" } else { "full" },
        grid.len(),
        CRASH_OUTAGE_US,
    );
    let mut failures = 0;
    for point in &grid {
        let report = point.scenario(config.seed).run();
        let _ = writeln!(text, "{}", render_crash_point(config.seed, point, &report));
        if !report.ok() {
            failures += 1;
            for v in &report.violations {
                let _ = writeln!(text, "    violation: {v}");
            }
        }
    }
    let _ = writeln!(
        text,
        "result: {} ({} of {} points failed)",
        if failures == 0 { "PASS" } else { "FAIL" },
        failures,
        grid.len(),
    );
    SweepReport {
        text,
        points: grid.len(),
        failures,
    }
}

/// One report line for a grid point; stable formatting, integers only
/// except the grid's own fixed fault probabilities.
fn render_point(base_seed: u64, point: &GridPoint, report: &RunReport) -> String {
    let (i, j, k) = point.ix;
    let f = &point.faults;
    format!(
        "point {i},{j},{k} seed={} loss={:.2} dup={:.2} reorder={:.2}/{}us : {} \
         sent={} retx={} dups={} sw_permille={}",
        base_seed,
        f.loss,
        f.duplication,
        f.reorder,
        f.reorder_jitter_us,
        if report.ok() { "OK" } else { "FAIL" },
        report.packets_sent,
        report.retransmissions,
        report.duplicates_detected,
        report.switch_aggregation_permille,
    )
}

/// One crash-sweep report line: grid coordinates, fault mix, crash instant,
/// verdict, and the recovery counters.
fn render_crash_point(base_seed: u64, point: &CrashGridPoint, report: &RunReport) -> String {
    let (i, j, k) = point.ix;
    let f = &point.faults;
    format!(
        "point {i},{j},{k} seed={} loss={:.2} reorder={:.2}/{}us crash={}permille : {} \
         sent={} retx={} epoch={} stale={} sw_permille={}",
        base_seed,
        f.loss,
        f.reorder,
        f.reorder_jitter_us,
        point.crash.down_at_permille,
        if report.ok() { "OK" } else { "FAIL" },
        report.packets_sent,
        report.retransmissions,
        report.switch_epoch,
        report.stale_epoch_drops,
        report.switch_aggregation_permille,
    )
}

/// Derives a grid point's scenario seed from the sweep seed and indices.
pub fn point_seed(base: u64, ix: (usize, usize, usize)) -> u64 {
    let packed = ((ix.0 as u64) << 42) | ((ix.1 as u64) << 21) | ix.2 as u64;
    splitmix64(base ^ splitmix64(packed))
}

/// SplitMix64 finalizer — a well-mixed 64-bit permutation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_has_12_points_full_has_36() {
        assert_eq!(SweepConfig::quick(1).grid().len(), 12);
        assert_eq!(SweepConfig::full(1).grid().len(), 36);
    }

    #[test]
    fn point_lookup_matches_grid_enumeration() {
        let cfg = SweepConfig::quick(9);
        for p in cfg.grid() {
            assert_eq!(cfg.point(p.ix), Some(p));
        }
        assert_eq!(cfg.point((99, 0, 0)), None);
    }

    #[test]
    fn crash_grid_shape_and_lookup() {
        assert_eq!(SweepConfig::quick(1).crash_grid().len(), 12);
        assert_eq!(SweepConfig::full(1).crash_grid().len(), 30);
        let cfg = SweepConfig::quick(9);
        for p in cfg.crash_grid() {
            assert_eq!(cfg.crash_point(p.ix), Some(p));
            // Every point's outage must exceed its reorder jitter bound, or
            // delayed old-epoch frames could land while the switch is down.
            assert!(p.crash.outage_us > p.faults.reorder_jitter_us);
        }
        assert_eq!(cfg.crash_point((0, 0, 99)), None);
    }

    #[test]
    fn point_seeds_are_distinct_across_the_grid() {
        let cfg = SweepConfig::full(42);
        let mut seeds: Vec<u64> = cfg
            .grid()
            .iter()
            .map(|p| point_seed(cfg.seed, p.ix))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 36);
    }
}
