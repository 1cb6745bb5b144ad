//! A fixed reference computation timed next to every measurement, so that
//! wall and CPU times can be reported at the speed of a reference machine.
//!
//! The reference box is a shared 2-core VM whose effective speed drops by
//! up to 40 % for minutes at a time: the same binary read 466 k and 273 k
//! tuples/s three minutes apart, CPU time growing with wall time. No bound
//! survives that, so timed end-to-end metrics are scaled by how much slower
//! than on the quiet box the three kernels below ran during the same run.
//!
//! The kernels and their weights were fitted on that box against the
//! slowdowns of three workloads over 40 minutes that included such spells.
//! They look like last-level-cache contention: a pointer chase over a table
//! that a quiet host keeps cached between samples slowed by up to 80 %, a
//! chase over one it cannot by 15 %, pure arithmetic by 8 %, and the
//! simulator by 30–47 %. Weighting the three slowdowns 0.15 / 0.60 / 0.25
//! tracked the simulator one to one on every workload (the optimum is flat)
//! and cut the quartile spread between 25-second windows from 8–10 % to
//! 2.5–3.5 %. A first, cheaper kernel with the same mix but shorter walks
//! moved only half as much as the simulator, so the walk lengths below are
//! the fitted ones, not a tuning knob. The kernels are frozen: like the
//! workloads, they are part of the stick.

use std::hint::black_box;
use std::time::Instant;

/// `(weight, ns on the quiet reference box)` of the three kernels, in the
/// order cached chase, DRAM chase, hash.
const PARTS: [(f64, f64); 3] = [(0.15, 3_600_000.0), (0.60, 5_700_000.0), (0.25, 350_000.0)];

/// 4 MiB of `u32` links, walked a tenth at a time: a quiet host still has
/// some of it cached when the walk comes round again, a busy one does not.
const CACHED_LINKS: usize = 1 << 20;
const CACHED_STEPS: usize = 100_000;
/// 16 MiB of links: past every cache.
const DRAM_LINKS: usize = 1 << 22;
const DRAM_STEPS: usize = 50_000;
/// 256 KiB hashed byte by byte: a serial multiply chain, as CRC and key
/// hashing are.
const HASH_BYTES: usize = 1 << 18;

/// One random cycle through `links` slots (Sattolo's algorithm with a fixed
/// xorshift stream), so that a walk visits every slot before it repeats.
fn cycle(links: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..links as u32).collect();
    let mut x = 88_172_645_463_325_252u64;
    for i in (1..links).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

fn chase(links: &[u32], steps: usize, at: &mut u32) {
    let mut p = *at;
    for _ in 0..steps {
        p = links[p as usize];
    }
    *at = black_box(p);
}

fn ns(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

/// The reference kernels, their working memory and the samples taken.
#[derive(Debug)]
pub struct Calibrator {
    cached: Vec<u32>,
    dram: Vec<u32>,
    bytes: Vec<u8>,
    at: (u32, u32),
    samples: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            cached: cycle(CACHED_LINKS),
            dram: cycle(DRAM_LINKS),
            bytes: (0..HASH_BYTES).map(|i| i as u8).collect(),
            at: (0, 0),
            samples: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Records how slow the machine is right now, 1.0 being the quiet
    /// reference box: the weighted slowdowns of the three kernels, each
    /// taken from the fastest of three passes (the fastest, because a pass
    /// can be delayed but never hurried by an interrupt or context switch).
    pub fn sample(&mut self) {
        let mut fastest = [f64::INFINITY; 3];
        for _ in 0..3 {
            let pass = [
                ns(|| chase(&self.cached, CACHED_STEPS, &mut self.at.0)),
                ns(|| chase(&self.dram, DRAM_STEPS, &mut self.at.1)),
                ns(|| {
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    for &b in &self.bytes {
                        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                    self.bytes[0] = black_box(h) as u8;
                }),
            ];
            for (best, t) in fastest.iter_mut().zip(pass) {
                *best = best.min(t);
            }
        }
        self.samples.push(
            PARTS
                .iter()
                .zip(fastest)
                .map(|(&(weight, reference_ns), t)| weight * t / reference_ns)
                .sum(),
        );
    }

    /// Median slowdown over the samples taken since the last call: the
    /// factor by which times measured meanwhile exceed the reference box's.
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken.
    pub fn take_slowdown(&mut self) -> f64 {
        let slowdown = crate::metrics::median(&self.samples);
        self.samples.clear();
        slowdown
    }
}
