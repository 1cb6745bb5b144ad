//! A small deterministic hash for the daemon's and switch's hot-path maps.
//!
//! `std`'s default `RandomState` seeds SipHash per process, which is both
//! slower than needed for the tiny keys used here (u32 ids, short key
//! bytes) and a reminder that nothing observable may depend on iteration
//! order. [`FastMap`] swaps in FNV-1a: several times faster on keys this
//! short and fully deterministic, so a map-order dependency would show up
//! as a reproducible (and catchable) golden-output diff instead of a
//! heisenbug.
//!
//! FNV-1a is *not* DoS-resistant; these maps are keyed by simulator-internal
//! ids, never by input a peer chooses. The structure peers do fill, the
//! receiver's residual table ([`crate::host::table`]), homes their keys by
//! a per-table keyed SipHash instead.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, specialized with fast paths for the fixed-width id writes the
/// `Hash` impls of `TaskId`/`ChannelId`/`u32` perform.
#[derive(Debug, Default, Clone)]
pub struct FnvHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        // Fold the high bits down: HashMap keys buckets off the low bits,
        // where a single multiply round mixes least.
        let h = self.0.wrapping_add(FNV_OFFSET);
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0.wrapping_add(FNV_OFFSET);
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h.wrapping_sub(FNV_OFFSET);
    }

    fn write_u32(&mut self, i: u32) {
        let mut h = self.0.wrapping_add(FNV_OFFSET);
        h ^= i as u64;
        h = h.wrapping_mul(FNV_PRIME);
        self.0 = h.wrapping_sub(FNV_OFFSET);
    }

    fn write_u64(&mut self, i: u64) {
        let mut h = self.0.wrapping_add(FNV_OFFSET);
        h ^= i;
        h = h.wrapping_mul(FNV_PRIME);
        self.0 = h.wrapping_sub(FNV_OFFSET);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Deterministic drop-in for `HashMap` on hot paths.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Deterministic drop-in for `HashSet` on hot paths.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FnvHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FnvHasher::default();
        let mut b = FnvHasher::default();
        a.write(b"hello");
        b.write(b"hello");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_values_and_spreads_low_bits() {
        let hash = |i: u32| {
            let mut h = FnvHasher::default();
            h.write_u32(i);
            h.finish()
        };
        let mut low = std::collections::HashSet::new();
        for i in 0..1024u32 {
            low.insert(hash(i) & 0x3ff);
        }
        // Sequential ids must not collapse into few buckets.
        assert!(
            low.len() > 500,
            "only {} distinct low-10-bit values",
            low.len()
        );
    }

    #[test]
    fn map_roundtrips() {
        let mut m: FastMap<u32, u32> = FastMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        for i in 0..100 {
            assert_eq!(m[&i], i * 2);
        }
    }
}
