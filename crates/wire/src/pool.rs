//! Recycled packet-buffer pool for the owned reference decoder.
//!
//! [`crate::codec::decode_envelope_pooled`] builds a `Vec<Option<KvTuple>>`
//! (a data packet's slot vector) or a `Vec<KvTuple>` (a long-key batch) per
//! frame. The pool keeps those backing stores on a free list so a caller
//! that decodes many frames — the benchmark's materializing drive — reuses
//! the same handful of buffers: the decoder takes a recycled vector, the
//! caller returns it once the tuples are consumed. No datapath decodes
//! owned packets, so no node owns a pool.
//!
//! Ownership rule: a pool is owned by whoever decodes — never shared, never
//! locked. A vector may be recycled into any pool; capacities vary across
//! packet layouts, which is fine because [`PacketPool::take_slots`]
//! reserves up to the requested capacity after popping a free-list entry.

use crate::packet::KvTuple;

/// Upper bound on retained vectors per free list — bounds pool memory when
/// a workload decodes a large burst and then recycles it all at once.
const MAX_RETAINED: usize = 4096;

/// A per-owner free list of packet backing stores.
#[derive(Debug, Default)]
pub struct PacketPool {
    slots: Vec<Vec<Option<KvTuple>>>,
    tuples: Vec<Vec<KvTuple>>,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared slot vector with at least `capacity` reserved,
    /// recycling a free-list entry when one is available.
    pub fn take_slots(&mut self, capacity: usize) -> Vec<Option<KvTuple>> {
        let mut v = self.slots.pop().unwrap_or_default();
        v.reserve(capacity);
        v
    }

    /// Returns a slot vector to the free list. Contents are discarded;
    /// zero-capacity vectors are dropped rather than pooled.
    pub fn recycle_slots(&mut self, mut v: Vec<Option<KvTuple>>) {
        if v.capacity() == 0 || self.slots.len() >= MAX_RETAINED {
            return;
        }
        v.clear();
        self.slots.push(v);
    }

    /// Takes a cleared tuple vector with at least `capacity` reserved,
    /// recycling a free-list entry when one is available.
    pub fn take_tuples(&mut self, capacity: usize) -> Vec<KvTuple> {
        let mut v = self.tuples.pop().unwrap_or_default();
        v.reserve(capacity);
        v
    }

    /// Returns a tuple vector to the free list. Contents are discarded;
    /// zero-capacity vectors are dropped rather than pooled.
    pub fn recycle_tuples(&mut self, mut v: Vec<KvTuple>) {
        if v.capacity() == 0 || self.tuples.len() >= MAX_RETAINED {
            return;
        }
        v.clear();
        self.tuples.push(v);
    }

    /// Number of vectors currently parked on the free lists.
    pub fn retained(&self) -> usize {
        self.slots.len() + self.tuples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;

    fn kv(s: &str, v: u32) -> KvTuple {
        KvTuple::new(Key::from_str(s).unwrap(), v)
    }

    #[test]
    fn take_recycle_take_hits() {
        let mut p = PacketPool::new();
        let v = p.take_slots(8);
        assert!(v.capacity() >= 8);
        p.recycle_slots(v);
        assert_eq!(p.retained(), 1);
        let v2 = p.take_slots(4);
        assert_eq!(p.retained(), 0, "the take was served from the free list");
        assert!(v2.is_empty());
        assert!(v2.capacity() >= 8, "recycled capacity survives");
    }

    #[test]
    fn recycled_vector_is_cleared() {
        let mut p = PacketPool::new();
        let mut v = p.take_slots(2);
        v.push(Some(kv("a", 1)));
        v.push(None);
        p.recycle_slots(v);
        let v2 = p.take_slots(2);
        assert!(v2.is_empty());
    }

    #[test]
    fn tuples_and_slots_pool_independently() {
        let mut p = PacketPool::new();
        p.recycle_tuples(vec![kv("a", 1)]);
        assert_eq!(p.retained(), 1);
        // A slots take cannot be served by the tuples free list.
        let _ = p.take_slots(1);
        assert_eq!(p.retained(), 1);
        let t = p.take_tuples(1);
        assert!(t.is_empty());
        assert_eq!(p.retained(), 0);
    }

    #[test]
    fn zero_capacity_vectors_are_not_pooled() {
        let mut p = PacketPool::new();
        p.recycle_slots(Vec::new());
        p.recycle_tuples(Vec::new());
        assert_eq!(p.retained(), 0);
    }

    #[test]
    fn retention_is_bounded() {
        let mut p = PacketPool::new();
        for _ in 0..(MAX_RETAINED + 100) {
            p.recycle_tuples(Vec::with_capacity(1));
        }
        assert_eq!(p.retained(), MAX_RETAINED);
    }
}
