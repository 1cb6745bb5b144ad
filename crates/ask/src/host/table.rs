//! The receiver's residual merge table: open-addressed, 16-byte slots,
//! and — once the task completes — the result itself.
//!
//! Every tuple the switch could not absorb lands here — residual slots the
//! view path reads straight off the wire, long-key bypass tuples, fetch
//! replies, and co-located sender streams. The paper's host daemon (§4)
//! merges these into a shared-memory buffer the application then reads in
//! place, so the structure is built for the merge loop, which runs on the
//! receiving daemon's merge worker, and is handed over whole by that
//! worker at completion
//! ([`TaskResult`](crate::host::daemon::TaskResult)), never drained:
//!
//! - **Open addressing, linear probing, power-of-two capacity.** One flat
//!   slot array, four slots per cache line, no per-entry boxes.
//! - **The key is the slot.** A key of up to 8 bytes is stored zero-padded
//!   in the slot's `word`. Keys are non-empty and NUL-free, so read as a
//!   little-endian `u64` such a word has a non-zero low byte and the probe
//!   is one integer compare. A longer key lives in the arena as a
//!   `u16 length · bytes` record and its word is `(record offset + 1) << 8`
//!   — low byte zero, never zero as a whole — compared by stored hash, then
//!   bytes. The all-zero word marks a vacant slot.
//! - **Keyed by the result map's hasher.** Each table homes a key at the
//!   low bits of its SipHash under the table's own [`RandomState`], and
//!   keeps the low 32 bits, all a rehash needs. Peers choose the keys; a
//!   keyed hash keeps them from sharing one home.
//! - **One sweep to the result map.** [`TaskTable::to_map`] hashes with a
//!   clone of that state and inserts in slot order, the map's own bucket
//!   order, so its memory is written front to back, not TLB miss by miss.
//! - **Amortized sorted harvest.** Nothing stays ordered during merges;
//!   [`TaskTable::sorted_entries`] sorts once at harvest time.
//!
//! All aggregation operators are commutative and associative
//! ([`AggregateOp::combine`]), so merge order never changes the values.

use ask_wire::key::Key;
use ask_wire::packet::AggregateOp;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};

/// Smallest allocated capacity (power of two).
const MIN_CAPACITY: usize = 16;

/// Keys up to this long are stored in the slot's word itself.
const WORD_BYTES: usize = 8;

#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
struct Slot {
    /// A little-endian `u64` kept as its bytes, so a short key can be lent
    /// out as `&[u8]` straight from the slot; see the module documentation
    /// for the three cases.
    word: [u8; WORD_BYTES],
    value: u32,
    /// Low half of the key's hash under the table's hasher.
    hash: u32,
}

const VACANT: Slot = Slot {
    word: [0; WORD_BYTES],
    value: 0,
    hash: 0,
};

impl Slot {
    #[inline]
    fn word(&self) -> u64 {
        u64::from_le_bytes(self.word)
    }
}

/// The word a key of at most [`WORD_BYTES`] bytes is stored as — its bytes,
/// zero-padded, as a little-endian `u64` (two overlapping fixed-width reads,
/// no length-dependent copy) — and `0` for a longer key.
#[inline]
fn key_word(key: &[u8]) -> u64 {
    let n = key.len();
    let le = |at: usize, width: usize| {
        let mut bytes = [0u8; WORD_BYTES];
        bytes[..width].copy_from_slice(&key[at..at + width]);
        u64::from_le_bytes(bytes)
    };
    match n {
        1 => key[0] as u64,
        2..=3 => le(0, 2) | le(n - 2, 2) << (8 * (n - 2)),
        4..=7 => le(0, 4) | le(n - 4, 4) << (8 * (n - 4)),
        WORD_BYTES => le(0, WORD_BYTES),
        _ => 0,
    }
}

fn owned_key(bytes: &[u8]) -> Key {
    Key::from_slice(bytes).expect("table keys come from validated wire bytes")
}

/// Open-addressed residual table for one receive task, keyed by the hasher
/// `S` its result map is built with. See the module documentation for the
/// layout rationale.
#[derive(Debug, Default)]
pub struct TaskTable<S = RandomState> {
    slots: Vec<Slot>,
    /// `slots.len() - 1`; capacity is always a power of two.
    mask: usize,
    len: usize,
    /// `u16 length · bytes` records of the keys longer than a word.
    arena: Vec<u8>,
    state: S,
}

impl TaskTable {
    /// An empty table under a fresh [`RandomState`]. Allocates nothing
    /// until the first merge.
    pub fn new() -> Self {
        TaskTable::default()
    }
}

impl<S: BuildHasher> TaskTable<S> {
    /// An empty table that homes keys by `state`.
    pub fn with_hasher(state: S) -> Self {
        TaskTable {
            slots: Vec::new(),
            mask: 0,
            len: 0,
            arena: Vec::new(),
            state,
        }
    }

    /// Number of distinct keys merged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key has been merged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key bytes of the arena record a long key's `word` points at.
    #[inline]
    fn arena_key(&self, word: u64) -> &[u8] {
        let at = (word >> 8) as usize - 1;
        let len = u16::from_le_bytes([self.arena[at], self.arena[at + 1]]) as usize;
        &self.arena[at + 2..at + 2 + len]
    }

    /// Appends `key`'s arena record and returns the word pointing at it.
    fn push_arena(&mut self, key: &[u8]) -> u64 {
        let len = u16::try_from(key.len()).expect("key lengths fit the wire's u16 length field");
        let at = self.arena.len() as u64;
        self.arena.extend_from_slice(&len.to_le_bytes());
        self.arena.extend_from_slice(key);
        (at + 1) << 8
    }

    /// Index of the slot holding `key` — whose [`key_word`] is `want` — or
    /// of the vacant slot it belongs in (`false`). The table must have been
    /// allocated.
    #[inline]
    fn probe(&self, hash: u32, key: &[u8], want: u64) -> (usize, bool) {
        let mut ix = hash as usize & self.mask;
        loop {
            let slot = &self.slots[ix];
            let word = slot.word();
            if word == 0 {
                return (ix, false);
            }
            let found = if want != 0 {
                word == want
            } else {
                word & 0xff == 0 && slot.hash == hash && self.arena_key(word) == key
            };
            if found {
                return (ix, true);
            }
            ix = (ix + 1) & self.mask;
        }
    }

    /// Merges `value` under the key whose bytes are `key`. `key` must be a
    /// valid key (non-empty, NUL-free), as every key parsed off the wire
    /// is.
    #[inline]
    pub fn merge(&mut self, key: &[u8], value: u32, op: AggregateOp) {
        debug_assert!(
            !key.is_empty() && !key.contains(&0),
            "wire keys are validated non-empty and NUL-free"
        );
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        // `Key` hashes exactly its bytes, so this is the map's hash.
        let hash = self.state.hash_one(key) as u32;
        let want = key_word(key);
        let (ix, found) = self.probe(hash, key, want);
        if found {
            let v = &mut self.slots[ix].value;
            *v = op.combine(*v, value);
            return;
        }
        let word = if want != 0 {
            want
        } else {
            self.push_arena(key)
        };
        self.slots[ix] = Slot {
            word: word.to_le_bytes(),
            value,
            hash,
        };
        self.len += 1;
    }

    /// [`TaskTable::merge`] for callers holding the key's wire hash
    /// ([`ask_wire::view::SlotView::hash64`]). The hash is not read: the
    /// table homes keys by its own hasher.
    #[inline]
    pub fn merge_hashed(&mut self, _wire_hash: u64, key: &[u8], value: u32, op: AggregateOp) {
        self.merge(key, value, op);
    }

    /// Doubles capacity and reinserts every live slot at the home index its
    /// stored hash gives. Arena offsets are untouched: only slots move.
    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(MIN_CAPACITY);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_cap]);
        self.mask = new_cap - 1;
        for s in old {
            if s.word() == 0 {
                continue;
            }
            let mut ix = s.hash as usize & self.mask;
            while self.slots[ix].word() != 0 {
                ix = (ix + 1) & self.mask;
            }
            self.slots[ix] = s;
        }
    }

    /// Empties the table, keeping slot and arena capacity — the
    /// epoch-resync wipe: partial residuals are dropped and the senders'
    /// replays repopulate the same allocation.
    pub fn clear(&mut self) {
        self.slots.fill(VACANT);
        self.len = 0;
        self.arena.clear();
    }

    /// The value merged under `key`, if any.
    pub fn get(&self, key: &Key) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let key = key.as_bytes();
        let (ix, found) = self.probe(self.state.hash_one(key) as u32, key, key_word(key));
        found.then(|| self.slots[ix].value)
    }

    /// The key bytes a live slot's `word` stands for: its own bytes up to
    /// the padding — keys hold no NUL, so the padding is exactly the zero
    /// high bytes — or the arena record it points at.
    #[inline]
    fn word_key<'a>(&'a self, word: &'a [u8; WORD_BYTES]) -> &'a [u8] {
        let w = u64::from_le_bytes(*word);
        if w & 0xff == 0 {
            self.arena_key(w)
        } else {
            &word[..WORD_BYTES - w.leading_zeros() as usize / 8]
        }
    }

    /// Every `(key bytes, value)` entry, read in place in slot order —
    /// like the result map's order, a function of the table's hasher.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], u32)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.word() != 0)
            .map(move |s| (self.word_key(&s.word), s.value))
    }

    /// The entries as the owned map the application-facing API returns —
    /// the only builder of a result map. The map hashes with a clone of the
    /// table's hasher, so slot order is its home-bucket order: the map has
    /// as many buckets as the table has slots, or half as many, and both
    /// home a key at the low bits of one hash. Inserting in slot order
    /// sweeps the map front to back, once or twice, instead of missing the
    /// TLB on nearly every key of a multi-megabyte table (DESIGN.md §6).
    pub fn to_map(&self) -> HashMap<Key, u32, S>
    where
        S: Clone,
    {
        let mut out = HashMap::with_capacity_and_hasher(self.len, self.state.clone());
        out.extend(self.iter().map(|(key, value)| (owned_key(key), value)));
        out
    }

    /// Harvests every entry sorted by key bytes — the amortized sorted
    /// harvest: merge order is arbitrary, the sort happens once here, and
    /// the output is byte-identical to collecting a `HashMap` and sorting
    /// it.
    pub fn sorted_entries(&self) -> Vec<(Key, u32)> {
        let mut out: Vec<(Key, u32)> = self.iter().map(|(k, v)| (owned_key(k), v)).collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasthash::FastMap;
    use proptest::prelude::*;
    use std::hash::{DefaultHasher, Hasher};

    fn keys() -> Vec<Key> {
        // Word-sized keys, keys on both sides of the 8/9-byte boundary,
        // and arena-backed long keys of assorted lengths.
        let mut ks = Vec::new();
        for i in 0..40u64 {
            ks.push(Key::from_u64(i + 1));
        }
        ks.push(Key::from_str(&"x".repeat(WORD_BYTES)).unwrap());
        ks.push(Key::from_str(&"y".repeat(WORD_BYTES + 1)).unwrap());
        ks.push(Key::from_str("a-long-key-clearly-beyond-one-word").unwrap());
        ks.push(Key::from_str(&"z".repeat(100)).unwrap());
        ks
    }

    fn reference_merge(stream: &[(Key, u32)], op: AggregateOp) -> FastMap<Key, u32> {
        // The exact structure and merge expression the daemon used before
        // the open-addressed table.
        let mut map: FastMap<Key, u32> = FastMap::default();
        for (k, v) in stream {
            map.entry(k.clone())
                .and_modify(|cur| *cur = op.combine(*cur, *v))
                .or_insert(*v);
        }
        map
    }

    fn stream() -> Vec<(Key, u32)> {
        let ks = keys();
        let mut s = Vec::new();
        // Deterministic pseudo-random repetition so most keys merge several
        // times and values exercise wrapping sums.
        let mut x = 0x1234_5678_9abc_def0u64;
        for round in 0..7 {
            for (i, k) in ks.iter().enumerate() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (x >> 33) % 3 == round % 3 {
                    s.push((k.clone(), (x >> 7) as u32 | (i as u32) << 24));
                }
            }
        }
        s
    }

    #[test]
    fn slots_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn merge_matches_hashmap_reference() {
        for op in [AggregateOp::Sum, AggregateOp::Max, AggregateOp::Min] {
            let s = stream();
            let want: HashMap<Key, u32> = reference_merge(&s, op).into_iter().collect();
            let mut table = TaskTable::new();
            for (k, v) in &s {
                table.merge(k.as_bytes(), *v, op);
            }
            assert_eq!(table.len(), want.len());
            assert_eq!(table.to_map(), want);
        }
    }

    #[test]
    fn wire_hash_and_key_hash_merge_identically() {
        // `merge_hashed` does not read the wire hash: under one hasher,
        // the two entry points build the same table slot for slot.
        let op = AggregateOp::Sum;
        let s = stream();
        let mut by_key = TaskTable::new();
        let mut by_hash = TaskTable::with_hasher(by_key.state.clone());
        for (k, v) in &s {
            by_key.merge(k.as_bytes(), *v, op);
            by_hash.merge_hashed(k.hash64(), k.as_bytes(), *v, op);
        }
        assert!(by_key.iter().eq(by_hash.iter()));
    }

    #[test]
    fn sorted_harvest_is_byte_identical_to_hashmap_sort() {
        // The old daemon's report path: collect the HashMap, sort by key.
        // The pinning is literal — both harvests are rendered to bytes and
        // compared as strings, long-key arena entries included, across an
        // epoch-resync clear.
        let op = AggregateOp::Sum;
        let s = stream();
        let mut table = TaskTable::new();
        for (k, v) in &s {
            table.merge(k.as_bytes(), *v, op);
        }
        let mut want: Vec<(Key, u32)> = reference_merge(&s, op).into_iter().collect();
        want.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(format!("{:?}", table.sorted_entries()), format!("{want:?}"));

        // Epoch resync clears the table (and truncates the arena); a
        // replayed, different stream must harvest exactly as a fresh map.
        table.clear();
        assert!(table.is_empty());
        let replay: Vec<(Key, u32)> = s.iter().rev().cloned().collect();
        for (k, v) in &replay {
            table.merge(k.as_bytes(), *v, op);
        }
        let mut want2: Vec<(Key, u32)> = reference_merge(&replay, op).into_iter().collect();
        want2.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            format!("{:?}", table.sorted_entries()),
            format!("{want2:?}")
        );
    }

    #[test]
    fn growth_rehash_keeps_arena_backed_keys() {
        let op = AggregateOp::Sum;
        let mut table = TaskTable::new();
        let long_a = Key::from_str(&"a".repeat(50)).unwrap();
        let long_b = Key::from_str(&"b".repeat(50)).unwrap();
        table.merge(long_a.as_bytes(), 1, op);
        table.merge(long_b.as_bytes(), 2, op);
        // Force several growth rounds past MIN_CAPACITY.
        for i in 0..200u64 {
            table.merge(Key::from_u64(i + 1).as_bytes(), 1, op);
        }
        table.merge(long_a.as_bytes(), 10, op);
        assert_eq!(table.get(&long_a), Some(11));
        assert_eq!(table.get(&long_b), Some(2));
        assert_eq!(table.len(), 202);
    }

    #[test]
    fn sum_wraps_at_u32_max_for_word_and_arena_keys() {
        // ROADMAP 4c: the host merge is the reference aggregator's
        // `wrapping_add`, whichever way the key is stored.
        let mut table = TaskTable::new();
        for key in [
            Key::from_u64(7),
            Key::from_str("a-key-longer-than-a-word").unwrap(),
        ] {
            table.merge(key.as_bytes(), u32::MAX - 1, AggregateOp::Sum);
            table.merge(key.as_bytes(), 5, AggregateOp::Sum);
            assert_eq!(table.get(&key), Some(3));
            table.merge_hashed(key.hash64(), key.as_bytes(), u32::MAX, AggregateOp::Sum);
            assert_eq!(table.get(&key), Some(2));
        }
    }

    /// Key `i` of a deterministic mix, distinct for every `i`: word keys
    /// of up to three bytes, keys of exactly 8 and 9 bytes either side of
    /// the word boundary, and arena keys of 9–40 bytes.
    fn mixed_key(i: u64) -> Key {
        let text = match i % 4 {
            0 | 1 => return Key::from_u64(i),
            2 if i % 8 == 2 => format!("{i:08}"),
            2 => format!("b{i:08}"),
            _ => format!("{i}-{}", "x".repeat(40)),
        };
        let len = if i % 4 == 3 {
            9 + i as usize % 32
        } else {
            text.len()
        };
        Key::from_str(&text[..len]).unwrap()
    }

    /// `to_map` against the map plain `insert`s build from the same keys.
    fn check_bulk_load(n: u64) {
        let mut table = TaskTable::new();
        let mut want = HashMap::new();
        for i in 0..n {
            let (key, value) = (mixed_key(i), (i as u32).wrapping_mul(0x9e37_79b9));
            table.merge(key.as_bytes(), value, AggregateOp::Sum);
            want.insert(key, value);
        }
        assert_eq!(table.len() as u64, n, "the mix has no duplicate keys");
        assert_eq!(table.to_map(), want, "{n} keys");
    }

    #[test]
    fn bucket_ordered_load_is_exact_at_every_size() {
        // 0..=64 keys spans the map's 4- to 128-bucket tables and its
        // `capacity() < 8` case; ~200 k keys is a `spill_uniform` task.
        for n in 0..=64 {
            check_bulk_load(n);
        }
        check_bulk_load(200_003);
    }

    /// Every live slot's `(index, key bytes, stored hash)`.
    fn live<S: BuildHasher>(table: &TaskTable<S>) -> Vec<(usize, &[u8], u32)> {
        let slots = table.slots.iter().enumerate();
        slots
            .filter(|(_, s)| s.word() != 0)
            .map(|(ix, s)| (ix, table.word_key(&s.word), s.hash))
            .collect()
    }

    #[test]
    fn slots_hold_the_result_maps_own_hashes() {
        // `to_map` inserts in slot order, which is the map's bucket order
        // only while the map hashes every key to the value the slot holds.
        // A map built under any other hasher would still be exact, just
        // slow to build again; this is what catches it.
        let mut table = TaskTable::new();
        for key in keys().into_iter().chain((0..64).map(mixed_key)) {
            table.merge(key.as_bytes(), 1, AggregateOp::Sum);
        }
        let map = table.to_map();
        let live = live(&table);
        assert_eq!(live.len(), map.len());
        for (_, key, hash) in live {
            let key = Key::from_slice(key).unwrap();
            assert_eq!(hash, map.hasher().hash_one(&key) as u32, "{key}");
        }
    }

    #[test]
    fn keys_that_collide_under_fnv_do_not_pile_up() {
        // The integer keys below 1 Mi whose FNV-1a hashes share their low
        // 12 bits: homed by the wire hash, every one of them would share
        // one home, and each merge would probe the whole run.
        let want = Key::from_u64(1).hash64() & 0xfff;
        let colliding: Vec<Key> = (1..1u64 << 20)
            .map(Key::from_u64)
            .filter(|key| key.hash64() & 0xfff == want)
            .collect();
        assert!(colliding.len() >= 200, "{} keys", colliding.len());
        let mut table = TaskTable::new();
        for key in &colliding {
            table.merge(key.as_bytes(), 1, AggregateOp::Sum);
        }
        assert_eq!(table.len(), colliding.len());
        let displaced: usize = live(&table)
            .iter()
            .map(|&(ix, _, hash)| ix.wrapping_sub(hash as usize) & table.mask)
            .sum();
        assert!(
            displaced < 4 * table.len(),
            "{displaced} slots of displacement over {} keys",
            table.len()
        );
    }

    /// The model test's hasher: SipHash under fixed keys, or colliding
    /// values from it — one of four (different keys, equal hashes), or
    /// distinct hashes whose low halves, all a slot stores, take one of
    /// four values.
    #[derive(Debug, Clone, Copy)]
    enum Hashing {
        Sip,
        Collide64,
        Collide32,
    }

    struct ModelHasher(Hashing, DefaultHasher);

    impl Hasher for ModelHasher {
        fn write(&mut self, bytes: &[u8]) {
            self.1.write(bytes);
        }

        fn finish(&self) -> u64 {
            let h = self.1.finish();
            match self.0 {
                Hashing::Sip => h,
                Hashing::Collide64 => h % 4,
                Hashing::Collide32 => (h << 32) | (h % 4),
            }
        }
    }

    impl BuildHasher for Hashing {
        type Hasher = ModelHasher;

        fn build_hasher(&self) -> ModelHasher {
            ModelHasher(*self, DefaultHasher::new())
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// Merged through `merge_hashed`, with a hash it must not read.
        MergeHashed(usize, u32),
        Merge(usize, u32),
        Clear,
        Harvest,
    }

    const POOL: usize = 96;

    fn arb_step() -> impl Strategy<Value = Step> {
        (0u8..33, 0..POOL, any::<u32>()).prop_map(|(kind, k, v)| match kind {
            0..=19 => Step::MergeHashed(k, v),
            20..=29 => Step::Merge(k, v),
            30 => Step::Clear,
            _ => Step::Harvest,
        })
    }

    /// `len`, `get`, `iter`, `to_map` and `sorted_entries` against the model.
    fn check_harvest(table: &TaskTable<Hashing>, model: &HashMap<Key, u32>, pool: &[Key]) {
        assert_eq!(table.len(), model.len());
        assert_eq!(table.is_empty(), model.is_empty());
        for key in pool {
            assert_eq!(table.get(key), model.get(key).copied());
        }
        let seen: Vec<(Vec<u8>, u32)> = table.iter().map(|(k, v)| (k.to_vec(), v)).collect();
        assert_eq!(seen.len(), model.len(), "iter yields each key once");
        for (key, value) in &seen {
            assert_eq!(model.get(&Key::from_slice(key).unwrap()), Some(value));
        }
        let map: HashMap<Key, u32> = table.to_map().into_iter().collect();
        assert_eq!(&map, model);
        let mut sorted: Vec<(Key, u32)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(table.sorted_entries(), sorted);
    }

    proptest! {
        /// Random interleavings of `merge_hashed` / `merge` / `clear` /
        /// harvest over keys of 1..=40 bytes — word keys, the 8/9-byte
        /// boundary, arena records — under each operator and under a
        /// hasher that spreads keys or one that collides them, against a
        /// `HashMap` model. The closing sweep over the whole pool takes
        /// every case through at least three doublings.
        #[test]
        fn table_matches_hashmap_model(
            raw_pool in proptest::collection::vec(
                proptest::collection::vec(1u8..=255, 1..=40), POOL),
            boundary in proptest::collection::vec(1u8..=255, WORD_BYTES + 1),
            steps in proptest::collection::vec(arb_step(), 0..300),
            op in prop_oneof![
                Just(AggregateOp::Sum), Just(AggregateOp::Max), Just(AggregateOp::Min)],
            hashing in prop_oneof![
                Just(Hashing::Sip), Just(Hashing::Collide64), Just(Hashing::Collide32)],
        ) {
            let mut pool: Vec<Key> =
                raw_pool.iter().map(|k| Key::from_slice(k).unwrap()).collect();
            // Always one pair that differs only in crossing the boundary.
            pool[0] = Key::from_slice(&boundary[..WORD_BYTES]).unwrap();
            pool[1] = Key::from_slice(&boundary).unwrap();
            let sweep = (0..POOL).map(|k| Step::MergeHashed(k, 1));
            let mut table = TaskTable::with_hasher(hashing);
            let mut model: HashMap<Key, u32> = HashMap::new();
            for step in steps.into_iter().chain(sweep).chain([Step::Harvest]) {
                match step {
                    Step::MergeHashed(k, v) | Step::Merge(k, v) => {
                        let key = &pool[k];
                        if matches!(step, Step::Merge(..)) {
                            table.merge(key.as_bytes(), v, op);
                        } else {
                            table.merge_hashed(k as u64, key.as_bytes(), v, op);
                        }
                        model.entry(key.clone())
                            .and_modify(|cur| *cur = op.combine(*cur, v))
                            .or_insert(v);
                    }
                    Step::Clear => {
                        table.clear();
                        model.clear();
                    }
                    Step::Harvest => check_harvest(&table, &model, &pool),
                }
            }
            let distinct = model.len();
            prop_assert!(distinct * 4 <= table.slots.len() * 3, "load factor holds");
            if distinct > 48 {
                prop_assert!(table.slots.len() >= MIN_CAPACITY << 3, "three doublings");
            }
        }
    }
}
