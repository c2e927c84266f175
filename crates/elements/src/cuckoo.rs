//! A bucketized cuckoo hash table.
//!
//! The paper's NAT "uses the DPDK Cuckoo hash table, resulting in more
//! lookups and higher memory usage" (§A.3). This is a from-scratch
//! 2-choice, 4-slot-per-bucket cuckoo table in the style of
//! `rte_hash`: lookups probe at most two buckets (one cache line each);
//! inserts displace entries along a bounded random walk.
//!
//! Host storage is lazy: a bucket is stored only once an entry is
//! placed in it, so host memory follows the flows a run touches while
//! `bucket_count` (and the simulated table region sized from it) keeps
//! the full configured capacity.

use pm_click::ConfigError;
use pm_sim::SplitMix64;
use std::hash::{Hash, Hasher};

/// Slots per bucket (one 64-B cache line of entries).
pub const SLOTS: usize = 4;
/// Largest accepted bucket count: covers `buckets_for(MAX_FLOWS)`
/// (2^24) with headroom and keeps every `u32` store index in range.
pub const MAX_BUCKETS: usize = 1 << 25;
/// Maximum displacement steps before an insert is declared failed.
const MAX_KICKS: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Entry<K, V> {
    key: K,
    value: V,
}

#[derive(Debug, Clone)]
struct Bucket<K, V> {
    slots: [Option<Entry<K, V>>; SLOTS],
}

impl<K: Copy, V: Copy> Bucket<K, V> {
    fn empty() -> Self {
        Bucket {
            slots: [None; SLOTS],
        }
    }
}

/// A cuckoo hash map with copyable keys and values.
#[derive(Debug, Clone)]
pub struct CuckooHash<K, V> {
    /// Per-bucket position in `store`; 0 means the bucket has never
    /// held an entry and reads see the shared empty `store[0]`.
    index: Vec<u32>,
    /// Buckets that have held an entry, behind the empty `store[0]`.
    store: Vec<Bucket<K, V>>,
    mask: u64,
    len: usize,
    kick_rng: SplitMix64,
    displacements: u64,
    max_chain: u64,
    evictions: u64,
}

/// Outcome of an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Key inserted into a free slot.
    Inserted,
    /// Key already present; value replaced.
    Replaced,
    /// Table too full; insert failed after the displacement limit.
    Full,
}

fn hash_of<K: Hash>(k: &K, seed: u64) -> u64 {
    // FxHash-style multiply-xor via the std hasher would be
    // platform-stable enough, but we want explicit determinism:
    let mut h = std::collections::hash_map::DefaultHasher::new();
    seed.hash(&mut h);
    k.hash(&mut h);
    h.finish()
}

impl<K: Hash + Eq + Copy, V: Copy> CuckooHash<K, V> {
    /// Creates a table with `n_buckets` buckets (rounded up to a power of
    /// two). Capacity is `n_buckets * SLOTS` entries at best.
    ///
    /// # Panics
    ///
    /// If `n_buckets` exceeds [`MAX_BUCKETS`]; the `BUCKETS` and
    /// `CONNTRACK` config options reject such counts with an error.
    pub fn new(n_buckets: usize) -> Self {
        assert!(
            n_buckets <= MAX_BUCKETS,
            "{n_buckets} buckets exceed MAX_BUCKETS ({MAX_BUCKETS})"
        );
        let n = n_buckets.next_power_of_two().max(2);
        CuckooHash {
            index: vec![0; n],
            store: vec![Bucket::empty()],
            mask: (n - 1) as u64,
            len: 0,
            kick_rng: SplitMix64::new(0xC0C0_0C0C),
            displacements: 0,
            max_chain: 0,
            evictions: 0,
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.index.len()
    }

    /// Maximum entries the table can hold (`buckets × SLOTS`).
    pub fn capacity(&self) -> usize {
        self.index.len() * SLOTS
    }

    /// Buckets held in host memory: those that have ever held an entry.
    pub fn stored_buckets(&self) -> usize {
        self.store.len() - 1
    }

    /// Displacement steps taken across all inserts so far.
    pub fn displacements(&self) -> u64 {
        self.displacements
    }

    /// Longest single displacement chain any insert has walked. Bounded
    /// by the kick limit (64), which `tests/tests/tablescale.rs` pins.
    pub fn max_chain(&self) -> u64 {
        self.max_chain
    }

    /// Entries lost to the displacement limit: a `Full` insert places
    /// the new key but drops the final displaced victim (rte_hash's
    /// failure mode), so each one is a capacity eviction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_pair(&self, key: &K) -> (usize, usize) {
        let h1 = hash_of(key, 0x9E37_79B9);
        let h2 = hash_of(key, 0x517C_C1B7);
        ((h1 & self.mask) as usize, (h2 & self.mask) as usize)
    }

    /// Looks up `key`, reporting the probed bucket indices through
    /// `probe` (for cache charging): the first bucket always, the second
    /// only when the first misses.
    pub fn lookup_visit(&self, key: &K, mut probe: impl FnMut(usize)) -> Option<V> {
        let (b1, b2) = self.bucket_pair(key);
        probe(b1);
        if let Some(v) = self.scan(b1, key) {
            return Some(v);
        }
        probe(b2);
        self.scan(b2, key)
    }

    /// Looks up `key`.
    pub fn lookup(&self, key: &K) -> Option<V> {
        self.lookup_visit(key, |_| {})
    }

    #[inline]
    fn bucket(&self, b: usize) -> &Bucket<K, V> {
        &self.store[self.index[b] as usize]
    }

    /// Bucket `b` for writing, stored on first use.
    fn bucket_mut(&mut self, b: usize) -> &mut Bucket<K, V> {
        if self.index[b] == 0 {
            self.index[b] = u32::try_from(self.store.len())
                .expect("store holds at most MAX_BUCKETS + 1 buckets");
            self.store.push(Bucket::empty());
        }
        &mut self.store[self.index[b] as usize]
    }

    fn scan(&self, b: usize, key: &K) -> Option<V> {
        self.bucket(b)
            .slots
            .iter()
            .flatten()
            .find(|e| e.key == *key)
            .map(|e| e.value)
    }

    /// Where `key` lives, as a (store position, slot) pair, searching
    /// `b1` then `b2`. A hit is always a stored bucket.
    fn locate(&self, b1: usize, b2: usize, key: &K) -> Option<(usize, usize)> {
        [b1, b2].into_iter().find_map(|b| {
            let s = self.index[b] as usize;
            self.store[s]
                .slots
                .iter()
                .position(|e| matches!(e, Some(e) if e.key == *key))
                .map(|i| (s, i))
        })
    }

    fn try_place(&mut self, b: usize, e: Entry<K, V>) -> bool {
        let Some(i) = self.bucket(b).slots.iter().position(Option::is_none) else {
            return false;
        };
        self.bucket_mut(b).slots[i] = Some(e);
        true
    }

    /// Inserts `key → value`, visiting each touched bucket via `probe`.
    pub fn insert_visit(
        &mut self,
        key: K,
        value: V,
        mut probe: impl FnMut(usize),
    ) -> InsertOutcome {
        let (b1, b2) = self.bucket_pair(&key);
        probe(b1);
        probe(b2);
        // Replace in place if present.
        if let Some((s, i)) = self.locate(b1, b2, &key) {
            let e = self.store[s].slots[i]
                .as_mut()
                .expect("located slot is occupied");
            e.value = value;
            return InsertOutcome::Replaced;
        }
        let mut entry = Entry { key, value };
        if self.try_place(b1, entry) || self.try_place(b2, entry) {
            self.len += 1;
            return InsertOutcome::Inserted;
        }
        // Random-walk displacement starting from b1.
        let mut b = b1;
        for kick in 0..MAX_KICKS {
            let victim_slot = (self.kick_rng.next_u64() % SLOTS as u64) as usize;
            // `b` is full, so it is already stored: no allocation here.
            let victim = self.bucket_mut(b).slots[victim_slot]
                .replace(entry)
                .expect("displacement always targets a full bucket");
            self.displacements += 1;
            entry = victim;
            let (v1, v2) = self.bucket_pair(&entry.key);
            b = if b == v1 { v2 } else { v1 };
            probe(b);
            if self.try_place(b, entry) {
                self.len += 1;
                self.max_chain = self.max_chain.max(kick as u64 + 1);
                return InsertOutcome::Inserted;
            }
        }
        // Undo is skipped (the displaced chain still holds valid entries;
        // only `entry` is dropped) — matching rte_hash's failure mode.
        self.max_chain = self.max_chain.max(MAX_KICKS as u64);
        self.evictions += 1;
        InsertOutcome::Full
    }

    /// Inserts without probe tracking.
    pub fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        self.insert_visit(key, value, |_| {})
    }

    /// Applies `f` to the value stored for `key`, if present (an
    /// in-place update: no displacement, no re-hash). Returns whether
    /// the key was found.
    pub fn update(&mut self, key: &K, f: impl FnOnce(&mut V)) -> bool {
        let (b1, b2) = self.bucket_pair(key);
        let Some((s, i)) = self.locate(b1, b2, key) else {
            return false;
        };
        let e = self.store[s].slots[i]
            .as_mut()
            .expect("located slot is occupied");
        f(&mut e.value);
        true
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (b1, b2) = self.bucket_pair(key);
        let (s, i) = self.locate(b1, b2, key)?;
        let e = self.store[s].slots[i]
            .take()
            .expect("located slot is occupied");
        self.len -= 1;
        Some(e.value)
    }
}

/// Parses a bucket-count option (`BUCKETS n`, `CONNTRACK n`), rejecting
/// 0 and anything above [`MAX_BUCKETS`].
pub(crate) fn parse_buckets(option: &str, v: &str) -> Result<usize, ConfigError> {
    v.parse()
        .ok()
        .filter(|n| (1..=MAX_BUCKETS).contains(n))
        .ok_or_else(|| ConfigError::Element {
            element: String::new(),
            message: format!("bad {option} {v:?} (1..={MAX_BUCKETS})"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut h: CuckooHash<u64, u32> = CuckooHash::new(16);
        assert_eq!(h.insert(42, 1), InsertOutcome::Inserted);
        assert_eq!(h.lookup(&42), Some(1));
        assert_eq!(h.insert(42, 2), InsertOutcome::Replaced);
        assert_eq!(h.lookup(&42), Some(2));
        assert_eq!(h.remove(&42), Some(2));
        assert_eq!(h.lookup(&42), None);
        assert!(h.is_empty());
    }

    #[test]
    fn many_entries_with_displacement() {
        let mut h: CuckooHash<u64, u64> = CuckooHash::new(256);
        // Fill to ~75% of the 1024-entry capacity.
        for k in 0..768u64 {
            assert_ne!(h.insert(k, k * 10), InsertOutcome::Full, "k={k}");
        }
        for k in 0..768u64 {
            assert_eq!(h.lookup(&k), Some(k * 10), "k={k}");
        }
        assert_eq!(h.len(), 768);
    }

    #[test]
    fn lookup_probes_at_most_two_buckets() {
        let mut h: CuckooHash<u64, u64> = CuckooHash::new(64);
        for k in 0..100 {
            h.insert(k, k);
        }
        for k in 0..100 {
            let mut probes = 0;
            h.lookup_visit(&k, |_| probes += 1);
            assert!(probes <= 2, "key {k} probed {probes} buckets");
        }
    }

    #[test]
    fn full_table_reports_full() {
        let mut h: CuckooHash<u64, u64> = CuckooHash::new(2);
        let mut full_seen = false;
        for k in 0..64u64 {
            if h.insert(k, k) == InsertOutcome::Full {
                full_seen = true;
                break;
            }
        }
        assert!(full_seen, "a 2-bucket table must eventually fill");
    }

    #[test]
    fn missing_keys_absent() {
        let mut h: CuckooHash<u64, u64> = CuckooHash::new(16);
        h.insert(1, 1);
        assert_eq!(h.lookup(&2), None);
        assert_eq!(h.remove(&2), None);
    }

    #[test]
    fn host_storage_follows_writes() {
        let flows = 1_000_000;
        let mut h: CuckooHash<u64, u64> =
            CuckooHash::new(crate::configs::buckets_for(flows) as usize);
        assert_eq!(h.stored_buckets(), 0, "an empty table stores nothing");
        let n = 5_000u64;
        for k in 0..n {
            assert_eq!(h.insert(k, k), InsertOutcome::Inserted);
        }
        let stored = h.stored_buckets();
        assert!(
            stored > 0 && stored <= n as usize,
            "{stored} buckets for {n} inserts"
        );
        // Reads, removes and updates of absent keys store nothing.
        for k in n..4 * n {
            assert_eq!(h.lookup_visit(&k, |_| {}), None);
            assert_eq!(h.remove(&k), None);
            assert!(!h.update(&k, |v| *v += 1));
        }
        assert_eq!(h.stored_buckets(), stored);
        assert_eq!(h.bucket_count(), 1 << 19, "capacity stays full-size");
    }

    #[test]
    fn model_check_against_hashmap() {
        use std::collections::HashMap;
        let mut h: CuckooHash<u32, u32> = CuckooHash::new(512);
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut rng = SplitMix64::new(99);
        for _ in 0..4_000 {
            let k = (rng.next_u64() % 600) as u32;
            match rng.next_u64() % 3 {
                0 => {
                    if h.insert(k, k + 1) != InsertOutcome::Full {
                        model.insert(k, k + 1);
                    }
                }
                1 => {
                    assert_eq!(h.remove(&k), model.remove(&k), "remove {k}");
                }
                _ => {
                    assert_eq!(h.lookup(&k), model.get(&k).copied(), "lookup {k}");
                }
            }
        }
        assert_eq!(h.len(), model.len());
    }
}
