//! One fixed, fast, deterministic hasher for integer and short-string keys.
//!
//! The standard library's `RandomState` seeds SipHash per process: strong
//! against keys crafted to collide, and several times slower than the
//! engine's per-row tables can afford — a string column interns every cell
//! it stores, a hash join hashes every build and probe key. [`FastHasher`]
//! is a folded-multiply word hasher with a fixed seed, so the same keys
//! always land in the same buckets, and a map's iteration order is a
//! function of its insert/remove sequence alone. No result may depend on
//! that order all the same: every table built on it is probed, or (RUNSTATS'
//! value counts) sorted into a total order before anything reads it.
//!
//! [`FastMap`] is the workspace's one door to `std`'s `HashMap`:
//! `clippy.toml` bans `HashMap`, `HashSet` and `RandomState` everywhere
//! else, so no map can fall back to the per-process seed by naming the
//! default hasher type.
//!
//! The trade-off is stated, not hidden: the keys are stored values, which
//! SQL clients choose, and a client that crafts colliding strings or
//! integers lengthens chains — slower statements, never wrong answers. The
//! string dictionaries, the indexes' point-probe maps, the catalog's name
//! map and the executors' join and GROUP BY tables all share it.
//!
//! [`ChainTable`] is the one integer hash kernel built on it: the string
//! dictionaries of `jits-storage` index their entries by string hash with
//! it, and the batch executor's GROUP BY and its single-`Int`-key hash join
//! (when the build keys are too sparse to address directly) index groups
//! and rows by tuple hash or integer key.

use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Odd multiplier with well-mixed bits (the fractional part of the golden
/// ratio's reciprocal, the usual Fibonacci-hashing constant).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Word-at-a-time folded-multiply hasher (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    /// Folds the full 128-bit product back into 64 bits. A plain 64-bit
    /// multiply lets a difference in a word's high bits reach only the high
    /// bits of the state, so strings that differ in their eighth byte
    /// (`driver12` vs `driver13`) would collide outright; the fold carries
    /// every input bit into the low half as well.
    #[inline]
    fn mix(&mut self, word: u64) {
        let p = u128::from(self.state ^ word) * u128::from(MUL);
        self.state = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.mix(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // the tail's length rides in the top byte, so zero padding
            // cannot make `b"a"` and `b"a\0"` one word
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            w[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// `BuildHasher` for [`FastHasher`]: every map gets the same fixed seed.
pub type FastState = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed through [`FastHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "the one door to `HashMap`: the fixed hasher makes iteration order a function of the insert/remove sequence alone"
)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastState>;

/// [`FastHasher`]'s hash of one value.
pub fn fast_hash<T: Hash + ?Sized>(v: &T) -> u64 {
    FastState::default().hash_one(v)
}

/// End of a chain in [`ChainTable`]'s links.
const NIL: u32 = u32::MAX;

/// A chained hash table over 64-bit keys whose entries are dense indexes
/// (`0..n`) into the caller's own arrays. `heads` maps a key to the first
/// and last entry of its chain, and `next` links each entry to the one
/// appended after it under the same key, so a chain walks in append order.
/// A key is whatever the caller makes it — an integer itself, or the hash
/// of a string or tuple, in which case the caller compares the chain's
/// entries against its probe. Growth rehashes only the `u64` keys, never
/// what they were computed from. `heads` is only probed, never iterated.
#[derive(Debug, Clone, Default)]
pub struct ChainTable {
    heads: FastMap<u64, (u32, u32)>,
    next: Vec<u32>,
}

impl ChainTable {
    /// A table sized for entries `0..n` (it grows past `n` on demand).
    pub fn with_entries(n: usize) -> Self {
        ChainTable {
            heads: FastMap::with_capacity_and_hasher(n, FastState::default()),
            next: vec![NIL; n],
        }
    }

    /// Appends `entry` to the end of `key`'s chain; each entry at most once.
    pub fn append(&mut self, key: u64, entry: usize) {
        debug_assert!(entry < NIL as usize, "chain entry {entry} overflows u32");
        if entry >= self.next.len() {
            self.next.resize(entry + 1, NIL);
        }
        let e = entry as u32;
        match self.heads.entry(key) {
            Entry::Occupied(mut o) => {
                let (_, last) = o.get_mut();
                self.next[*last as usize] = e;
                *last = e;
            }
            Entry::Vacant(v) => {
                v.insert((e, e));
            }
        }
    }

    /// The entries appended under `key`, in append order.
    pub fn chain(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let mut e = self.heads.get(&key).map_or(NIL, |&(first, _)| first);
        std::iter::from_fn(move || {
            (e != NIL).then(|| {
                let cur = e as usize;
                e = self.next[cur];
                cur
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(fast_hash(&42i64), fast_hash(&42i64));
        assert_eq!(fast_hash("Toyota"), fast_hash("Toyota"));
        assert_ne!(fast_hash("Toyota"), fast_hash("Honda"));
    }

    #[test]
    fn tail_bytes_and_lengths_are_distinguished() {
        // zero padding of the tail word must not merge a string with its
        // NUL-extended twin
        assert_ne!(fast_hash("a"), fast_hash("a\0"));
        assert_ne!(fast_hash(""), fast_hash("\0"));
        assert_ne!(fast_hash("abcdefgh"), fast_hash("abcdefghi"));
    }

    #[test]
    fn strings_differing_late_do_not_collide() {
        // generated names differ only in their last bytes, which a plain
        // multiply-rotate hasher maps to identical states
        let mut hashes: Vec<u64> = (0..100_000)
            .map(|i| fast_hash(format!("driver{i}").as_str()))
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 100_000);
    }

    #[test]
    fn power_of_two_multiples_spread_over_low_bits() {
        // 1024 keys that share their low 20 bits must not share a bucket
        // in a 1024-slot table
        let mut buckets: Vec<u64> = (0..1024i64).map(|k| fast_hash(&(k << 20)) & 1023).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(
            buckets.len() > 512,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn map_round_trip() {
        let mut m: FastMap<i64, usize> = FastMap::default();
        for k in 0..1000i64 {
            m.insert(k * 7, k as usize);
        }
        assert!((0..1000i64).all(|k| m[&(k * 7)] == k as usize));
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn chains_walk_in_append_order() {
        let mut t = ChainTable::with_entries(2);
        for (e, key) in [7u64, 3, 7, 7, 3].into_iter().enumerate() {
            t.append(key, e);
        }
        assert_eq!(t.chain(7).collect::<Vec<_>>(), [0, 2, 3]);
        assert_eq!(t.chain(3).collect::<Vec<_>>(), [1, 4]);
        assert_eq!(t.chain(5).count(), 0);
        // entries need not arrive densely
        t.append(3, 9);
        assert_eq!(t.chain(3).collect::<Vec<_>>(), [1, 4, 9]);
    }
}
