//! The one deterministic hasher behind every keyed map in `adc-core`:
//! the per-proxy object index, the pending-hop store and [`LruList`].
//!
//! The keys are small integers — object ids, which the Polygraph
//! generator hands out densely as `0..n`, and request ids. An identity
//! hash would be cheapest but would give hashbrown the same top seven
//! bits (its per-bucket control byte) for whole runs of neighbouring keys,
//! so every probe would scan a group of false matches. Multiplying by an
//! odd constant spreads consecutive keys over the whole word without
//! collisions (it is a bijection on one-word keys), and the final fold
//! brings the well-mixed high bits down into the low bits hashbrown uses
//! for the bucket position, so strided keys (all even, say) do not pile
//! into a fraction of the buckets. No state is seeded from the OS, so
//! maps behave identically from run to run; nothing ever relies on their
//! iteration order.
//!
//! [`LruList`]: crate::tables::LruList

use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 divided by the golden ratio, rounded to odd (Fibonacci hashing).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplicative word hasher; see the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            // chunks(8) yields at most 8 bytes, so the range fits `word`.
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(26) ^ n).wrapping_mul(MIX);
    }

    fn write_usize(&mut self, n: usize) {
        // usize is at most 64 bits on every supported target.
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

/// A `HashMap` keyed through [`IdHasher`]. Lookups only: callers never
/// iterate it, so results cannot depend on its internal order.
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>; // adc-lint: allow(default-hasher)

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn hashes_repeat_across_hasher_instances() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(42u64), hash_of(43u64));
    }

    #[test]
    fn dense_keys_spread_over_control_bytes() {
        // hashbrown's control byte is the top 7 bits: 1,024 consecutive
        // keys must use most of the 128 values, not a handful.
        let mut seen = [false; 128];
        for k in 0..1024u64 {
            seen[(hash_of(k) >> 57) as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 100);
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // Keys that are all multiples of 1,024 must still reach most of
        // 256 buckets through the low bits.
        let mut seen = [false; 256];
        for k in 0..2048u64 {
            seen[(hash_of(k << 10) & 0xff) as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 200);
    }

    #[test]
    fn byte_keys_hash() {
        assert_ne!(hash_of("a"), hash_of("b"));
        let mut map: IdMap<&str, u32> = IdMap::default();
        map.insert("a", 1);
        assert_eq!(map.get("a"), Some(&1));
    }
}
