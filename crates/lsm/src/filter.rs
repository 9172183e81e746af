//! SSTable-level Bloom filters.
//!
//! The paper (§III-B3, §IV-H) relies on per-SSTable Bloom filters to keep
//! LDC's extra slice lookups cheap: a read that misses the filter skips the
//! table entirely. Bits-per-key is configurable to reproduce Fig 12(c)/(f)
//! and Fig 13. The construction matches LevelDB's double-hashing Bloom.

/// A Bloom filter over a table's user keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    /// Bit array; last byte stores the probe count `k`.
    data: Vec<u8>,
}

impl BloomFilter {
    /// Builds a filter for `keys` at `bits_per_key` (0 disables filtering:
    /// every query answers "maybe").
    pub fn build<K: AsRef<[u8]>>(keys: &[K], bits_per_key: usize) -> Self {
        Self::from_hashes(keys.iter().map(|k| bloom_hash(k.as_ref())), bits_per_key)
    }

    /// [`BloomFilter::build`] from the keys' [`bloom_hash`]es, which a table
    /// builder collects as its keys arrive. A filter that would need more
    /// than `u32::MAX` bits is built disabled, like one at 0 bits per key.
    pub(crate) fn from_hashes(
        hashes: impl ExactSizeIterator<Item = u32>,
        bits_per_key: usize,
    ) -> Self {
        let disabled = Self { data: Vec::new() };
        if bits_per_key == 0 || hashes.len() == 0 {
            return disabled;
        }
        // k = bits_per_key * ln2, clamped like LevelDB.
        let k = ((bits_per_key as f64 * 0.69) as usize).clamp(1, 30);
        let bytes = (hashes.len() * bits_per_key).max(64).div_ceil(8);
        let Ok(bits) = u32::try_from(bytes * 8) else {
            return disabled;
        };
        let mut data = vec![0u8; bytes + 1];
        data[bytes] = k as u8;
        for hash in hashes {
            for bit in probe_bits(hash, k, bits) {
                data[bit / 8] |= 1 << (bit % 8);
            }
        }
        Self { data }
    }

    /// Reconstructs a filter from its serialized form.
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Self { data }
    }

    /// Serialized form (stored in the table's filter block).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Size in bytes (Fig 13's filter-size series).
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Whether `key` may be present. `false` is definitive.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hash(bloom_hash(key))
    }

    /// [`BloomFilter::may_contain`] for a key whose [`bloom_hash`] the caller
    /// already has: a point read hashes its key once and asks every table.
    pub(crate) fn may_contain_hash(&self, hash: u32) -> bool {
        if self.data.len() < 2 {
            return true; // empty/disabled filter never excludes
        }
        let bytes = self.data.len() - 1;
        let k = self.data[bytes] as usize;
        if k > 30 {
            return true; // reserved for future encodings
        }
        let Ok(bits) = u32::try_from(bytes * 8) else {
            return true; // no filter this engine builds is this large
        };
        probe_bits(hash, k, bits).all(|bit| self.data[bit / 8] & (1 << (bit % 8)) != 0)
    }
}

/// The `probes` bit positions, each below `bits`, that a key with
/// [`bloom_hash`] `hash` sets and tests: double hashing, `h, h + d, h + 2d, …`
/// with `d` a rotation of `h`. The table filters and the memtable's key
/// filter ([`crate::skiplist`]) share it. `h` is a `u32`, so its remainder
/// by a `u32` bit count is the position a `usize` remainder gives, at the
/// cost of a 32-bit division rather than a 64-bit one.
pub(crate) fn probe_bits(hash: u32, probes: usize, bits: u32) -> impl Iterator<Item = usize> {
    let delta = hash.rotate_right(17);
    let mut h = hash;
    (0..probes).map(move |_| {
        let bit = (h % bits) as usize;
        h = h.wrapping_add(delta);
        bit
    })
}

/// LevelDB's Bloom hash (a Murmur-like 32-bit hash, seed 0xbc9f1d34).
pub(crate) fn bloom_hash(data: &[u8]) -> u32 {
    const SEED: u32 = 0xbc9f_1d34;
    const M: u32 = 0xc6a4_a793;
    let n = data.len() as u32;
    let mut h = SEED ^ n.wrapping_mul(M);
    let mut chunks = data.chunks_exact(4);
    for chunk in &mut chunks {
        let w = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        h = h.wrapping_add(w).wrapping_mul(M);
        h ^= h >> 16;
    }
    let rest = chunks.remainder();
    match rest.len() {
        3 => {
            h = h.wrapping_add(u32::from(rest[2]) << 16);
            h = h.wrapping_add(u32::from(rest[1]) << 8);
            h = h.wrapping_add(u32::from(rest[0]));
            h = h.wrapping_mul(M);
            h ^= h >> 24;
        }
        2 => {
            h = h.wrapping_add(u32::from(rest[1]) << 8);
            h = h.wrapping_add(u32::from(rest[0]));
            h = h.wrapping_mul(M);
            h ^= h >> 24;
        }
        1 => {
            h = h.wrapping_add(u32::from(rest[0]));
            h = h.wrapping_mul(M);
            h ^= h >> 24;
        }
        _ => {}
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key{i:08}").into_bytes()).collect()
    }

    #[test]
    fn no_false_negatives() {
        for bits in [4, 10, 16, 64] {
            let ks = keys(2000);
            let f = BloomFilter::build(&ks, bits);
            for k in &ks {
                assert!(f.may_contain(k), "false negative at {bits} bits/key");
            }
        }
    }

    #[test]
    fn false_positive_rate_shrinks_with_bits() {
        let ks = keys(5000);
        let probes: Vec<Vec<u8>> = (0..5000)
            .map(|i| format!("absent{i:08}").into_bytes())
            .collect();
        let fp_rate = |bits: usize| {
            let f = BloomFilter::build(&ks, bits);
            probes.iter().filter(|p| f.may_contain(p)).count() as f64 / probes.len() as f64
        };
        let fp4 = fp_rate(4);
        let fp10 = fp_rate(10);
        let fp16 = fp_rate(16);
        assert!(fp10 < fp4, "10 bits ({fp10}) should beat 4 bits ({fp4})");
        assert!(fp16 <= fp10);
        assert!(fp10 < 0.05, "10 bits/key should be ~1%: {fp10}");
    }

    #[test]
    fn filter_size_tracks_bits_per_key() {
        let ks = keys(1000);
        let f8 = BloomFilter::build(&ks, 8);
        let f64 = BloomFilter::build(&ks, 64);
        assert!(f64.size_bytes() > 7 * f8.size_bytes());
        // ~ n*bits/8 bytes.
        assert!((f8.size_bytes() as i64 - 1001).unsigned_abs() < 64);
    }

    #[test]
    fn zero_bits_disables_filtering() {
        let ks = keys(10);
        let f = BloomFilter::build(&ks, 0);
        assert_eq!(f.size_bytes(), 0);
        assert!(f.may_contain(b"anything"));
    }

    #[test]
    fn empty_key_set() {
        let f = BloomFilter::build::<Vec<u8>>(&[], 10);
        assert!(f.may_contain(b"x"));
    }

    #[test]
    fn filter_too_large_for_u32_bit_positions_is_disabled() {
        // 2^32 - 1 keys at 10 bits each: the filter is refused before any
        // hash is read, and a disabled filter answers "maybe".
        let f = BloomFilter::from_hashes(0..u32::MAX, 10);
        assert_eq!(f.size_bytes(), 0);
        assert!(f.may_contain(b"anything"));
    }

    proptest! {
        /// The 32-bit remainder sets and tests the bits the `usize` formula
        /// did: the bit positions are the on-disk format.
        #[test]
        fn probe_bits_equal_the_usize_formula(
            hash in any::<u32>(),
            large in 1u32..u32::MAX,
            small in 1u32..1 << 16,
            probes in 1usize..31,
        ) {
            let delta = hash.rotate_right(17);
            for bits in [large, small] {
                let want: Vec<usize> = (0..probes as u32)
                    .map(|i| (hash.wrapping_add(delta.wrapping_mul(i)) as usize) % bits as usize)
                    .collect();
                prop_assert_eq!(probe_bits(hash, probes, bits).collect::<Vec<_>>(), want);
            }
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let ks = keys(100);
        let f = BloomFilter::build(&ks, 10);
        let g = BloomFilter::from_bytes(f.as_bytes().to_vec());
        for k in &ks {
            assert!(g.may_contain(k));
        }
        assert_eq!(f, g);
    }
}
