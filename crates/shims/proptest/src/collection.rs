//! Collection strategies (`prop::collection`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeMap;
use std::ops::Range;

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

/// Strategy for a `Vec` whose length lies in `size` (half-open) and
/// whose elements come from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "vec: empty size range");
    VecStrategy { element, size }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.gen_value(rng)).collect()
    }
}

/// See [`btree_map`].
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: Range<usize>,
}

/// Strategy for a `BTreeMap` with between `size.start` and `size.end - 1`
/// entries. Key collisions may produce fewer entries than requested, as
/// with real proptest.
pub fn btree_map<K, V>(key: K, value: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    assert!(size.start < size.end, "btree_map: empty size range");
    BTreeMapStrategy { key, value, size }
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
        let span = (self.size.end - self.size.start) as u64;
        let target = self.size.start + rng.below(span) as usize;
        let mut map = BTreeMap::new();
        // Bounded attempts: collisions shrink the map rather than loop.
        for _ in 0..target * 4 + 16 {
            if map.len() >= target {
                break;
            }
            map.insert(self.key.gen_value(rng), self.value.gen_value(rng));
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn vec_respects_size_range() {
        let strat = vec(any::<u8>(), 3..7);
        let mut rng = TestRng::from_seed(5);
        for _ in 0..200 {
            let v = strat.gen_value(&mut rng);
            assert!((3..7).contains(&v.len()), "len = {}", v.len());
        }
    }

    #[test]
    fn btree_map_hits_target_sizes() {
        let strat = btree_map(any::<u64>(), any::<u8>(), 1..50);
        let mut rng = TestRng::from_seed(6);
        for _ in 0..100 {
            let m = strat.gen_value(&mut rng);
            assert!((1..50).contains(&m.len()));
        }
    }
}
