//! Seeded inputs: the key table, the operation stream of a window, and the
//! check that a value read back is the one last written.
//!
//! Everything here is a pure function of `(workload, seed, scale)`; the
//! engine only ever sees the generated keys and values.

use ldc::workload::{Distribution, KeyCodec, Sampler};

use crate::spec::{scaled, Mix, Workload, HOT_KEYS, KEY_BYTES, VALUE_BYTES};

/// One key as the engine sees it.
pub type Key = [u8; KEY_BYTES];

/// Version a key's value carries after the preload (window puts carry
/// their 1-based op number, so every later version is larger).
pub const PRELOAD_VERSION: u64 = 0;

/// What one planned operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `put(key, value(key, version))`.
    Put,
    /// `get(key)` of a key that may be present.
    Get,
    /// `get(key)` of a key no workload ever writes.
    GetAbsent,
    /// `scan(key, SCAN_LIMIT)`.
    Scan,
}

/// One planned operation: what to do and on which key index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOp {
    /// The operation.
    pub kind: OpKind,
    /// Index into the [`KeyTable`].
    pub key: u32,
}

/// A stream independent of the others drawn from one `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// Keys by index, encoded once during set-up so the measured loop formats
/// no key.
#[derive(Debug)]
pub struct KeyTable {
    keys: Vec<Key>,
}

impl KeyTable {
    /// Encodes keys `0..count` with the paper's codec.
    pub fn new(count: u64) -> Self {
        let codec = codec();
        let keys = (0..count)
            .map(|i| {
                let mut key = [0u8; KEY_BYTES];
                key.copy_from_slice(&codec.key(i));
                key
            })
            .collect();
        Self { keys }
    }

    /// The key of index `i`.
    pub fn get(&self, i: u32) -> &Key {
        &self.keys[i as usize]
    }

    /// Indices `0..live`, ordered by key: what a full scan of a store
    /// holding exactly those keys returns.
    pub fn sorted(&self, live: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..live as u32).collect();
        order.sort_unstable_by_key(|&i| self.keys[i as usize]);
        order
    }
}

/// The paper's 16-byte keys and 1 KiB values.
pub fn codec() -> KeyCodec {
    KeyCodec::new(KEY_BYTES, VALUE_BYTES)
}

/// Whether `value` is exactly `codec().value(index, version)`, without
/// building that value: every get and every scanned row is checked, so the
/// check has to stay small beside a 2 us cache-hit get.
pub fn value_matches(value: &[u8], index: u64, version: u64) -> bool {
    const PADDING: [u8; VALUE_BYTES] = [b'.'; VALUE_BYTES];
    // "v{version:08}i{index:016}", then dots.
    let mut head = *b"v00000000i0000000000000000";
    write_decimal(&mut head[1..9], version)
        && write_decimal(&mut head[10..], index)
        && value.len() == VALUE_BYTES
        && value[..head.len()] == head
        && value[head.len()..] == PADDING[head.len()..]
}

/// Writes `n` in decimal, right-aligned over `field`; false if it does not
/// fit.
fn write_decimal(field: &mut [u8], mut n: u64) -> bool {
    for digit in field.iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        n /= 10;
    }
    n == 0
}

/// The inputs of one round: sizes, the key table and the window's ops.
#[derive(Debug)]
pub struct Plan {
    /// Keys `0..preload` are written once each, in index order, before the
    /// window.
    pub preload: u64,
    /// Keys the window's present-key operations draw from (`0..key_space`).
    pub key_space: u64,
    /// Every key any operation names (absent keys sit above `key_space`).
    pub keys: KeyTable,
    /// The window's operations, in order.
    pub ops: Vec<PlanOp>,
    /// `get-hot`'s working set, for the warm-up pass.
    pub hot: Vec<u32>,
}

impl Plan {
    /// Generates the plan of `workload` from `seed` at `scale`.
    pub fn generate(workload: &Workload, seed: u64, scale: f64) -> Plan {
        let preload = match workload.preload_keys {
            0 => 0,
            n => scaled(n, scale),
        };
        let key_space = scaled(workload.key_space, scale);
        let ops = scaled(workload.ops, scale) as usize;
        let mut keys = Sampler::new(Distribution::Uniform, sub_seed(seed, 1));
        let mut coin = Sampler::new(Distribution::Uniform, sub_seed(seed, 2));
        let mut hot = Vec::new();
        let mut table_len = key_space;
        let ops: Vec<PlanOp> = match workload.mix {
            // The threaded workload's plan is the writer's; readers sample
            // their own keys as they go (see `round::reader_loop`).
            Mix::Fill | Mix::Rww => (0..ops)
                .map(|_| PlanOp {
                    kind: OpKind::Put,
                    key: keys.sample(key_space) as u32,
                })
                .collect(),
            Mix::GetCold => {
                // Absent keys are indices no workload writes.
                table_len = 2 * key_space;
                (0..ops)
                    .map(|_| {
                        let key = keys.sample(key_space) as u32;
                        if coin.sample(100) < 80 {
                            PlanOp {
                                kind: OpKind::Get,
                                key,
                            }
                        } else {
                            PlanOp {
                                kind: OpKind::GetAbsent,
                                key: key + key_space as u32,
                            }
                        }
                    })
                    .collect()
            }
            Mix::GetHot => {
                hot = (0..HOT_KEYS.min(key_space))
                    .map(|_| keys.sample(key_space) as u32)
                    .collect();
                (0..ops)
                    .map(|_| PlanOp {
                        kind: OpKind::Get,
                        key: hot[coin.sample(hot.len() as u64) as usize],
                    })
                    .collect()
            }
            Mix::MixedA => {
                let mut zipf =
                    Sampler::new(Distribution::Zipfian { theta: 0.99 }, sub_seed(seed, 3));
                (0..ops)
                    .map(|_| PlanOp {
                        kind: if coin.sample(100) < 50 {
                            OpKind::Put
                        } else {
                            OpKind::Get
                        },
                        key: zipf.sample(key_space) as u32,
                    })
                    .collect()
            }
            Mix::ScanRh => (0..ops)
                .map(|_| PlanOp {
                    kind: if coin.sample(100) < 70 {
                        OpKind::Scan
                    } else {
                        OpKind::Put
                    },
                    key: keys.sample(key_space) as u32,
                })
                .collect(),
        };
        Plan {
            preload,
            key_space,
            keys: KeyTable::new(table_len),
            ops,
            hot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_matches_agrees_with_the_codec() {
        let codec = codec();
        for (index, version) in [
            (0, 0),
            (7, 42),
            (149_999, 600_000),
            (u32::MAX as u64, 99_999_999),
            (9_999_999_999_999_999, 1),
        ] {
            let value = codec.value(index, version);
            assert!(value_matches(&value, index, version));
            assert!(!value_matches(&value, index + 1, version));
            assert!(!value_matches(&value, index, version + 1));
            assert!(!value_matches(&value[..1000], index, version));
            let mut torn = value.clone();
            torn[900] = b'x';
            assert!(!value_matches(&torn, index, version));
        }
        // A version too wide for its field makes the codec's value longer;
        // no workload gets there, and the check says no rather than guess.
        assert!(!value_matches(&codec.value(1, 100_000_000), 1, 100_000_000));
    }

    #[test]
    fn sorted_orders_by_key_bytes() {
        let table = KeyTable::new(1_000);
        let order = table.sorted(1_000);
        assert_eq!(order.len(), 1_000);
        assert!(order.windows(2).all(|w| table.get(w[0]) < table.get(w[1])));
    }
}
