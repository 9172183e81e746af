//! CRC32C (Castagnoli) with LevelDB-style masking.
//!
//! Implemented in-repo to stay within the pre-approved dependency set, in
//! two arms that compute the same function of the same bytes:
//!
//! * **hardware** — on `x86_64` whose CPU reports SSE4.2 at run time, the
//!   `crc32` instruction: eight bytes per step through `_mm_crc32_u64`, the
//!   tail through `_mm_crc32_u8`. The instruction implements exactly this
//!   polynomial, reflected, which is why LevelDB's format chose it.
//! * **table** — everywhere else, one byte per step through a 256-entry
//!   table built at compile time. It is also the oracle: the tests below
//!   compare the dispatched [`extend`] against it over random seeds,
//!   lengths, alignments and split points, and assert the RFC 3720 vectors
//!   against each arm by name.
//!
//! Two arms and not four: slicing-by-8 and an ARMv8 `crc32c` arm were
//! considered (ROADMAP item 1) and left out, because nothing this
//! repository builds, tests or benchmarks on would execute either — each
//! would be a third path no measurement covers. A machine without SSE4.2
//! gets the table loop, which is what every machine got before.
//!
//! The choice of arm comes from the CPU alone (no option, feature or
//! environment variable) and changes no byte on disk: every block, log
//! record and table carries the same masked value as before and is verified
//! as before, only faster. `tests/inline_golden.rs` pins a CRC32C of the
//! MANIFEST and of the event stream and passes unmodified.
//!
//! # Safety
//!
//! This module holds the only `unsafe` in the workspace: the call from
//! [`extend`] into a `#[target_feature(enable = "sse4.2")]` function. Such
//! a function may only run on a CPU that has the feature; the call sits
//! directly under `is_x86_feature_detected!("sse4.2")`, which asks `cpuid`
//! (and caches the answer), so it does. Nothing else is assumed — the
//! intrinsics take integers, not pointers, and are safe to call inside the
//! annotated function; the input is read through an ordinary slice.
//!
//! The mask makes CRCs of CRC-bearing data (e.g. a log record embedded in
//! another log) not look like valid CRCs.

const POLY: u32 = 0x82f6_3b78; // reflected CRC32C polynomial

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extends a running CRC with more data.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    // ldc-lint: allow(determinism_taint) — which arm runs depends on the machine, the value does not: `dispatched_extend_equals_table_loop` (proptest, below) pins the two arms equal
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `extend_sse42` requires a CPU with SSE4.2, and this
        // branch is taken only when the CPU reported it.
        #[allow(unsafe_code)]
        return unsafe { extend_sse42(crc, data) };
    }
    extend_table(crc, data)
}

/// The portable arm, and the reference the hardware arm is tested against.
fn extend_table(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in data {
        crc = TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The hardware arm. Callable only through the feature check in [`extend`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = data.as_chunks::<8>();
    // The instruction keeps the running value in the low half of a 64-bit
    // register and zeroes the high half, so the round trip through `u64`
    // loses nothing.
    let mut acc = u64::from(!crc);
    for word in words {
        acc = _mm_crc32_u64(acc, u64::from_le_bytes(*word));
    }
    let mut crc = acc as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// LevelDB's CRC mask: rotate right 15 bits and add a constant.
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Inverse of [`mask`].
pub fn unmask(masked: u32) -> u32 {
    let rot = masked.wrapping_sub(MASK_DELTA);
    rot.rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Standard CRC32C test vectors (RFC 3720 appendix B.4 et al.),
    /// asserted against one arm.
    fn assert_rfc3720_vectors(arm: &str, extend: fn(u32, &[u8]) -> u32) {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for (data, want) in [
            (&b"123456789"[..], 0xe306_9283),
            (&[0u8; 32][..], 0x8a91_36aa),
            (&[0xffu8; 32][..], 0x62a8_ab43),
            (&ascending[..], 0x46dd_794e),
            (&descending[..], 0x113f_db5c),
        ] {
            assert_eq!(extend(0, data), want, "{arm} arm on {data:02x?}");
        }
    }

    #[test]
    fn rfc3720_vectors_table_arm() {
        assert_rfc3720_vectors("table", extend_table);
    }

    #[test]
    fn rfc3720_vectors_hardware_arm() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // With the feature present the dispatch takes the hardware arm
            // unconditionally, so the public entry point *is* that arm.
            assert_rfc3720_vectors("hardware", extend);
            return;
        }
        println!("note: CPU lacks SSE4.2 — hardware arm not exercised, `extend` is the table loop");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The equivalence the `allow(determinism_taint)` at the dispatch
        /// rests on: whichever arm `extend` takes on this machine, it
        /// returns what the table loop returns — for any running value,
        /// any length (word loop, tail loop, both, neither), any alignment
        /// of the first byte, and across any split of the input.
        #[test]
        fn dispatched_extend_equals_table_loop(
            seed in any::<u32>(),
            buf in prop::collection::vec(any::<u8>(), 9016..9017),
            len in 0usize..9001,
            split in any::<prop::sample::Index>(),
        ) {
            let split = split.index(len + 1);
            for start in 0..16 {
                let data = &buf[start..start + len];
                let whole = extend(seed, data);
                prop_assert_eq!(whole, extend_table(seed, data), "start {} len {}", start, len);
                let (a, b) = data.split_at(split);
                prop_assert_eq!(extend(extend(seed, a), b), whole, "start {} split {}", start, split);
            }
        }
    }

    #[test]
    fn extend_equals_whole() {
        let data = b"hello world";
        let partial = extend(crc32c(b"hello"), b" world");
        assert_eq!(partial, crc32c(data));
    }

    #[test]
    fn distinct_inputs_distinct_crcs() {
        assert_ne!(crc32c(b"a"), crc32c(b"b"));
        assert_ne!(crc32c(b""), crc32c(b"a"));
    }

    #[test]
    fn mask_roundtrip() {
        for data in [&b"foo"[..], b"bar", b"", b"\x00\x01\x02"] {
            let crc = crc32c(data);
            assert_eq!(unmask(mask(crc)), crc);
            assert_ne!(mask(crc), crc, "mask must change the value");
        }
    }
}
