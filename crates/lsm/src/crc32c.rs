//! CRC32C (Castagnoli) with LevelDB-style masking.
//!
//! Implemented in-repo to stay within the pre-approved dependency set, in
//! two arms that compute the same function of the same bytes:
//!
//! * **hardware** — on `x86_64` whose CPU reports SSE4.2 at run time, the
//!   `crc32` instruction, eight bytes per step through `_mm_crc32_u64`. The
//!   instruction implements exactly this polynomial, reflected, which is
//!   why LevelDB's format chose it. One chain of them runs at a third of
//!   the instruction's rate (three cycles of latency, one of throughput),
//!   so the arm keeps three independent chains in flight, Mark Adler's
//!   `crc32c.c` scheme: each round feeds three adjacent strides of the
//!   input to three registers, then folds them into one — the first
//!   register is advanced past one stride of zero bytes and XORed with the
//!   second, and again with the third. Rounds of three 256-byte strides run
//!   first, then rounds of three 64-byte strides, then one chain of words
//!   and single bytes for the rest. The strides follow what the engine
//!   checksums: four-to-eight KiB data blocks are most of the bytes on
//!   every workload (they run almost entirely in long rounds), and WAL
//!   records of about 1 KiB most of the rest (short rounds leave them at
//!   most 191 bytes of single chain). Longer strides would leave more of a
//!   block to the single chain; shorter ones would fold more often.
//! * **table** — everywhere else, one byte per step through a 256-entry
//!   table built at compile time. It is also the oracle: the tests below
//!   compare the dispatched [`extend`] against it over every length up to
//!   2 KiB and around 4 KiB, over random seeds, lengths, alignments and
//!   split points, and assert the RFC 3720 vectors against each arm by name.
//!
//! Advancing a register past `n` zero bytes is linear over GF(2), so it is
//! a 32 × 32 bit matrix, and applying it one input byte at a time is four
//! lookups in four 256-entry tables (a *shift table*, 4 KiB). The two the
//! hardware arm folds with, for 256 and 64 zero bytes, are computed by a
//! `const fn` from the byte table at compile time; a test checks each
//! against running the table loop over that many zeros.
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
//! as before, only faster. `tests/format_golden.rs` pins a table image and
//! a log file byte for byte, and `tests/inline_golden.rs` a CRC32C of the
//! MANIFEST and of the event stream.
//!
//! # Safety
//!
//! This module holds the only `unsafe` in the workspace: the call from
//! [`extend`] into a `#[target_feature(enable = "sse4.2")]` function. Such
//! a function may only run on a CPU that has the feature; the call sits
//! directly under `is_x86_feature_detected!("sse4.2")`, which asks `cpuid`
//! (and caches the answer), so it does. Nothing else is assumed — the
//! intrinsics take integers, not pointers, and are safe to call inside the
//! annotated functions; the input is read through ordinary slices.
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

/// Per input byte of a register, what that byte becomes after a fixed
/// number of zero bytes; see [`shift_table`].
type ShiftTable = [[u32; 256]; 4];

/// Bytes per stream in the hardware arm's long rounds.
const LONG: usize = 256;
/// Bytes per stream in its short rounds.
const SHORT: usize = 64;

static SHIFT_LONG: ShiftTable = shift_table(LONG);
static SHIFT_SHORT: ShiftTable = shift_table(SHORT);

/// The shift table that advances a raw (unconditioned) CRC register past
/// `zeros` zero bytes. Column `i` of the operator is where the register
/// holding only bit `i` ends up; entry `[j][v]` is the XOR of the columns
/// for the set bits of `v` placed at byte `j`.
const fn shift_table(zeros: usize) -> ShiftTable {
    let table = build_table();
    let mut column = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut reg = 1u32 << bit;
        let mut n = 0;
        while n < zeros {
            reg = table[(reg & 0xff) as usize] ^ (reg >> 8);
            n += 1;
        }
        column[bit] = reg;
        bit += 1;
    }
    let mut shift = [[0u32; 256]; 4];
    let mut byte = 0;
    while byte < 4 {
        let mut v = 0;
        while v < 256 {
            let mut acc = 0;
            let mut b = 0;
            while b < 8 {
                if (v >> b) & 1 != 0 {
                    acc ^= column[8 * byte + b];
                }
                b += 1;
            }
            shift[byte][v] = acc;
            v += 1;
        }
        byte += 1;
    }
    shift
}

/// Advances the raw register `crc` past the zero bytes `shift` was built for.
fn shift_zeros(shift: &ShiftTable, crc: u32) -> u32 {
    let [b0, b1, b2, b3] = crc.to_le_bytes();
    shift[0][usize::from(b0)]
        ^ shift[1][usize::from(b1)]
        ^ shift[2][usize::from(b2)]
        ^ shift[3][usize::from(b3)]
}

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
    let (crc, rest) = three_streams::<LONG>(!crc, data, &SHIFT_LONG);
    let (crc, rest) = three_streams::<SHORT>(crc, rest, &SHIFT_SHORT);
    !one_stream(crc, rest)
}

/// Feeds `data` to the raw register `crc` in rounds of three `STRIDE`-byte
/// streams while a whole round is left; returns the register and the bytes
/// no round took. `shift` must advance a register past `STRIDE` zeros.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn three_streams<'a, const STRIDE: usize>(
    mut crc: u32,
    data: &'a [u8],
    shift: &ShiftTable,
) -> (u32, &'a [u8]) {
    use std::arch::x86_64::_mm_crc32_u64;
    let (strides, _) = data.as_chunks::<STRIDE>();
    let (rounds, _) = strides.as_chunks::<3>();
    for [a, b, c] in rounds {
        // The instruction keeps the running value in the low half of a
        // 64-bit register and zeroes the high half, so the round trip
        // through `u64` loses nothing.
        let (mut x, mut y, mut z) = (u64::from(crc), 0, 0);
        let words = a.as_chunks::<8>().0.iter();
        for ((a, b), c) in words.zip(b.as_chunks::<8>().0).zip(c.as_chunks::<8>().0) {
            x = _mm_crc32_u64(x, u64::from_le_bytes(*a));
            y = _mm_crc32_u64(y, u64::from_le_bytes(*b));
            z = _mm_crc32_u64(z, u64::from_le_bytes(*c));
        }
        crc = shift_zeros(shift, shift_zeros(shift, x as u32) ^ y as u32) ^ z as u32;
    }
    (crc, &data[rounds.len() * 3 * STRIDE..])
}

/// Feeds `data` to the raw register `crc` one chain of words, then bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn one_stream(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = data.as_chunks::<8>();
    let mut acc = u64::from(crc);
    for word in words {
        acc = _mm_crc32_u64(acc, u64::from_le_bytes(*word));
    }
    let mut crc = acc as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
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

    /// Every length from 0 to 2 KiB and within 64 bytes of 4 KiB — each
    /// mix of long rounds, short rounds, words and tail bytes those reach —
    /// against the table loop, whole and split at every multiple of the
    /// short stride (so each round boundary is also a call boundary).
    /// Exhaustive over lengths where the proptest below samples.
    #[test]
    fn dispatched_extend_equals_table_loop_at_every_length() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let buf: Vec<u8> = (0..4 * 1024 + 64)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for len in (0..=2 * 1024).chain(4 * 1024 - 64..=4 * 1024 + 64) {
            let seed = (len as u32).wrapping_mul(0x9e37_79b9);
            let data = &buf[..len];
            let whole = extend_table(seed, data);
            assert_eq!(extend(seed, data), whole, "len {len}");
            for split in (SHORT..len).step_by(SHORT) {
                let (a, b) = data.split_at(split);
                assert_eq!(extend(extend(seed, a), b), whole, "len {len} split {split}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The equivalence the `allow(determinism_taint)` at the dispatch
        /// rests on: whichever arm `extend` takes on this machine, it
        /// returns what the table loop returns — for any running value,
        /// any length (long rounds, short rounds, words, tail bytes, any
        /// mix), any alignment of the first byte, and across any split of
        /// the input.
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

        /// Each compile-time shift table advances a raw register exactly as
        /// the table loop does over that many zero bytes. (`extend_table`
        /// conditions its register on the way in and out; undo both.)
        #[test]
        fn shift_tables_equal_table_loop_over_zeros(reg in any::<u32>()) {
            for (zeros, shift) in [(LONG, &SHIFT_LONG), (SHORT, &SHIFT_SHORT)] {
                prop_assert_eq!(
                    shift_zeros(shift, reg),
                    !extend_table(!reg, &vec![0u8; zeros]),
                    "{} zero bytes", zeros
                );
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
