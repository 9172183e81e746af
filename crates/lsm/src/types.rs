//! Internal key representation.
//!
//! Identical to LevelDB's scheme: an *internal key* is the user key followed
//! by an 8-byte little-endian trailer packing `(sequence << 8) | value_type`.
//! Internal keys order by user key ascending, then sequence descending, then
//! type descending — so the newest visible version of a key sorts first.
//!
//! [`compare_internal_keys`] is the engine's hottest function (every
//! skiplist step, every block-seek step, every merge step), and most calls
//! are between keys that already differ in their first few bytes. When both
//! user keys are at least eight bytes long it therefore compares those eight
//! bytes first, as one big-endian `u64` each: for byte strings, big-endian
//! integer order *is* lexicographic order, so a difference there is the
//! answer and no `memcmp` call is made. Equal words, or a user key shorter
//! than eight bytes, fall through to the full comparison; the total order is
//! the one above in every case (proptested against it below).

use std::cmp::Ordering;

/// Monotonically increasing write sequence number (56 usable bits).
pub type SequenceNumber = u64;

/// Largest representable sequence number.
pub const MAX_SEQUENCE: SequenceNumber = (1 << 56) - 1;

/// Kind of an internal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ValueType {
    /// A tombstone.
    Deletion = 0,
    /// A live value.
    Value = 1,
}

impl ValueType {
    /// Decodes from the trailer's low byte.
    pub fn from_u8(v: u8) -> Option<ValueType> {
        match v {
            0 => Some(ValueType::Deletion),
            1 => Some(ValueType::Value),
            _ => None,
        }
    }
}

/// When seeking, we want all entries with sequence <= the snapshot; since
/// sequences sort descending, the probe uses the highest type value.
pub const TYPE_FOR_SEEK: ValueType = ValueType::Value;

/// Builds an internal key: `user_key . fixed64(seq << 8 | type)`.
pub fn encode_internal_key(user_key: &[u8], seq: SequenceNumber, vt: ValueType) -> Vec<u8> {
    let mut out = Vec::with_capacity(user_key.len() + 8);
    append_internal_key(&mut out, user_key, seq, vt);
    out
}

/// The seek key `(user_key, seq, TYPE_FOR_SEEK)` of a point read, built on
/// the stack when it fits in [`SeekKey::INLINE`] bytes and on the heap
/// beyond that.
pub(crate) enum SeekKey {
    Inline([u8; SeekKey::INLINE], usize),
    Heap(Vec<u8>),
}

impl SeekKey {
    /// Longest seek key kept on the stack: user keys of up to 56 bytes.
    pub(crate) const INLINE: usize = 64;

    pub(crate) fn new(user_key: &[u8], seq: SequenceNumber) -> SeekKey {
        debug_assert!(seq <= MAX_SEQUENCE);
        let len = user_key.len() + 8;
        let mut buf = [0u8; SeekKey::INLINE];
        match buf
            .get_mut(..len)
            .map(|key| key.split_at_mut(user_key.len()))
        {
            Some((ukey, trailer)) => {
                ukey.copy_from_slice(user_key);
                trailer.copy_from_slice(&((seq << 8) | TYPE_FOR_SEEK as u64).to_le_bytes());
                SeekKey::Inline(buf, len)
            }
            None => SeekKey::Heap(encode_internal_key(user_key, seq, TYPE_FOR_SEEK)),
        }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            SeekKey::Inline(buf, len) => buf.get(..*len).unwrap_or_default(),
            SeekKey::Heap(key) => key,
        }
    }
}

/// Appends the internal key `(user_key, seq, vt)` to `out`.
pub(crate) fn append_internal_key(
    out: &mut Vec<u8>,
    user_key: &[u8],
    seq: SequenceNumber,
    vt: ValueType,
) {
    debug_assert!(seq <= MAX_SEQUENCE);
    out.extend_from_slice(user_key);
    out.extend_from_slice(&((seq << 8) | vt as u64).to_le_bytes());
}

/// The user-key prefix of an internal key.
pub fn user_key(internal_key: &[u8]) -> &[u8] {
    debug_assert!(internal_key.len() >= 8, "internal key too short");
    &internal_key[..internal_key.len() - 8]
}

/// The `(sequence, type)` trailer of an internal key.
pub fn parse_trailer(internal_key: &[u8]) -> (SequenceNumber, ValueType) {
    let n = internal_key.len();
    debug_assert!(n >= 8);
    let mut b = [0u8; 8];
    b.copy_from_slice(&internal_key[n - 8..]);
    let packed = u64::from_le_bytes(b);
    let vt = ValueType::from_u8((packed & 0xff) as u8).expect("invalid value type in trailer");
    (packed >> 8, vt)
}

/// The first eight bytes of `internal_key`'s user key as a big-endian word,
/// zero-padded when the user key is shorter. Two keys whose words differ
/// order as their words do (a zero pad can only tie with a real `0x00` byte
/// or sort below a real byte, and the shorter key is then a proper prefix of
/// the longer); equal words decide nothing.
pub(crate) fn user_key_word(internal_key: &[u8]) -> u64 {
    let ukey = user_key(internal_key);
    match ukey.first_chunk::<8>() {
        Some(word) => u64::from_be_bytes(*word),
        None => {
            let mut padded = [0u8; 8];
            padded[..ukey.len()].copy_from_slice(ukey);
            u64::from_be_bytes(padded)
        }
    }
}

/// Total order over internal keys (user key asc, seq desc, type desc).
pub fn compare_internal_keys(a: &[u8], b: &[u8]) -> Ordering {
    if let (Some(wa), Some(wb)) = (
        user_key(a).first_chunk::<8>(),
        user_key(b).first_chunk::<8>(),
    ) {
        let (wa, wb) = (u64::from_be_bytes(*wa), u64::from_be_bytes(*wb));
        if wa != wb {
            return wa.cmp(&wb);
        }
    }
    match user_key(a).cmp(user_key(b)) {
        Ordering::Equal => {
            let (seq_a, vt_a) = parse_trailer(a);
            let (seq_b, vt_b) = parse_trailer(b);
            // Higher sequence sorts first; ties broken by higher type first.
            seq_b.cmp(&seq_a).then((vt_b as u8).cmp(&(vt_a as u8)))
        }
        ord => ord,
    }
}

/// An inclusive-exclusive user-key range `[lo, hi)`; `hi = None` means +inf.
///
/// Slice links (the LDC mechanism) and range scans both use this shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower bound.
    pub lo: Vec<u8>,
    /// Exclusive upper bound; `None` = unbounded.
    pub hi: Option<Vec<u8>>,
}

impl KeyRange {
    /// Range covering every key.
    pub fn all() -> Self {
        KeyRange {
            lo: Vec::new(),
            hi: None,
        }
    }

    /// `[lo, hi)` with a concrete upper bound.
    pub fn new(lo: impl Into<Vec<u8>>, hi: impl Into<Vec<u8>>) -> Self {
        KeyRange {
            lo: lo.into(),
            hi: Some(hi.into()),
        }
    }

    /// `[lo, +inf)`.
    pub fn from(lo: impl Into<Vec<u8>>) -> Self {
        KeyRange {
            lo: lo.into(),
            hi: None,
        }
    }

    /// Whether `key` falls inside the range.
    pub fn contains(&self, key: &[u8]) -> bool {
        key >= self.lo.as_slice() && self.hi.as_deref().is_none_or(|hi| key < hi)
    }

    /// Whether this range overlaps the *closed* key span `[smallest, largest]`.
    pub fn overlaps(&self, smallest: &[u8], largest: &[u8]) -> bool {
        if largest < self.lo.as_slice() {
            return false;
        }
        match self.hi.as_deref() {
            Some(hi) => smallest < hi,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The order the module doc defines, with no fast path.
    fn reference_order(a: &[u8], b: &[u8]) -> Ordering {
        let ((seq_a, vt_a), (seq_b, vt_b)) = (parse_trailer(a), parse_trailer(b));
        user_key(a)
            .cmp(user_key(b))
            .then(seq_b.cmp(&seq_a))
            .then((vt_b as u8).cmp(&(vt_a as u8)))
    }

    /// Internal keys over a four-byte alphabet with both extremes in it, user
    /// keys of 0 to 11 bytes (either side of the eight the fast path needs),
    /// a handful of sequences and both types: equal eight-byte prefixes and
    /// equal user keys with different trailers are common.
    fn ikeys() -> impl Strategy<Value = Vec<u8>> {
        let byte = prop_oneof![Just(0x00u8), Just(0xffu8), Just(b'a'), Just(b'b')];
        (prop::collection::vec(byte, 0..12), 0..4u64, any::<bool>()).prop_map(
            |(ukey, seq, live)| {
                let vt = if live {
                    ValueType::Value
                } else {
                    ValueType::Deletion
                };
                encode_internal_key(&ukey, seq, vt)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        #[test]
        fn word_compare_keeps_the_reference_order(
            a in ikeys(),
            b in ikeys(),
            share in 0..4u8,
            trailer in (0..4u64, any::<bool>()),
        ) {
            // A quarter of the pairs share the whole user key, another
            // quarter its first eight bytes.
            let b = match share {
                0 => {
                    let vt = if trailer.1 { ValueType::Value } else { ValueType::Deletion };
                    encode_internal_key(user_key(&a), trailer.0, vt)
                }
                1 => {
                    let ukey = user_key(&a);
                    [&ukey[..ukey.len().min(8)], &b[..]].concat()
                }
                _ => b,
            };
            let want = reference_order(&a, &b);
            prop_assert_eq!(compare_internal_keys(&a, &b), want);
            prop_assert_eq!(compare_internal_keys(&b, &a), want.reverse());
            let (wa, wb) = (user_key_word(&a), user_key_word(&b));
            if wa != wb {
                prop_assert_eq!(wa.cmp(&wb), user_key(&a).cmp(user_key(&b)));
            }
        }
    }

    #[test]
    fn encode_and_parse_roundtrip() {
        let ik = encode_internal_key(b"user", 42, ValueType::Value);
        assert_eq!(user_key(&ik), b"user");
        assert_eq!(parse_trailer(&ik), (42, ValueType::Value));
        let ik = encode_internal_key(b"", MAX_SEQUENCE, ValueType::Deletion);
        assert_eq!(user_key(&ik), b"");
        assert_eq!(parse_trailer(&ik), (MAX_SEQUENCE, ValueType::Deletion));
    }

    #[test]
    fn ordering_user_key_dominates() {
        let a = encode_internal_key(b"a", 1, ValueType::Value);
        let b = encode_internal_key(b"b", 100, ValueType::Value);
        assert_eq!(compare_internal_keys(&a, &b), Ordering::Less);
    }

    #[test]
    fn ordering_newer_sequence_sorts_first() {
        let new = encode_internal_key(b"k", 10, ValueType::Value);
        let old = encode_internal_key(b"k", 5, ValueType::Value);
        assert_eq!(compare_internal_keys(&new, &old), Ordering::Less);
    }

    #[test]
    fn ordering_type_breaks_sequence_ties() {
        let v = encode_internal_key(b"k", 7, ValueType::Value);
        let d = encode_internal_key(b"k", 7, ValueType::Deletion);
        assert_eq!(compare_internal_keys(&v, &d), Ordering::Less);
        assert_eq!(compare_internal_keys(&d, &v), Ordering::Greater);
        assert_eq!(compare_internal_keys(&v, &v), Ordering::Equal);
    }

    #[test]
    fn value_type_decoding() {
        assert_eq!(ValueType::from_u8(0), Some(ValueType::Deletion));
        assert_eq!(ValueType::from_u8(1), Some(ValueType::Value));
        assert_eq!(ValueType::from_u8(2), None);
    }

    #[test]
    fn key_range_contains_and_overlaps() {
        let r = KeyRange::new(&b"b"[..], &b"d"[..]);
        assert!(!r.contains(b"a"));
        assert!(r.contains(b"b"));
        assert!(r.contains(b"c"));
        assert!(!r.contains(b"d"));
        assert!(r.overlaps(b"a", b"b")); // touches lo
        assert!(r.overlaps(b"c", b"z"));
        assert!(!r.overlaps(b"d", b"z")); // hi is exclusive
        assert!(!r.overlaps(b"a", b"az"));

        let unbounded = KeyRange::from(&b"m"[..]);
        assert!(unbounded.contains(b"zzz"));
        assert!(!unbounded.contains(b"a"));
        assert!(unbounded.overlaps(b"a", b"m"));
        assert!(!unbounded.overlaps(b"a", b"l"));

        let all = KeyRange::all();
        assert!(all.contains(b""));
        assert!(all.contains(b"anything"));
        assert!(all.overlaps(b"a", b"b"));
    }
}
