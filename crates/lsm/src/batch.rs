//! Write batches: the unit of atomic application and the WAL payload.
//!
//! Wire format matches LevelDB: an 8-byte starting sequence number, a 4-byte
//! record count, then per record a type byte followed by length-prefixed key
//! (and value for puts).

use crate::encoding::{
    get_fixed32, get_fixed64, get_length_prefixed, length_prefixed_len, put_length_prefixed,
};
use crate::error::{corruption, Result};
use crate::types::{SequenceNumber, ValueType};

const HEADER: usize = 12;

/// An atomic group of puts/deletes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    rep: Vec<u8>,
}

impl WriteBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self {
            rep: vec![0; HEADER],
        }
    }

    /// A batch of one put, allocated once at its encoded size.
    pub(crate) fn single_put(key: &[u8], value: &[u8]) -> Self {
        let mut batch =
            Self::with_op_bytes(1 + length_prefixed_len(key) + length_prefixed_len(value));
        batch.put(key, value);
        batch
    }

    /// A batch of one delete, allocated once at its encoded size.
    pub(crate) fn single_delete(key: &[u8]) -> Self {
        let mut batch = Self::with_op_bytes(1 + length_prefixed_len(key));
        batch.delete(key);
        batch
    }

    /// An empty batch with room for `op_bytes` of encoded operations.
    fn with_op_bytes(op_bytes: usize) -> Self {
        let mut rep = Vec::with_capacity(HEADER + op_bytes);
        rep.resize(HEADER, 0);
        Self { rep }
    }

    /// Queues a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.bump_count();
        self.rep.push(ValueType::Value as u8);
        put_length_prefixed(&mut self.rep, key);
        put_length_prefixed(&mut self.rep, value);
    }

    /// Queues a delete.
    pub fn delete(&mut self, key: &[u8]) {
        self.bump_count();
        self.rep.push(ValueType::Deletion as u8);
        put_length_prefixed(&mut self.rep, key);
    }

    /// Appends `other`'s operations after this batch's: one copy of its
    /// records and a count add (LevelDB's `WriteBatchInternal::Append`).
    /// The bytes equal re-queuing each of its operations here.
    pub(crate) fn append(&mut self, other: &WriteBatch) {
        self.set_count(self.count() + other.count());
        self.rep.extend_from_slice(&other.rep[HEADER..]);
    }

    /// Number of queued operations.
    pub fn count(&self) -> u32 {
        get_fixed32(&self.rep, 8)
    }

    /// Whether no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Starting sequence number (assigned by the engine at commit).
    pub fn sequence(&self) -> SequenceNumber {
        get_fixed64(&self.rep, 0)
    }

    /// Stamps the starting sequence number.
    pub fn set_sequence(&mut self, seq: SequenceNumber) {
        self.rep[0..8].copy_from_slice(&seq.to_le_bytes());
    }

    /// Serialized length in bytes.
    pub fn byte_size(&self) -> usize {
        self.rep.len()
    }

    /// Payload bytes written to the WAL.
    pub fn encoded(&self) -> &[u8] {
        &self.rep
    }

    /// Parses a WAL payload back into a batch.
    pub fn decode(data: &[u8]) -> Result<WriteBatch> {
        if data.len() < HEADER {
            return Err(corruption("write batch shorter than header"));
        }
        let batch = WriteBatch { rep: data.to_vec() };
        // Validate structure eagerly so corrupt batches fail loudly.
        batch.iter().collect::<Result<Vec<_>>>()?;
        Ok(batch)
    }

    /// Iterates `(offset_in_batch, op)`; each op gets `sequence() + offset`.
    pub fn iter(&self) -> BatchIter<'_> {
        BatchIter {
            data: &self.rep[HEADER..],
            remaining: self.count(),
            emitted: 0,
        }
    }

    fn bump_count(&mut self) {
        self.set_count(self.count() + 1);
    }

    fn set_count(&mut self, count: u32) {
        self.rep[8..HEADER].copy_from_slice(&count.to_le_bytes());
    }

    /// Sum of key+value payload bytes (the "user bytes" metric for write
    /// amplification accounting).
    pub fn user_bytes(&self) -> u64 {
        let mut total = 0u64;
        for op in self.iter().flatten() {
            total += match op.1 {
                BatchOp::Put { key, value } => (key.len() + value.len()) as u64,
                BatchOp::Delete { key } => key.len() as u64,
            };
        }
        total
    }
}

/// One decoded operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp<'a> {
    /// Insert/overwrite.
    Put {
        /// User key.
        key: &'a [u8],
        /// Value payload.
        value: &'a [u8],
    },
    /// Tombstone.
    Delete {
        /// User key.
        key: &'a [u8],
    },
}

/// Iterator over a batch's operations.
pub struct BatchIter<'a> {
    data: &'a [u8],
    remaining: u32,
    emitted: u32,
}

impl<'a> BatchIter<'a> {
    /// Poisons the iterator so a decode error is yielded exactly once.
    fn fail(&mut self, msg: &str) -> Option<Result<(u32, BatchOp<'a>)>> {
        self.remaining = 0;
        self.data = &[];
        Some(Err(corruption(msg.to_string())))
    }
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = Result<(u32, BatchOp<'a>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            if self.data.is_empty() {
                return None;
            }
            return self.fail("trailing bytes after last batch record");
        }
        let tag = match self.data.first() {
            Some(&t) => t,
            None => return self.fail("truncated batch record"),
        };
        self.data = &self.data[1..];
        let key = match get_length_prefixed(self.data) {
            Some((k, n)) => {
                self.data = &self.data[n..];
                k
            }
            None => return self.fail("truncated batch key"),
        };
        let op = match ValueType::from_u8(tag) {
            Some(ValueType::Value) => match get_length_prefixed(self.data) {
                Some((v, n)) => {
                    self.data = &self.data[n..];
                    BatchOp::Put { key, value: v }
                }
                None => return self.fail("truncated batch value"),
            },
            Some(ValueType::Deletion) => BatchOp::Delete { key },
            None => return self.fail("bad batch tag"),
        };
        self.remaining -= 1;
        let index = self.emitted;
        self.emitted += 1;
        Some(Ok((index, op)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn batch_roundtrip() {
        let mut b = WriteBatch::new();
        b.put(b"k1", b"v1");
        b.delete(b"k2");
        b.put(b"k3", b"");
        b.set_sequence(42);
        assert_eq!(b.count(), 3);
        assert_eq!(b.sequence(), 42);

        let decoded = WriteBatch::decode(b.encoded()).unwrap();
        let ops: Vec<BatchOp> = decoded.iter().map(|r| r.unwrap().1).collect();
        assert_eq!(
            ops,
            vec![
                BatchOp::Put {
                    key: b"k1",
                    value: b"v1"
                },
                BatchOp::Delete { key: b"k2" },
                BatchOp::Put {
                    key: b"k3",
                    value: b""
                },
            ]
        );
    }

    #[test]
    fn single_op_batches_are_built_at_their_final_size() {
        for len in [0usize, 1, 127, 128, 1024, 16_384, 70_000] {
            let value = vec![b'v'; len];
            let key = vec![b'k'; len % 300];
            let put = WriteBatch::single_put(&key, &value);
            let mut queued = WriteBatch::new();
            queued.put(&key, &value);
            assert_eq!(put, queued);
            assert_eq!(put.rep.capacity(), put.rep.len(), "put of {len} bytes");

            let delete = WriteBatch::single_delete(&key);
            let mut queued = WriteBatch::new();
            queued.delete(&key);
            assert_eq!(delete, queued);
            assert_eq!(delete.rep.capacity(), delete.rep.len(), "delete");
        }
    }

    #[test]
    fn empty_batch() {
        let b = WriteBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
        assert_eq!(b.user_bytes(), 0);
    }

    #[test]
    fn user_bytes_counts_payload() {
        let mut b = WriteBatch::new();
        b.put(b"abc", b"defg"); // 7
        b.delete(b"xy"); // 2
        assert_eq!(b.user_bytes(), 9);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WriteBatch::decode(b"short").is_err());
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        let mut bytes = b.encoded().to_vec();
        bytes.truncate(bytes.len() - 1);
        assert!(WriteBatch::decode(&bytes).is_err());
        // Bad tag byte.
        let mut bytes = b.encoded().to_vec();
        bytes[HEADER] = 99;
        assert!(WriteBatch::decode(&bytes).is_err());
    }

    /// `(key, Some(value))` is a put, `(key, None)` a delete.
    type Ops = Vec<(Vec<u8>, Option<Vec<u8>>)>;

    fn queue(batch: &mut WriteBatch, ops: &Ops) {
        for (key, value) in ops {
            match value {
                Some(v) => batch.put(key, v),
                None => batch.delete(key),
            }
        }
    }

    fn ops() -> impl Strategy<Value = Ops> {
        prop::collection::vec(
            (
                prop::collection::vec(any::<u8>(), 0..12),
                prop::option::of(prop::collection::vec(any::<u8>(), 0..40)),
            ),
            0..20,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Group commit appends each follower batch as bytes; the result
        /// must be the batch the leader would have built by re-queuing
        /// every follower operation, byte for byte (the WAL record).
        #[test]
        fn append_equals_requeued_ops(
            groups in prop::collection::vec(ops(), 1..5),
            seq in any::<u64>(),
        ) {
            let mut appended = WriteBatch::new();
            let mut requeued = WriteBatch::new();
            for group in &groups {
                let mut follower = WriteBatch::new();
                queue(&mut follower, group);
                appended.append(&follower);
                queue(&mut requeued, group);
            }
            appended.set_sequence(seq);
            requeued.set_sequence(seq);
            prop_assert_eq!(appended.encoded(), requeued.encoded());
            prop_assert_eq!(appended.iter().count(), appended.count() as usize);
        }
    }
}
