//! Integer encodings shared by the WAL, blocks, tables, and the manifest.
//!
//! Matches LevelDB's conventions: little-endian fixed-width integers and
//! LEB128-style varints.

/// Appends a little-endian u32.
pub fn put_fixed32(dst: &mut Vec<u8>, v: u32) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian u32 at `offset`.
pub fn get_fixed32(src: &[u8], offset: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&src[offset..offset + 4]);
    u32::from_le_bytes(b)
}

/// Reads a little-endian u64 at `offset`.
pub fn get_fixed64(src: &[u8], offset: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&src[offset..offset + 8]);
    u64::from_le_bytes(b)
}

/// Appends a varint-encoded u32.
pub fn put_varint32(dst: &mut Vec<u8>, v: u32) {
    put_varint64(dst, v as u64)
}

/// Appends a varint-encoded u64.
pub fn put_varint64(dst: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        dst.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    dst.push(v as u8);
}

/// Bytes [`put_varint64`] spends on `v`.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Decodes a varint u64 from the front of `src`, returning the value and the
/// number of bytes consumed, or `None` if `src` is truncated or overlong.
pub fn get_varint64(src: &[u8]) -> Option<(u64, usize)> {
    let mut result: u64 = 0;
    for (i, &byte) in src.iter().enumerate().take(10) {
        result |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return Some((result, i + 1));
        }
    }
    None
}

/// Decodes a varint u32 (fails if the value exceeds `u32::MAX`).
pub fn get_varint32(src: &[u8]) -> Option<(u32, usize)> {
    let (v, n) = get_varint64(src)?;
    u32::try_from(v).ok().map(|v| (v, n))
}

/// Appends a length-prefixed byte slice.
pub fn put_length_prefixed(dst: &mut Vec<u8>, slice: &[u8]) {
    put_varint32(dst, slice.len() as u32);
    dst.extend_from_slice(slice);
}

/// Bytes [`put_length_prefixed`] spends on `slice`.
pub fn length_prefixed_len(slice: &[u8]) -> usize {
    varint_len(slice.len() as u64) + slice.len()
}

/// Reads a length-prefixed slice from the front of `src`, returning the
/// slice and the total bytes consumed.
pub fn get_length_prefixed(src: &[u8]) -> Option<(&[u8], usize)> {
    let (len, n) = get_varint32(src)?;
    let end = n.checked_add(len as usize)?;
    if end > src.len() {
        return None;
    }
    Some((&src[n..end], end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_roundtrip() {
        let mut buf = Vec::new();
        put_fixed32(&mut buf, 0xdead_beef);
        buf.extend_from_slice(&0x0123_4567_89ab_cdef_u64.to_le_bytes());
        assert_eq!(get_fixed32(&buf, 0), 0xdead_beef);
        assert_eq!(get_fixed64(&buf, 4), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn varint_roundtrip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            let (decoded, n) = get_varint64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(n, buf.len());
            assert_eq!(varint_len(v), buf.len());
        }
    }

    #[test]
    fn varint_lengths_match_leb128() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint64(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        put_varint64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::MAX);
        assert!(get_varint64(&buf[..buf.len() - 1]).is_none());
        assert!(get_varint64(&[]).is_none());
    }

    #[test]
    fn varint32_rejects_oversized() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(get_varint32(&buf).is_none());
    }

    #[test]
    fn length_prefixed_roundtrip() {
        let mut buf = Vec::new();
        put_length_prefixed(&mut buf, b"hello");
        put_length_prefixed(&mut buf, b"");
        let (s1, n1) = get_length_prefixed(&buf).unwrap();
        assert_eq!(s1, b"hello");
        let (s2, n2) = get_length_prefixed(&buf[n1..]).unwrap();
        assert_eq!(s2, b"");
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn length_prefixed_rejects_truncation() {
        let mut buf = Vec::new();
        put_length_prefixed(&mut buf, b"hello");
        assert!(get_length_prefixed(&buf[..3]).is_none());
    }
}
