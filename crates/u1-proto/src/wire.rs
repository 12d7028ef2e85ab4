//! Wire primitives: unsigned varints and length-delimited byte strings over
//! [`bytes::Buf`]/[`bytes::BufMut`].
//!
//! The encoding mirrors protobuf's: LEB128 varints for integers, varint
//! length prefixes for strings/bytes. Decoding is strict — truncated or
//! over-long input yields a [`WireError`] instead of panicking, because
//! frames arrive from the network.
//!
//! # Error taxonomy
//!
//! Every decode failure maps to exactly one [`WireError`] variant, and all
//! of them are **fatal for the connection** (the serving tier drops the
//! peer rather than resynchronizing a corrupt stream):
//!
//! | Variant | Fires when |
//! |---|---|
//! | [`Truncated`](WireError::Truncated) | the buffer ends mid-value (varint, hash, discriminant) |
//! | [`VarintOverflow`](WireError::VarintOverflow) | a varint runs past 10 bytes or encodes more than 64 bits |
//! | [`BadLength`](WireError::BadLength) | a length prefix exceeds the remaining buffer, or trailing garbage follows a message |
//! | [`BadDiscriminant`](WireError::BadDiscriminant) | an enum tag byte has no defined meaning |
//! | [`BadUtf8`](WireError::BadUtf8) | a string field holds invalid UTF-8 |
//! | [`Overflow`](WireError::Overflow) | a decoded integer exceeds the field's native width (`usize` counts, `u32` request ids) |
//!
//! Encoding cannot fail: buffers grow, and every encodable value has a
//! representation.
//!
//! ```
//! use bytes::BytesMut;
//! use u1_proto::wire::{get_uvarint, put_uvarint, WireError};
//!
//! let mut buf = BytesMut::new();
//! put_uvarint(&mut buf, 300);
//! assert_eq!(buf.as_ref(), [0xAC, 0x02]); // LEB128, low 7 bits first
//!
//! let mut cur = buf.freeze();
//! assert_eq!(get_uvarint(&mut cur), Ok(300));
//!
//! // Strictness: a continuation bit with nothing after it is an error,
//! // never a partial value.
//! let mut cut = &[0x80u8][..];
//! assert_eq!(get_uvarint(&mut cut), Err(WireError::Truncated));
//! ```

use bytes::{Buf, BufMut};

/// Maximum number of bytes a 64-bit LEB128 varint may occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Decoding errors. Encoding cannot fail (buffers grow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended mid-value.
    Truncated,
    /// A varint exceeded 10 bytes / 64 bits.
    VarintOverflow,
    /// A length prefix exceeded the remaining buffer or a sanity bound.
    BadLength,
    /// An enum discriminant had no defined meaning.
    BadDiscriminant(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A decoded integer does not fit the field's native width (e.g. a
    /// count that must fit `usize`, or a request id that must fit `u32`).
    Overflow,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::VarintOverflow => write!(f, "varint overflow"),
            WireError::BadLength => write!(f, "bad length prefix"),
            WireError::BadDiscriminant(d) => write!(f, "unknown discriminant {d}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8"),
            WireError::Overflow => write!(f, "integer field overflows its native width"),
        }
    }
}

impl std::error::Error for WireError {}

pub type WireResult<T> = Result<T, WireError>;

/// Appends `v` as a LEB128 varint.
pub fn put_uvarint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint.
pub fn get_uvarint(buf: &mut impl Buf) -> WireResult<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for _ in 0..MAX_VARINT_LEN {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        let byte = buf.get_u8();
        let low = (byte & 0x7F) as u64;
        if shift == 63 && low > 1 {
            return Err(WireError::VarintOverflow);
        }
        result |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
    Err(WireError::VarintOverflow)
}

/// Reads a varint that must fit `usize` — collection counts and byte-string
/// lengths. A value a 32-bit host cannot even address is [`WireError::Overflow`],
/// not a length to be truncated.
pub fn get_uvarint_len(buf: &mut impl Buf) -> WireResult<usize> {
    usize::try_from(get_uvarint(buf)?).map_err(|_| WireError::Overflow)
}

/// Reads a varint that must fit `u32` — request ids and other 32-bit fields.
pub fn get_uvarint_u32(buf: &mut impl Buf) -> WireResult<u32> {
    u32::try_from(get_uvarint(buf)?).map_err(|_| WireError::Overflow)
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(buf: &mut impl BufMut, data: &[u8]) {
    put_uvarint(buf, data.len() as u64);
    buf.put_slice(data);
}

/// Reads a length-prefixed byte string, bounded by the remaining buffer.
pub fn get_bytes(buf: &mut impl Buf) -> WireResult<Vec<u8>> {
    let len = get_uvarint_len(buf)?;
    if len > buf.remaining() {
        return Err(WireError::BadLength);
    }
    // Copied once into memory nobody zeroed first: for a chunk payload that
    // is a megabyte not written twice.
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let chunk = buf.chunk();
        let take = chunk.len().min(len - out.len());
        out.extend_from_slice(&chunk[..take]);
        buf.advance(take);
    }
    Ok(out)
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut impl Buf) -> WireResult<String> {
    String::from_utf8(get_bytes(buf)?).map_err(|_| WireError::BadUtf8)
}

/// Appends a fixed 20-byte hash.
pub fn put_hash(buf: &mut impl BufMut, h: &u1_core::ContentHash) {
    buf.put_slice(h.as_bytes());
}

/// Reads a fixed 20-byte hash.
pub fn get_hash(buf: &mut impl Buf) -> WireResult<u1_core::ContentHash> {
    if buf.remaining() < 20 {
        return Err(WireError::Truncated);
    }
    let mut raw = [0u8; 20];
    buf.copy_to_slice(&mut raw);
    Ok(u1_core::ContentHash::new(raw))
}

/// Reads a single discriminant byte.
pub fn get_u8(buf: &mut impl Buf) -> WireResult<u8> {
    if !buf.has_remaining() {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u8())
}

/// Requires the buffer to be fully consumed, catching trailing garbage.
pub fn expect_eof(buf: &impl Buf) -> WireResult<()> {
    if buf.has_remaining() {
        Err(WireError::BadLength)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn varint_round_trip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut cur = buf.freeze();
            assert_eq!(get_uvarint(&mut cur).unwrap(), v);
            assert!(expect_eof(&cur).is_ok());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut cur = &[0x80u8, 0x80][..];
        assert_eq!(get_uvarint(&mut cur), Err(WireError::Truncated));
        // 11 continuation bytes overflow.
        let bytes = [0xFFu8; 11];
        let mut cur = &bytes[..];
        assert_eq!(get_uvarint(&mut cur), Err(WireError::VarintOverflow));
        // 10 bytes encoding > 64 bits overflow.
        let mut bytes = [0xFFu8; 10];
        bytes[9] = 0x7F;
        let mut cur = &bytes[..];
        assert_eq!(get_uvarint(&mut cur), Err(WireError::VarintOverflow));
    }

    #[test]
    fn bytes_and_str_round_trip() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, b"hello");
        put_str(&mut buf, "wörld");
        let mut cur = buf.freeze();
        assert_eq!(get_bytes(&mut cur).unwrap(), b"hello");
        assert_eq!(get_str(&mut cur).unwrap(), "wörld");
    }

    #[test]
    fn bytes_rejects_lying_length_prefix() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 1_000_000);
        buf.extend_from_slice(b"short");
        let mut cur = buf.freeze();
        assert_eq!(get_bytes(&mut cur), Err(WireError::BadLength));
    }

    #[test]
    fn str_rejects_invalid_utf8() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, &[0xFF, 0xFE]);
        let mut cur = buf.freeze();
        assert_eq!(get_str(&mut cur), Err(WireError::BadUtf8));
    }

    #[test]
    fn hash_round_trip_and_truncation() {
        let h = u1_core::ContentHash::from_content_id(7);
        let mut buf = BytesMut::new();
        put_hash(&mut buf, &h);
        let mut cur = buf.freeze();
        assert_eq!(get_hash(&mut cur).unwrap(), h);
        let mut short = &[0u8; 19][..];
        assert_eq!(get_hash(&mut short), Err(WireError::Truncated));
    }

    #[test]
    fn u32_varint_boundary_and_overflow() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, u64::from(u32::MAX));
        let mut cur = buf.freeze();
        assert_eq!(get_uvarint_u32(&mut cur).unwrap(), u32::MAX);

        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, u64::from(u32::MAX) + 1);
        let mut cur = buf.freeze();
        assert_eq!(get_uvarint_u32(&mut cur), Err(WireError::Overflow));
    }

    #[test]
    fn len_varint_round_trips_counts() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 4096);
        let mut cur = buf.freeze();
        assert_eq!(get_uvarint_len(&mut cur).unwrap(), 4096);
    }
}
