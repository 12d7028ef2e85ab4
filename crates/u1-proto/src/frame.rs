//! Length-prefixed framing.
//!
//! Every message travels in one frame. Bytes on the wire:
//!
//! ```text
//! +---------------------+--------------------------------+
//! | length: u32, BE     | body: exactly `length` bytes   |
//! | (4 bytes)           | (codec-encoded Message)        |
//! +---------------------+--------------------------------+
//! ```
//!
//! The length counts the body only (not itself) and is bounded by
//! [`MAX_FRAME_LEN`]; a larger announcement is rejected *before* any body
//! bytes are buffered, so a hostile peer cannot make the decoder allocate
//! 4GB by sending five bytes. An empty body (`length == 0`) is legal.
//!
//! The decoder is incremental — feed it arbitrary byte chunks (as they
//! arrive from a socket) and pull complete frames out — the framing
//! pattern the networking guides emphasize: never assume message
//! boundaries align with read boundaries.
//!
//! ```
//! use bytes::BytesMut;
//! use u1_proto::frame::{encode_frame, FrameDecoder};
//!
//! let mut out = BytesMut::new();
//! encode_frame(b"ping", &mut out).unwrap();
//! assert_eq!(out.as_ref(), [0, 0, 0, 4, b'p', b'i', b'n', b'g']);
//!
//! // Bytes arrive in arbitrary chunks; frames come out whole.
//! let bytes: &[u8] = out.as_ref();
//! let mut dec = FrameDecoder::new();
//! dec.extend(&bytes[..3]); // partial header
//! assert!(dec.next_frame().unwrap().is_none());
//! dec.extend(&bytes[3..]); // rest of header + body
//! assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"ping");
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Hard upper bound on a frame body. Uploads are chunked well below this
/// (the S3 part size is 5MB); anything larger is a corrupt or hostile peer.
pub const MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// Framing-layer errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A frame body larger than [`MAX_FRAME_LEN`] — announced by a peer on
    /// decode, or handed to [`encode_frame`] locally. Carried as `u64` so
    /// the offending size is reportable even when it exceeds `usize`.
    TooLarge(u64),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME_LEN}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps a message body in a frame, appending to `out`. Fails when the body
/// exceeds [`MAX_FRAME_LEN`] (and therefore would not round-trip through a
/// peer's decoder) or cannot be described by the 4-byte length prefix.
pub fn encode_frame(body: &[u8], out: &mut BytesMut) -> Result<(), FrameError> {
    if body.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(body.len() as u64));
    }
    let len = u32::try_from(body.len()).map_err(|_| FrameError::TooLarge(body.len() as u64))?;
    out.put_u32(len);
    out.put_slice(body);
    Ok(())
}

/// Builds one frame in one buffer: a 4-byte length placeholder, the body
/// `put_body` writes straight after it, then the length patched in — the
/// same bytes as [`encode_frame`] over a separately built body, without the
/// second buffer. `room` is the body size to reserve. Fails like
/// [`encode_frame`] when the body exceeds [`MAX_FRAME_LEN`].
pub fn build_frame(room: usize, put_body: impl FnOnce(&mut BytesMut)) -> Result<Bytes, FrameError> {
    let mut buf = BytesMut::with_capacity(4 + room);
    buf.put_u32(0);
    put_body(&mut buf);
    let body_len = buf.len() - 4;
    let prefix = u32::try_from(body_len)
        .ok()
        .filter(|_| body_len <= MAX_FRAME_LEN)
        .ok_or(FrameError::TooLarge(body_len as u64))?;
    for (i, byte) in prefix.to_be_bytes().into_iter().enumerate() {
        buf[i] = byte;
    }
    Ok(buf.freeze())
}

/// Incremental frame decoder.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds newly received bytes.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Body length of the frame at byte `at` of the buffer, once its
    /// 4-byte header is there. An over-long announcement is an error before
    /// any of its body is looked at.
    fn body_len_at(&self, at: usize) -> Result<Option<usize>, FrameError> {
        let Some(header) = self.buf.get(at..at + 4) else {
            return Ok(None);
        };
        let word = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
        let len = usize::try_from(word).map_err(|_| FrameError::TooLarge(u64::from(word)))?;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge(word.into()));
        }
        Ok(Some(len))
    }

    /// Complete frames buffered right now (counting stops at a partial or
    /// over-long one) — what a caller about to drain them should size its
    /// output for.
    pub fn complete_frames(&self) -> usize {
        let (mut at, mut frames) = (0, 0);
        while let Ok(Some(len)) = self.body_len_at(at) {
            at += 4 + len;
            if at > self.buf.len() {
                break;
            }
            frames += 1;
        }
        frames
    }

    /// Hands the next complete frame body to `read` as a slice of the
    /// receive buffer — no copy — and consumes the frame afterwards.
    pub fn next_frame_with<R>(
        &mut self,
        read: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, FrameError> {
        let Some(len) = self.body_len_at(0)? else {
            return Ok(None);
        };
        let Some(body) = self.buf.get(4..4 + len) else {
            return Ok(None);
        };
        let out = read(body);
        self.buf.advance(4 + len);
        if self.buf.is_empty() {
            // Start the next burst at the front of the allocation.
            self.buf.clear();
        }
        Ok(Some(out))
    }

    /// Pops the next complete frame body, if one is buffered, as an owned
    /// copy. Callers that only look at the body use
    /// [`FrameDecoder::next_frame_with`].
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        self.next_frame_with(Bytes::copy_from_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_frame_round_trip() {
        let mut out = BytesMut::new();
        encode_frame(b"hello", &mut out).expect("fits");
        let mut dec = FrameDecoder::new();
        dec.extend(&out);
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"hello");
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn frames_survive_arbitrary_chunking() {
        let mut out = BytesMut::new();
        for i in 0u8..10 {
            encode_frame(&vec![i; i as usize * 7 + 1], &mut out).expect("fits");
        }
        // Feed one byte at a time — the nastiest chunking.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in out.iter() {
            dec.extend(&[*b]);
            while let Some(frame) = dec.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got.len(), 10);
        for (i, frame) in got.iter().enumerate() {
            let byte = u8::try_from(i).expect("small index");
            assert_eq!(frame.as_ref(), &vec![byte; i * 7 + 1][..]);
        }
    }

    #[test]
    fn empty_frame_is_legal() {
        let mut out = BytesMut::new();
        encode_frame(b"", &mut out).expect("fits");
        let mut dec = FrameDecoder::new();
        dec.extend(&out);
        assert_eq!(dec.next_frame().unwrap().unwrap().len(), 0);
    }

    #[test]
    fn oversized_frame_is_rejected_before_buffering_it() {
        let mut dec = FrameDecoder::new();
        let oversized = u32::try_from(MAX_FRAME_LEN).expect("limit fits u32") + 1;
        dec.extend(&oversized.to_be_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge(MAX_FRAME_LEN as u64 + 1))
        );
    }

    #[test]
    fn partial_header_waits_for_more() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0, 0]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.extend(&[0, 3, b'a', b'b']);
        assert_eq!(dec.next_frame().unwrap(), None); // body incomplete
        dec.extend(b"c");
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"abc");
    }
}
