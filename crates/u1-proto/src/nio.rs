//! Nonblocking I/O building blocks for the reactor (DESIGN.md §15).
//!
//! The wire tier never blocks on a socket. Reads and writes both go through
//! the two small pieces here, which translate the `std::io` nonblocking
//! contract (`ErrorKind::WouldBlock`, short writes, zero-length reads) into
//! states a reactor can act on:
//!
//! * [`read_once`] — one `read` call, classified as bytes / would-block /
//!   peer-closed,
//! * [`SendQueue`] — an ordered queue of encoded frames with a write cursor,
//!   drained opportunistically, many frames per system call; whatever the
//!   kernel refuses stays queued and the caller flips epoll write interest
//!   on until the queue empties.
//!
//! Both are generic over `Read`/`Write` so every partial-progress path is
//! testable with in-memory mocks (a 1-byte-capacity writer, a scripted
//! reader) instead of real sockets.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};

use bytes::Bytes;

/// Most frames one [`SendQueue::write_to`] system call gathers. Sixteen
/// bytes of stack per slot; far below the kernel's `IOV_MAX` of 1024.
pub const GATHER_FRAMES: usize = 64;

/// What one nonblocking `read` call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `read` returned 0: the peer closed its sending half.
    Closed,
    /// The socket had nothing buffered (`EWOULDBLOCK`); try again on the
    /// next readiness event.
    WouldBlock,
    /// This many bytes were read into the caller's buffer.
    Bytes(usize),
}

/// Performs one `read` into `buf` and classifies the result.
///
/// `Interrupted` is retried internally (a signal is not data); every other
/// error is a dead connection and is returned as-is.
pub fn read_once(src: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    loop {
        match src.read(buf) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(n) => return Ok(ReadOutcome::Bytes(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadOutcome::WouldBlock),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// An ordered outbound queue of encoded frames with a partial-write cursor.
///
/// Responses and pushes are *queued*, never written inline from the dispatch
/// path; the reactor drains the queue whenever the socket reports writable.
/// `queued_bytes` is the connection's send-budget meter: admission control
/// evicts a connection whose queue outgrows its byte budget, which is what
/// turns a slow (or adversarial, §5.4) reader into bounded server-side
/// memory instead of unbounded growth.
#[derive(Debug, Default)]
pub struct SendQueue {
    frames: VecDeque<Bytes>,
    /// Bytes of `frames[0]` already written to the socket.
    offset: usize,
    /// Total unsent bytes across all queued frames (minus `offset`).
    queued: usize,
}

impl SendQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an encoded frame (length prefix included) to the queue. An
    /// empty frame has nothing to send and is not queued.
    pub fn push(&mut self, frame: Bytes) {
        if frame.is_empty() {
            return;
        }
        self.queued += frame.len();
        self.frames.push_back(frame);
    }

    /// True when nothing remains to write — the signal to drop epoll write
    /// interest.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Unsent bytes currently held; compared against the per-connection
    /// send budget.
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Writes as much queued data as the sink accepts right now.
    ///
    /// Each system call is one `write_vectored` over up to
    /// [`GATHER_FRAMES`] queued frames, so a burst of small replies costs
    /// one call, not one per frame. Returns the number of bytes written this
    /// call. Stops (without error) at `WouldBlock`; retries `Interrupted`;
    /// propagates anything else. A short write may end anywhere — mid-frame
    /// or several frames in — and the next call resumes at that exact byte.
    pub fn write_to(&mut self, dst: &mut impl Write) -> io::Result<usize> {
        let mut written = 0usize;
        while !self.frames.is_empty() {
            let mut slices = [IoSlice::new(&[]); GATHER_FRAMES];
            let mut used = 0;
            for (slot, frame) in slices.iter_mut().zip(&self.frames) {
                let sent = if used == 0 { self.offset } else { 0 };
                *slot = IoSlice::new(&frame.as_ref()[sent..]);
                used += 1;
            }
            match dst.write_vectored(&slices[..used]) {
                // A zero-length write with a nonempty buffer: the sink can
                // make no progress. Treat like WouldBlock.
                Ok(0) => break,
                Ok(n) => {
                    written += n;
                    self.advance(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }

    /// Moves the cursor `n` written bytes on, dropping every frame it
    /// passes completely.
    fn advance(&mut self, mut n: usize) {
        self.queued -= n;
        while let Some(front) = self.frames.front() {
            let left = front.len() - self.offset;
            if n < left {
                self.offset += n;
                return;
            }
            n -= left;
            self.offset = 0;
            self.frames.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, FrameDecoder};
    use bytes::BytesMut;

    /// A writer that accepts at most one byte per call, then blocks every
    /// other call — the worst-behaved socket the kernel can legally give us.
    struct TrickleWriter {
        out: Vec<u8>,
        block_next: bool,
    }

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.block_next = true;
            let take = buf.len().min(1);
            self.out.extend_from_slice(&buf[..take]);
            Ok(take)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frame(body: &[u8]) -> Bytes {
        let mut out = BytesMut::new();
        encode_frame(body, &mut out).expect("fits");
        out.freeze()
    }

    #[test]
    fn send_queue_survives_one_byte_writes() {
        let mut q = SendQueue::new();
        q.push(frame(b"hello"));
        q.push(frame(b"world!"));
        let total = q.queued_bytes();
        assert_eq!(total, 4 + 5 + 4 + 6);

        let mut w = TrickleWriter {
            out: Vec::new(),
            block_next: false,
        };
        let mut calls = 0;
        while !q.is_empty() {
            q.write_to(&mut w).expect("write");
            calls += 1;
            assert!(calls < 1000, "must terminate");
        }
        assert_eq!(q.queued_bytes(), 0);

        // The byte-dribbled output reassembles into the original frames.
        let mut dec = FrameDecoder::new();
        dec.extend(&w.out);
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"hello");
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"world!");
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn send_queue_reports_progress_and_blocking() {
        let mut q = SendQueue::new();
        q.push(frame(b"abc"));
        let mut w = TrickleWriter {
            out: Vec::new(),
            block_next: true, // first call blocks immediately
        };
        assert_eq!(q.write_to(&mut w).expect("ok"), 0);
        assert_eq!(q.queued_bytes(), 7);
        assert_eq!(q.write_to(&mut w).expect("ok"), 1);
        assert_eq!(q.queued_bytes(), 6);
        assert!(!q.is_empty());
    }

    #[test]
    fn send_queue_propagates_hard_errors() {
        struct BrokenPipe;
        impl Write for BrokenPipe {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut q = SendQueue::new();
        q.push(frame(b"x"));
        let err = q.write_to(&mut BrokenPipe).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    /// A reader that yields a script of results, one per call.
    struct ScriptReader {
        script: Vec<io::Result<Vec<u8>>>,
    }

    impl Read for ScriptReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.remove(0) {
                Ok(bytes) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Err(e) => Err(e),
            }
        }
    }

    #[test]
    fn read_once_classifies_all_outcomes() {
        let mut r = ScriptReader {
            script: vec![
                Err(io::Error::new(io::ErrorKind::Interrupted, "signal")),
                Ok(vec![1, 2, 3]),
                Err(io::Error::new(io::ErrorKind::WouldBlock, "empty")),
                Ok(vec![]),
                Err(io::Error::new(io::ErrorKind::ConnectionReset, "rst")),
            ],
        };
        let mut buf = [0u8; 16];
        // Interrupted is swallowed; the retry reads the 3 bytes.
        assert_eq!(read_once(&mut r, &mut buf).unwrap(), ReadOutcome::Bytes(3));
        assert_eq!(&buf[..3], &[1, 2, 3]);
        assert_eq!(
            read_once(&mut r, &mut buf).unwrap(),
            ReadOutcome::WouldBlock
        );
        assert_eq!(read_once(&mut r, &mut buf).unwrap(), ReadOutcome::Closed);
        let err = read_once(&mut r, &mut buf).expect_err("hard error");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    /// Frames split at *every* byte boundary of the 4-byte header (and the
    /// body) still decode — the partial-frame test the wire tier demands.
    #[test]
    fn frames_decode_across_every_split_point() {
        let body = b"partial-frame-body";
        let encoded = frame(body);
        let encoded: &[u8] = encoded.as_ref();
        for split in 0..encoded.len() {
            let mut dec = FrameDecoder::new();
            dec.extend(&encoded[..split]);
            assert_eq!(
                dec.next_frame().expect("no error on partial input"),
                None,
                "split at byte {split} must not yield a frame early"
            );
            dec.extend(&encoded[split..]);
            assert_eq!(
                dec.next_frame().expect("decode").expect("frame").as_ref(),
                body,
                "split at byte {split}"
            );
        }
    }
}
