//! Property tests for [`SendQueue`]: whatever the frames and however the
//! sink misbehaves, the bytes that come out are the frames concatenated and
//! the queue's accounting is exact after every call — plus the count behind
//! "one system call per flush".

use bytes::Bytes;
use proptest::prelude::*;
use std::io::{self, IoSlice, Write};
use u1_proto::nio::{SendQueue, GATHER_FRAMES};

/// What the sink does with one `write_vectored` call.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Accept at most this many bytes (0: a sink that makes no progress).
    Accept(usize),
    WouldBlock,
    Interrupted,
}

/// A sink that follows a script, one step per call, and accepts everything
/// once the script has run out. Counts the calls it gets.
struct ScriptedSink {
    script: std::vec::IntoIter<Step>,
    out: Vec<u8>,
    calls: usize,
}

impl ScriptedSink {
    fn new(script: Vec<Step>) -> Self {
        ScriptedSink {
            script: script.into_iter(),
            out: Vec::new(),
            calls: 0,
        }
    }
}

impl Write for ScriptedSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.calls += 1;
        let mut room = match self.script.next() {
            Some(Step::Accept(n)) => n,
            Some(Step::WouldBlock) => return Err(io::ErrorKind::WouldBlock.into()),
            Some(Step::Interrupted) => return Err(io::ErrorKind::Interrupted.into()),
            None => usize::MAX,
        };
        let mut taken = 0;
        for buf in bufs {
            let take = buf.len().min(room);
            self.out.extend_from_slice(&buf[..take]);
            taken += take;
            room -= take;
        }
        Ok(taken)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Frame `index` of `len` bytes; the content depends on both, so a frame
/// written twice, dropped or reordered shows.
fn frame(index: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + index * 7) % 256).to_le_bytes()[0])
        .collect()
}

/// 0 B to 2 MiB, mostly small: many frames per gathered write and a few
/// that one short write cannot finish.
fn arb_frame_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..32,
        1usize..32,
        32usize..4096,
        4096usize..(2 * 1024 * 1024 + 1),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Accept(0)),
        (1usize..8).prop_map(Step::Accept),
        (8usize..512).prop_map(Step::Accept),
        (512usize..(3 * 1024 * 1024)).prop_map(Step::Accept),
        Just(Step::WouldBlock),
        Just(Step::Interrupted),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bytes_out_are_the_frames_in_order_and_the_meter_is_exact(
        lens in proptest::collection::vec(arb_frame_len(), 0..24),
        script in proptest::collection::vec(arb_step(), 0..48),
        pushed_late in any::<usize>(),
    ) {
        let frames: Vec<Vec<u8>> = lens.iter().enumerate().map(|(i, &n)| frame(i, n)).collect();
        let expected: Vec<u8> = frames.concat();
        // Some frames are queued only after the first flush, while the
        // cursor may sit in the middle of an earlier one.
        let late_from = frames.len() - pushed_late % (frames.len() + 1);

        let mut q = SendQueue::new();
        let mut sink = ScriptedSink::new(script);
        let mut pushed = 0usize;
        for f in &frames[..late_from] {
            pushed += f.len();
            q.push(Bytes::from(f.clone()));
        }
        prop_assert_eq!(q.queued_bytes(), pushed);

        let mut calls = 0;
        loop {
            let before = sink.out.len();
            let wrote = q.write_to(&mut sink).expect("the sink never fails hard");
            prop_assert_eq!(wrote, sink.out.len() - before);
            prop_assert_eq!(q.queued_bytes(), pushed - sink.out.len());
            prop_assert_eq!(q.is_empty(), q.queued_bytes() == 0);
            if calls == 0 {
                for f in &frames[late_from..] {
                    pushed += f.len();
                    q.push(Bytes::from(f.clone()));
                }
                prop_assert_eq!(q.queued_bytes(), pushed - sink.out.len());
            } else if q.is_empty() {
                break;
            }
            calls += 1;
            // Every call consumes at least one script step, and an empty
            // script accepts everything.
            prop_assert!(calls <= 48 + 2, "write_to stopped making progress");
        }
        prop_assert_eq!(pushed, expected.len());
        prop_assert!(sink.out == expected, "bytes out differ from the frames concatenated");
    }
}

/// The deterministic count behind the throughput claim: a burst of small
/// frames costs one write call per `GATHER_FRAMES` of them, not one each.
#[test]
fn queued_small_frames_flush_in_one_call_per_gather_batch() {
    for n in [1usize, 16, GATHER_FRAMES, GATHER_FRAMES + 1, 1000] {
        let mut q = SendQueue::new();
        for i in 0..n {
            q.push(Bytes::from(frame(i, 12)));
        }
        let mut sink = ScriptedSink::new(Vec::new());
        assert_eq!(q.write_to(&mut sink).expect("write"), n * 12);
        assert!(q.is_empty());
        assert!(
            sink.calls <= n.div_ceil(GATHER_FRAMES),
            "{n} frames took {} write calls",
            sink.calls
        );
    }
}

/// A short write that ends exactly on a frame boundary, several frames in,
/// leaves the cursor at the start of the next frame.
#[test]
fn short_write_ending_on_a_frame_boundary_resumes_at_the_next_frame() {
    let mut q = SendQueue::new();
    for i in 0..4 {
        q.push(Bytes::from(frame(i, 10)));
    }
    let mut sink = ScriptedSink::new(vec![Step::Accept(20), Step::WouldBlock]);
    assert_eq!(q.write_to(&mut sink).expect("write"), 20);
    assert_eq!(q.queued_bytes(), 20);
    assert_eq!(q.write_to(&mut sink).expect("write"), 20);
    assert!(q.is_empty());
    assert_eq!(
        sink.out,
        (0..4).flat_map(|i| frame(i, 10)).collect::<Vec<_>>()
    );
}
