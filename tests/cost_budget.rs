//! Deterministic cost counters, pinned like the trace SHAs.
//!
//! Wall-clock numbers on a shared host move by ±15%; an allocation count
//! does not move at all. This test binary installs its own counting
//! allocator and pins, per row of [`BUDGET`], how many allocations and
//! allocated bytes one piece of work costs. A change that adds an
//! allocation per record fails here, in every `cargo test`, without a quiet
//! host. A change that moves a count re-pins it in the same diff and says
//! why in CHANGES.md.
//!
//! The `held:` rows are the other half of the census: the blocks and bytes
//! the back end still holds after the quick month, per owner, counted
//! process-wide as what dropping that owner frees. They move when a table's
//! layout does, which no wall-clock bound would notice.
//!
//! [`LOCKS`] pins the third count, in debug builds: how many
//! `u1_core::sync` locks of each rank the driver takes over the quick
//! month. One extra lock per request moves it by thousands.
//!
//! The `live:` row counts copies: one live 1 MiB upload and download
//! through the client and server connection state machines and
//! `Backend::serve`, in memory. Its bytes are whole MiB per copy of the
//! payload, so one extra copy of a bulk byte on either way moves it by a
//! mebibyte.
//!
//! Adding a row: measure the work with [`measure`] (or the holding with
//! [`freed_by`]), push it in [`measured_rows`], and pin its counts in
//! [`BUDGET`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use ubuntuone::analytics::engine::{run_all, EngineConfig};
use ubuntuone::auth::AuthConfig;
use ubuntuone::core::sync::Rank;
use ubuntuone::core::{NodeId, Sha1, SimClock, UserId, VolumeId};
use ubuntuone::proto::conn::{ClientConn, ClientEvent, Received, ServerConn, ServerEvent};
use ubuntuone::proto::msg::{Request, Response};
use ubuntuone::server::api::{Served, SessionState};
use ubuntuone::server::{Backend, BackendConfig};
use ubuntuone::trace::{MemorySink, NullSink, TraceRecord};
use ubuntuone::workload::{Driver, WorkloadConfig};

// ---------------------------------------------------------------------------
// Counting: allocation calls and requested bytes of the current thread,
// and the blocks and bytes live in the whole process.
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn note(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
}

fn note_live(blocks: i64, bytes: i64) {
    LIVE_BLOCKS.fetch_add(blocks, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

struct TallyAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s with no destructor, so touching them never allocates.
unsafe impl GlobalAlloc for TallyAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(1, layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_live(0, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` describe a live block of `System`'s,
        // as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-1, -(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: TallyAlloc = TallyAlloc;

/// What one piece of work cost: allocation calls (a `realloc` counts as
/// one) and the bytes they requested. For a `held:` row, the blocks and
/// bytes that dropping the owner gave back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    allocs: u64,
    bytes: u64,
}

/// Runs `work` on this thread and returns its result with what it
/// allocated. Only this thread's allocations count, so tests running
/// beside it do not perturb the numbers.
fn measure<R>(work: impl FnOnce() -> R) -> (R, Cost) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = work();
    let cost = Cost {
        allocs: ALLOCS.with(Cell::get) - before.0,
        bytes: BYTES.with(Cell::get) - before.1,
    };
    (out, cost)
}

/// The blocks and bytes live in the process right now.
fn live() -> (i64, i64) {
    (
        LIVE_BLOCKS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    )
}

/// The live blocks and bytes given back since `before`, process-wide:
/// take both readings while no other thread allocates.
fn freed_since(before: (i64, i64)) -> Cost {
    let after = live();
    Cost {
        allocs: u64::try_from(before.0 - after.0).expect("dropping allocated blocks"),
        bytes: u64::try_from(before.1 - after.1).expect("dropping allocated bytes"),
    }
}

/// Runs `release` and returns what it gave back, as [`freed_since`].
fn freed_by(release: impl FnOnce()) -> Cost {
    let before = live();
    release();
    freed_since(before)
}

// ---------------------------------------------------------------------------
// The budget.
// ---------------------------------------------------------------------------

/// `debug` in a debug build, `release` in a release build: a
/// `u1_core::sync` lock carries its lock-order rank only in debug builds,
/// so the bytes held by an owner whose heap holds locks depend on the
/// build.
const fn by_build(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// The pinned table: one row per measured piece of work.
const BUDGET: &[(&str, Cost)] = &[
    (
        "analytics: engine::run_all over the quick month",
        Cost {
            allocs: 1_788,
            bytes: 8_670_498,
        },
    ),
    (
        "held: the metastore after the quick month",
        Cost {
            allocs: 2_829,
            bytes: by_build(4_049_768, 4_049_176),
        },
    ),
    (
        "held: the blobstore after the quick month",
        Cost {
            allocs: 2,
            bytes: 532_804,
        },
    ),
    (
        "held: the rest of the back end after the quick month",
        Cost {
            allocs: 61,
            bytes: by_build(194_176, 187_896),
        },
    ),
    // 2 MiB of payload, 2.0 allocated bytes per payload byte: a MiB each
    // for the upload's frame, its decoded chunk, the download's chunk
    // frames and the client's file; the rest is the small messages.
    (
        "live: one 1 MiB upload and download through the connections",
        Cost {
            allocs: 39,
            bytes: 4_197_296,
        },
    ),
];

/// Locks of each rank the driver takes over the quick month on one worker,
/// from `Driver::new` to the end of `run`. Only debug builds keep ranks,
/// so a release build pins no row.
const LOCKS: &[(Rank, u64)] = if cfg!(debug_assertions) {
    &[(Rank::LogWriters, 0), (Rank::Leaf, 710_329)]
} else {
    &[]
};

/// Lock acquisitions, per rank.
type Locks = Vec<(Rank, u64)>;

/// Locks taken in this process so far, per rank; none in a release build.
fn locks_taken() -> Locks {
    #[cfg(debug_assertions)]
    let taken = ubuntuone::core::sync::acquisitions().to_vec();
    #[cfg(not(debug_assertions))]
    let taken = Vec::new();
    taken
}

/// The quick month on a default back end, through a plain `MemorySink`, on
/// one worker: the trace is the same at any worker count, and what the
/// back end holds at the end repeats exactly only on one. Returns the
/// sorted trace, the engine's configuration, the back end's census and the
/// locks the driver took.
fn quick_month() -> (Vec<TraceRecord>, EngineConfig, [Cost; 3], Locks) {
    let cfg = WorkloadConfig {
        workers: 1,
        ..WorkloadConfig::quick()
    };
    let backend_cfg = BackendConfig::default();
    let engine = EngineConfig::new(
        cfg.horizon(),
        backend_cfg.cluster.machines as usize,
        backend_cfg.store.shards as usize,
    );
    let clock = SimClock::new();
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        backend_cfg,
        Arc::new(clock.clone()),
        sink.clone(),
    ));
    let before = locks_taken();
    Driver::new(cfg, Arc::clone(&backend), clock).run();
    let locks = locks_taken()
        .into_iter()
        .zip(before)
        .map(|((rank, after), (_, before))| (rank, after - before))
        .collect();
    let Ok(backend) = Arc::try_unwrap(backend) else {
        panic!("the driver left the back end shared");
    };
    // The trace stays in `sink`, so dropping the rest does not free it.
    let (metastore, blobstore, before_rest) = {
        let backend = backend;
        let metastore = freed_by(|| drop(backend.store));
        let blobstore = freed_by(|| drop(backend.blobs));
        (metastore, blobstore, live())
        // What is left of `backend` drops here.
    };
    let rest = freed_since(before_rest);
    (
        sink.take_sorted(),
        engine,
        [metastore, blobstore, rest],
        locks,
    )
}

/// Payload bytes of the `live:` row's file.
const FILE: usize = 1 << 20;

/// What one socket read hands a connection in the `live:` row.
const PIECE: usize = 64 * 1024;

/// Payload bytes per `ContentChunk`, as the reactor frames a download.
const DOWNLOAD_CHUNK: usize = 256 * 1024;

/// A client connection and a server connection joined in memory over one
/// session of a real-bytes back end; every frame crosses in [`PIECE`]s.
struct Loopback {
    backend: Backend,
    state: SessionState,
    client: ClientConn,
    server: ServerConn,
    volume: VolumeId,
}

impl Loopback {
    fn new() -> Self {
        let cfg = BackendConfig {
            auth: AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            store_real_bytes: true,
            ..BackendConfig::default()
        };
        let backend = Backend::new(cfg, Arc::new(SimClock::new()), Arc::new(NullSink));
        let token = backend.register_user(UserId::new(1));
        let mut link = Loopback {
            backend,
            state: SessionState::new(false),
            client: ClientConn::new(),
            server: ServerConn::new(),
            volume: VolumeId::new(0),
        };
        let Response::AuthOk { session, user } = link.call(Request::Authenticate {
            token: token.as_bytes().to_vec(),
        }) else {
            panic!("authentication refused");
        };
        link.server.mark_authenticated(session, user);
        let Response::Volumes { volumes } = link.call(Request::ListVolumes) else {
            panic!("no volumes");
        };
        link.volume = volumes[0].volume;
        link
    }

    /// Sends one framed request and returns the last response to it,
    /// appending any content chunk's payload to `file` from the client's
    /// receive buffer, as a download does.
    fn exchange(&mut self, frame: &[u8], file: &mut Vec<u8>) -> Response {
        let mut answers = Vec::new();
        for piece in frame.chunks(PIECE) {
            for event in self.server.on_bytes(piece).expect("request stream") {
                let ServerEvent::Request { id, req } = event else {
                    panic!("refused: {event:?}");
                };
                let respond = |resp| self.server.respond(id, resp).expect("fits");
                match self.backend.serve(&mut self.state, req).expect("served") {
                    Served::Response(resp) => answers.push(respond(resp)),
                    Served::Content { size, hash, data } => {
                        answers.push(respond(Response::ContentBegin { size, hash }));
                        for chunk in data.as_deref().unwrap_or_default().chunks(DOWNLOAD_CHUNK) {
                            answers.push(self.server.content_chunk(id, chunk).expect("fits"));
                        }
                        answers.push(respond(Response::ContentEnd));
                    }
                }
            }
        }
        let mut last = None;
        for answer in &answers {
            for piece in answer.chunks(PIECE) {
                self.client
                    .on_bytes_with(piece, |received| match received {
                        Received::Chunk { data, .. } => file.extend_from_slice(data),
                        Received::Event(ClientEvent::Response { resp, .. }) => {
                            if let Response::ContentBegin { size, .. } = resp {
                                file.reserve(size as usize);
                            }
                            last = Some(resp);
                        }
                        Received::Event(ClientEvent::Push(push)) => panic!("{push:?}"),
                    })
                    .expect("answer stream");
            }
        }
        last.expect("answered")
    }

    /// [`Loopback::exchange`] of a request with no content.
    fn call(&mut self, req: Request) -> Response {
        let (_, frame) = self.client.request(req).expect("fits");
        self.exchange(&frame, &mut Vec::new())
    }

    /// Uploads `data` as a new file in one chunk and downloads it back.
    fn round_trip(&mut self, name: &str, data: &[u8]) -> Vec<u8> {
        let Response::NodeCreated { node, .. } = self.call(Request::MakeFile {
            volume: self.volume,
            parent: NodeId::new(0),
            name: name.into(),
        }) else {
            panic!("make_file refused");
        };
        let Response::UploadBegun { upload, .. } = self.call(Request::BeginUpload {
            volume: self.volume,
            node,
            hash: Sha1::digest(data),
            size: data.len() as u64,
        }) else {
            panic!("begin_upload refused");
        };
        let (_, frame) = self.client.upload_chunk(upload, data).expect("fits");
        assert_eq!(self.exchange(&frame, &mut Vec::new()), Response::Ok);
        let committed = self.call(Request::CommitUpload { upload });
        assert!(matches!(committed, Response::UploadDone { .. }));
        let (_, frame) = self
            .client
            .request(Request::GetContent {
                volume: self.volume,
                node,
            })
            .expect("fits");
        let mut file = Vec::new();
        assert_eq!(self.exchange(&frame, &mut file), Response::ContentEnd);
        file
    }
}

/// One live 1 MiB upload and download through [`Loopback`], after a first
/// one of other bytes has grown the connections' receive buffers: what a
/// transfer costs on a connection in use.
fn live_transfer() -> Cost {
    let mut link = Loopback::new();
    let file = |seed: u8| -> Vec<u8> { (0..FILE).map(|i| (i % 251) as u8 ^ seed).collect() };
    let (warm, data) = (file(1), file(2));
    assert_eq!(link.round_trip("warm.bin", &warm), warm);
    let (back, cost) = measure(|| link.round_trip("file.bin", &data));
    assert_eq!(back, data);
    cost
}

/// Every row of the budget, measured, and the locks the month took.
fn measured_rows() -> (Vec<(&'static str, Cost)>, Locks) {
    let (records, engine, [metastore, blobstore, rest], locks) = quick_month();
    let (report, fold) = measure(|| run_all(&records, &engine));
    assert_eq!(report.summary.records, records.len() as u64);
    let rows = vec![
        ("analytics: engine::run_all over the quick month", fold),
        ("held: the metastore after the quick month", metastore),
        ("held: the blobstore after the quick month", blobstore),
        ("held: the rest of the back end after the quick month", rest),
        (
            "live: one 1 MiB upload and download through the connections",
            live_transfer(),
        ),
    ];
    (rows, locks)
}

#[test]
fn costs_match_the_pinned_budget() {
    let (rows, locks) = measured_rows();
    assert_eq!(rows, BUDGET);
    assert_eq!(locks, LOCKS, "lock acquisitions per rank");
}
