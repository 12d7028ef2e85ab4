//! The layer ledger: each layer's public functions timed directly, on
//! seeded inputs sized like the workloads, where the benchmark cannot see
//! inside the program's own calls. Runs at the end of every traced run;
//! every measurement is a span, so the span file carries the same numbers.
//!
//! These are per-layer numbers only: they say where a change should show,
//! never whether it did — that is what the end-to-end metrics are for.

use crate::host;
use crate::metrics::Metrics;
use crate::pipeline::{canonical_sha, Shape, Simulation};
use crate::rng::Rng;
use crate::span::{ratio, Recorder};
use crate::timed::{Call, TimedTransport};
use crate::wire::{Bed, Script, FILE_BYTES};
use bytes::BytesMut;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};
use u1_auth::{AuthConfig, AuthService};
use u1_blobstore::BlobStore;
use u1_client::Transport;
use u1_core::{
    ContentHash, MachineId, NodeId, NodeKind, ProcessId, Sha1, SimTime, UserId, VolumeId,
};
use u1_metastore::{MetaStore, StoreConfig};
use u1_net::{Interest, Poller};
use u1_notify::Broker;
use u1_proto::codec;
use u1_proto::conn::{ClientConn, ServerConn, ServerEvent};
use u1_proto::frame::{encode_frame, FrameDecoder};
use u1_proto::msg::{Message, Request, Response};
use u1_trace::csvline;

const MIB: f64 = 1024.0 * 1024.0;

/// Times `f` as the span `name` covering `count` items; returns the span's
/// nanoseconds per item and what `f` returned.
fn timed<R>(rec: &mut Recorder, name: &str, count: u64, f: impl FnOnce() -> R) -> (f64, R) {
    let id = rec.enter(name);
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as f64;
    rec.exit(id, count);
    (ratio(ns, count as f64), out)
}

pub fn run(seed: u64, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
    let id = rec.enter("bench.ledger");
    server(seed, rec, out)?;
    metastore(seed, rec, out)?;
    blobstore(seed, rec, out)?;
    auth(seed, rec, out)?;
    notify(rec, out);
    proto(seed, rec, out)?;
    net(rec, out)?;
    pipeline(seed, rec, out)?;
    core(seed, rec, out);
    rec.exit(id, 1);
    // The wire's own cost: a ping-pong over the socket minus the same call
    // made in-process. Only a traced `wire_loopback` run has the first.
    let pingpong = out.get("wire.pingpong_ns_per_op");
    if pingpong > 0.0 {
        out.set(
            "wire.overhead_ns_per_op",
            pingpong - out.get("server.direct_meta_ns_per_op"),
        );
    }
    Ok(())
}

/// u1-server (api / session / rpc / cluster): the sat script and the bulk
/// transfers of `wire_loopback`, replayed through `DirectTransport`.
fn server(seed: u64, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
    let err = |e: u1_core::CoreError| format!("server ledger: {e}");
    let bed = Bed::new(1);
    let script = Script::plan(seed, 0, 100_000);
    let targets = bed.prepare(0, script.targets).map_err(err)?;
    let mut direct = TimedTransport::new(bed.direct(0).map_err(err)?);
    let id = rec.enter("server.direct_meta");
    for (i, step) in script.steps.iter().enumerate() {
        step.apply(i, &targets, &mut direct).map_err(err)?;
    }
    let meta = direct.stat(Call::Meta);
    rec.aggregate("server.direct_meta_call", meta.nanos, meta.calls);
    rec.exit(id, meta.calls);
    let span = rec.totals("server.direct_meta");
    out.set(
        "server.direct_meta_ns_per_op",
        ratio(meta.nanos as f64, meta.calls as f64),
    );
    out.set(
        "server.allocs_per_meta_op",
        ratio(span.allocs as f64, meta.calls as f64),
    );

    // Bulk: 1 MiB files with real bytes, as the wire workload moves them.
    let files = 32usize;
    let mut rng = Rng::derive(seed, "ledger-server-bulk");
    let mut nodes = Vec::new();
    for i in 0..files {
        let mut data = vec![0u8; FILE_BYTES];
        rng.fill(&mut data);
        let node = direct
            .make_node(targets.volume, None, NodeKind::File, &format!("blob-{i}"))
            .map_err(err)?
            .node;
        nodes.push((node, Sha1::digest(&data), data));
    }
    let id = rec.enter("server.direct_upload");
    for (node, hash, data) in &nodes {
        direct
            .upload(
                targets.volume,
                *node,
                *hash,
                FILE_BYTES as u64,
                Some(data.clone()),
            )
            .map_err(err)?;
    }
    rec.exit(id, (files * FILE_BYTES) as u64);
    let id = rec.enter("server.direct_download");
    for (node, hash, data) in &nodes {
        let (_, got, bytes) = direct.download(targets.volume, *node).map_err(err)?;
        if got != *hash || bytes.as_deref() != Some(data.as_slice()) {
            return Err("server ledger: a direct download did not match its upload".into());
        }
    }
    rec.exit(id, (files * FILE_BYTES) as u64);
    let per_mib = |c: Call| {
        ratio(
            direct.stat(c).nanos as f64,
            files as f64 * FILE_BYTES as f64 / MIB,
        )
    };
    out.set("server.direct_upload_ns_per_mib", per_mib(Call::Upload));
    out.set("server.direct_download_ns_per_mib", per_mib(Call::Download));
    direct.close();

    // Session open: token check, placement, session-table insert.
    let sessions = 5_000u64;
    let mut opened = TimedTransport::new(u1_client::DirectTransport::new(std::sync::Arc::clone(
        &bed.backend,
    )));
    let id = rec.enter("server.open_session");
    for _ in 0..sessions {
        opened.authenticate(bed.tokens[0]).map_err(err)?;
        opened.close();
    }
    rec.exit(id, sessions);
    let auth = opened.stat(Call::Authenticate);
    out.set(
        "server.open_session_ns",
        ratio(auth.nanos as f64, auth.calls as f64),
    );
    Ok(())
}

/// A populated metastore and the ids a script needs to address it.
struct Populated {
    store: MetaStore,
    users: Vec<(UserId, VolumeId, Vec<NodeId>)>,
}

fn populate(users: u64, nodes_per_user: usize) -> Result<Populated, String> {
    let err = |e: u1_core::CoreError| format!("metastore ledger: {e}");
    let store = MetaStore::new(StoreConfig::default());
    let now = SimTime::from_secs(1);
    let mut rows = Vec::with_capacity(users as usize);
    for u in 1..=users {
        let user = UserId::new(u);
        let root = store.create_user(user, now).map_err(err)?.root_volume;
        let mut nodes = Vec::with_capacity(nodes_per_user);
        for k in 0..nodes_per_user {
            let row = store
                .make_node(user, root, None, NodeKind::File, &format!("n{k}"), now)
                .map_err(err)?;
            nodes.push(row.node);
        }
        rows.push((user, root, nodes));
    }
    Ok(Populated { store, users: rows })
}

fn synthetic_hash(i: u64) -> ContentHash {
    let mut raw = [0u8; 20];
    raw[..8].copy_from_slice(&i.to_le_bytes());
    raw[8] = 0xC7;
    ContentHash(raw)
}

/// The wire/month write-heavy mix on random users: 25% make, 15% move,
/// 10% unlink, 30% delta near head, 20% make_content.
fn metastore_mix(p: &mut Populated, seed: u64, ops: u64) -> Result<(), String> {
    let err = |e: u1_core::CoreError| format!("metastore mix: {e}");
    let mut rng = Rng::derive(seed, "metastore-mix");
    let now = SimTime::from_secs(2);
    let n_users = p.users.len() as u64;
    for i in 0..ops {
        let (user, root, nodes) = &mut p.users[rng.below(n_users) as usize];
        match rng.below(100) {
            0..=24 => {
                let row = p
                    .store
                    .make_node(*user, *root, None, NodeKind::File, &format!("m{i}"), now)
                    .map_err(err)?;
                nodes.push(row.node);
            }
            25..=39 => {
                let node = nodes[rng.below(nodes.len() as u64) as usize];
                p.store
                    .move_node(*user, *root, node, None, &format!("v{i}"), now)
                    .map_err(err)?;
            }
            40..=49 if nodes.len() > 1 => {
                let node = nodes.swap_remove(rng.below(nodes.len() as u64) as usize);
                p.store.unlink(*user, *root, node, now).map_err(err)?;
            }
            50..=79 => {
                let head = p.store.get_root(*user).map_err(err)?.generation;
                let delta = p
                    .store
                    .get_delta(*user, *root, head.saturating_sub(rng.below(8)))
                    .map_err(err)?;
                black_box(delta);
            }
            _ => {
                let node = nodes[rng.below(nodes.len() as u64) as usize];
                p.store
                    .make_content(*user, *root, node, synthetic_hash(i), 4096, now)
                    .map_err(err)?;
            }
        }
    }
    Ok(())
}

fn metastore(seed: u64, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
    let err = |e: u1_core::CoreError| format!("metastore ledger: {e}");
    let mix_ops = 200_000u64;

    // Small: 2,500 users x 200 nodes — the dense month's resident state.
    let mut small = populate(2_500, 200)?;
    let (ns, mixed) = timed(rec, "metastore.mix_small", mix_ops, || {
        metastore_mix(&mut small, seed, mix_ops)
    });
    mixed?;
    out.set("metastore.mix_ns_per_op.small", ns);
    drop(small);

    // Wide: 40,000 users x 25 nodes — the same node count over 16x the users.
    let rss_before = host::rss_bytes();
    let mut wide = populate(40_000, 25)?;
    let live_nodes = 40_000u64 * 25;
    out.set(
        "metastore.bytes_per_node",
        ratio(
            host::rss_bytes().saturating_sub(rss_before) as f64,
            live_nodes as f64,
        ),
    );
    let (ns, mixed) = timed(rec, "metastore.mix_wide", mix_ops, || {
        metastore_mix(&mut wide, seed, mix_ops)
    });
    mixed?;
    out.set("metastore.mix_ns_per_op.wide", ns);
    out.set(
        "metastore.allocs_per_op",
        ratio(
            rec.totals("metastore.mix_wide").allocs as f64,
            mix_ops as f64,
        ),
    );

    // The five calls one at a time, at the wide shape, on random users.
    let n = 50_000u64;
    let now = SimTime::from_secs(3);
    let mut rng = Rng::derive(seed, "metastore-single");
    let picks: Vec<usize> = (0..n).map(|_| rng.below(40_000) as usize).collect();
    let mut made: Vec<(usize, NodeId)> = Vec::with_capacity(n as usize);
    let store = &wide.store;
    let users = &wide.users;
    type Done = u1_core::CoreResult<()>;

    let (ns, done) = timed(rec, "metastore.make_node", n, || -> Done {
        for (i, &u) in picks.iter().enumerate() {
            let (user, root, _) = &users[u];
            let name = format!("s{i}");
            let row = store.make_node(*user, *root, None, NodeKind::File, &name, now)?;
            made.push((u, row.node));
        }
        Ok(())
    });
    done.map_err(err)?;
    out.set("metastore.make_node_ns", ns);
    let (ns, done) = timed(rec, "metastore.get_delta", n, || -> Done {
        for &u in &picks {
            let (user, root, _) = &users[u];
            let head = store.get_root(*user)?.generation;
            black_box(store.get_delta(*user, *root, head.saturating_sub(4))?);
        }
        Ok(())
    });
    done.map_err(err)?;
    out.set("metastore.get_delta_ns", ns);
    let (ns, done) = timed(rec, "metastore.make_content", n, || -> Done {
        for (i, &(u, node)) in made.iter().enumerate() {
            let (user, root, _) = &users[u];
            let hash = synthetic_hash(1 << 40 | i as u64);
            store.make_content(*user, *root, node, hash, 4096, now)?;
        }
        Ok(())
    });
    done.map_err(err)?;
    out.set("metastore.make_content_ns", ns);
    let (ns, done) = timed(rec, "metastore.move_node", n, || -> Done {
        for (i, &(u, node)) in made.iter().enumerate() {
            let (user, root, _) = &users[u];
            store.move_node(*user, *root, node, None, &format!("r{i}"), now)?;
        }
        Ok(())
    });
    done.map_err(err)?;
    out.set("metastore.move_node_ns", ns);
    let (ns, done) = timed(rec, "metastore.unlink", n, || -> Done {
        for &(u, node) in &made {
            let (user, root, _) = &users[u];
            store.unlink(*user, *root, node, now)?;
        }
        Ok(())
    });
    done.map_err(err)?;
    out.set("metastore.unlink_ns", ns);
    Ok(())
}

fn blobstore(seed: u64, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
    let store = BlobStore::new();
    let now = SimTime::from_secs(1);
    let mut rng = Rng::derive(seed, "ledger-blobs");
    let parts = 32u64;
    let blobs: Vec<(ContentHash, Vec<u8>)> = (0..parts)
        .map(|i| {
            let mut data = vec![0u8; FILE_BYTES];
            rng.fill(&mut data);
            (synthetic_hash(i), data)
        })
        .collect();

    // Real 1 MiB parts through the multipart path, then read back.
    let mut ok = true;
    let uploads: Vec<Vec<u8>> = blobs.iter().map(|(_, d)| d.clone()).collect();
    let (ns, ()) = timed(rec, "blobstore.put", parts, || {
        for ((hash, _), data) in blobs.iter().zip(uploads) {
            let mp = store.initiate_multipart(now);
            ok &= store.upload_part(mp, FILE_BYTES as u64, Some(data)).is_ok();
            ok &= store.complete_multipart(mp, *hash, now).is_ok();
        }
    });
    out.set("blobstore.put_ns_per_mib", ns * MIB / FILE_BYTES as f64);
    let (ns, ()) = timed(rec, "blobstore.get", parts, || {
        for (hash, data) in &blobs {
            ok &= store
                .get(*hash, now)
                .and_then(|(_, bytes)| bytes)
                .is_some_and(|b| b == *data);
        }
    });
    out.set("blobstore.get_ns_per_mib", ns * MIB / FILE_BYTES as f64);

    // Size-only parts: what the month workloads put through the store.
    let sparse = 50_000u64;
    let (ns, ()) = timed(rec, "blobstore.sparse_part", sparse, || {
        for i in 0..sparse {
            let mp = store.initiate_multipart(now);
            ok &= store.upload_part(mp, u1_blobstore::PART_SIZE, None).is_ok();
            ok &= store
                .complete_multipart(mp, synthetic_hash(1 << 32 | i), now)
                .is_ok();
        }
    });
    out.set("blobstore.sparse_part_ns", ns);
    if ok {
        Ok(())
    } else {
        Err("blobstore ledger: a put, get or part failed".into())
    }
}

fn auth(seed: u64, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
    let service = AuthService::new(
        AuthConfig {
            transient_failure_rate: 0.0,
            token_ttl: None,
        },
        seed,
    );
    let now = SimTime::from_secs(1);
    let tokens: Vec<_> = (1..=40_000u64)
        .map(|u| service.register(UserId::new(u), now))
        .collect();
    let lookups = 200_000u64;
    let mut rng = Rng::derive(seed, "ledger-auth");
    let picks: Vec<usize> = (0..lookups)
        .map(|_| rng.below(tokens.len() as u64) as usize)
        .collect();
    let mut wrong = 0u64;
    let (ns, ()) = timed(rec, "auth.token_lookup", lookups, || {
        for &p in &picks {
            let found = service.get_user_id_from_token(tokens[p], now);
            wrong += u64::from(found != Ok(UserId::new(p as u64 + 1)));
        }
    });
    out.set("auth.token_lookup_ns", ns);
    if wrong == 0 {
        Ok(())
    } else {
        Err(format!(
            "auth ledger: {wrong} token lookups returned the wrong user"
        ))
    }
}

fn notify(rec: &mut Recorder, out: &mut Metrics) {
    let broker: Broker<u64> = Broker::new();
    let subscribers: Vec<_> = (0..64).map(|_| broker.subscribe()).collect();
    let publishes = 20_000u64;
    let from = subscribers[0].0;
    let (ns, ()) = timed(rec, "notify.publish", publishes, || {
        for i in 0..publishes {
            broker.publish_except(Some(from), i);
            // Keep the queues short, as the API processes do by pumping the
            // broker after every publish.
            if i % 64 == 63 {
                for (_, rx) in &subscribers {
                    black_box(u1_notify::drain(rx));
                }
            }
        }
    });
    out.set("notify.publish_ns", ns);
    let stats = broker.stats();
    out.set(
        "notify.deliveries_per_publish",
        ratio(stats.delivered as f64, stats.published as f64),
    );
}

fn proto(seed: u64, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
    let err = |e: u1_proto::ConnError| format!("proto ledger: {e}");
    // Small messages: a MakeFile request and its NodeCreated reply through
    // the two connection state machines, encode and decode timed apart.
    let n = 100_000u64;
    let mut client = ClientConn::new();
    let mut server = ServerConn::new();
    server.mark_authenticated(u1_core::SessionId::new(1), UserId::new(1));
    let (mut encode_ns, mut decode_ns) = (0u64, 0u64);
    let ns_since = |t: Instant| t.elapsed().as_nanos() as u64;
    let id = rec.enter("proto.small_exchange");
    for i in 0..n {
        let request = Request::MakeFile {
            volume: VolumeId::new(7),
            parent: NodeId::new(0),
            name: format!("made-{i}.dat"),
        };
        let t = Instant::now();
        let (req_id, bytes) = client.request(request).map_err(err)?;
        encode_ns += ns_since(t);
        let t = Instant::now();
        let events = server.on_bytes(&bytes).map_err(err)?;
        decode_ns += ns_since(t);
        if !matches!(events.as_slice(), [ServerEvent::Request { id, .. }] if *id == req_id) {
            return Err("proto ledger: the request did not survive the round trip".into());
        }
        let reply = Response::NodeCreated {
            node: NodeId::new(i + 1),
            generation: i + 1,
        };
        let t = Instant::now();
        let bytes = server.respond(req_id, reply).map_err(err)?;
        encode_ns += ns_since(t);
        let t = Instant::now();
        let events = client.on_bytes(&bytes).map_err(err)?;
        decode_ns += ns_since(t);
        black_box(events);
    }
    rec.aggregate("proto.small_encode", encode_ns, 2 * n);
    rec.aggregate("proto.small_decode", decode_ns, 2 * n);
    rec.exit(id, 2 * n);
    out.set(
        "proto.encode_small_ns",
        ratio(encode_ns as f64, 2.0 * n as f64),
    );
    out.set(
        "proto.decode_small_ns",
        ratio(decode_ns as f64, 2.0 * n as f64),
    );
    out.set(
        "proto.allocs_per_small_msg",
        ratio(
            rec.totals("proto.small_exchange").allocs as f64,
            2.0 * n as f64,
        ),
    );

    // Chunks: a 1 MiB UploadChunk through codec + framing and back.
    let chunks = 64u64;
    let mut data = vec![0u8; FILE_BYTES];
    Rng::derive(seed, "ledger-chunk").fill(&mut data);
    let messages: Vec<Message> = (0..chunks)
        .map(|i| Message::Request {
            id: i as u32 + 1,
            req: Request::UploadChunk {
                upload: u1_core::UploadId::new(i + 1),
                data: data.clone(),
            },
        })
        .collect();
    let mut frames = Vec::with_capacity(chunks as usize);
    let mut failed = false;
    let (ns, ()) = timed(
        rec,
        "proto.chunk_encode",
        chunks * FILE_BYTES as u64,
        || {
            for msg in &messages {
                let mut body = BytesMut::new();
                codec::encode(msg, &mut body);
                let mut framed = BytesMut::with_capacity(body.len() + 4);
                failed |= encode_frame(&body, &mut framed).is_err();
                frames.push(framed.freeze());
            }
        },
    );
    out.set("proto.chunk_encode_ns_per_mib", ns * MIB);
    let (ns, ()) = timed(
        rec,
        "proto.chunk_decode",
        chunks * FILE_BYTES as u64,
        || {
            let mut decoder = FrameDecoder::new();
            for (frame, sent) in frames.iter().zip(&messages) {
                // As the reactor sees it: the frame arrives in 64 KiB reads.
                for piece in frame.chunks(64 * 1024) {
                    decoder.extend(piece);
                }
                match decoder.next_frame() {
                    Ok(Some(body)) => failed |= codec::decode(&body).ok().as_ref() != Some(sent),
                    _ => failed = true,
                }
            }
        },
    );
    out.set("proto.chunk_decode_ns_per_mib", ns * MIB);
    let (enc, dec) = (
        rec.totals("proto.chunk_encode"),
        rec.totals("proto.chunk_decode"),
    );
    out.set(
        "proto.alloc_bytes_per_chunk_byte",
        ratio((enc.alloc_bytes + dec.alloc_bytes) as f64, enc.count as f64),
    );
    if failed {
        return Err("proto ledger: a chunk did not survive encode and decode".into());
    }
    Ok(())
}

/// u1-net: one byte over a socket pair, woken through the poller.
fn net(rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
    let io = |e: std::io::Error| format!("net ledger: {e}");
    let (mut tx, mut rx) = UnixStream::pair().map_err(io)?;
    let poller = Poller::new().map_err(io)?;
    poller
        .register(rx.as_raw_fd(), 1, Interest::READ)
        .map_err(io)?;
    let wakes = 50_000u64;
    let mut events = Vec::new();
    let mut byte = [0u8; 1];
    let (ns, woken) = timed(rec, "net.poll_wake", wakes, || {
        for _ in 0..wakes {
            events.clear();
            tx.write_all(&[1])?;
            poller.wait(&mut events, Some(Duration::from_secs(1)))?;
            rx.read_exact(&mut byte)?;
        }
        Ok(())
    });
    out.set("net.poll_wake_ns", ns);
    woken.map_err(io)
}

/// u1-trace, u1-analytics and the parallel driver, on a small month of
/// their own (400 users x 10 days).
fn pipeline(seed: u64, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String> {
    let shape = Shape {
        users: 400,
        days: 10,
    };
    let one = Simulation::prepare(&shape.config(1), seed, false);
    let started = Instant::now();
    let one = one.run();
    let one_s = started.elapsed().as_secs_f64();
    let records = one.take_sorted();
    let n = records.len() as u64;

    let mut lines: Vec<String> = Vec::with_capacity(records.len());
    let (ns, ()) = timed(rec, "trace.encode", n, || {
        for r in &records {
            let mut line = String::with_capacity(160);
            let _ = csvline::write_line_stamped(r, &mut line);
            lines.push(line);
        }
    });
    out.set("trace.encode_ns_per_record", ns);
    let mut malformed = 0u64;
    let (ns, ()) = timed(rec, "trace.parse", n, || {
        for line in &lines {
            match csvline::from_line(line, MachineId::new(0), ProcessId::new(1)) {
                Ok(r) => {
                    black_box(r);
                }
                Err(_) => malformed += 1,
            }
        }
    });
    out.set("trace.parse_ns_per_record", ns);
    if malformed > 0 {
        return Err(format!(
            "trace ledger: {malformed} encoded lines did not parse"
        ));
    }

    let threads = host::nproc();
    let serial = serde_json::to_string(&u1_analytics::engine::run_all(&records, &one.engine))
        .map_err(|e| e.to_string())?;
    let mut chunked = String::new();
    let (ns, ()) = timed(rec, "analytics.run_all_chunked", n, || {
        let report = u1_analytics::engine::run_all_chunked(&records, &one.engine, threads);
        chunked = serde_json::to_string(&report).unwrap_or_default();
    });
    out.set("analytics.chunked_ns_per_record", ns);
    if chunked != serial {
        return Err("analytics ledger: the chunked report differs from the serial one".into());
    }

    let (ns, ()) = timed(rec, "core.canonical_hash", n, || {
        black_box(canonical_sha(&records));
    });
    out.set("core.canonical_hash_ns_per_record", ns);

    // The same month on two workers: what the shard-parallel driver buys on
    // this host (bounded by its CPUs; see the host stamp).
    let id = rec.enter("workload.run_w2");
    let two = Simulation::prepare(&shape.config(2), seed, false);
    let started = Instant::now();
    let two = two.run();
    let two_s = started.elapsed().as_secs_f64();
    rec.exit(id, two.report.ops_executed);
    out.set("workload.w2_speedup", ratio(one_s, two_s));
    if two.report != one.report {
        return Err("workload ledger: the report depends on the worker count".into());
    }
    Ok(())
}

fn core(seed: u64, rec: &mut Recorder, out: &mut Metrics) {
    let mut data = vec![0u8; 64 * FILE_BYTES];
    Rng::derive(seed, "ledger-sha1").fill(&mut data);
    let id = rec.enter("core.sha1");
    let started = Instant::now();
    let mut sha = Sha1::new();
    sha.update(&data);
    black_box(sha.finalize());
    let secs = started.elapsed().as_secs_f64();
    rec.exit(id, data.len() as u64);
    out.set("core.sha1_mib_per_s", ratio(data.len() as f64 / MIB, secs));
}
