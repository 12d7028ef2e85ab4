//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! hashing, protocol codec/framing, metadata-store RPCs, dedup lookups,
//! trace serialization, analytics kernels — plus the ablation benches
//! DESIGN.md calls out (latency-tail on/off, tiering sweep).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use u1_core::{ContentHash, NodeKind, RpcKind, Sha1, SimTime, UserId};
use u1_metastore::{LatencyModel, LatencyProfile, MetaStore, StoreConfig};

fn bench_sha1(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha1");
    for size in [1usize << 10, 1 << 20] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| Sha1::digest(std::hint::black_box(data)))
        });
    }
    g.finish();
}

fn bench_protocol(c: &mut Criterion) {
    use bytes::BytesMut;
    use u1_proto::codec;
    use u1_proto::frame::{encode_frame, FrameDecoder};
    use u1_proto::msg::{Message, Request};

    let msg = Message::Request {
        id: 42,
        req: Request::BeginUpload {
            volume: u1_core::VolumeId::new(7),
            node: u1_core::NodeId::new(99),
            hash: ContentHash::from_content_id(1),
            size: 12 << 20,
        },
    };
    let mut encoded = BytesMut::new();
    codec::encode(&msg, &mut encoded);

    let mut g = c.benchmark_group("protocol");
    g.bench_function("encode_begin_upload", |b| {
        b.iter(|| {
            let mut buf = BytesMut::with_capacity(64);
            codec::encode(std::hint::black_box(&msg), &mut buf);
            buf
        })
    });
    g.bench_function("decode_begin_upload", |b| {
        b.iter(|| codec::decode(std::hint::black_box(&encoded)).unwrap())
    });
    // A chunk message dominates upload wire time.
    let chunk = Message::Request {
        id: 43,
        req: Request::UploadChunk {
            upload: u1_core::UploadId::new(1),
            data: vec![0u8; 64 * 1024],
        },
    };
    g.throughput(Throughput::Bytes(64 * 1024));
    g.bench_function("encode_frame_64k_chunk", |b| {
        b.iter(|| {
            let mut body = BytesMut::with_capacity(64 * 1024 + 32);
            codec::encode(std::hint::black_box(&chunk), &mut body);
            let mut framed = BytesMut::with_capacity(body.len() + 4);
            encode_frame(&body, &mut framed).expect("chunk fits frame");
            framed
        })
    });
    let mut body = BytesMut::new();
    codec::encode(&chunk, &mut body);
    let mut framed = BytesMut::new();
    encode_frame(&body, &mut framed).expect("chunk fits frame");
    g.bench_function("frame_decode_64k_chunk", |b| {
        b.iter(|| {
            let mut dec = FrameDecoder::new();
            dec.extend(std::hint::black_box(&framed));
            let frame = dec.next_frame().unwrap().unwrap();
            codec::decode(&frame).unwrap()
        })
    });
    g.finish();
}

fn store_with_users(users: u64) -> MetaStore {
    let store = MetaStore::new(StoreConfig::default());
    for u in 1..=users {
        store.create_user(UserId::new(u), SimTime::ZERO).unwrap();
    }
    store
}

fn bench_metastore(c: &mut Criterion) {
    let mut g = c.benchmark_group("metastore");
    g.measurement_time(Duration::from_secs(2));

    // make_file + unlink cycle (write path).
    let store = store_with_users(16);
    let root = store.get_root(UserId::new(1)).unwrap().volume;
    let mut i = 0u64;
    g.bench_function("make_file_unlink_cycle", |b| {
        b.iter(|| {
            i += 1;
            let row = store
                .make_node(
                    UserId::new(1),
                    root,
                    None,
                    NodeKind::File,
                    &format!("bench{i}"),
                    SimTime::ZERO,
                )
                .unwrap();
            store
                .unlink(UserId::new(1), root, row.node, SimTime::ZERO)
                .unwrap()
        })
    });

    // get_delta over a populated volume (read path).
    let store = store_with_users(1);
    let root = store.get_root(UserId::new(1)).unwrap().volume;
    for i in 0..1_000 {
        store
            .make_node(
                UserId::new(1),
                root,
                None,
                NodeKind::File,
                &format!("f{i}"),
                SimTime::ZERO,
            )
            .unwrap();
    }
    g.bench_function("get_delta_tail_of_1k", |b| {
        b.iter(|| store.get_delta(UserId::new(1), root, 990).unwrap())
    });
    g.bench_function("get_from_scratch_1k", |b| {
        b.iter(|| store.get_from_scratch(UserId::new(1), root).unwrap())
    });

    // Dedup probe against a large content index.
    let store = store_with_users(1);
    let root = store.get_root(UserId::new(1)).unwrap().volume;
    for i in 0..100_000u64 {
        let node = store
            .make_node(
                UserId::new(1),
                root,
                None,
                NodeKind::File,
                &format!("c{i}"),
                SimTime::ZERO,
            )
            .unwrap();
        store
            .make_content(
                UserId::new(1),
                root,
                node.node,
                ContentHash::from_content_id(i),
                100,
                SimTime::ZERO,
            )
            .unwrap();
    }
    g.bench_function("dedup_probe_hit_100k_contents", |b| {
        b.iter(|| store.get_reusable_content(ContentHash::from_content_id(55_555), 100))
    });
    g.bench_function("dedup_probe_miss_100k_contents", |b| {
        b.iter(|| store.get_reusable_content(ContentHash::from_content_id(999_999_999), 100))
    });
    g.finish();
}

fn bench_contention(c: &mut Criterion) {
    use std::sync::atomic::{AtomicU64, Ordering};

    // N threads hammer ONE MetaStore with the commit cycle the parallel
    // driver produces per upload: make_node → make_content → dedup probe →
    // unlink. Total work is fixed, split across threads, so on a
    // multi-core host the striped contents index and sharded volume_owner
    // map let wall-clock fall with the thread count; before de-contention
    // the global write locks made this flat or worse.
    const OPS_PER_ITER: u64 = 2_000;
    let serial = AtomicU64::new(0);
    let mut g = c.benchmark_group("metastore_contention");
    g.measurement_time(Duration::from_secs(2));
    for threads in [1usize, 2, 4] {
        // Four users per thread, mirroring the driver's per-shard client
        // partitioning: threads never share a user, but do share the
        // store-global tables.
        let users = 4 * threads as u64;
        let store = store_with_users(users);
        let roots: Vec<_> = (1..=users)
            .map(|u| store.get_root(UserId::new(u)).unwrap().volume)
            .collect();
        g.throughput(Throughput::Elements(OPS_PER_ITER));
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let base = serial.fetch_add(OPS_PER_ITER, Ordering::Relaxed);
                    std::thread::scope(|s| {
                        for t in 0..threads {
                            let store = &store;
                            let roots = &roots;
                            s.spawn(move || {
                                let per = OPS_PER_ITER / threads as u64;
                                for i in 0..per {
                                    let seq = base + t as u64 * per + i;
                                    let slot = t as u64 * 4 + i % 4;
                                    let user = UserId::new(slot + 1);
                                    let root = roots[slot as usize];
                                    let row = store
                                        .make_node(
                                            user,
                                            root,
                                            None,
                                            NodeKind::File,
                                            &format!("b{seq}"),
                                            SimTime::ZERO,
                                        )
                                        .unwrap();
                                    store
                                        .make_content(
                                            user,
                                            root,
                                            row.node,
                                            ContentHash::from_content_id(seq),
                                            100,
                                            SimTime::ZERO,
                                        )
                                        .unwrap();
                                    std::hint::black_box(store.get_reusable_content(
                                        ContentHash::from_content_id(seq),
                                        100,
                                    ));
                                    store.unlink(user, root, row.node, SimTime::ZERO).unwrap();
                                }
                            });
                        }
                    });
                })
            },
        );
    }
    // ListVolumes opens every active session, on a shard that hosts mostly
    // idle users: its cost must follow the caller's own volumes, not the
    // shard's population. Default store, 10 shards.
    for users_per_shard in [100u64, 10_000] {
        let store = store_with_users(users_per_shard * 10);
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(
            BenchmarkId::new("list_volumes_users_per_shard", users_per_shard),
            &store,
            |b, store| {
                let mut user = 0u64;
                b.iter(|| {
                    user = user % (users_per_shard * 10) + 1;
                    store.list_volumes(UserId::new(user)).unwrap()
                })
            },
        );
    }
    g.finish();
}

fn bench_latency_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("latency_model");
    let mut with_tail = LatencyModel::new(LatencyProfile::default(), 1);
    let mut no_tail = LatencyModel::new(LatencyProfile::default().no_tail(), 1);
    g.bench_function("sample_with_tail", |b| {
        b.iter(|| with_tail.sample(RpcKind::GetNode, 0))
    });
    // Ablation: what the sampler costs without the tail mixture.
    g.bench_function("sample_no_tail_ablation", |b| {
        b.iter(|| no_tail.sample(RpcKind::GetNode, 0))
    });
    g.finish();
}

fn bench_trace(c: &mut Criterion) {
    use u1_trace::{csvline, Payload, TraceRecord};
    let rec = TraceRecord::new(
        SimTime::from_secs(12345),
        u1_core::MachineId::new(3),
        u1_core::ProcessId::new(9),
        Payload::Storage {
            op: u1_core::ApiOpKind::Upload,
            session: u1_core::SessionId::new(17),
            user: UserId::new(4),
            volume: u1_core::VolumeId::new(2),
            node: Some(u1_core::NodeId::new(99)),
            kind: Some(NodeKind::File),
            size: 1_048_576,
            hash: Some(ContentHash::from_content_id(5)),
            ext: "jpg".into(),
            success: true,
            duration_us: 15_000,
        },
    );
    let line = csvline::to_line(&rec);
    let mut g = c.benchmark_group("trace");
    g.bench_function("csv_serialize_storage", |b| {
        b.iter(|| csvline::to_line(std::hint::black_box(&rec)))
    });
    // RPC lines are the majority of a trace (two in three of the paper month).
    let rpc_line = "8640012350,rpc,dal.get_user_data,shard3,u670,54744,o=1,q=163545";
    for (name, line) in [("storage", line.as_str()), ("rpc", rpc_line)] {
        g.bench_function(&format!("csv_parse_{name}"), |b| {
            b.iter(|| {
                csvline::from_line(
                    std::hint::black_box(line),
                    u1_core::MachineId::new(3),
                    u1_core::ProcessId::new(9),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

/// A representative record per payload family, for encode benches.
fn sample_records() -> Vec<(&'static str, u1_trace::TraceRecord)> {
    use u1_trace::{Payload, SessionEvent, TraceRecord};
    let storage = TraceRecord::new(
        SimTime::from_secs(12345),
        u1_core::MachineId::new(3),
        u1_core::ProcessId::new(9),
        Payload::Storage {
            op: u1_core::ApiOpKind::Upload,
            session: u1_core::SessionId::new(17),
            user: UserId::new(4),
            volume: u1_core::VolumeId::new(2),
            node: Some(u1_core::NodeId::new(99)),
            kind: Some(NodeKind::File),
            size: 1_048_576,
            hash: Some(ContentHash::from_content_id(5)),
            ext: "jpg".into(),
            success: true,
            duration_us: 15_000,
        },
    );
    let rpc = TraceRecord::new(
        SimTime::from_secs(12345),
        u1_core::MachineId::new(3),
        u1_core::ProcessId::new(9),
        Payload::Rpc {
            rpc: RpcKind::GetNode,
            shard: u1_core::ShardId::new(5),
            user: UserId::new(4),
            service_us: 903,
        },
    );
    let session = TraceRecord::new(
        SimTime::from_secs(12345),
        u1_core::MachineId::new(3),
        u1_core::ProcessId::new(9),
        Payload::Session {
            event: SessionEvent::Open,
            session: u1_core::SessionId::new(17),
            user: UserId::new(4),
        },
    );
    vec![("storage", storage), ("rpc", rpc), ("session", session)]
}

fn bench_trace_encode(c: &mut Criterion) {
    use u1_trace::csvline;
    let mut g = c.benchmark_group("trace_encode");
    for (name, rec) in sample_records() {
        // Allocation-free path: serialize into a reused buffer.
        let mut buf = String::with_capacity(160);
        g.bench_function(&format!("write_line_{name}"), |b| {
            b.iter(|| {
                buf.clear();
                csvline::write_line(std::hint::black_box(&rec), &mut buf).unwrap();
                buf.len()
            })
        });
        // Allocating wrapper, for the before/after comparison.
        g.bench_function(&format!("to_line_{name}"), |b| {
            b.iter(|| csvline::to_line(std::hint::black_box(&rec)))
        });
    }
    g.finish();
}

fn bench_sink_throughput(c: &mut Criterion) {
    use criterion::BatchSize;
    use std::sync::Arc;
    use u1_trace::{BufferedSink, MemorySink, TraceRecord, TraceSink};

    // A batch shaped like one partition-day: a few origins, each a
    // (t, seq)-monotone run, interleaved by origin blocks.
    const N: usize = 8_192;
    let proto = sample_records();
    let mut recs: Vec<TraceRecord> = Vec::with_capacity(N);
    for origin in 0u32..4 {
        for i in 0..(N / 4) {
            let mut r = proto[i % proto.len()].1.clone();
            r.t = SimTime::from_secs(i as u64);
            r.origin = origin + 1;
            r.seq = i as u64;
            recs.push(r);
        }
    }

    let mut g = c.benchmark_group("sink_throughput");
    g.measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("memory_record", |b| {
        b.iter_batched(
            || recs.clone(),
            |batch| {
                let sink = MemorySink::new();
                for r in batch {
                    sink.record(r);
                }
                sink
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("memory_record_batch_owned", |b| {
        b.iter_batched(
            || recs.clone(),
            |mut batch| {
                let sink = MemorySink::new();
                sink.record_batch_owned(&mut batch);
                sink
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("buffered_record_flush", |b| {
        b.iter_batched(
            || recs.clone(),
            |batch| {
                let inner = Arc::new(MemorySink::new());
                let sink = BufferedSink::new(Arc::clone(&inner));
                for r in batch {
                    sink.record(r);
                }
                sink.flush();
                inner
            },
            BatchSize::LargeInput,
        )
    });
    // The read side: k-way merge of the per-origin runs into canonical order.
    g.bench_function("take_sorted_merge_4_runs", |b| {
        b.iter_batched(
            || {
                let sink = MemorySink::new();
                let mut batch = recs.clone();
                sink.record_batch_owned(&mut batch);
                sink
            },
            |sink| sink.take_sorted(),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_stats_kernels(c: &mut Criterion) {
    use rand::{Rng, SeedableRng};
    use u1_analytics::stats;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    let samples: Vec<f64> = (0..100_000).map(|_| rng.gen_range(0.0..1e6)).collect();
    let series: Vec<f64> = (0..5_000)
        .map(|i| (i as f64 / 24.0).sin() + rng.gen_range(0.0..0.1))
        .collect();
    let pareto: Vec<f64> = (0..50_000)
        .map(|_| u1_core::rngx::sample_pareto(&mut rng, 1.5, 40.0))
        .collect();

    let mut g = c.benchmark_group("analytics");
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("ecdf_build_100k", |b| {
        b.iter(|| stats::Ecdf::new(std::hint::black_box(samples.clone())))
    });
    g.bench_function("gini_100k", |b| {
        b.iter(|| stats::lorenz(std::hint::black_box(&samples), 100).gini)
    });
    g.bench_function("acf_5k_x200", |b| {
        b.iter(|| stats::acf(std::hint::black_box(&series), 200))
    });
    g.bench_function("power_law_fit_50k", |b| {
        b.iter(|| stats::fit_power_law(std::hint::black_box(&pareto), 0.1).unwrap())
    });
    g.finish();
}

fn bench_tier_sweep(c: &mut Criterion) {
    use u1_blobstore::{tier, BlobStore, TierPolicy};
    let store = BlobStore::new();
    for i in 0..50_000u64 {
        store.put(
            ContentHash::from_content_id(i),
            1_000,
            None,
            SimTime::from_secs(i % 86_400),
        );
    }
    let policy = TierPolicy::default();
    c.bench_function("tier_sweep_50k_objects", |b| {
        b.iter(|| tier::tier_sweep(&store, &policy, SimTime::from_days(30)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_sha1, bench_protocol, bench_metastore, bench_contention,
              bench_latency_model, bench_trace, bench_trace_encode,
              bench_sink_throughput, bench_stats_kernels, bench_tier_sweep
}
criterion_main!(benches);
