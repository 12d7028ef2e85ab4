//! Property tests for the wire format, codec and framing: arbitrary
//! messages survive encode→frame→chunked-decode round trips, arbitrary
//! junk bytes never panic the decoder, and the single-buffer framing and
//! borrowed-slice decoding the connections use are indistinguishable, byte
//! for byte and event for event, from the two-step reference
//! (`codec::encode` + `encode_frame`, `next_frame` + `codec::decode`).

// Test-only code: the reference decoder helper may `expect`, and a
// `let … else` on a message built two lines above is `unreachable!`.
// clippy.toml's in-test allowances cover neither (a helper outside
// `#[test]`, and `unreachable` has no in-test option).
#![allow(clippy::expect_used, clippy::unreachable)]

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use u1_core::{ContentHash, NodeId, NodeKind, SessionId, UploadId, UserId, VolumeId, VolumeKind};
use u1_proto::codec;
use u1_proto::conn::{ClientConn, ClientEvent, ConnError, Received, ServerConn, ServerEvent};
use u1_proto::frame::{encode_frame, FrameDecoder, FrameError, MAX_FRAME_LEN};
use u1_proto::msg::{Message, NodeInfo, Push, Request, Response, VolumeInfo};

fn arb_hash() -> impl Strategy<Value = ContentHash> {
    any::<u64>().prop_map(ContentHash::from_content_id)
}

fn arb_volume_kind() -> impl Strategy<Value = VolumeKind> {
    prop_oneof![
        Just(VolumeKind::Root),
        Just(VolumeKind::UserDefined),
        Just(VolumeKind::Shared)
    ]
}

fn arb_name() -> impl Strategy<Value = String> {
    ".{0,40}"
}

fn arb_request() -> impl Strategy<Value = Request> {
    let vol = any::<u64>().prop_map(VolumeId::new);
    let node = any::<u64>().prop_map(NodeId::new);
    let upload = any::<u64>().prop_map(UploadId::new);
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64)
            .prop_map(|token| Request::Authenticate { token }),
        proptest::collection::vec(arb_name(), 0..5).prop_map(|caps| Request::QuerySetCaps { caps }),
        Just(Request::ListVolumes),
        Just(Request::ListShares),
        arb_name().prop_map(|name| Request::CreateUdf { name }),
        vol.clone()
            .prop_map(|volume| Request::DeleteVolume { volume }),
        (vol.clone(), node.clone(), arb_name()).prop_map(|(volume, parent, name)| {
            Request::MakeFile {
                volume,
                parent,
                name,
            }
        }),
        (vol.clone(), node.clone(), arb_name()).prop_map(|(volume, parent, name)| {
            Request::MakeDir {
                volume,
                parent,
                name,
            }
        }),
        (vol.clone(), node.clone()).prop_map(|(volume, node)| Request::Unlink { volume, node }),
        (vol.clone(), node.clone(), node.clone(), arb_name()).prop_map(
            |(volume, node, new_parent, new_name)| Request::Move {
                volume,
                node,
                new_parent,
                new_name,
            }
        ),
        (vol.clone(), any::<u64>()).prop_map(|(volume, from_generation)| Request::GetDelta {
            volume,
            from_generation,
        }),
        vol.clone()
            .prop_map(|volume| Request::RescanFromScratch { volume }),
        (vol.clone(), node.clone(), arb_hash(), any::<u64>()).prop_map(
            |(volume, node, hash, size)| Request::BeginUpload {
                volume,
                node,
                hash,
                size,
            }
        ),
        (
            upload.clone(),
            proptest::collection::vec(any::<u8>(), 0..256)
        )
            .prop_map(|(upload, data)| Request::UploadChunk { upload, data }),
        upload
            .clone()
            .prop_map(|upload| Request::ResumeUpload { upload }),
        upload
            .clone()
            .prop_map(|upload| Request::CommitUpload { upload }),
        (upload.clone(), any::<u64>())
            .prop_map(|(upload, len)| Request::UploadChunkSparse { upload, len }),
        upload.prop_map(|upload| Request::CancelUpload { upload }),
        (vol, node).prop_map(|(volume, node)| Request::GetContent { volume, node }),
        Just(Request::Ping),
        Just(Request::Bye),
    ]
}

fn arb_node_info() -> impl Strategy<Value = NodeInfo> {
    (
        any::<u64>(),
        any::<bool>(),
        proptest::option::of(any::<u64>()),
        arb_name(),
        any::<u64>(),
        proptest::option::of(arb_hash()),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(node, is_file, parent, name, size, hash, generation, is_dead)| NodeInfo {
                node: NodeId::new(node),
                kind: if is_file {
                    NodeKind::File
                } else {
                    NodeKind::Directory
                },
                parent: parent.map(NodeId::new),
                name: name.into(),
                size,
                hash,
                generation,
                is_dead,
            },
        )
}

fn arb_volume_info() -> impl Strategy<Value = VolumeInfo> {
    (
        any::<u64>(),
        arb_volume_kind(),
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        any::<u64>(),
    )
        .prop_map(|(v, kind, generation, owner, node_count)| VolumeInfo {
            volume: VolumeId::new(v),
            kind,
            generation,
            owner: owner.map(UserId::new),
            node_count,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        (arb_name(), arb_name()).prop_map(|(code, message)| Response::Error { code, message }),
        (any::<u64>(), any::<u64>()).prop_map(|(s, u)| Response::AuthOk {
            session: SessionId::new(s),
            user: UserId::new(u),
        }),
        proptest::collection::vec(arb_name(), 0..4)
            .prop_map(|accepted| Response::Capabilities { accepted }),
        proptest::collection::vec(arb_volume_info(), 0..8)
            .prop_map(|volumes| Response::Volumes { volumes }),
        (any::<u64>(), any::<u64>()).prop_map(|(v, g)| Response::VolumeCreated {
            volume: VolumeId::new(v),
            generation: g,
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(n, g)| Response::NodeCreated {
            node: NodeId::new(n),
            generation: g,
        }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(arb_node_info(), 0..6)
        )
            .prop_map(|(v, g, nodes)| Response::Delta {
                volume: VolumeId::new(v),
                generation: g,
                nodes,
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(u, offset)| Response::UploadBegun {
            upload: UploadId::new(u),
            offset,
        }),
        (any::<u64>(), any::<u64>(), arb_hash()).prop_map(|(n, g, hash)| Response::UploadDone {
            node: NodeId::new(n),
            generation: g,
            hash,
        }),
        (any::<u64>(), arb_hash()).prop_map(|(size, hash)| Response::ContentBegin { size, hash }),
        proptest::collection::vec(any::<u8>(), 0..512)
            .prop_map(|data| Response::ContentChunk { data }),
        Just(Response::ContentEnd),
        Just(Response::Pong),
    ]
}

fn arb_push() -> impl Strategy<Value = Push> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(v, g)| Push::VolumeChanged {
            volume: VolumeId::new(v),
            generation: g,
        }),
        (any::<u64>(), arb_volume_kind()).prop_map(|(v, kind)| Push::VolumeCreated {
            volume: VolumeId::new(v),
            kind,
        }),
        any::<u64>().prop_map(|v| Push::VolumeDeleted {
            volume: VolumeId::new(v),
        }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u32>(), arb_request()).prop_map(|(id, req)| Message::Request { id, req }),
        (any::<u32>(), arb_response()).prop_map(|(id, resp)| Message::Response { id, resp }),
        arb_push().prop_map(Message::Push),
    ]
}

/// The reference framing: body first, then wrapped in a frame.
fn two_step_frame(msg: &Message) -> Result<Bytes, FrameError> {
    let mut body = BytesMut::new();
    codec::encode(msg, &mut body);
    let mut framed = BytesMut::new();
    encode_frame(&body, &mut framed)?;
    Ok(framed.freeze())
}

/// The reference decoding of a whole stream: copy each frame out, decode it.
fn two_step_decode(stream: &[u8]) -> Vec<Message> {
    let mut dec = FrameDecoder::new();
    dec.extend(stream);
    let mut out = Vec::new();
    while let Some(frame) = dec.next_frame().expect("frame") {
        out.push(codec::decode(&frame).expect("decode"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn single_buffer_framing_matches_the_two_step_encoding(msg in arb_message()) {
        let reference = two_step_frame(&msg).expect("small messages fit");
        prop_assert_eq!(codec::encode_framed(&msg).expect("fits"), reference.clone());
        // And through the connections, which is how frames are really made.
        match msg {
            Message::Request { req, .. } => {
                let (id, bytes) = ClientConn::new().request(req.clone()).expect("fits");
                prop_assert_eq!(bytes, two_step_frame(&Message::Request { id, req }).expect("fits"));
            }
            Message::Response { id, resp } => {
                prop_assert_eq!(ServerConn::new().respond(id, resp).expect("fits"), reference);
            }
            Message::Push(push) => {
                prop_assert_eq!(ServerConn::new().push(push).expect("fits"), reference);
            }
        }
    }

    #[test]
    fn message_codec_round_trips(msg in arb_message()) {
        let mut buf = BytesMut::new();
        codec::encode(&msg, &mut buf);
        let back = codec::decode(&buf).expect("decode");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn framed_messages_survive_arbitrary_chunking(
        msgs in proptest::collection::vec(arb_message(), 1..8),
        chunk_size in 1usize..64,
    ) {
        let mut stream = BytesMut::new();
        for msg in &msgs {
            let mut body = BytesMut::new();
            codec::encode(msg, &mut body);
            encode_frame(&body, &mut stream).expect("frame");
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(chunk_size) {
            dec.extend(chunk);
            while let Some(frame) = dec.next_frame().expect("frame") {
                decoded.push(codec::decode(&frame).expect("decode"));
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    /// Feeding a multi-frame stream to the connections in two pieces, cut
    /// at *every* byte, yields the events the copy-out reference decodes.
    #[test]
    fn borrowed_slice_decoding_matches_the_reference_at_every_split_point(
        reqs in proptest::collection::vec(arb_request(), 1..6),
        resps in proptest::collection::vec(arb_response(), 1..6),
    ) {
        // Client -> server.
        let mut client = ClientConn::new();
        let mut upstream = Vec::new();
        for req in &reqs {
            upstream.extend_from_slice(&client.request(req.clone()).expect("fits").1);
        }
        let expected: Vec<ServerEvent> = two_step_decode(&upstream)
            .into_iter()
            .map(|msg| match msg {
                Message::Request { id, req } => ServerEvent::Request { id, req },
                other => panic!("a client only sends requests, got {other:?}"),
            })
            .collect();
        prop_assert_eq!(expected.len(), reqs.len());
        for split in 0..=upstream.len() {
            let mut server = ServerConn::new();
            server.mark_authenticated(SessionId::new(1), UserId::new(1));
            let mut events = server.on_bytes(&upstream[..split]).expect("first piece");
            events.extend(server.on_bytes(&upstream[split..]).expect("second piece"));
            prop_assert_eq!(&events, &expected, "request stream split at byte {}", split);
        }

        // Server -> client: replies to request 1 (content chunks keep it
        // pending), a push in between, a final reply last.
        let server = ServerConn::new();
        let mut downstream = Vec::new();
        for resp in resps.iter().filter(|r| !r.is_final()) {
            downstream.extend_from_slice(&server.respond(1, resp.clone()).expect("fits"));
        }
        let push = Push::VolumeDeleted { volume: VolumeId::new(9) };
        downstream.extend_from_slice(&server.push(push).expect("fits"));
        downstream.extend_from_slice(&server.respond(1, Response::Pong).expect("fits"));
        let expected: Vec<ClientEvent> = two_step_decode(&downstream)
            .into_iter()
            .map(|msg| match msg {
                Message::Response { id, resp } => ClientEvent::Response { id, resp },
                Message::Push(push) => ClientEvent::Push(push),
                other => panic!("a server never sends {other:?}"),
            })
            .collect();
        for split in 0..=downstream.len() {
            let mut client = ClientConn::new();
            let (id, _) = client.request(Request::Ping).expect("fits");
            prop_assert_eq!(id, 1);
            let mut events = client.on_bytes(&downstream[..split]).expect("first piece");
            events.extend(client.on_bytes(&downstream[split..]).expect("second piece"));
            prop_assert_eq!(&events, &expected, "reply stream split at byte {}", split);
            prop_assert_eq!(client.pending_count(), 0);
        }
    }

    #[test]
    fn decoder_never_panics_on_junk(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Whatever happens, it must be a clean Result, not a panic.
        let _ = codec::decode(&junk);
        let mut dec = FrameDecoder::new();
        dec.extend(&junk);
        while let Ok(Some(frame)) = dec.next_frame() {
            let _ = codec::decode(&frame);
        }
    }

    #[test]
    fn corrupting_one_byte_never_panics(msg in arb_message(), pos_seed in any::<usize>(), new_byte in any::<u8>()) {
        let mut buf = BytesMut::new();
        codec::encode(&msg, &mut buf);
        if !buf.is_empty() {
            let pos = pos_seed % buf.len();
            buf[pos] = new_byte;
            let _ = codec::decode(&buf); // may fail, may decode to another message; must not panic
        }
    }
}

/// A `GetContent` answer to request 1 as the server frames it: begin,
/// `chunks` with `pushes` interleaved (each after the chunk its index
/// names), end, then what `stray` adds — nothing (0), a chunk for request 2,
/// which was never sent (1), or a chunk for request 1 after its end (2).
fn content_stream(chunks: &[Vec<u8>], pushes: &[(usize, Push)], stray: u8) -> Vec<u8> {
    let server = ServerConn::new();
    let mut stream = Vec::new();
    let begin = Response::ContentBegin {
        size: chunks.iter().map(|c| c.len() as u64).sum(),
        hash: ContentHash::from_content_id(7),
    };
    stream.extend_from_slice(&server.respond(1, begin).expect("fits"));
    for (i, chunk) in chunks.iter().enumerate() {
        stream.extend_from_slice(&server.content_chunk(1, chunk).expect("fits"));
        for (_, push) in pushes.iter().filter(|(at, _)| *at == i) {
            stream.extend_from_slice(&server.push(push.clone()).expect("fits"));
        }
    }
    stream.extend_from_slice(&server.respond(1, Response::ContentEnd).expect("fits"));
    if stray > 0 {
        let id = if stray == 1 { 2 } else { 1 };
        stream.extend_from_slice(&server.content_chunk(id, b"stray").expect("fits"));
    }
    stream
}

/// `stream` in pieces, cut at every position in `cuts` (modulo its length).
fn pieces<'a>(stream: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    at.extend([0, stream.len()]);
    at.sort_unstable();
    at.dedup();
    at.windows(2).map(|w| &stream[w[0]..w[1]]).collect()
}

/// A client with `GetContent` pending as request 1.
fn downloading_client() -> ClientConn {
    let mut client = ClientConn::new();
    let (id, _) = client
        .request(Request::GetContent {
            volume: VolumeId::new(1),
            node: NodeId::new(2),
        })
        .expect("fits");
    assert_eq!(id, 1);
    client
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A content stream cut at arbitrary byte boundaries: the payload
    /// `on_bytes_with` streams out of the receive buffer is the
    /// concatenation of the chunks `on_bytes` reports, every other event is
    /// the same on both, and a chunk for a request that is not pending is
    /// the same protocol error on both.
    #[test]
    fn streamed_content_is_the_collected_chunks_at_any_cuts(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..3000), 0..6),
        pushes in proptest::collection::vec((0usize..6, arb_push()), 0..4),
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
        stray in 0u8..3,
    ) {
        let stream = content_stream(&chunks, &pushes, stray);
        let pieces = pieces(&stream, &cuts);

        let mut client = downloading_client();
        let collected = pieces
            .iter()
            .try_fold(Vec::new(), |mut events, piece| {
                events.extend(client.on_bytes(piece)?);
                Ok::<_, ConnError>(events)
            });

        let mut client = downloading_client();
        let (mut payload, mut others) = (Vec::new(), Vec::new());
        let streamed = pieces.iter().try_for_each(|piece| {
            client.on_bytes_with(piece, |received| match received {
                Received::Chunk { id, data } => {
                    assert_eq!(id, 1);
                    payload.extend_from_slice(data);
                }
                Received::Event(event) => others.push(event),
            })
        });

        if stray > 0 {
            let unknown = Err(ConnError::Protocol("response to unknown request id"));
            prop_assert_eq!(collected.map(drop), unknown.clone());
            prop_assert_eq!(streamed, unknown);
            return Ok(());
        }
        let collected = collected.expect("a well-formed stream");
        streamed.expect("a well-formed stream");
        let mut chunked = Vec::new();
        let mut rest = Vec::new();
        for event in collected {
            match event {
                ClientEvent::Response { resp: Response::ContentChunk { data }, .. } => {
                    chunked.extend(data);
                }
                other => rest.push(other),
            }
        }
        prop_assert_eq!(&payload, &chunked);
        prop_assert_eq!(payload, chunks.concat());
        prop_assert_eq!(&others, &rest);
        prop_assert_eq!(others.len(), 2 + pushes.iter().filter(|(at, _)| *at < chunks.len()).count());
        prop_assert_eq!(client.pending_count(), 0);
    }

    /// On any bytes, the borrowing decoder fails where `decode` fails, and
    /// otherwise agrees with it.
    #[test]
    fn borrowed_decoding_agrees_with_decode_on_any_bytes(
        msg in arb_message(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<usize>(),
    ) {
        let mut body = BytesMut::new();
        codec::encode(&msg, &mut body);
        let whole: &[u8] = &body;
        let cut = cut % (whole.len() + 1);
        let mut spliced = whole[..cut].to_vec();
        spliced.extend_from_slice(&junk);
        for bytes in [whole, &whole[..cut], &spliced, &junk] {
            let borrowed = codec::decode_borrowed(bytes).map(|decoded| match decoded {
                codec::Decoded::ContentChunk { id, data } => Message::Response {
                    id,
                    resp: Response::ContentChunk { data: data.to_vec() },
                },
                codec::Decoded::Message(msg) => msg,
            });
            prop_assert_eq!(borrowed, codec::decode(bytes));
        }
    }
}

/// Chunk payloads at the edges of the frame limit: empty, one byte, the
/// largest that fits, one byte more. The single-buffer path and the
/// borrowed-slice chunk framers must agree with the reference on every one
/// — same bytes when it fits, same `TooLarge` when it does not.
#[test]
fn chunk_frames_agree_with_the_reference_up_to_and_past_the_frame_limit() {
    let upload = UploadId::new(5);
    let chunk = |len: usize| Message::Request {
        id: 1,
        req: Request::UploadChunk {
            upload,
            data: vec![0xA5; len],
        },
    };
    let content = |len: usize| Message::Response {
        id: 1,
        resp: Response::ContentChunk {
            data: vec![0x5A; len],
        },
    };
    // Overhead of each message around its payload, measured near the limit
    // (the payload length's varint has its final width there).
    let overhead = |msg: &Message, payload: usize| {
        let mut body = BytesMut::new();
        codec::encode(msg, &mut body);
        body.len() - payload
    };
    let probe = MAX_FRAME_LEN - 64;
    let largest_upload = MAX_FRAME_LEN - overhead(&chunk(probe), probe);
    let largest_content = MAX_FRAME_LEN - overhead(&content(probe), probe);

    for len in [0, 1, largest_upload, largest_upload + 1] {
        let msg = chunk(len);
        let reference = two_step_frame(&msg);
        assert_eq!(
            reference.is_ok(),
            len <= largest_upload,
            "{len}-byte upload chunk"
        );
        assert_eq!(codec::encode_framed(&msg), reference);
        let Message::Request {
            req: Request::UploadChunk { data, .. },
            ..
        } = &msg
        else {
            unreachable!()
        };
        let borrowed = ClientConn::new().upload_chunk(upload, data);
        assert_eq!(
            borrowed.map(|(_, bytes)| bytes),
            reference.map_err(ConnError::Frame)
        );
    }
    for len in [0, 1, largest_content, largest_content + 1] {
        let msg = content(len);
        let reference = two_step_frame(&msg);
        assert_eq!(
            reference.is_ok(),
            len <= largest_content,
            "{len}-byte content chunk"
        );
        assert_eq!(codec::encode_framed(&msg), reference);
        let Message::Response {
            resp: Response::ContentChunk { data },
            ..
        } = &msg
        else {
            unreachable!()
        };
        let borrowed = ServerConn::new().content_chunk(1, data);
        assert_eq!(borrowed, reference.map_err(ConnError::Frame));
    }
    assert_eq!(
        two_step_frame(&chunk(largest_upload + 1)),
        Err(FrameError::TooLarge(MAX_FRAME_LEN as u64 + 1))
    );
}

/// A request that does not fit a frame is not left pending.
#[test]
fn oversized_requests_are_refused_and_not_marked_pending() {
    let mut client = ClientConn::new();
    let refused = client.upload_chunk(UploadId::new(1), &vec![0u8; MAX_FRAME_LEN]);
    assert!(matches!(
        refused,
        Err(ConnError::Frame(FrameError::TooLarge(_)))
    ));
    assert_eq!(client.pending_count(), 0);
}
