//! Sans-io connection state machines for both ends of a U1 session.
//!
//! Neither type touches a socket: bytes go in via `on_bytes`, frames to
//! write come out as [`bytes::Bytes`]. This keeps the protocol logic —
//! request/response correlation, authentication gating, stream bookkeeping —
//! fully unit-testable, and lets the same state machines drive the real TCP
//! transport ([`crate::tcp`]), the epoll reactor
//! (`u1_server::tcpserver`), and the virtual-time simulation.
//!
//! A full exchange, with the "socket" replaced by byte slices:
//!
//! ```
//! use u1_proto::conn::{ClientConn, ClientEvent, ServerConn, ServerEvent};
//! use u1_proto::msg::{Request, Response};
//!
//! let mut client = ClientConn::new();
//! let mut server = ServerConn::new();
//!
//! // Client side: encode a request; `bytes` is what you would write().
//! let (id, bytes) = client.request(Request::Ping).unwrap();
//!
//! // Server side: feed whatever arrived; complete requests pop out.
//! // (`Ping` is allowed before authentication; data ops are not.)
//! let events = server.on_bytes(&bytes).unwrap();
//! assert_eq!(events, vec![ServerEvent::Request { id, req: Request::Ping }]);
//!
//! // Server answers; `reply` is what the reactor queues on its send queue.
//! let reply = server.respond(id, Response::Pong).unwrap();
//! let events = client.on_bytes(&reply).unwrap();
//! assert_eq!(events, vec![ClientEvent::Response { id, resp: Response::Pong }]);
//! ```

use crate::codec::{self, Decoded};
use crate::frame::{FrameDecoder, FrameError};
use crate::msg::{Message, Push, Request, RequestId, Response};
use crate::wire::WireError;
use bytes::Bytes;
use u1_core::fxhash::FxHashSet;
use u1_core::{SessionId, UploadId, UserId};

/// Errors surfaced by either state machine. All of them are fatal for the
/// connection: the U1 session dies with its TCP connection (§3.1.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnError {
    Frame(FrameError),
    Wire(WireError),
    /// Peer violated protocol sequencing.
    Protocol(&'static str),
}

impl From<FrameError> for ConnError {
    fn from(e: FrameError) -> Self {
        ConnError::Frame(e)
    }
}

impl From<WireError> for ConnError {
    fn from(e: WireError) -> Self {
        ConnError::Wire(e)
    }
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Frame(e) => write!(f, "framing: {e}"),
            ConnError::Wire(e) => write!(f, "wire: {e}"),
            ConnError::Protocol(s) => write!(f, "protocol: {s}"),
        }
    }
}

impl std::error::Error for ConnError {}

/// What a client observes from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A response to one of our outstanding requests.
    Response { id: RequestId, resp: Response },
    /// An unsolicited push notification.
    Push(Push),
}

/// What [`ClientConn::on_bytes_with`] hands its consumer, one per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Received<'a> {
    /// A `Response::ContentChunk` answering request `id`: its payload,
    /// borrowed from the receive buffer.
    Chunk { id: RequestId, data: &'a [u8] },
    /// Every other frame's event.
    Event(ClientEvent),
}

/// Client half of a connection.
#[derive(Debug, Default)]
pub struct ClientConn {
    decoder: FrameDecoder,
    next_id: RequestId,
    /// Requests sent and not yet finally answered. The ids are our own
    /// counter, never a peer's choice, so the fast hasher is safe.
    pending: FxHashSet<RequestId>,
    session: Option<(SessionId, UserId)>,
}

impl ClientConn {
    pub fn new() -> Self {
        Self::default()
    }

    /// The authenticated identity, once `AuthOk` has been observed.
    pub fn session(&self) -> Option<(SessionId, UserId)> {
        self.session
    }

    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Encodes a request into a framed byte block ready to write, returning
    /// the assigned request id. Fails (without marking the request pending)
    /// when the encoded body exceeds the frame limit.
    pub fn request(&mut self, req: Request) -> Result<(RequestId, Bytes), ConnError> {
        self.send(|id| codec::encode_framed(&Message::Request { id, req }))
    }

    /// [`ClientConn::request`] for `Request::UploadChunk { upload, data }`,
    /// framed from borrowed bytes: same frame, no copy of the chunk into a
    /// message first.
    pub fn upload_chunk(
        &mut self,
        upload: UploadId,
        data: &[u8],
    ) -> Result<(RequestId, Bytes), ConnError> {
        self.send(|id| codec::frame_upload_chunk(id, upload, data))
    }

    /// Assigns the next request id, frames the request under it and, if it
    /// fits a frame, marks it pending.
    fn send(
        &mut self,
        frame: impl FnOnce(RequestId) -> Result<Bytes, FrameError>,
    ) -> Result<(RequestId, Bytes), ConnError> {
        self.next_id = self.next_id.wrapping_add(1);
        let id = self.next_id;
        let framed = frame(id)?;
        self.pending.insert(id);
        Ok((id, framed))
    }

    /// Feeds received bytes; returns the complete events they produced, a
    /// `ContentChunk`'s payload copied into its `Response`. This is
    /// [`ClientConn::on_bytes_with`] with a consumer that collects.
    pub fn on_bytes(&mut self, data: &[u8]) -> Result<Vec<ClientEvent>, ConnError> {
        self.decoder.extend(data);
        let mut events = Vec::with_capacity(self.decoder.complete_frames());
        self.drain(|received| {
            events.push(match received {
                Received::Chunk { id, data } => ClientEvent::Response {
                    id,
                    resp: Response::ContentChunk {
                        data: data.to_vec(),
                    },
                },
                Received::Event(event) => event,
            });
        })?;
        Ok(events)
    }

    /// Feeds received bytes and hands `consume` what each complete frame
    /// held, in order: a `ContentChunk`'s payload as a slice of the receive
    /// buffer, so a download copies it once, into its file; every other
    /// frame as the event [`ClientConn::on_bytes`] would return. The first
    /// error ends the call; frames consumed before it stay consumed.
    pub fn on_bytes_with(
        &mut self,
        data: &[u8],
        consume: impl FnMut(Received<'_>),
    ) -> Result<(), ConnError> {
        self.decoder.extend(data);
        self.drain(consume)
    }

    /// The one decode loop: every complete frame buffered, checked against
    /// the pending requests and handed to `consume`. A chunk is handed
    /// over while its frame is still in the buffer; every other message
    /// leaves the buffer decoded, as `codec::decode` returns it.
    fn drain(&mut self, mut consume: impl FnMut(Received<'_>)) -> Result<(), ConnError> {
        loop {
            let pending = &self.pending;
            let in_place = |body: &[u8]| -> Result<Option<Message>, ConnError> {
                match codec::decode_borrowed(body)? {
                    Decoded::ContentChunk { id, data } => {
                        if !pending.contains(&id) {
                            return Err(ConnError::Protocol("response to unknown request id"));
                        }
                        consume(Received::Chunk { id, data });
                        Ok(None)
                    }
                    Decoded::Message(msg) => Ok(Some(msg)),
                }
            };
            let Some(decoded) = self.decoder.next_frame_with(in_place)? else {
                return Ok(());
            };
            let event = match decoded? {
                None => continue,
                Some(Message::Response { id, resp }) => {
                    if !self.pending.contains(&id) {
                        return Err(ConnError::Protocol("response to unknown request id"));
                    }
                    if let Response::AuthOk { session, user } = &resp {
                        self.session = Some((*session, *user));
                    }
                    if resp.is_final() {
                        self.pending.remove(&id);
                    }
                    ClientEvent::Response { id, resp }
                }
                Some(Message::Push(push)) => ClientEvent::Push(push),
                Some(Message::Request { .. }) => {
                    return Err(ConnError::Protocol("server sent a request"));
                }
            };
            consume(Received::Event(event));
        }
    }
}

/// What a server observes from a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerEvent {
    /// A well-formed, sequencing-legal request.
    Request { id: RequestId, req: Request },
    /// The client issued an operation before authenticating. The server
    /// should send the provided error response and close the connection.
    Unauthenticated { id: RequestId },
}

/// Server half of a connection.
#[derive(Debug, Default)]
pub struct ServerConn {
    decoder: FrameDecoder,
    session: Option<(SessionId, UserId)>,
}

impl ServerConn {
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the connection authenticated. Called by the API server after a
    /// successful token check (§3.4.1).
    pub fn mark_authenticated(&mut self, session: SessionId, user: UserId) {
        self.session = Some((session, user));
    }

    pub fn session(&self) -> Option<(SessionId, UserId)> {
        self.session
    }

    /// Feeds received bytes; returns the requests they contained.
    pub fn on_bytes(&mut self, data: &[u8]) -> Result<Vec<ServerEvent>, ConnError> {
        self.decoder.extend(data);
        let mut events = Vec::with_capacity(self.decoder.complete_frames());
        while let Some(msg) = self.decoder.next_frame_with(codec::decode)? {
            match msg? {
                Message::Request { id, req } => {
                    if self.session.is_none() && !req.allowed_unauthenticated() {
                        events.push(ServerEvent::Unauthenticated { id });
                    } else {
                        events.push(ServerEvent::Request { id, req });
                    }
                }
                Message::Response { .. } => {
                    return Err(ConnError::Protocol("client sent a response"));
                }
                Message::Push(_) => {
                    return Err(ConnError::Protocol("client sent a push"));
                }
            }
        }
        Ok(events)
    }

    /// Frames a response for writing. Fails when the encoded body exceeds
    /// the frame limit (e.g. an oversized `ContentChunk`).
    pub fn respond(&self, id: RequestId, resp: Response) -> Result<Bytes, ConnError> {
        Ok(codec::encode_framed(&Message::Response { id, resp })?)
    }

    /// [`ServerConn::respond`] for `Response::ContentChunk { data }`, framed
    /// from borrowed bytes: same frame, no copy of the chunk into a message
    /// first.
    pub fn content_chunk(&self, id: RequestId, data: &[u8]) -> Result<Bytes, ConnError> {
        Ok(codec::frame_content_chunk(id, data)?)
    }

    /// Frames a push notification for writing. Fails when the encoded body
    /// exceeds the frame limit.
    pub fn push(&self, push: Push) -> Result<Bytes, ConnError> {
        Ok(codec::encode_framed(&Message::Push(push))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use u1_core::VolumeId;

    /// Pipes client request bytes into a server conn and vice versa,
    /// asserting the full handshake sequencing.
    #[test]
    fn handshake_then_request_flow() {
        let mut client = ClientConn::new();
        let mut server = ServerConn::new();

        // Pre-auth data op is flagged, not crashed.
        let (bad_id, bytes) = client.request(Request::ListVolumes).expect("encode");
        let evs = server.on_bytes(&bytes).unwrap();
        assert_eq!(evs, vec![ServerEvent::Unauthenticated { id: bad_id }]);

        // Authenticate.
        let (auth_id, bytes) = client
            .request(Request::Authenticate { token: vec![7] })
            .expect("encode");
        let evs = server.on_bytes(&bytes).unwrap();
        assert!(
            matches!(&evs[0], ServerEvent::Request { id, req: Request::Authenticate { token } }
                if *id == auth_id && token == &vec![7])
        );
        server.mark_authenticated(SessionId::new(5), UserId::new(9));
        let resp_bytes = server
            .respond(
                auth_id,
                Response::AuthOk {
                    session: SessionId::new(5),
                    user: UserId::new(9),
                },
            )
            .expect("encode");
        let evs = client.on_bytes(&resp_bytes).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(client.session(), Some((SessionId::new(5), UserId::new(9))));
        assert_eq!(client.pending_count(), 1); // the flagged ListVolumes never got a reply

        // Now data ops pass.
        let (id, bytes) = client.request(Request::ListVolumes).expect("encode");
        let evs = server.on_bytes(&bytes).unwrap();
        assert!(matches!(
            &evs[0],
            ServerEvent::Request {
                id: got,
                req: Request::ListVolumes
            } if *got == id
        ));
    }

    #[test]
    fn content_stream_keeps_request_pending_until_end() {
        let mut client = ClientConn::new();
        let mut server = ServerConn::new();
        server.mark_authenticated(SessionId::new(1), UserId::new(1));
        let (id, _bytes) = client
            .request(Request::GetContent {
                volume: VolumeId::new(0),
                node: u1_core::NodeId::new(1),
            })
            .expect("encode");
        let h = u1_core::ContentHash::EMPTY;
        client
            .on_bytes(
                &server
                    .respond(id, Response::ContentBegin { size: 3, hash: h })
                    .expect("encode"),
            )
            .unwrap();
        assert_eq!(client.pending_count(), 1);
        client
            .on_bytes(
                &server
                    .respond(
                        id,
                        Response::ContentChunk {
                            data: vec![1, 2, 3],
                        },
                    )
                    .expect("encode"),
            )
            .unwrap();
        assert_eq!(client.pending_count(), 1);
        client
            .on_bytes(&server.respond(id, Response::ContentEnd).expect("encode"))
            .unwrap();
        assert_eq!(client.pending_count(), 0);
    }

    #[test]
    fn response_to_unknown_id_is_fatal() {
        let mut client = ClientConn::new();
        let server = ServerConn::new();
        let bytes = server.respond(42, Response::Ok).expect("encode");
        assert_eq!(
            client.on_bytes(&bytes),
            Err(ConnError::Protocol("response to unknown request id"))
        );
    }

    #[test]
    fn direction_violations_are_fatal() {
        // Server receiving a response.
        let mut server = ServerConn::new();
        let other_server = ServerConn::new();
        let bytes = other_server.respond(1, Response::Ok).expect("encode");
        assert!(matches!(
            server.on_bytes(&bytes),
            Err(ConnError::Protocol(_))
        ));
        // Client receiving a request.
        let mut client = ClientConn::new();
        let mut peer = ClientConn::new();
        let (_, bytes) = peer.request(Request::Ping).expect("encode");
        assert!(matches!(
            client.on_bytes(&bytes),
            Err(ConnError::Protocol(_))
        ));
    }

    #[test]
    fn pushes_are_delivered_without_pending_request() {
        let mut client = ClientConn::new();
        let server = ServerConn::new();
        let bytes = server
            .push(Push::VolumeChanged {
                volume: VolumeId::new(3),
                generation: 12,
            })
            .expect("encode");
        let evs = client.on_bytes(&bytes).unwrap();
        assert_eq!(
            evs,
            vec![ClientEvent::Push(Push::VolumeChanged {
                volume: VolumeId::new(3),
                generation: 12
            })]
        );
    }

    #[test]
    fn byte_by_byte_delivery_works() {
        let mut client = ClientConn::new();
        let mut server = ServerConn::new();
        server.mark_authenticated(SessionId::new(1), UserId::new(1));
        let (id, bytes) = client.request(Request::Ping).expect("encode");
        let mut evs = Vec::new();
        for b in bytes.iter() {
            evs.extend(server.on_bytes(&[*b]).unwrap());
        }
        assert_eq!(
            evs,
            vec![ServerEvent::Request {
                id,
                req: Request::Ping
            }]
        );
    }
}
