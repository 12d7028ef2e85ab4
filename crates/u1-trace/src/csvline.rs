//! The one-line-per-record CSV format.
//!
//! Lines are comma-separated with no quoting; the only free-text field (file
//! extension) is sanitized to `[a-z0-9]` at emission. A line starts with the
//! timestamp in microseconds and the request type, mirroring the structure
//! the paper describes (strictly sequential, timestamped lines per process).
//!
//! Example lines:
//!
//! ```text
//! 8640000000,session,open,s17,u4
//! 8640012345,storage_done,upload,s17,u4,v0,n99,file,1048576,3f786850e387550fdab836ed7e6dc881de23001b,jpg,ok,15000
//! 8640012350,rpc,dal.make_content,shard3,u4,2100
//! 8640000001,auth,u4,ok
//! ```
//!
//! Fault runs append optional trailing fields — `a=N` (attempt number when
//! a retry loop re-issued the request) and `ec=<class>` (the injected
//! [`u1_core::ErrorClass`]):
//!
//! ```text
//! 8640012350,rpc,dal.get_node,shard3,u4,2000000,a=2,ec=timeout
//! ```
//!
//! Both are omitted at their defaults (first attempt, no error), so the
//! lines of a fault-free run are byte-identical to the pre-fault format.

use crate::event::{Payload, SessionEvent, StorageDone, TraceRecord};
use std::cell::Cell;
use std::fmt;
use u1_core::{
    ApiOpKind, ContentHash, ErrorClass, MachineId, NodeId, NodeKind, ProcessId, RpcKind, SessionId,
    ShardId, SimTime, UserId, VolumeId,
};

/// `00` to `99`, two bytes each: a number is written two digits a division.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `prefix` and then `v` in decimal. Digits are produced backwards
/// into a stack buffer, two at a time, and appended as one slice. This is
/// the innermost loop of trace emission — every line carries at least a
/// timestamp and a handful of prefixed ids like `s17` / `u4` / `v0` / `n99`.
fn put_u64(out: &mut Vec<u8>, prefix: &[u8], mut v: u64) {
    out.extend_from_slice(prefix);
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// The one encoder: appends `rec` to `out` as one CSV line with its `\n`,
/// with or without the `o=`/`q=` stamps. Every byte it writes is ASCII
/// (digits, the fixed labels, a sanitized [`u1_core::Ext`]), which nothing
/// here checks — the `fmt::Write` wrappers below do, once per line.
pub(crate) fn encode_line(rec: &TraceRecord, stamped: bool, out: &mut Vec<u8>) {
    put_u64(out, b"", rec.t.as_micros());
    put_payload(rec, out);
    // Fault tags ride as optional trailing fields so fault-free lines stay
    // byte-identical to the pre-fault format.
    if rec.attempt > 1 {
        put_u64(out, b",a=", u64::from(rec.attempt));
    }
    if let Some(class) = rec.error_class {
        out.extend_from_slice(b",ec=");
        out.extend_from_slice(class.label().as_bytes());
    }
    if stamped {
        put_u64(out, b",o=", u64::from(rec.origin));
        put_u64(out, b",q=", rec.seq);
    }
    out.push(b'\n');
}

fn put_payload(rec: &TraceRecord, out: &mut Vec<u8>) {
    match &rec.payload {
        Payload::Session {
            event,
            session,
            user,
        } => {
            let head: &[u8] = match event {
                SessionEvent::Open => b",session,open,s",
                SessionEvent::Close => b",session,close,s",
            };
            put_u64(out, head, session.raw());
            put_u64(out, b",u", user.raw());
        }
        Payload::Storage(done) => {
            let StorageDone {
                op,
                session,
                user,
                volume,
                node,
                kind,
                size,
                hash,
                ext,
                success,
                duration_us,
            } = &**done;
            out.extend_from_slice(b",storage_done,");
            out.extend_from_slice(op.label().as_bytes());
            put_u64(out, b",s", session.raw());
            put_u64(out, b",u", user.raw());
            put_u64(out, b",v", volume.raw());
            match node {
                Some(n) => put_u64(out, b",n", n.raw()),
                None => out.extend_from_slice(b",-"),
            }
            let kind: &[u8] = match kind {
                Some(NodeKind::File) => b",file,",
                Some(NodeKind::Directory) => b",dir,",
                None => b",-,",
            };
            put_u64(out, kind, *size);
            out.push(b',');
            match hash {
                Some(h) => out.extend_from_slice(&h.hex_bytes()),
                None => out.push(b'-'),
            }
            out.push(b',');
            // `Ext` is sanitized at construction (`[a-z0-9]`, max 16 chars),
            // so emission is a plain copy; `-` when nothing survived.
            if ext.is_empty() {
                out.push(b'-');
            } else {
                out.extend_from_slice(ext.as_str().as_bytes());
            }
            let status: &[u8] = if *success { b",ok," } else { b",err," };
            put_u64(out, status, *duration_us);
        }
        Payload::Rpc {
            rpc,
            shard,
            user,
            service_us,
        } => {
            out.extend_from_slice(b",rpc,");
            out.extend_from_slice(rpc.dal_name().as_bytes());
            put_u64(out, b",shard", shard.raw() as u64);
            put_u64(out, b",u", user.raw());
            put_u64(out, b",", *service_us);
        }
        Payload::Auth { user, success } => {
            put_u64(out, b",auth,u", user.raw());
            out.extend_from_slice(if *success { b",ok" } else { b",fail" });
        }
    }
}

thread_local! {
    /// The line the `fmt::Write` wrappers encode before handing it on as
    /// text. Taken, not borrowed, while in use.
    static LINE: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// [`encode_line`] into any [`fmt::Write`], without the `\n`: the line is
/// encoded as bytes and checked to be text once, as a whole.
fn write_encoded<W: fmt::Write>(rec: &TraceRecord, stamped: bool, out: &mut W) -> fmt::Result {
    let mut line = LINE.take();
    line.clear();
    encode_line(rec, stamped, &mut line);
    let text = std::str::from_utf8(&line[..line.len() - 1]);
    let written = text.map_err(|_| fmt::Error).and_then(|s| out.write_str(s));
    LINE.set(line);
    written
}

/// Serializes a record as one CSV line (no trailing newline) into any
/// [`fmt::Write`] — typically an amortized per-thread `String` buffer —
/// without allocating; [`to_line`] is a thin compatibility wrapper.
pub fn write_line<W: fmt::Write>(rec: &TraceRecord, out: &mut W) -> fmt::Result {
    write_encoded(rec, false, out)
}

/// [`write_line`] plus the synthetic origin/sequence stamps as trailing
/// `o=`/`q=` fields (after the fault tags). The paper's logfile schema has
/// no such columns — plain [`write_line`] stays byte-identical to it — but
/// a *stamped* trace directory can be read back into the exact canonical
/// `(t, origin, seq)` order, which is what lets the stream-to-disk pipeline
/// reproduce the in-memory golden trace hash bit for bit.
pub fn write_line_stamped<W: fmt::Write>(rec: &TraceRecord, out: &mut W) -> fmt::Result {
    write_encoded(rec, true, out)
}

/// Serializes a record to one CSV line (no trailing newline). Compatibility
/// wrapper over [`write_line`]; allocates the returned `String` and nothing
/// else.
pub fn to_line(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(128);
    let _ = write_line(rec, &mut s);
    s
}

/// Error describing why a line failed to parse. The reader counts these
/// (the paper tolerated ~1% unparseable lines) rather than aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    pub reason: &'static str,
}

fn err<T>(reason: &'static str) -> Result<T, LineError> {
    Err(LineError { reason })
}

/// Decodes the 40-digit hex form of a content hash, either case, in place:
/// [`ContentHash::from_hex`] wants a `str`, and checking 40 bytes to be one
/// costs more than decoding them.
fn parse_hash(hex: &[u8]) -> Option<ContentHash> {
    let hex: &[u8; 40] = hex.try_into().ok()?;
    let mut raw = [0u8; 20];
    for (out, pair) in raw.iter_mut().zip(hex.chunks_exact(2)) {
        let hi = char::from(pair[0]).to_digit(16)?;
        let lo = char::from(pair[1]).to_digit(16)?;
        *out = (hi << 4 | lo) as u8;
    }
    Some(ContentHash::new(raw))
}

/// Index of the first `needle` in `bytes`, looking at eight bytes at a time.
pub(crate) fn find_byte(bytes: &[u8], needle: u8) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in words.by_ref() {
        // A matching byte becomes zero; the lowest byte the zero-byte test
        // flags is exact, and little-endian makes that the first in memory.
        let x = u64::from_le_bytes([
            word[0], word[1], word[2], word[3], word[4], word[5], word[6], word[7],
        ]) ^ (LOW * needle as u64);
        let zeros = x.wrapping_sub(LOW) & !x & HIGH;
        if zeros != 0 {
            return Some(at + zeros.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == needle);
    tail.map(|i| at + i)
}

/// A left-to-right cursor over the bytes of one line.
struct Cursor<'a> {
    rest: &'a [u8],
    /// False once the field that ends the line (no `,` after it) is taken.
    more: bool,
}

impl<'a> Cursor<'a> {
    /// The next field without its `,`. Past the end of the line this is the
    /// empty field, which every required field rejects.
    fn field(&mut self) -> &'a [u8] {
        match find_byte(self.rest, b',') {
            Some(comma) => {
                let field = &self.rest[..comma];
                self.rest = &self.rest[comma + 1..];
                field
            }
            None => {
                self.more = false;
                std::mem::take(&mut self.rest)
            }
        }
    }

    /// Steps over `prefix` if the rest of the line starts with it.
    fn eat(&mut self, prefix: &[u8]) -> bool {
        let rest = self.rest.strip_prefix(prefix);
        self.rest = rest.unwrap_or(self.rest);
        rest.is_some()
    }

    /// A decimal field that fits `T`: digits up to the `,` or the end of the
    /// line, after an optional `+` (which `str::parse` accepts too).
    fn number<T: TryFrom<u64>>(&mut self, reason: &'static str) -> Result<T, LineError> {
        let value = self.decimal().ok_or(LineError { reason })?;
        T::try_from(value).map_err(|_| LineError { reason })
    }

    fn decimal(&mut self) -> Option<u64> {
        let digits = self.rest.strip_prefix(b"+").unwrap_or(self.rest);
        let mut value = 0u64;
        let mut len = 0;
        while let Some(digit) = digits.get(len).map(|b| b.wrapping_sub(b'0')) {
            if digit > 9 {
                break;
            }
            // Nineteen digits cannot overflow; only longer runs are checked.
            value = if len < 19 {
                value * 10 + digit as u64
            } else {
                value.checked_mul(10)?.checked_add(digit as u64)?
            };
            len += 1;
        }
        if len == 0 || !matches!(digits.get(len), None | Some(b',')) {
            return None;
        }
        self.more = len < digits.len();
        self.rest = digits.get(len + 1..).unwrap_or_default();
        Some(value)
    }

    /// A prefixed id field like `s17` / `u4` / `shard3`.
    fn id<T: TryFrom<u64>>(&mut self, prefix: &[u8], reason: &'static str) -> Result<T, LineError> {
        if self.eat(prefix) {
            self.number(reason)
        } else {
            err(reason)
        }
    }
}

/// Parses one line of a logfile, as bytes: nothing checks that it is UTF-8,
/// and a line that is not text is just a line that does not parse. Machine
/// and process come from the logfile name, not the line, exactly as in the
/// original format.
///
/// One pass, left to right: timestamp, type, the type's own fields, then any
/// trailing `a=`/`ec=`/`o=`/`q=` fields in any order (unknown ones are
/// tolerated); trailing ASCII whitespace is ignored. The record is built from
/// the line alone: without fault tags it is a first attempt with no error,
/// without stamps it has origin 0 and sequence 0 — whatever partition context
/// or fault tag the parsing thread has installed.
pub fn parse_line(
    line: &[u8],
    machine: MachineId,
    process: ProcessId,
) -> Result<TraceRecord, LineError> {
    let mut line = line;
    while let [head @ .., b' ' | b'\t'..=b'\r'] = line {
        line = head;
    }
    let mut cur = Cursor {
        rest: line,
        more: true,
    };
    let t = SimTime::from_micros(cur.number("bad timestamp")?);
    let payload = match cur.field() {
        b"session" => Payload::Session {
            event: match cur.field() {
                b"open" => SessionEvent::Open,
                b"close" => SessionEvent::Close,
                _ => return err("bad session event"),
            },
            session: SessionId::new(cur.id(b"s", "bad session id")?),
            user: UserId::new(cur.id(b"u", "bad user")?),
        },
        // The box is allocated once every field has parsed, so a malformed
        // line allocates nothing.
        b"storage_done" => Payload::Storage(Box::new(StorageDone {
            op: ApiOpKind::from_label_bytes(cur.field()).ok_or(LineError { reason: "bad op" })?,
            session: SessionId::new(cur.id(b"s", "bad session id")?),
            user: UserId::new(cur.id(b"u", "bad user")?),
            volume: VolumeId::new(cur.id(b"v", "bad volume")?),
            node: if cur.eat(b"n") {
                Some(NodeId::new(cur.number("bad node")?))
            } else if cur.field() == b"-" {
                None
            } else {
                return err("bad node");
            },
            kind: match cur.field() {
                b"file" => Some(NodeKind::File),
                b"dir" => Some(NodeKind::Directory),
                b"-" => None,
                _ => return err("bad node kind"),
            },
            size: cur.number("bad size")?,
            hash: match cur.field() {
                b"-" => None,
                hex => Some(parse_hash(hex).ok_or(LineError { reason: "bad hash" })?),
            },
            ext: match cur.field() {
                b"-" => u1_core::Ext::EMPTY,
                raw => u1_core::Ext::from_bytes(raw),
            },
            success: match cur.field() {
                b"ok" => true,
                b"err" => false,
                _ => return err("bad status"),
            },
            duration_us: cur.number("bad duration")?,
        })),
        b"rpc" => Payload::Rpc {
            rpc: RpcKind::from_dal_name_bytes(cur.field())
                .ok_or(LineError { reason: "bad rpc" })?,
            shard: ShardId::new(cur.id(b"shard", "bad shard")?),
            user: UserId::new(cur.id(b"u", "bad user")?),
            service_us: cur.number("bad service time")?,
        },
        b"auth" => Payload::Auth {
            user: UserId::new(cur.id(b"u", "bad user")?),
            success: match cur.field() {
                b"ok" => true,
                b"fail" => false,
                _ => return err("bad auth status"),
            },
        },
        _ => return err("unknown type"),
    };
    let mut rec = TraceRecord {
        t,
        machine,
        process,
        origin: 0,
        seq: 0,
        attempt: 1,
        error_class: None,
        payload,
    };
    while cur.more {
        if cur.eat(b"a=") {
            rec.attempt = cur.number("bad attempt")?;
        } else if cur.eat(b"ec=") {
            let label = std::str::from_utf8(cur.field()).ok();
            rec.error_class = Some(label.and_then(ErrorClass::from_label).ok_or(LineError {
                reason: "bad error class",
            })?);
        } else if cur.eat(b"o=") {
            rec.origin = cur.number("bad origin")?;
        } else if cur.eat(b"q=") {
            rec.seq = cur.number("bad seq")?;
        } else {
            cur.field();
        }
    }
    Ok(rec)
}

/// [`parse_line`] for a line already held as a `str`.
pub fn from_line(
    line: &str,
    machine: MachineId,
    process: ProcessId,
) -> Result<TraceRecord, LineError> {
    parse_line(line.as_bytes(), machine, process)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(payload: Payload) -> TraceRecord {
        TraceRecord::new(
            SimTime::from_secs(5),
            MachineId::new(2),
            ProcessId::new(9),
            payload,
        )
    }

    fn round_trip(rec: TraceRecord) {
        let line = to_line(&rec);
        let back = from_line(&line, rec.machine, rec.process).expect("parse");
        assert_eq!(back, rec, "line was: {line}");
    }

    #[test]
    fn session_round_trip() {
        round_trip(mk(Payload::Session {
            event: SessionEvent::Open,
            session: SessionId::new(17),
            user: UserId::new(4),
        }));
        round_trip(mk(Payload::Session {
            event: SessionEvent::Close,
            session: SessionId::new(17),
            user: UserId::new(4),
        }));
    }

    #[test]
    fn storage_round_trip_full_and_minimal() {
        round_trip(mk(Payload::Storage(Box::new(StorageDone {
            op: ApiOpKind::Upload,
            session: SessionId::new(17),
            user: UserId::new(4),
            volume: VolumeId::new(0),
            node: Some(NodeId::new(99)),
            kind: Some(NodeKind::File),
            size: 1_048_576,
            hash: Some(ContentHash::from_content_id(1)),
            ext: "jpg".into(),
            success: true,
            duration_us: 15_000,
        }))));
        round_trip(mk(Payload::Storage(Box::new(StorageDone {
            op: ApiOpKind::ListVolumes,
            session: SessionId::new(1),
            user: UserId::new(2),
            volume: VolumeId::new(3),
            node: None,
            kind: None,
            size: 0,
            hash: None,
            ext: u1_core::Ext::EMPTY,
            success: false,
            duration_us: 10,
        }))));
    }

    #[test]
    fn rpc_and_auth_round_trip() {
        round_trip(mk(Payload::Rpc {
            rpc: RpcKind::MakeContent,
            shard: ShardId::new(3),
            user: UserId::new(4),
            service_us: 2_100,
        }));
        round_trip(mk(Payload::Auth {
            user: UserId::new(4),
            success: false,
        }));
    }

    #[test]
    fn stamped_line_round_trips_origin_and_seq() {
        let mut rec = mk(Payload::Auth {
            user: UserId::new(4),
            success: true,
        });
        rec.origin = 7;
        rec.seq = 123_456_789;
        let mut line = String::new();
        write_line_stamped(&rec, &mut line).unwrap();
        assert!(line.ends_with(",o=7,q=123456789"), "line was: {line}");
        let back = from_line(&line, rec.machine, rec.process).expect("parse");
        assert_eq!(back, rec, "line was: {line}");
    }

    #[test]
    fn stamped_line_is_plain_line_plus_stamps() {
        let mut rec = mk(Payload::Rpc {
            rpc: RpcKind::GetNode,
            shard: ShardId::new(1),
            user: UserId::new(2),
            service_us: 77,
        });
        rec.attempt = 3;
        rec.error_class = Some(ErrorClass::Timeout);
        let plain = to_line(&rec);
        let mut stamped = String::new();
        write_line_stamped(&rec, &mut stamped).unwrap();
        // Stamps go strictly after the fault tags; stripping them recovers
        // the paper-schema line byte for byte.
        assert_eq!(stamped, format!("{plain},o={},q={}", rec.origin, rec.seq));
        // And a plain (unstamped) line parses with origin/seq untouched by
        // the stamp fields.
        let back = from_line(&plain, rec.machine, rec.process).expect("parse");
        assert_eq!((back.origin, back.seq), (0, 0));
    }

    #[test]
    fn sanitizes_hostile_extension() {
        let rec = mk(Payload::Storage(Box::new(StorageDone {
            op: ApiOpKind::Upload,
            session: SessionId::new(1),
            user: UserId::new(1),
            volume: VolumeId::new(0),
            node: Some(NodeId::new(1)),
            kind: Some(NodeKind::File),
            size: 1,
            hash: None,
            ext: "J,P\nG".into(),
            success: true,
            duration_us: 1,
        })));
        let line = to_line(&rec);
        assert!(!line.contains('\n'));
        let back = from_line(&line, rec.machine, rec.process).unwrap();
        match back.payload {
            Payload::Storage(done) => assert_eq!(done.ext, "jpg"),
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn sanitize_ext_edge_cases_round_trip() {
        // (raw extension, sanitized field bytes, ext after parse-back)
        for (raw, field, parsed) in [
            ("", "-", ""),                                                 // empty
            ("≈∅", "-", ""),                                               // all non-ASCII
            ("häßlich", "hlich", "hlich"),                                 // mixed non-ASCII
            ("TARGZ", "targz", "targz"),                                   // lowercased
            ("verylongextension", "verylongextensio", "verylongextensio"), // >16 truncated
            ("a.b-c_d", "abcd", "abcd"),                                   // punctuation stripped
        ] {
            let rec = mk(Payload::Storage(Box::new(StorageDone {
                op: ApiOpKind::Upload,
                session: SessionId::new(1),
                user: UserId::new(1),
                volume: VolumeId::new(0),
                node: Some(NodeId::new(1)),
                kind: Some(NodeKind::File),
                size: 1,
                hash: None,
                ext: raw.into(),
                success: true,
                duration_us: 1,
            })));
            let line = to_line(&rec);
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields[10], field, "raw ext {raw:?}, line was: {line}");
            let back = from_line(&line, rec.machine, rec.process).expect("parse");
            match back.payload {
                Payload::Storage(done) => assert_eq!(done.ext, parsed, "raw ext {raw:?}"),
                _ => panic!("wrong payload"),
            }
        }
    }

    #[test]
    fn write_line_matches_to_line_for_every_variant() {
        let recs = [
            mk(Payload::Session {
                event: SessionEvent::Close,
                session: SessionId::new(u64::MAX),
                user: UserId::new(0),
            }),
            mk(Payload::Storage(Box::new(StorageDone {
                op: ApiOpKind::Download,
                session: SessionId::new(7),
                user: UserId::new(1_294_794),
                volume: VolumeId::new(3),
                node: Some(NodeId::new(10_000_000)),
                kind: Some(NodeKind::Directory),
                size: u64::MAX,
                hash: Some(ContentHash::EMPTY),
                ext: "OgG".into(),
                success: false,
                duration_us: 0,
            }))),
            mk(Payload::Rpc {
                rpc: RpcKind::GetNode,
                shard: ShardId::new(9),
                user: UserId::new(42),
                service_us: 123_456,
            }),
            mk(Payload::Auth {
                user: UserId::new(5),
                success: true,
            }),
        ];
        for rec in recs {
            let mut streamed = String::new();
            write_line(&rec, &mut streamed).expect("write_line");
            assert_eq!(streamed, to_line(&rec));
            let back = from_line(&streamed, rec.machine, rec.process).expect("parse");
            assert_eq!(back.payload.request_type(), rec.payload.request_type());
        }
    }

    #[test]
    fn decimal_encoder_agrees_with_display_at_every_length() {
        // Every digit count, odd and even, and the pair-table edges.
        let mut values = vec![0, 9, 10, 11, 99, 100, 101, 109, 110, 999, 1000, u64::MAX];
        values.extend((1..20).flat_map(|n| {
            let p = 10u64.pow(n);
            [p - 1, p, p + 7]
        }));
        for v in values {
            let mut out = b"x=".to_vec();
            put_u64(&mut out, b",n", v);
            assert_eq!(String::from_utf8(out).unwrap(), format!("x=,n{v}"));
        }
    }

    #[test]
    fn encoded_line_is_the_written_line_plus_newline() {
        let mut rec = mk(Payload::Storage(Box::new(StorageDone {
            op: ApiOpKind::Upload,
            session: SessionId::new(17),
            user: UserId::new(4),
            volume: VolumeId::new(0),
            node: Some(NodeId::new(99)),
            kind: Some(NodeKind::File),
            size: 1_048_576,
            hash: Some(ContentHash::EMPTY),
            ext: "jpg".into(),
            success: true,
            duration_us: 15_000,
        })));
        (rec.t, rec.origin, rec.seq) = (SimTime::from_micros(8_640_012_345), 3, 70);
        let plain = "8640012345,storage_done,upload,s17,u4,v0,n99,file,1048576,\
                     da39a3ee5e6b4b0d3255bfef95601890afd80709,jpg,ok,15000";
        assert_eq!(to_line(&rec), plain);
        // Appended, not overwritten: a batch is one buffer of whole lines.
        let mut bytes = b"first\n".to_vec();
        encode_line(&rec, false, &mut bytes);
        encode_line(&rec, true, &mut bytes);
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            format!("first\n{plain}\n{plain},o=3,q=70\n")
        );
    }

    #[test]
    fn fault_tags_round_trip_and_default_to_nothing() {
        let mut rec = mk(Payload::Rpc {
            rpc: RpcKind::GetNode,
            shard: ShardId::new(3),
            user: UserId::new(4),
            service_us: 2_000_000,
        });
        // Defaults serialize to the pre-fault format exactly.
        assert!(!to_line(&rec).contains("a=") && !to_line(&rec).contains("ec="));
        rec.attempt = 2;
        rec.error_class = Some(ErrorClass::Timeout);
        let line = to_line(&rec);
        assert!(line.ends_with(",a=2,ec=timeout"), "line was: {line}");
        let back = from_line(&line, rec.machine, rec.process).expect("parse");
        assert_eq!(back.attempt, 2);
        assert_eq!(back.error_class, Some(ErrorClass::Timeout));
        assert_eq!(back, rec);
        // Tags on storage lines too.
        let mut rec = mk(Payload::Storage(Box::new(StorageDone {
            op: ApiOpKind::Upload,
            session: SessionId::new(1),
            user: UserId::new(2),
            volume: VolumeId::new(0),
            node: Some(NodeId::new(9)),
            kind: Some(NodeKind::File),
            size: 10,
            hash: None,
            ext: "txt".into(),
            success: false,
            duration_us: 77,
        })));
        rec.error_class = Some(ErrorClass::ShardUnavailable);
        round_trip(rec);
        // Bad tag values are rejected, not ignored.
        assert!(from_line("5,auth,u1,ok,a=x", MachineId::new(0), ProcessId::new(0)).is_err());
        assert!(from_line(
            "5,auth,u1,ok,ec=bogus",
            MachineId::new(0),
            ProcessId::new(0)
        )
        .is_err());
    }

    /// A parsed record carries what its line says and nothing of the thread
    /// that parsed it: reading a trace inside a simulation partition, under a
    /// retry loop's fault tags, draws no stamp from the partition and copies
    /// no tag.
    #[test]
    fn parsing_takes_nothing_from_the_partition_or_fault_tags_of_its_thread() {
        use u1_core::{fault, partition};
        let _guard = partition::install(partition::PartitionCtx::new(7));
        fault::set_attempt(3);
        fault::set_error_class(Some(ErrorClass::Timeout));
        let before = partition::next_trace_stamp();

        let (m, p) = (MachineId::new(2), ProcessId::new(9));
        let plain = from_line("5,auth,u1,ok", m, p).expect("parse");
        assert_eq!((plain.origin, plain.seq), (0, 0));
        assert_eq!((plain.attempt, plain.error_class), (1, None));
        let tagged = parse_line(b"5,auth,u1,ok,a=2,ec=part_put,o=4,q=11", m, p).expect("parse");
        assert_eq!((tagged.origin, tagged.seq), (4, 11));
        assert_eq!(
            (tagged.attempt, tagged.error_class),
            (2, Some(ErrorClass::PartPut))
        );

        let after = partition::next_trace_stamp();
        fault::clear_tags();
        assert_eq!(before, Some((7, 1)));
        assert_eq!(after, Some((7, 2)), "parsing drew a stamp");
    }

    #[test]
    fn find_byte_finds_the_first_match_at_every_offset() {
        for len in 0..40 {
            let mut bytes = vec![b'x'; len];
            assert_eq!(find_byte(&bytes, b','), None, "len {len}");
            for at in (0..len).rev() {
                // Bytes after `at` are matches too: the first one wins.
                bytes[at] = b',';
                assert_eq!(find_byte(&bytes, b','), Some(at), "len {len}");
            }
        }
        // Bytes that differ from the needle only in the high bit, or by one.
        assert_eq!(
            find_byte(b"\xac\x2d\x2b\x00\xff\x8a\x0b\x09\x0a", b'\n'),
            Some(8)
        );
        assert_eq!(
            find_byte(b"\xac\x2d\x2b\x00\xff\xac\x2d\x2b,", b','),
            Some(8)
        );
    }

    /// `o=` and `a=` parse into the record's own widths: one past the
    /// largest origin or attempt is a bad line, not a wrapped number.
    #[test]
    fn stamps_and_tags_past_their_width_are_malformed() {
        let (m, p) = (MachineId::new(0), ProcessId::new(0));
        let widest = parse_line(b"5,auth,u1,ok,a=255,o=65535", m, p).expect("parse");
        assert_eq!((widest.attempt, widest.origin), (u8::MAX, u16::MAX));
        for (bad, reason) in [
            ("5,auth,u1,ok,o=65536", "bad origin"),
            ("5,auth,u1,ok,a=256", "bad attempt"),
            ("5,auth,u1,ok,o=4294967296", "bad origin"),
            ("5,auth,u1,ok,a=4294967296", "bad attempt"),
        ] {
            assert_eq!(from_line(bad, m, p), Err(LineError { reason }), "{bad}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicking() {
        let m = MachineId::new(0);
        let p = ProcessId::new(0);
        for bad in [
            "",
            "notanumber,session,open,s1,u1",
            "5,session,reopen,s1,u1",
            "5,storage_done,upload,s1,u1,v0,n1,file,abc,-,-,ok,1",
            "5,rpc,dal.nonexistent,shard0,u1,5",
            "5,rpc,dal.get_node,shardx,u1,5",
            "5,auth,u1,maybe",
            "5,frobnicate,u1",
            "5,storage_done,upload,s1,u1,v0,n1,file,1,zzzz,-,ok,1",
            "5,auth,u1,ok,o=65536",
            "5,auth,u1,ok,a=256",
        ] {
            assert!(from_line(bad, m, p).is_err(), "should reject: {bad:?}");
        }
    }
}
