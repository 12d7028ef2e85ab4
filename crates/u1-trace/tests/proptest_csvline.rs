//! Property tests for the trace line parser: every record survives
//! `write_line*` → `parse_line`, no byte string makes the parser panic or
//! look past the slice it was given, and on everything the old
//! `split(',')` parser could be asked — generated lines and single-byte
//! mutations of them — the byte parser agrees with it. The old parser lives
//! on only here, as the oracle.

use proptest::prelude::*;
use u1_core::{
    ApiOpKind, ContentHash, ErrorClass, Ext, MachineId, NodeId, NodeKind, ProcessId, RpcKind,
    SessionId, ShardId, SimTime, UserId, VolumeId,
};
use u1_trace::csvline::{self, parse_line, LineError};
use u1_trace::{Payload, SessionEvent, StorageDone, TraceRecord};

const MACHINE: MachineId = MachineId::new(3);
const PROCESS: ProcessId = ProcessId::new(9);

// ---------------------------------------------------------------------------
// The oracle: the parser this crate had before `parse_line`, field for field.
// ---------------------------------------------------------------------------

fn oracle_err<T>(reason: &'static str) -> Result<T, LineError> {
    Err(LineError { reason })
}

fn oracle_u64(s: &str, reason: &'static str) -> Result<u64, LineError> {
    s.parse::<u64>().map_err(|_| LineError { reason })
}

fn oracle_prefixed(s: &str, prefix: char, reason: &'static str) -> Result<u64, LineError> {
    let rest = s.strip_prefix(prefix).ok_or(LineError { reason })?;
    oracle_u64(rest, reason)
}

fn oracle_from_line(line: &str) -> Result<TraceRecord, LineError> {
    let mut fields = line.trim_end().split(',');
    let t = SimTime::from_micros(oracle_u64(
        fields.next().ok_or(LineError { reason: "empty" })?,
        "bad timestamp",
    )?);
    let ty = fields.next().ok_or(LineError { reason: "no type" })?;
    let payload = match ty {
        "session" => {
            let event = match fields.next() {
                Some("open") => SessionEvent::Open,
                Some("close") => SessionEvent::Close,
                _ => return oracle_err("bad session event"),
            };
            let session =
                SessionId::new(oracle_prefixed(fields.next().unwrap_or(""), 's', "bad id")?);
            let user = UserId::new(oracle_prefixed(fields.next().unwrap_or(""), 'u', "bad id")?);
            Payload::Session {
                event,
                session,
                user,
            }
        }
        "storage_done" => {
            let label = fields.next().unwrap_or("");
            let op = ApiOpKind::ALL
                .into_iter()
                .find(|k| k.label() == label)
                .ok_or(LineError { reason: "bad op" })?;
            let session =
                SessionId::new(oracle_prefixed(fields.next().unwrap_or(""), 's', "bad id")?);
            let user = UserId::new(oracle_prefixed(fields.next().unwrap_or(""), 'u', "bad id")?);
            let volume =
                VolumeId::new(oracle_prefixed(fields.next().unwrap_or(""), 'v', "bad id")?);
            let node = match fields.next().unwrap_or("") {
                "-" => None,
                s => Some(NodeId::new(oracle_prefixed(s, 'n', "bad node")?)),
            };
            let kind = match fields.next().unwrap_or("") {
                "file" => Some(NodeKind::File),
                "dir" => Some(NodeKind::Directory),
                "-" => None,
                _ => return oracle_err("bad node kind"),
            };
            let size = oracle_u64(fields.next().unwrap_or(""), "bad size")?;
            let hash = match fields.next().unwrap_or("") {
                "-" => None,
                s => Some(ContentHash::from_hex(s).ok_or(LineError { reason: "bad hash" })?),
            };
            let ext = match fields.next().unwrap_or("") {
                "-" => Ext::EMPTY,
                s => Ext::new(s),
            };
            let success = match fields.next().unwrap_or("") {
                "ok" => true,
                "err" => false,
                _ => return oracle_err("bad status"),
            };
            let duration_us = oracle_u64(fields.next().unwrap_or(""), "bad duration")?;
            Payload::Storage(Box::new(StorageDone {
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
            }))
        }
        "rpc" => {
            let name = fields.next().unwrap_or("");
            let rpc = RpcKind::ALL
                .into_iter()
                .find(|k| k.dal_name() == name)
                .ok_or(LineError { reason: "bad rpc" })?;
            let shard_raw = fields
                .next()
                .unwrap_or("")
                .strip_prefix("shard")
                .ok_or(LineError {
                    reason: "bad shard",
                })?;
            let shard = ShardId::new(shard_raw.parse::<u16>().map_err(|_| LineError {
                reason: "bad shard",
            })?);
            let user = UserId::new(oracle_prefixed(fields.next().unwrap_or(""), 'u', "bad id")?);
            let service_us = oracle_u64(fields.next().unwrap_or(""), "bad service time")?;
            Payload::Rpc {
                rpc,
                shard,
                user,
                service_us,
            }
        }
        "auth" => {
            let user = UserId::new(oracle_prefixed(fields.next().unwrap_or(""), 'u', "bad id")?);
            let success = match fields.next().unwrap_or("") {
                "ok" => true,
                "fail" => false,
                _ => return oracle_err("bad auth status"),
            };
            Payload::Auth { user, success }
        }
        _ => return oracle_err("unknown type"),
    };
    // No partition context or fault tag is installed on a test thread, so
    // `new` stamps (0, 0) — which the old parser relied on without saying.
    let mut rec = TraceRecord::new(t, MACHINE, PROCESS, payload);
    rec.attempt = 1;
    rec.error_class = None;
    for field in fields {
        if let Some(v) = field.strip_prefix("a=") {
            rec.attempt = v.parse::<u8>().map_err(|_| LineError {
                reason: "bad attempt",
            })?;
        } else if let Some(v) = field.strip_prefix("ec=") {
            rec.error_class = Some(ErrorClass::from_label(v).ok_or(LineError {
                reason: "bad error class",
            })?);
        } else if let Some(v) = field.strip_prefix("o=") {
            rec.origin = v.parse::<u16>().map_err(|_| LineError {
                reason: "bad origin",
            })?;
        } else if let Some(v) = field.strip_prefix("q=") {
            rec.seq = v
                .parse::<u64>()
                .map_err(|_| LineError { reason: "bad seq" })?;
        }
    }
    Ok(rec)
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Mostly small, sometimes at the edges of the type.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..2_000,
        any::<u64>(),
        Just(0),
        Just(u64::MAX),
        Just(10_000_000_000_000_000_000)
    ]
}

fn arb_ext() -> impl Strategy<Value = Ext> {
    prop_oneof![
        Just(""),
        Just("jpg"),
        Just("TARGZ"),
        Just("sixteencharacter"),
        Just("seventeencharacters"),
        Just("≈∅"),
        Just("a.b-c_d,e\n"),
        Just("0")
    ]
    .prop_map(Ext::new)
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    let session = (any::<bool>(), arb_u64(), arb_u64()).prop_map(|(open, s, u)| Payload::Session {
        event: if open {
            SessionEvent::Open
        } else {
            SessionEvent::Close
        },
        session: SessionId::new(s),
        user: UserId::new(u),
    });
    let storage = (
        0usize..ApiOpKind::ALL.len(),
        (arb_u64(), arb_u64(), arb_u64()),
        proptest::option::of(arb_u64()),
        proptest::option::of(any::<bool>()),
        arb_u64(),
        proptest::option::of(any::<u64>()),
        arb_ext(),
        any::<bool>(),
        arb_u64(),
    )
        .prop_map(
            |(op, (s, u, v), node, file, size, content, ext, success, duration_us)| {
                Payload::Storage(Box::new(StorageDone {
                    op: ApiOpKind::ALL[op],
                    session: SessionId::new(s),
                    user: UserId::new(u),
                    volume: VolumeId::new(v),
                    node: node.map(NodeId::new),
                    kind: file.map(|f| {
                        if f {
                            NodeKind::File
                        } else {
                            NodeKind::Directory
                        }
                    }),
                    size,
                    hash: content.map(ContentHash::from_content_id),
                    ext,
                    success,
                    duration_us,
                }))
            },
        );
    let rpc = (
        0usize..RpcKind::ALL.len(),
        any::<u16>(),
        arb_u64(),
        arb_u64(),
    )
        .prop_map(|(rpc, shard, u, service_us)| Payload::Rpc {
            rpc: RpcKind::ALL[rpc],
            shard: ShardId::new(shard),
            user: UserId::new(u),
            service_us,
        });
    let auth = (arb_u64(), any::<bool>()).prop_map(|(u, success)| Payload::Auth {
        user: UserId::new(u),
        success,
    });
    prop_oneof![session, storage, rpc, auth]
}

/// Any record the writers can be handed: four payloads × fault tags or none
/// × any stamp. (`attempt` 0 is not a record the system produces: it is
/// written like 1.)
fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        arb_u64(),
        arb_payload(),
        prop_oneof![Just(1u8), 2u8..9, Just(u8::MAX)],
        proptest::option::of(0usize..ErrorClass::ALL.len()),
        prop_oneof![Just(0u16), any::<u16>(), Just(u16::MAX)],
        arb_u64(),
    )
        .prop_map(|(t, payload, attempt, class, origin, seq)| TraceRecord {
            t: SimTime::from_micros(t),
            machine: MACHINE,
            process: PROCESS,
            origin,
            seq,
            attempt,
            error_class: class.map(|c| ErrorClass::ALL[c]),
            payload,
        })
}

fn line_of(rec: &TraceRecord, stamped: bool) -> String {
    let mut line = String::new();
    if stamped {
        csvline::write_line_stamped(rec, &mut line).expect("write");
    } else {
        csvline::write_line(rec, &mut line).expect("write");
    }
    line
}

/// Fields that look almost right, for lines assembled out of parts.
fn arb_field() -> impl Strategy<Value = Vec<u8>> {
    let vocabulary: &[&[u8]] = &[
        b"",
        b"0",
        b"5",
        b"+5",
        b"-5",
        b"18446744073709551615",
        b"18446744073709551616",
        b"99999999999999999999",
        b"000000000000000000000000000007",
        b"123456789012345678901234567890",
        b"session",
        b"storage_done",
        b"rpc",
        b"auth",
        b"open",
        b"close",
        b"upload",
        b"move",
        b"dal.move",
        b"dal.get_node",
        b"auth.get_user_id_from_token",
        b"s1",
        b"u1",
        b"u18446744073709551616",
        b"v0",
        b"n9",
        b"n",
        b"-",
        b"file",
        b"dir",
        b"da39a3ee5e6b4b0d3255bfef95601890afd80709",
        b"DA39A3EE5E6B4B0D3255BFEF95601890AFD80709",
        b"da39a3ee5e6b4b0d3255bfef95601890afd8070",
        b"jpg",
        b"ok",
        b"err",
        b"fail",
        b"shard3",
        b"shard65536",
        b"a=2",
        b"a=255",
        b"a=256",
        b"a=4294967296",
        b"a=",
        b"ec=timeout",
        b"ec=nope",
        b"o=7",
        b"o=65535",
        b"o=65536",
        b"o=4294967296",
        b"q=18446744073709551615",
        b"q=x",
        b"x=unknown",
        b"\r",
        b" ",
        b"\xff\xfe",
        b"\0",
    ];
    prop_oneof![
        (0usize..vocabulary.len()).prop_map(move |i| vocabulary[i].to_vec()),
        proptest::collection::vec(any::<u8>(), 0..6)
    ]
}

/// Byte strings from three sources: noise, comma-joined near-miss fields,
/// and real lines cut short or carrying a line ending.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..200),
        proptest::collection::vec(arb_field(), 0..18).prop_map(|fields| fields.join(&b','),),
        (
            arb_record(),
            any::<bool>(),
            any::<usize>(),
            prop_oneof![Just(""), Just("\r"), Just("\r\n"), Just(","), Just(",,x,")]
        )
            .prop_map(|(rec, stamped, cut, tail)| {
                let mut line = line_of(&rec, stamped).into_bytes();
                if cut % 3 == 0 {
                    line.truncate(cut % (line.len() + 1));
                }
                line.extend_from_slice(tail.as_bytes());
                line
            })
    ]
}

/// One byte of `line` replaced, inserted or deleted, as `how` and `at` say.
fn mutate(mut line: Vec<u8>, how: u8, at: usize, byte: u8) -> Vec<u8> {
    match how % 3 {
        0 if !line.is_empty() => {
            let at = at % line.len();
            line[at] = byte;
        }
        1 if !line.is_empty() => {
            line.remove(at % line.len());
        }
        _ => line.insert(at % (line.len() + 1), byte),
    }
    line
}

/// `parse_line` must give what the oracle gives — the same record, or an
/// error where it errs. The oracle takes a `str`, so it has no opinion on
/// bytes that are not UTF-8; those only have to come back without a panic.
fn assert_agrees_with_oracle(bytes: &[u8]) {
    let parsed = parse_line(bytes, MACHINE, PROCESS);
    if let Ok(text) = std::str::from_utf8(bytes) {
        let expected = oracle_from_line(text);
        assert_eq!(
            parsed.as_ref().ok(),
            expected.as_ref().ok(),
            "line {text:?}: byte parser {parsed:?}, oracle {expected:?}"
        );
        assert_eq!(csvline::from_line(text, MACHINE, PROCESS), parsed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A stamped line gives the record back whole; a plain line gives it
    /// back with the stamps, which it does not carry, at zero.
    #[test]
    fn written_lines_parse_back_to_the_record(rec in arb_record()) {
        let stamped = line_of(&rec, true);
        prop_assert_eq!(parse_line(stamped.as_bytes(), MACHINE, PROCESS).as_ref(), Ok(&rec));
        let unstamped = TraceRecord { origin: 0, seq: 0, ..rec.clone() };
        let plain = line_of(&rec, false);
        prop_assert_eq!(parse_line(plain.as_bytes(), MACHINE, PROCESS), Ok(unstamped));
    }

    /// No byte string panics the parser, and what follows the slice in
    /// memory — here bytes that would extend its last field and add a stamp
    /// — has no say in the result.
    #[test]
    fn any_bytes_parse_or_fail_within_their_slice(bytes in arb_bytes()) {
        let alone = parse_line(&bytes, MACHINE, PROCESS);
        let mut longer = bytes.clone();
        longer.extend_from_slice(b"9,o=5,q=5\n7,auth,u1,ok");
        prop_assert_eq!(parse_line(&longer[..bytes.len()], MACHINE, PROCESS), alone);
        assert_agrees_with_oracle(&bytes);
    }

    /// Generated lines and every kind of single-byte damage to them.
    #[test]
    fn byte_parser_agrees_with_the_split_parser(
        rec in arb_record(),
        stamped in any::<bool>(),
        how in any::<u8>(),
        at in any::<usize>(),
        byte in prop_oneof![any::<u8>(), Just(b','), Just(b'+'), Just(b'-'), Just(b' '), Just(b'0')],
    ) {
        let line = line_of(&rec, stamped).into_bytes();
        assert_agrees_with_oracle(&line);
        assert_agrees_with_oracle(&mutate(line, how, at, byte));
    }
}

/// The number edge cases by name, through a field of each width.
#[test]
fn numbers_stop_exactly_at_their_type_s_maximum() {
    let parse = |line: String| parse_line(line.as_bytes(), MACHINE, PROCESS);
    let user = |n: &str| parse(format!("5,auth,u{n},ok")).map(|r| r.payload.user().raw());
    assert_eq!(user("18446744073709551615"), Ok(u64::MAX));
    assert_eq!(
        user("0000000000000000000000018446744073709551615"),
        Ok(u64::MAX)
    );
    assert_eq!(user("+7"), Ok(7));
    for bad in [
        "18446744073709551616",
        "99999999999999999999",
        "",
        "+",
        "-1",
        "1_0",
        "1 ",
    ] {
        assert!(user(bad).is_err(), "user {bad:?}");
    }
    let origin = |n: &str| parse(format!("5,auth,u1,ok,o={n}")).map(|r| r.origin);
    assert_eq!(origin("65535"), Ok(u16::MAX));
    assert!(origin("65536").is_err());
    let attempt = |n: &str| parse(format!("5,auth,u1,ok,a={n}")).map(|r| r.attempt);
    assert_eq!(attempt("255"), Ok(u8::MAX));
    assert!(attempt("256").is_err());
    let shard = |n: &str| parse(format!("5,rpc,dal.move,shard{n},u1,9"));
    assert!(shard("65535").is_ok());
    assert!(shard("65536").is_err());
}
