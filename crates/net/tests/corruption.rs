//! Malformed-input hardening: a sweep of corrupted, truncated, and
//! lying frames against a live server. The contract under attack
//! traffic is narrow — the server never panics, answers every
//! decodable-but-wrong frame with a typed error frame, hard-closes
//! only on framing damage it cannot resynchronise from, and keeps
//! serving healthy connections throughout.

use ab::{AbConfig, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use net::frame::{kind, seal, Request, Response, HEADER_LEN, TRAILER_LEN};
use net::{Client, ErrorCode, NetConfig, NetServer};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use svc::{Service, SvcConfig};

fn service() -> Arc<Service> {
    let table = BinnedTable::new(vec![BinnedColumn::new(
        "a",
        (0..200).map(|i| (i % 5) as u32).collect(),
        5,
    )]);
    Arc::new(Service::build(
        &table,
        &AbConfig::new(Level::PerAttribute).with_alpha(8),
        &SvcConfig {
            threads: 2,
            shards: 2,
            ..SvcConfig::default()
        },
    ))
}

fn rect_frame(id: u64) -> Vec<u8> {
    net::frame::encode_request(
        id,
        &Request::Rect {
            deadline_ms: 0,
            query: RectQuery::new(vec![AttrRange::new(0, 1, 3)], 0, 199),
        },
    )
    .unwrap()
}

/// The server must still answer a fresh, healthy connection — the
/// whole point of hardening is that attack traffic can't take the
/// listener down.
fn assert_still_serving(server: &NetServer) {
    let mut probe = Client::connect(server.local_addr()).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    probe.ping().unwrap();
    let rows = probe
        .query_rect(&RectQuery::new(vec![AttrRange::new(0, 0, 4)], 0, 199), 0)
        .unwrap();
    assert_eq!(rows.len(), 200);
}

/// Sends raw bytes, half-closes, and collects whatever the server
/// says before the connection dies. Returns decoded responses.
fn fire(server: &NetServer, bytes: &[u8]) -> Vec<(u64, Response)> {
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    c.send_raw(bytes).unwrap();
    c.close_write().unwrap();
    let mut got = Vec::new();
    while let Ok(pair) = c.recv() {
        got.push(pair);
    }
    got
}

#[test]
fn bad_magic_gets_error_frame_then_close() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let mut frame = rect_frame(1);
    frame[0] = 0x00; // clobber magic
    let got = fire(&server, &frame);
    assert_eq!(got.len(), 1, "exactly one error frame, then close");
    match &got[0] {
        (
            0,
            Response::Error {
                code, retryable, ..
            },
        ) => {
            // Framing is broken; request id is unknowable, so the
            // error frame carries id 0 and is not retryable as-is.
            assert_eq!(*code, ErrorCode::BadMagic);
            assert!(!retryable);
        }
        other => panic!("expected bad_magic frame, got {other:?}"),
    }
    assert_still_serving(&server);
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn bad_version_gets_error_frame_then_close() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let mut frame = rect_frame(2);
    frame[2] = 99; // unsupported protocol version
    let got = fire(&server, &frame);
    assert_eq!(got.len(), 1);
    assert!(matches!(
        got[0],
        (
            0,
            Response::Error {
                code: ErrorCode::BadVersion,
                ..
            }
        )
    ));
    assert_still_serving(&server);
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn oversized_length_gets_error_frame_then_close() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    // A header claiming a 256 MiB payload: the server must refuse to
    // allocate and hard-close instead of buffering toward OOM.
    let mut frame = rect_frame(3);
    frame[12..16].copy_from_slice(&(256u32 << 20).to_le_bytes());
    let got = fire(&server, &frame[..HEADER_LEN]);
    assert_eq!(got.len(), 1);
    assert!(matches!(
        got[0],
        (
            0,
            Response::Error {
                code: ErrorCode::Oversized,
                ..
            }
        )
    ));
    assert_still_serving(&server);
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn crc_mismatch_gets_error_frame_then_close() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let mut frame = rect_frame(4);
    let mid = HEADER_LEN + 2;
    frame[mid] ^= 0x40; // flip one payload bit; CRC must catch it
    let got = fire(&server, &frame);
    assert_eq!(got.len(), 1);
    assert!(matches!(
        got[0],
        (
            0,
            Response::Error {
                code: ErrorCode::BadCrc,
                ..
            }
        )
    ));
    assert_still_serving(&server);
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn truncated_frame_closes_cleanly_without_response() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let frame = rect_frame(5);
    // Cut mid-payload: the reader keeps waiting for the rest, the
    // client half-closes, and the server must just close — no panic,
    // no garbage frame.
    let got = fire(&server, &frame[..frame.len() - 7]);
    assert!(got.is_empty(), "truncated frame must not produce output");
    assert_still_serving(&server);
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn lying_payload_counts_get_typed_malformed_frame() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    // A rect request whose range count claims more entries than the
    // payload holds. The frame itself (CRC, length) is valid, so the
    // connection survives with a typed error carrying the real id.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u32.to_le_bytes()); // deadline
    payload.extend_from_slice(&200u64.to_le_bytes()); // row_lo
    payload.extend_from_slice(&10u64.to_le_bytes()); // row_hi (also nonsense)
    payload.extend_from_slice(&40u16.to_le_bytes()); // claims 40 ranges...
    payload.extend_from_slice(&[0u8; 12]); // ...ships one
    let got = fire(&server, &seal(6, kind::RECT, &payload));
    assert_eq!(got.len(), 1);
    match &got[0] {
        (6, Response::Error { code, .. }) => assert_eq!(*code, ErrorCode::Malformed),
        other => panic!("expected malformed frame for id 6, got {other:?}"),
    }
    assert_still_serving(&server);
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn empty_payload_for_rect_is_malformed_not_panic() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let got = fire(&server, &seal(7, kind::RECT, &[]));
    assert_eq!(got.len(), 1);
    assert!(matches!(
        got[0],
        (
            7,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        )
    ));
    assert_still_serving(&server);
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn random_garbage_never_panics_server() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    // Deterministic pseudo-random garbage at several lengths. Any
    // outcome except a server panic is acceptable; afterwards the
    // server must still answer correctly.
    for (i, len) in [1usize, 7, 16, 64, 1024].into_iter().enumerate() {
        let bytes: Vec<u8> = (0..len)
            .map(|j| (hashkit::splitmix64((i * 131 + j) as u64) & 0xFF) as u8)
            .collect();
        let _ = fire(&server, &bytes);
    }
    assert_still_serving(&server);
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn single_byte_corruption_sweep_over_a_real_frame() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let clean = rect_frame(8);
    let baseline = {
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.query_rect(&RectQuery::new(vec![AttrRange::new(0, 1, 3)], 0, 199), 0)
            .unwrap()
    };
    // Flip one byte at a time across the whole frame (stride 3 keeps
    // the sweep fast while still covering header, payload, and CRC).
    for pos in (0..clean.len()).step_by(3) {
        let mut frame = clean.clone();
        frame[pos] ^= 0xA5;
        for (_, resp) in fire(&server, &frame) {
            match resp {
                // The only acceptable success is the *correct* answer
                // (possible only if the flip landed somewhere the
                // decoder rejects... CRC makes even that unreachable,
                // but the invariant we defend is no *wrong* answer).
                Response::Rect { ref rows, .. } => {
                    assert_eq!(rows, &baseline, "corrupted frame produced a wrong answer");
                }
                Response::Error { .. } => {}
                other => panic!("unexpected response to corrupted frame: {other:?}"),
            }
        }
    }
    assert_still_serving(&server);
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn slow_loris_byte_at_a_time_still_answers() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let frame = rect_frame(9);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for b in &frame {
        stream.write_all(std::slice::from_ref(b)).unwrap();
        stream.flush().unwrap();
    }
    // Reuse the frame reader via a Client over the same socket? The
    // Client owns its stream, so decode manually instead.
    let mut reader = net::FrameReader::new();
    let mut buf = [0u8; 4096];
    use std::io::Read;
    loop {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before answering");
        reader.push(&buf[..n]);
        if let Some(f) = reader.next_frame().unwrap() {
            assert_eq!(f.request_id, 9);
            let resp = net::frame::decode_response(&f).unwrap();
            assert!(matches!(resp, Response::Rect { .. }));
            break;
        }
    }
    server.shutdown(Duration::from_secs(2));
}

/// Decodes one response frame the way the client does: whole-frame
/// CRC check, then the payload.
fn decode(bytes: &[u8]) -> Result<Response, net::FrameError> {
    let mut reader = net::FrameReader::new();
    reader.push(bytes);
    net::frame::decode_response(&reader.next_frame()?.expect("one whole frame"))
}

/// The payload of a sealed frame.
fn payload(frame: &[u8]) -> &[u8] {
    &frame[HEADER_LEN..frame.len() - TRAILER_LEN]
}

/// Response-side sweep: a CRC-valid answer frame whose payload lies
/// must decode to `Err`, or to some answer, but never panic or drive
/// an allocation the payload cannot back. Each start frame has every
/// byte flipped (under several masks) and is re-sealed with a valid
/// CRC, so the flips reach the payload decoder.
#[test]
fn resealed_response_flips_and_lying_row_counts_never_panic() {
    let list = Response::Rect {
        degraded: vec![1],
        rows: vec![3, 1, 4, 1, 5],
    };
    let bitmap = Response::Rect {
        degraded: vec![],
        rows: (100..140).chain([150, 190]).collect(),
    };
    let batch = Response::Batch {
        degraded: vec![0, 2],
        results: vec![vec![9, 7], (0..64).collect(), vec![]],
    };
    for (resp, form_at) in [(&list, 6), (&bitmap, 2), (&batch, 12)] {
        let clean = net::frame::encode_response(5, resp);
        let body = payload(&clean);
        let header = form_at..form_at + 9;
        let count = form_at + 1..form_at + 9;
        for pos in 0..body.len() {
            for mask in [0x01u8, 0x20, 0x80, 0xFF] {
                let mut bad = body.to_vec();
                bad[pos] ^= mask;
                let got = decode(&seal(5, resp.kind(), &bad));
                // In a rect answer, no flip of the row set's form or
                // count, or of a bitmap's word count or words (an odd
                // mask changes the popcount), can go unnoticed.
                let words = body[form_at] == 1 && pos >= form_at + 17 && mask != 0xFF;
                if resp.kind() == kind::RECT_OK && (header.contains(&pos) || words) {
                    assert!(got.is_err(), "flip {mask:#04x} at {pos} decoded: {got:?}");
                }
            }
        }
        // The first row set claims a count no payload can back.
        for lie in [u64::MAX, (1 << 61) + 1] {
            let mut bad = body.to_vec();
            bad[count.clone()].copy_from_slice(&lie.to_le_bytes());
            let got = decode(&seal(5, resp.kind(), &bad));
            assert!(got.is_err(), "count {lie:#x} decoded: {got:?}");
        }
    }
}

/// A client that receives a lying answer from its server reports a
/// typed frame error instead of panicking.
#[test]
fn client_reports_a_lying_answer_as_a_frame_error() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut req = [0u8; HEADER_LEN];
        std::io::Read::read_exact(&mut s, &mut req).unwrap();
        let mut lie = vec![0u8, 0, 0]; // no degraded shards, LIST form
        lie.extend_from_slice(&u64::MAX.to_le_bytes());
        let id = u64::from_le_bytes(req[4..12].try_into().unwrap());
        s.write_all(&seal(id, kind::RECT_OK, &lie)).unwrap();
    });
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let got = c.query_rect(&RectQuery::new(vec![], 0, 9), 0);
    assert!(matches!(got, Err(net::NetError::Frame(_))), "{got:?}");
    server.join().unwrap();
}
