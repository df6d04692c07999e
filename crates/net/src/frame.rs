//! The `ABQ/2` wire protocol: compact length-prefixed binary frames
//! with a versioned header and a CRC-32 trailer (the same
//! [`ab::crc32`] the on-disk formats use).
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       2     magic        0xAB51
//! 2       1     version      2
//! 3       1     kind         see [`kind`]
//! 4       8     request_id   caller-chosen; echoed on the response
//! 12      4     payload_len  ≤ MAX_PAYLOAD
//! 16      n     payload      kind-specific body
//! 16+n    4     crc32        over bytes [0, 16+n)
//! ```
//!
//! Requests and responses share the layout; response kinds have the
//! high bit set. Because every byte of the header and payload is
//! covered by the trailer CRC, any single corrupted byte is detected
//! before the payload is interpreted.
//!
//! ## Row sets
//!
//! The row list of `RECT_OK`, and each row list of `BATCH_OK`, is a
//! row set: `form: u8`, `count: u64`, then one of two bodies.
//!
//! * **LIST** (form 0): `count × u64` rows, in the answer's order;
//! * **BITMAP** (form 1): `first: u64`, `words: u64`, then
//!   `words × u64`; bit `i` of word `w` is row `first + 64·w + i`.
//!
//! The encoder sends BITMAP only when the rows are strictly ascending
//! and the bitmap is strictly smaller than the list, so every row
//! vector round-trips exactly. The decoder allocates only what the
//! payload backs, and rejects a bitmap whose popcount is not `count`
//! or whose span `first + 64·words` overflows `u64`.
//!
//! ## Error taxonomy
//!
//! Framing errors split into two classes with different recovery:
//!
//! * **fatal** ([`FrameError::is_fatal`] = true): bad magic, wrong
//!   version, oversized length, CRC mismatch. Frame *boundaries* can
//!   no longer be trusted, so the server answers one typed
//!   [`Response::Error`] frame (request id 0) and closes the
//!   connection;
//! * **recoverable**: the frame parsed and checksummed but its payload
//!   is malformed (unknown kind, truncated body, trailing bytes). The
//!   stream is still in sync, so the server answers a typed error
//!   frame carrying the offending request id and keeps the connection.

use bitmap::{AttrRange, RectQuery};

/// First two bytes of every frame.
pub const MAGIC: u16 = 0xAB51;
/// Protocol version this build speaks. A frame with a different
/// version is answered with [`ErrorCode::BadVersion`] naming the
/// supported version, so clients can negotiate down.
pub const VERSION: u8 = 2;
/// Fixed header bytes before the payload.
pub const HEADER_LEN: usize = 16;
/// CRC-32 trailer bytes after the payload.
pub const TRAILER_LEN: usize = 4;
/// Upper bound a frame may claim as payload length; anything larger
/// is rejected before allocation ([`FrameError::Oversized`]).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Sanity caps on repeated elements inside a payload, enforced at
/// decode time so a malicious count cannot drive a huge allocation.
pub const MAX_RANGES: usize = 4096;
/// Max cells per cell-subset request.
pub const MAX_CELLS: usize = 1 << 20;
/// Max rect queries per batch request.
pub const MAX_QUERIES: usize = 4096;

/// Frame kind bytes. Responses set the high bit of their request.
pub mod kind {
    /// Rectangular AB query.
    pub const RECT: u8 = 0x01;
    /// Cell-subset retrieval.
    pub const CELLS: u8 = 0x02;
    /// Batch of rectangular queries.
    pub const BATCH: u8 = 0x03;
    /// Liveness probe.
    pub const PING: u8 = 0x04;
    /// Served-schema request (row count + per-attribute cardinality).
    pub const SCHEMA: u8 = 0x05;
    /// Response to [`RECT`].
    pub const RECT_OK: u8 = 0x81;
    /// Response to [`CELLS`].
    pub const CELLS_OK: u8 = 0x82;
    /// Response to [`BATCH`].
    pub const BATCH_OK: u8 = 0x83;
    /// Response to [`PING`].
    pub const PONG: u8 = 0x84;
    /// Response to [`SCHEMA`].
    pub const SCHEMA_OK: u8 = 0x85;
    /// Typed error response to any request.
    pub const ERROR: u8 = 0xEE;
}

/// Typed error codes carried by [`Response::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Admission control shed the request (pool or dispatch queue
    /// full). The only retryable service error.
    Overloaded = 1,
    /// The request's deadline expired before every shard finished.
    DeadlineExceeded = 2,
    /// The request was cancelled.
    Cancelled = 3,
    /// The query is invalid for the served index.
    InvalidQuery = 4,
    /// The service is shutting down (or draining).
    Shutdown = 5,
    /// Exact (WAH) answers are not available on this server.
    WahUnavailable = 6,
    /// A server-side retry loop gave up.
    RetriesExhausted = 7,
    /// An exact answer touched a quarantined shard.
    ShardQuarantined = 8,
    /// The answer's payload would exceed [`MAX_PAYLOAD`]; narrow the
    /// query (fewer rows or ranges) and retry.
    AnswerTooLarge = 9,
    /// Frame bytes did not start with [`MAGIC`].
    BadMagic = 16,
    /// Frame version unsupported; message names the supported one.
    BadVersion = 17,
    /// Claimed payload length exceeds [`MAX_PAYLOAD`].
    Oversized = 18,
    /// Trailer CRC-32 did not match the received bytes.
    BadCrc = 19,
    /// The frame kind byte is not a known request.
    UnknownKind = 20,
    /// The payload was shorter than its counts claim, or had trailing
    /// bytes.
    Malformed = 21,
}

impl ErrorCode {
    /// Decodes the wire value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => Overloaded,
            2 => DeadlineExceeded,
            3 => Cancelled,
            4 => InvalidQuery,
            5 => Shutdown,
            6 => WahUnavailable,
            7 => RetriesExhausted,
            8 => ShardQuarantined,
            9 => AnswerTooLarge,
            16 => BadMagic,
            17 => BadVersion,
            18 => Oversized,
            19 => BadCrc,
            20 => UnknownKind,
            21 => Malformed,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::InvalidQuery => "invalid_query",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::WahUnavailable => "wah_unavailable",
            ErrorCode::RetriesExhausted => "retries_exhausted",
            ErrorCode::ShardQuarantined => "shard_quarantined",
            ErrorCode::AnswerTooLarge => "answer_too_large",
            ErrorCode::BadMagic => "bad_magic",
            ErrorCode::BadVersion => "bad_version",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadCrc => "bad_crc",
            ErrorCode::UnknownKind => "unknown_kind",
            ErrorCode::Malformed => "malformed",
        };
        f.write_str(s)
    }
}

/// Why a frame (or its payload) could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Leading two bytes were not [`MAGIC`].
    BadMagic {
        /// What arrived instead.
        found: u16,
    },
    /// Version byte differs from [`VERSION`].
    BadVersion(u8),
    /// Claimed payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Trailer CRC mismatch.
    BadCrc {
        /// CRC carried by the frame.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// Kind byte is not a known request/response.
    UnknownKind(u8),
    /// Payload ended before a field it promised.
    Truncated(&'static str),
    /// Payload violated a structural rule (count cap, trailing bytes).
    Malformed(&'static str),
}

impl FrameError {
    /// Whether frame boundaries are lost (connection must close).
    /// Payload-level trouble keeps the stream in sync.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            FrameError::BadMagic { .. }
                | FrameError::BadVersion(_)
                | FrameError::Oversized(_)
                | FrameError::BadCrc { .. }
        )
    }

    /// The typed wire code reported for this decode failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            FrameError::BadMagic { .. } => ErrorCode::BadMagic,
            FrameError::BadVersion(_) => ErrorCode::BadVersion,
            FrameError::Oversized(_) => ErrorCode::Oversized,
            FrameError::BadCrc { .. } => ErrorCode::BadCrc,
            FrameError::UnknownKind(_) => ErrorCode::UnknownKind,
            FrameError::Truncated(_) | FrameError::Malformed(_) => ErrorCode::Malformed,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad magic {found:#06x} (expected {MAGIC:#06x})")
            }
            FrameError::BadVersion(v) => {
                write!(f, "unsupported version {v} (this server speaks {VERSION})")
            }
            FrameError::Oversized(n) => {
                write!(f, "payload length {n} exceeds max {MAX_PAYLOAD}")
            }
            FrameError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x} computed {computed:#010x}"
                )
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Truncated(what) => write!(f, "payload truncated reading {what}"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame: header fields plus the raw (CRC-verified)
/// payload. Interpret with [`decode_request`] / [`decode_response`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Echoed verbatim on the matching response.
    pub request_id: u64,
    /// One of the [`kind`] bytes.
    pub kind: u8,
    /// CRC-verified body bytes.
    pub payload: Vec<u8>,
}

/// A decoded request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Rectangular AB query. `deadline_ms == 0` means "use the
    /// server's default deadline".
    Rect {
        /// Per-request deadline budget in milliseconds (0 = none).
        deadline_ms: u32,
        /// The query.
        query: RectQuery,
    },
    /// Cell-subset retrieval.
    Cells {
        /// Per-request deadline budget in milliseconds (0 = none).
        deadline_ms: u32,
        /// The probed cells.
        cells: Vec<ab::Cell>,
    },
    /// Batch of rectangular queries under one deadline.
    Batch {
        /// Per-request deadline budget in milliseconds (0 = none).
        deadline_ms: u32,
        /// The queries.
        queries: Vec<RectQuery>,
    },
    /// Liveness probe.
    Ping,
    /// Served-schema request.
    Schema,
}

impl Request {
    /// The request's wire kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Rect { .. } => kind::RECT,
            Request::Cells { .. } => kind::CELLS,
            Request::Batch { .. } => kind::BATCH,
            Request::Ping => kind::PING,
            Request::Schema => kind::SCHEMA,
        }
    }

    /// Short label for metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Rect { .. } => "rect",
            Request::Cells { .. } => "cells",
            Request::Batch { .. } => "batch",
            Request::Ping => "ping",
            Request::Schema => "schema",
        }
    }
}

/// What the server knows about the index it serves — enough for a
/// load generator to synthesize valid queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// Rows in the served index.
    pub num_rows: u64,
    /// Bin cardinality per attribute, in attribute order.
    pub cardinalities: Vec<u32>,
}

/// A decoded response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Matching (approximate) global row ids, sorted.
    Rect {
        /// Shards answered conservatively (empty = healthy).
        degraded: Vec<u32>,
        /// Candidate rows.
        rows: Vec<u64>,
    },
    /// One boolean per probed cell, request order.
    Cells {
        /// Shards answered conservatively (empty = healthy).
        degraded: Vec<u32>,
        /// Cell presence answers.
        hits: Vec<bool>,
    },
    /// One row list per batched query.
    Batch {
        /// Shards answered conservatively (empty = healthy).
        degraded: Vec<u32>,
        /// Per-query candidate rows.
        results: Vec<Vec<u64>>,
    },
    /// Liveness answer.
    Pong,
    /// Served-schema answer.
    Schema(Schema),
    /// Typed failure.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Whether a retry could plausibly succeed.
        retryable: bool,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The response's wire kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Rect { .. } => kind::RECT_OK,
            Response::Cells { .. } => kind::CELLS_OK,
            Response::Batch { .. } => kind::BATCH_OK,
            Response::Pong => kind::PONG,
            Response::Schema(_) => kind::SCHEMA_OK,
            Response::Error { .. } => kind::ERROR,
        }
    }
}

// ---------------------------------------------------------------- encode

struct W(Vec<u8>);

impl W {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

/// Rejects a count the decoder would refuse, before it is written
/// into a narrower wire field.
fn check_count(n: usize, max: usize, what: &'static str) -> Result<(), FrameError> {
    if n > max {
        return Err(FrameError::Malformed(what));
    }
    Ok(())
}

fn put_rect(w: &mut W, q: &RectQuery) -> Result<(), FrameError> {
    check_count(q.ranges.len(), MAX_RANGES, "range count over cap")?;
    w.u64(q.row_lo as u64);
    w.u64(q.row_hi as u64);
    w.u16(q.ranges.len() as u16);
    for r in &q.ranges {
        w.u32(r.attribute as u32);
        w.u32(r.lo);
        w.u32(r.hi);
    }
    Ok(())
}

fn put_degraded(w: &mut W, degraded: &[u32]) {
    w.u16(degraded.len() as u16);
    for &s in degraded {
        w.u32(s);
    }
}

/// Wraps a payload in a sealed frame: header, payload, CRC trailer.
pub fn seal(request_id: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = ab::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Encodes a request into a sealed frame.
///
/// # Errors
///
/// A request the decoder would refuse is rejected here rather than
/// truncated on the wire: more than [`MAX_RANGES`] ranges in a rect,
/// [`MAX_CELLS`] cells or [`MAX_QUERIES`] queries is
/// [`FrameError::Malformed`], and a payload over [`MAX_PAYLOAD`] is
/// [`FrameError::Oversized`].
pub fn encode_request(request_id: u64, req: &Request) -> Result<Vec<u8>, FrameError> {
    let mut w = W(Vec::new());
    match req {
        Request::Rect { deadline_ms, query } => {
            w.u32(*deadline_ms);
            put_rect(&mut w, query)?;
        }
        Request::Cells { deadline_ms, cells } => {
            check_count(cells.len(), MAX_CELLS, "cell count over cap")?;
            w.u32(*deadline_ms);
            w.u32(cells.len() as u32);
            for c in cells {
                w.u64(c.row as u64);
                w.u32(c.attribute as u32);
                w.u32(c.bin);
            }
        }
        Request::Batch {
            deadline_ms,
            queries,
        } => {
            check_count(queries.len(), MAX_QUERIES, "query count over cap")?;
            w.u32(*deadline_ms);
            w.u16(queries.len() as u16);
            for q in queries {
                put_rect(&mut w, q)?;
            }
        }
        Request::Ping | Request::Schema => {}
    }
    if w.0.len() > MAX_PAYLOAD as usize {
        return Err(FrameError::Oversized(
            u32::try_from(w.0.len()).unwrap_or(u32::MAX),
        ));
    }
    Ok(seal(request_id, req.kind(), &w.0))
}

/// Encodes a response into a sealed frame. Never emits a frame the
/// peer would refuse as oversized: an answer whose payload exceeds
/// [`MAX_PAYLOAD`] is replaced by a non-fatal
/// [`ErrorCode::AnswerTooLarge`] error frame under the same id.
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    let mut w = W(Vec::new());
    match resp {
        Response::Rect { degraded, rows } => {
            put_degraded(&mut w, degraded);
            put_rows(&mut w, rows);
        }
        Response::Cells { degraded, hits } => {
            put_degraded(&mut w, degraded);
            w.u32(hits.len() as u32);
            for &h in hits {
                w.u8(h as u8);
            }
        }
        Response::Batch { degraded, results } => {
            put_degraded(&mut w, degraded);
            w.u16(results.len() as u16);
            for rows in results {
                put_rows(&mut w, rows);
            }
        }
        Response::Pong => {}
        Response::Schema(s) => {
            w.u64(s.num_rows);
            w.u16(s.cardinalities.len() as u16);
            for &c in &s.cardinalities {
                w.u32(c);
            }
        }
        Response::Error {
            code,
            retryable,
            message,
        } => {
            w.u16(*code as u16);
            w.u8(*retryable as u8);
            let msg = message.as_bytes();
            let n = msg.len().min(u16::MAX as usize);
            w.u16(n as u16);
            w.0.extend_from_slice(&msg[..n]);
        }
    }
    if w.0.len() > MAX_PAYLOAD as usize {
        return encode_response(
            request_id,
            &Response::Error {
                code: ErrorCode::AnswerTooLarge,
                retryable: false,
                message: format!(
                    "answer payload of {} bytes exceeds max {MAX_PAYLOAD}",
                    w.0.len()
                ),
            },
        );
    }
    seal(request_id, resp.kind(), &w.0)
}

// ---------------------------------------------------------------- decode

struct R<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> R<'a> {
    fn new(b: &'a [u8]) -> Self {
        R { b, at: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        if self.b.len() - self.at < n {
            return Err(FrameError::Truncated(what));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &'static str) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.at
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

fn get_rect(r: &mut R) -> Result<RectQuery, FrameError> {
    let row_lo = r.u64("row_lo")? as usize;
    let row_hi = r.u64("row_hi")? as usize;
    let n = r.u16("range count")? as usize;
    if n > MAX_RANGES {
        return Err(FrameError::Malformed("range count over cap"));
    }
    if r.remaining() < n * 12 {
        return Err(FrameError::Truncated("attribute ranges"));
    }
    let mut ranges = Vec::with_capacity(n);
    for _ in 0..n {
        let attr = r.u32("range attr")? as usize;
        let lo = r.u32("range lo")?;
        let hi = r.u32("range hi")?;
        ranges.push(AttrRange::new(attr, lo, hi));
    }
    Ok(RectQuery::new(ranges, row_lo, row_hi))
}

fn get_degraded(r: &mut R) -> Result<Vec<u32>, FrameError> {
    let n = r.u16("degraded count")? as usize;
    if r.remaining() < n * 4 {
        return Err(FrameError::Truncated("degraded shard ids"));
    }
    (0..n).map(|_| r.u32("degraded shard")).collect()
}

/// Interprets a frame's payload as a request.
pub fn decode_request(frame: &Frame) -> Result<Request, FrameError> {
    let mut r = R::new(&frame.payload);
    let req = match frame.kind {
        kind::RECT => Request::Rect {
            deadline_ms: r.u32("deadline")?,
            query: get_rect(&mut r)?,
        },
        kind::CELLS => {
            let deadline_ms = r.u32("deadline")?;
            let n = r.u32("cell count")? as usize;
            if n > MAX_CELLS {
                return Err(FrameError::Malformed("cell count over cap"));
            }
            if r.remaining() < n * 16 {
                return Err(FrameError::Truncated("cells"));
            }
            let mut cells = Vec::with_capacity(n);
            for _ in 0..n {
                let row = r.u64("cell row")? as usize;
                let attr = r.u32("cell attr")? as usize;
                let bin = r.u32("cell bin")?;
                cells.push(ab::Cell::new(row, attr, bin));
            }
            Request::Cells { deadline_ms, cells }
        }
        kind::BATCH => {
            let deadline_ms = r.u32("deadline")?;
            let n = r.u16("query count")? as usize;
            if n > MAX_QUERIES {
                return Err(FrameError::Malformed("query count over cap"));
            }
            let mut queries = Vec::with_capacity(n);
            for _ in 0..n {
                queries.push(get_rect(&mut r)?);
            }
            Request::Batch {
                deadline_ms,
                queries,
            }
        }
        kind::PING => Request::Ping,
        kind::SCHEMA => Request::Schema,
        other => return Err(FrameError::UnknownKind(other)),
    };
    r.done()?;
    Ok(req)
}

/// Interprets a frame's payload as a response.
pub fn decode_response(frame: &Frame) -> Result<Response, FrameError> {
    let mut r = R::new(&frame.payload);
    let resp = match frame.kind {
        kind::RECT_OK => Response::Rect {
            degraded: get_degraded(&mut r)?,
            rows: get_rows(&mut r)?,
        },
        kind::CELLS_OK => {
            let degraded = get_degraded(&mut r)?;
            let n = r.u32("hit count")? as usize;
            if r.remaining() < n {
                return Err(FrameError::Truncated("hits"));
            }
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                hits.push(r.u8("hit")? != 0);
            }
            Response::Cells { degraded, hits }
        }
        kind::BATCH_OK => {
            let degraded = get_degraded(&mut r)?;
            let n = r.u16("result count")? as usize;
            if n > MAX_QUERIES {
                return Err(FrameError::Malformed("result count over cap"));
            }
            let results = (0..n).map(|_| get_rows(&mut r)).collect::<Result<_, _>>()?;
            Response::Batch { degraded, results }
        }
        kind::PONG => Response::Pong,
        kind::SCHEMA_OK => {
            let num_rows = r.u64("num_rows")?;
            let n = r.u16("attribute count")? as usize;
            if r.remaining() < n * 4 {
                return Err(FrameError::Truncated("cardinalities"));
            }
            let cardinalities = (0..n)
                .map(|_| r.u32("cardinality"))
                .collect::<Result<_, _>>()?;
            Response::Schema(Schema {
                num_rows,
                cardinalities,
            })
        }
        kind::ERROR => {
            let raw = r.u16("error code")?;
            let code = ErrorCode::from_u16(raw).ok_or(FrameError::Malformed("error code"))?;
            let retryable = r.u8("retryable")? != 0;
            let n = r.u16("message length")? as usize;
            let message = String::from_utf8_lossy(r.take(n, "message")?).into_owned();
            Response::Error {
                code,
                retryable,
                message,
            }
        }
        other => return Err(FrameError::UnknownKind(other)),
    };
    r.done()?;
    Ok(resp)
}

// -------------------------------------------------------------- row sets

/// Row-set form: `count × u64` rows, in the answer's order.
const FORM_LIST: u8 = 0;
/// Row-set form: `first: u64`, `words: u64`, `words × u64` bitmap words.
const FORM_BITMAP: u8 = 1;

/// The bitmap word count for `rows` when BITMAP is the form to send:
/// the rows are strictly ascending, the bitmap (16 header bytes plus
/// 8 per word) is strictly smaller than the list (8 per row), and its
/// span `first + 64·words` fits in `u64`. `None` means LIST.
fn bitmap_words(rows: &[u64]) -> Option<u64> {
    let (&first, &last) = (rows.first()?, rows.last()?);
    let words = last.checked_sub(first)? / 64 + 1;
    let smaller = words + 2 < rows.len() as u64;
    let fits = span_end(first, words).is_some();
    (smaller && fits && rows.windows(2).all(|p| p[0] < p[1])).then_some(words)
}

/// One past a bitmap's last row, `first + 64·words`, if it fits `u64`.
fn span_end(first: u64, words: u64) -> Option<u64> {
    first.checked_add(words.checked_mul(64)?)
}

/// Writes `rows` as a row set in the smaller form.
fn put_rows(w: &mut W, rows: &[u64]) {
    match bitmap_words(rows) {
        Some(words) => {
            w.u8(FORM_BITMAP);
            w.u64(rows.len() as u64);
            w.u64(rows[0]);
            w.u64(words);
            // Little-endian words: bit `d` of the bitmap is bit `d % 8`
            // of byte `d / 8`.
            let base = w.0.len();
            w.0.resize(base + 8 * words as usize, 0);
            for &r in rows {
                let d = (r - rows[0]) as usize;
                w.0[base + d / 8] |= 1 << (d % 8);
            }
        }
        None => {
            w.u8(FORM_LIST);
            w.u64(rows.len() as u64);
            w.0.reserve(8 * rows.len());
            for &r in rows {
                w.u64(r);
            }
        }
    }
}

/// Takes `n` little-endian `u64`s, failing before any allocation when
/// the remaining payload cannot back them.
fn take_u64s<'a>(
    r: &mut R<'a>,
    n: u64,
    what: &'static str,
) -> Result<impl Iterator<Item = u64> + Clone + 'a, FrameError> {
    let len = usize::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(8))
        .ok_or(FrameError::Truncated(what))?;
    let bytes = r.take(len, what)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap())))
}

/// Reads one row set written by [`put_rows`].
fn get_rows(r: &mut R) -> Result<Vec<u64>, FrameError> {
    let form = r.u8("row-set form")?;
    let count = r.u64("row count")?;
    match form {
        FORM_LIST => Ok(take_u64s(r, count, "rows")?.collect()),
        FORM_BITMAP => {
            let first = r.u64("bitmap first row")?;
            let n = r.u64("bitmap word count")?;
            let words = take_u64s(r, n, "bitmap words")?;
            if span_end(first, n).is_none() {
                return Err(FrameError::Malformed("bitmap span overflows u64"));
            }
            if words.clone().map(|w| w.count_ones() as u64).sum::<u64>() != count {
                return Err(FrameError::Malformed(
                    "bitmap popcount differs from row count",
                ));
            }
            let mut rows = Vec::with_capacity(count as usize);
            for (i, mut word) in words.enumerate() {
                let base = first + 64 * i as u64;
                while word != 0 {
                    rows.push(base + word.trailing_zeros() as u64);
                    word &= word - 1;
                }
            }
            Ok(rows)
        }
        _ => Err(FrameError::Malformed("unknown row-set form")),
    }
}

// ------------------------------------------------------------- streaming

/// Incremental frame extractor over a byte stream. Push raw reads in,
/// pop whole CRC-verified frames out; partial frames wait for more
/// bytes. A fatal [`FrameError`] poisons the reader — the stream's
/// frame boundaries are gone, so the connection must close.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so long-lived connections don't grow forever.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame, `Ok(None)` when more bytes
    /// are needed, or a fatal [`FrameError`] when the stream is
    /// corrupt.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u16::from_le_bytes([avail[0], avail[1]]);
        if magic != MAGIC {
            return Err(FrameError::BadMagic { found: magic });
        }
        let version = avail[2];
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let kind = avail[3];
        let request_id = u64::from_le_bytes(avail[4..12].try_into().unwrap());
        let payload_len = u32::from_le_bytes(avail[12..16].try_into().unwrap());
        if payload_len > MAX_PAYLOAD {
            return Err(FrameError::Oversized(payload_len));
        }
        let total = HEADER_LEN + payload_len as usize + TRAILER_LEN;
        if avail.len() < total {
            return Ok(None);
        }
        let body = &avail[..HEADER_LEN + payload_len as usize];
        let stored = u32::from_le_bytes(
            avail[HEADER_LEN + payload_len as usize..total]
                .try_into()
                .unwrap(),
        );
        let computed = ab::crc32(body);
        if stored != computed {
            return Err(FrameError::BadCrc { stored, computed });
        }
        let payload = body[HEADER_LEN..].to_vec();
        self.start += total;
        Ok(Some(Frame {
            request_id,
            kind,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: usize, hi: usize) -> RectQuery {
        RectQuery::new(
            vec![AttrRange::new(0, 1, 3), AttrRange::new(2, 0, 0)],
            lo,
            hi,
        )
    }

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(77, &req).unwrap();
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        assert_eq!(frame.request_id, 77);
        assert_eq!(decode_request(&frame).unwrap(), req);
        assert!(fr.next_frame().unwrap().is_none());
    }

    fn roundtrip_response(resp: Response) {
        let bytes = encode_response(99, &resp);
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        assert_eq!(frame.request_id, 99);
        assert_eq!(decode_response(&frame).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Rect {
            deadline_ms: 250,
            query: rect(10, 4_000_000_000),
        });
        roundtrip_request(Request::Cells {
            deadline_ms: 0,
            cells: vec![ab::Cell::new(5, 1, 3), ab::Cell::new(0, 0, 0)],
        });
        roundtrip_request(Request::Batch {
            deadline_ms: 9,
            queries: vec![rect(0, 7), RectQuery::new(vec![], 3, 3)],
        });
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Schema);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Rect {
            degraded: vec![1, 3],
            rows: vec![0, 9, u64::MAX],
        });
        roundtrip_response(Response::Cells {
            degraded: vec![],
            hits: vec![true, false, true],
        });
        roundtrip_response(Response::Batch {
            degraded: vec![0],
            results: vec![vec![1, 2], vec![], vec![7]],
        });
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Schema(Schema {
            num_rows: 1 << 40,
            cardinalities: vec![10, 4, 255],
        }));
        roundtrip_response(Response::Error {
            code: ErrorCode::Overloaded,
            retryable: true,
            message: "queue 256/256 full".into(),
        });
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let req = Request::Rect {
            deadline_ms: 1,
            query: rect(0, 99),
        };
        let bytes = [
            encode_request(1, &req).unwrap(),
            encode_request(2, &Request::Ping).unwrap(),
        ]
        .concat();
        let mut fr = FrameReader::new();
        let mut got = Vec::new();
        for b in &bytes {
            fr.push(std::slice::from_ref(b));
            while let Some(f) = fr.next_frame().unwrap() {
                got.push(f.request_id);
            }
        }
        assert_eq!(got, vec![1, 2]);
        assert_eq!(fr.pending(), 0);
    }

    /// Each request count the decoder caps is rejected by the encoder
    /// one past the cap, never truncated into its narrower wire field,
    /// and accepted at the cap.
    #[test]
    fn encoder_rejects_counts_past_the_decoder_caps() {
        let ranges = |n: usize| RectQuery::new(vec![AttrRange::new(0, 0, 0); n], 0, 9);
        let rect = |n: usize| Request::Rect {
            deadline_ms: 0,
            query: ranges(n),
        };
        roundtrip_request(rect(MAX_RANGES));
        assert_eq!(
            encode_request(1, &rect(MAX_RANGES + 1)),
            Err(FrameError::Malformed("range count over cap"))
        );
        let batch = |n: usize| Request::Batch {
            deadline_ms: 0,
            queries: vec![ranges(1); n],
        };
        roundtrip_request(batch(MAX_QUERIES));
        assert_eq!(
            encode_request(1, &batch(MAX_QUERIES + 1)),
            Err(FrameError::Malformed("query count over cap"))
        );
        // A batch of in-cap rects whose total exceeds the payload cap.
        let wide = Request::Batch {
            deadline_ms: 0,
            queries: vec![ranges(MAX_RANGES); MAX_QUERIES / 4],
        };
        assert!(matches!(
            encode_request(1, &wide),
            Err(FrameError::Oversized(n)) if n > MAX_PAYLOAD
        ));
        let cells = |n: usize| Request::Cells {
            deadline_ms: 0,
            cells: vec![ab::Cell::new(0, 0, 0); n],
        };
        // 8 header bytes + 16 per cell: the largest cell request that
        // fits the payload cap encodes; MAX_CELLS cells do not fit.
        let fit = (MAX_PAYLOAD as usize - 8) / 16;
        roundtrip_request(cells(fit));
        assert!(matches!(
            encode_request(1, &cells(MAX_CELLS)),
            Err(FrameError::Oversized(_))
        ));
        assert_eq!(
            encode_request(1, &cells(MAX_CELLS + 1)),
            Err(FrameError::Malformed("cell count over cap"))
        );
    }

    /// An answer whose payload would exceed the cap in its smaller
    /// form becomes a non-fatal typed error frame under the request's
    /// id; one that fits only as a bitmap is sent whole.
    #[test]
    fn oversized_answer_encodes_as_answer_too_large() {
        // 2 bytes of degraded count + 9 of row-set header: this many
        // LIST rows fill the cap exactly. `vec![7; n]` is not
        // ascending, so LIST is the only form.
        let fit = (MAX_PAYLOAD as usize - 11) / 8;
        let rows = |n: usize| Response::Rect {
            degraded: vec![],
            rows: vec![7; n],
        };
        let mut fr = FrameReader::new();
        fr.push(&encode_response(3, &rows(fit)));
        assert!(matches!(
            decode_response(&fr.next_frame().unwrap().unwrap()),
            Ok(Response::Rect { rows, .. }) if rows.len() == fit
        ));
        assert_answer_too_large(&encode_response(4, &rows(fit + 1)), 4);
        // Ascending rows 64 apart: the bitmap holds one row per word,
        // so both forms are ~17.6 MB and neither fits.
        let sparse = Response::Rect {
            degraded: vec![],
            rows: (0..2_200_000u64).map(|i| 64 * i).collect(),
        };
        assert_answer_too_large(&encode_response(5, &sparse), 5);
        // 2.2M consecutive rows: 17.6 MB as a list, 275 KB as a bitmap.
        let dense = Response::Rect {
            degraded: vec![],
            rows: (0..2_200_000).collect(),
        };
        let bytes = encode_response(6, &dense);
        assert!(bytes.len() < 300_000, "{} bytes", bytes.len());
        fr.push(&bytes);
        assert_eq!(
            decode_response(&fr.next_frame().unwrap().unwrap()),
            Ok(dense)
        );
    }

    fn assert_answer_too_large(bytes: &[u8], id: u64) {
        let mut fr = FrameReader::new();
        fr.push(bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        assert_eq!(frame.request_id, id);
        match decode_response(&frame).unwrap() {
            Response::Error {
                code, retryable, ..
            } => {
                assert_eq!(code, ErrorCode::AnswerTooLarge);
                assert!(!retryable);
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    /// Seeded row sets of every shape round-trip exactly, and the
    /// encoder sends the smaller form: BITMAP (16 + 8·words bytes)
    /// only for strictly ascending rows whose span fits in `u64`.
    #[test]
    fn row_sets_roundtrip_in_the_smaller_form() {
        let mut sets: Vec<Vec<u64>> = vec![vec![], vec![0], vec![123_456_789]];
        let mut seed = 0x5EED;
        for density in [0.001, 0.005, 0.01, 0.015, 0.02, 0.05, 0.1, 0.5, 0.9, 1.0] {
            for start in [0u64, 1, 63, 1 << 40] {
                seed += 1;
                let len = 20_000;
                let cut = (density * u64::MAX as f64) as u64;
                sets.push(
                    (start..start + len)
                        .filter(|&r| density >= 1.0 || hashkit::splitmix64(seed ^ r) < cut)
                        .collect(),
                );
            }
        }
        // Near u64::MAX: a dense run whose bitmap span would overflow
        // goes as a list; one that ends 72 rows short fits.
        sets.push((u64::MAX - 100..=u64::MAX).collect());
        sets.push((u64::MAX - 200..u64::MAX - 100).collect());
        sets.push(vec![u64::MAX - 1, u64::MAX]);
        // One word: 3 rows tie (24 bytes either way) and go as a list;
        // 4 rows are smaller as a bitmap.
        sets.push(vec![5, 6, 7]);
        sets.push(vec![5, 6, 7, 68]);
        // Unsorted and duplicate lists.
        sets.push((0..500).rev().collect());
        sets.push((0..500).map(|r| r / 2).collect());
        sets.push((0..500).chain(0..1).collect());
        for rows in sets {
            let n = rows.len() as u64;
            let list = 8 * n;
            let ascending = rows.windows(2).all(|p| p[0] < p[1]);
            let bitmap = match (rows.first(), rows.last()) {
                (Some(&first), Some(&last)) if ascending => {
                    let words = (last - first) / 64 + 1;
                    first
                        .checked_add(64 * words)
                        .map_or(u64::MAX, |_| 16 + 8 * words)
                }
                _ => u64::MAX,
            };
            let bytes = encode_response(
                1,
                &Response::Rect {
                    degraded: vec![],
                    rows: rows.clone(),
                },
            );
            let mut fr = FrameReader::new();
            fr.push(&bytes);
            let frame = fr.next_frame().unwrap().unwrap();
            assert_eq!(
                frame.payload.len() as u64,
                2 + 9 + list.min(bitmap),
                "n={n}"
            );
            let form = if bitmap < list {
                FORM_BITMAP
            } else {
                FORM_LIST
            };
            assert_eq!(frame.payload[2], form, "n={n}");
            assert_eq!(
                decode_response(&frame),
                Ok(Response::Rect {
                    degraded: vec![],
                    rows
                })
            );
        }
    }

    /// A bitmap whose popcount disagrees with its count, or whose
    /// span overflows `u64`, is a recoverable typed error.
    #[test]
    fn bitmap_row_sets_are_checked() {
        let bitmap = |count: u64, first: u64, words: &[u64]| {
            let mut w = W(Vec::new());
            w.u16(0);
            w.u8(FORM_BITMAP);
            w.u64(count);
            w.u64(first);
            w.u64(words.len() as u64);
            for &x in words {
                w.u64(x);
            }
            let mut fr = FrameReader::new();
            fr.push(&seal(1, kind::RECT_OK, &w.0));
            decode_response(&fr.next_frame().unwrap().unwrap())
        };
        assert_eq!(
            bitmap(3, 10, &[0b1011]),
            Ok(Response::Rect {
                degraded: vec![],
                rows: vec![10, 11, 13]
            })
        );
        for count in [2, 4, u64::MAX] {
            let e = bitmap(count, 10, &[0b1011]).unwrap_err();
            assert_eq!(
                e,
                FrameError::Malformed("bitmap popcount differs from row count")
            );
            assert!(!e.is_fatal());
        }
        assert_eq!(
            bitmap(1, u64::MAX - 63, &[1]),
            Err(FrameError::Malformed("bitmap span overflows u64"))
        );
        assert!(matches!(bitmap(1, 0, &[]), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut bytes = encode_request(1, &Request::Ping).unwrap();
        bytes[0] ^= 0xFF;
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let e = fr.next_frame().unwrap_err();
        assert!(matches!(e, FrameError::BadMagic { .. }) && e.is_fatal());
        assert_eq!(e.code(), ErrorCode::BadMagic);
    }

    #[test]
    fn bad_version_is_fatal() {
        let mut bytes = encode_request(1, &Request::Ping).unwrap();
        bytes[2] = 9;
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let e = fr.next_frame().unwrap_err();
        assert_eq!(e, FrameError::BadVersion(9));
        assert!(e.is_fatal());
    }

    #[test]
    fn oversized_length_is_fatal_before_allocation() {
        let mut bytes = encode_request(1, &Request::Ping).unwrap();
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let e = fr.next_frame().unwrap_err();
        assert!(matches!(e, FrameError::Oversized(_)) && e.is_fatal());
    }

    #[test]
    fn any_single_byte_flip_is_caught_by_crc() {
        let bytes = encode_request(
            42,
            &Request::Rect {
                deadline_ms: 7,
                query: rect(3, 9),
            },
        )
        .unwrap();
        // Flipping any byte after the version/length fields must
        // surface as *some* framing error (usually BadCrc); never a
        // silently different frame.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            let mut fr = FrameReader::new();
            fr.push(&bad);
            match fr.next_frame() {
                Err(_) => {}
                Ok(Some(f)) => panic!("flip at {i} yielded frame {f:?}"),
                // A flipped length byte can make the frame look
                // incomplete — that's a stall, not an accepted frame.
                Ok(None) => assert!((12..16).contains(&i), "flip at {i} stalled"),
            }
        }
    }

    #[test]
    fn truncated_payload_decodes_to_typed_error() {
        // Claim 3 ranges but supply only 1: header/CRC are valid, so
        // the frame parses; the payload decode must fail recoverably.
        let mut w = W(Vec::new());
        w.u32(0); // deadline
        w.u64(0);
        w.u64(10);
        w.u16(3); // lies: only one range follows
        w.u32(0);
        w.u32(1);
        w.u32(2);
        let bytes = seal(5, kind::RECT, &w.0);
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        let e = decode_request(&frame).unwrap_err();
        assert!(!e.is_fatal());
        assert_eq!(e.code(), ErrorCode::Malformed);
    }

    #[test]
    fn unknown_kind_is_recoverable() {
        let bytes = seal(6, 0x5F, &[]);
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        let e = decode_request(&frame).unwrap_err();
        assert_eq!(e, FrameError::UnknownKind(0x5F));
        assert!(!e.is_fatal());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&seal(0, kind::PING, &[])[16..16]); // none
        payload.push(0xAA);
        let bytes = seal(7, kind::PING, &payload);
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        assert!(matches!(
            decode_request(&frame),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Cancelled,
            ErrorCode::InvalidQuery,
            ErrorCode::Shutdown,
            ErrorCode::WahUnavailable,
            ErrorCode::RetriesExhausted,
            ErrorCode::ShardQuarantined,
            ErrorCode::AnswerTooLarge,
            ErrorCode::BadMagic,
            ErrorCode::BadVersion,
            ErrorCode::Oversized,
            ErrorCode::BadCrc,
            ErrorCode::UnknownKind,
            ErrorCode::Malformed,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(999), None);
    }
}
