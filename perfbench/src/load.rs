//! The closed-loop socket client: `conns` connections, pipeline 1,
//! each sending its next request only after the previous one answers.

use crate::gen::{Pool, Req, Workload};
use crate::trace::SpanLog;
use net::{ErrorCode, NetError, Request, Response};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long one request may take before the client gives up on the
/// connection (counted as a transport error, then reconnects).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How one request ended. Every failure is counted, none aborts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    Ok,
    /// A typed error frame other than the two below.
    ErrorFrame,
    /// Admission control shed the request (`overloaded`).
    Shed,
    /// The request's deadline expired.
    Deadline,
    /// The connection failed; the client reconnects.
    Transport,
}

impl Outcome {
    pub const FAILURES: [Outcome; 4] = [
        Outcome::ErrorFrame,
        Outcome::Shed,
        Outcome::Deadline,
        Outcome::Transport,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::ErrorFrame => "error_frame",
            Outcome::Shed => "shed",
            Outcome::Deadline => "deadline",
            Outcome::Transport => "transport",
        }
    }
}

/// A served answer, kept whole the first time each request is seen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Rows(Vec<u64>),
    Hits(Vec<bool>),
    Batch(Vec<Vec<u64>>),
}

impl Answer {
    /// Rows in the answer (0 for cell retrievals).
    pub fn rows(&self) -> u64 {
        match self {
            Answer::Rows(r) => r.len() as u64,
            Answer::Hits(_) => 0,
            Answer::Batch(b) => b.iter().map(|r| r.len() as u64).sum(),
        }
    }

    /// Order-sensitive 64-bit digest of the whole answer.
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        match self {
            Answer::Rows(r) => h.rows(r),
            Answer::Hits(hits) => {
                h.push(hits.len() as u64);
                for &b in hits {
                    h.push(b as u64);
                }
            }
            Answer::Batch(b) => {
                h.push(b.len() as u64);
                for r in b {
                    h.rows(r);
                }
            }
        }
        h.0
    }
}

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0x6A09_E667_F3BC_C908)
    }
    fn push(&mut self, v: u64) {
        self.0 = hashkit::splitmix64(self.0 ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    fn rows(&mut self, r: &[u64]) {
        self.push(r.len() as u64);
        for &x in r {
            self.push(x);
        }
    }
}

/// One timed request.
#[derive(Clone, Debug)]
pub struct Sample {
    pub req: Req,
    /// Round of the pass the sample was taken in.
    pub round: usize,
    pub latency_us: f64,
    pub outcome: Outcome,
    /// Digest of the answer (0 unless `outcome` is `Ok`).
    pub digest: u64,
    /// The server marked the answer degraded (a quarantined shard).
    pub degraded: bool,
}

/// What a closed-loop run observed.
#[derive(Default)]
pub struct LoadResult {
    pub samples: Vec<Sample>,
    /// The first whole answer per distinct request.
    pub first_answers: Vec<(Req, Answer)>,
    /// Wall time of each round of a [`traffic`] pass (all its phases),
    /// in seconds.
    pub round_secs: Vec<f64>,
    pub reconnects: u64,
    pub spans: SpanLog,
}

/// Requests prepared once per pool slot, so the loop only encodes.
pub struct Prepared {
    rects: Vec<Request>,
    cells: Vec<Request>,
    batches: Vec<Request>,
}

impl Prepared {
    pub fn new(pool: &Pool) -> Prepared {
        Prepared {
            rects: pool
                .rects
                .iter()
                .map(|q| Request::Rect {
                    deadline_ms: 0,
                    query: q.clone(),
                })
                .collect(),
            cells: pool
                .cells
                .iter()
                .map(|c| Request::Cells {
                    deadline_ms: 0,
                    cells: c.clone(),
                })
                .collect(),
            batches: pool
                .batches
                .iter()
                .map(|b| Request::Batch {
                    deadline_ms: 0,
                    queries: b.clone(),
                })
                .collect(),
        }
    }

    pub fn get(&self, req: Req) -> &Request {
        match req {
            Req::Rect(s) => &self.rects[s],
            Req::Cells(s) => &self.cells[s],
            Req::Batch(s) => &self.batches[s],
        }
    }
}

/// Shared state of one run's request sequences.
pub struct Sequence<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub pool: &'a Pool,
    pub prepared: &'a Prepared,
    /// Next sequence number to send per kind; shared by every
    /// connection.
    pub next: [AtomicU64; 3],
    /// Requests whose whole answer has been kept already.
    pub kept: Mutex<HashSet<Req>>,
}

impl<'a> Sequence<'a> {
    pub fn new(workload: Workload, seed: u64, pool: &'a Pool, prepared: &'a Prepared) -> Self {
        Sequence {
            workload,
            seed,
            pool,
            prepared,
            next: Default::default(),
            kept: Mutex::new(HashSet::new()),
        }
    }

    fn take(&self, kind: usize) -> Req {
        let i = self.next[kind].fetch_add(1, Ordering::Relaxed);
        self.pool.item(self.seed, kind, i)
    }
}

/// One connection attempt, with the client's read timeout set.
fn connect(addr: SocketAddr) -> Option<net::Client> {
    let mut c = net::Client::connect(addr).ok()?;
    c.set_read_timeout(Some(READ_TIMEOUT)).ok()?;
    Some(c)
}

/// One round trip; maps every way it can end onto an [`Outcome`].
fn round_trip(client: &mut net::Client, req: &Request) -> (Outcome, Option<Answer>, bool) {
    let sent = match client.send(req) {
        Ok(id) => id,
        Err(_) => return (Outcome::Transport, None, false),
    };
    match client.recv() {
        Ok((id, _)) if id != sent => (Outcome::Transport, None, false),
        Ok((_, Response::Rect { degraded, rows })) => {
            (Outcome::Ok, Some(Answer::Rows(rows)), !degraded.is_empty())
        }
        Ok((_, Response::Cells { degraded, hits })) => {
            (Outcome::Ok, Some(Answer::Hits(hits)), !degraded.is_empty())
        }
        Ok((_, Response::Batch { degraded, results })) => (
            Outcome::Ok,
            Some(Answer::Batch(results)),
            !degraded.is_empty(),
        ),
        Ok((_, Response::Error { code, .. })) => (error_outcome(code), None, false),
        Ok(_) => (Outcome::ErrorFrame, None, false),
        Err(NetError::Remote { code, .. }) => (error_outcome(code), None, false),
        Err(_) => (Outcome::Transport, None, false),
    }
}

fn error_outcome(code: ErrorCode) -> Outcome {
    match code {
        ErrorCode::Overloaded => Outcome::Shed,
        ErrorCode::DeadlineExceeded => Outcome::Deadline,
        _ => Outcome::ErrorFrame,
    }
}

impl LoadResult {
    pub fn absorb(&mut self, other: LoadResult) {
        self.samples.extend(other.samples);
        self.first_answers.extend(other.first_answers);
        self.round_secs.extend(other.round_secs);
        self.reconnects += other.reconnects;
        self.spans.absorb(other.spans);
    }
}

/// Rounds of phases per pass. Each kind is measured in slices spread
/// over the pass, so a slow spell of the host hits every kind alike,
/// and every timing can be taken per round and medianed over rounds.
pub const ROUNDS: usize = 5;

/// One pass of the workload's traffic: `ROUNDS` rounds of one
/// closed-loop phase per kind (rect, cells, batch), each kind getting
/// its share of `seconds` in all.
pub fn traffic(
    addr: SocketAddr,
    seq: &Sequence<'_>,
    conns: usize,
    seconds: f64,
    traced: bool,
) -> LoadResult {
    let mut out = LoadResult::default();
    for round in 0..ROUNDS {
        let mut secs = 0.0;
        for (kind, share) in seq.workload.phase_shares().into_iter().enumerate() {
            let (mut r, took) = closed_loop(
                addr,
                seq,
                kind,
                conns,
                seconds * share / ROUNDS as f64,
                traced,
            );
            for s in &mut r.samples {
                s.round = round;
            }
            secs += took;
            out.absorb(r);
        }
        out.round_secs.push(secs);
    }
    out
}

/// Drives the server closed-loop with requests of one kind for
/// `seconds` over `conns` connections; returns what it observed and
/// how long it took. With `traced`, every client call is wrapped in a
/// span.
fn closed_loop(
    addr: SocketAddr,
    seq: &Sequence<'_>,
    kind: usize,
    conns: usize,
    seconds: f64,
    traced: bool,
) -> (LoadResult, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<LoadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| s.spawn(move || one_connection(addr, seq, kind, end, traced, conn as u64)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = LoadResult::default();
    for r in per_conn {
        out.absorb(r);
    }
    (out, start.elapsed().as_secs_f64())
}

fn one_connection(
    addr: SocketAddr,
    seq: &Sequence<'_>,
    kind: usize,
    end: Instant,
    traced: bool,
    conn: u64,
) -> LoadResult {
    let mut out = LoadResult::default();
    let mut client = connect(addr);
    let mut request_id = conn << 48;
    while Instant::now() < end {
        let req = seq.take(kind);
        let wire = seq.prepared.get(req);
        request_id += 1;
        let span = traced.then(|| out.spans.begin(client_span(req), None, request_id));
        let t0 = Instant::now();
        // Without a connection the request cannot be sent: a transport
        // error like any other.
        let (outcome, answer, degraded) = match client.as_mut() {
            Some(c) => round_trip(c, wire),
            None => (Outcome::Transport, None, false),
        };
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        if let Some(id) = span {
            out.spans.end(id);
        }
        let digest = answer.as_ref().map_or(0, Answer::digest);
        if let Some(a) = answer {
            if seq.kept.lock().expect("kept set").insert(req) {
                out.first_answers.push((req, a));
            }
        }
        out.samples.push(Sample {
            req,
            round: 0,
            latency_us,
            outcome,
            digest,
            degraded,
        });
        if outcome == Outcome::Transport {
            // A broken, desynchronized or missing connection: start
            // afresh, pausing before the next request if that fails.
            out.reconnects += 1;
            client = connect(addr);
            if client.is_none() {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    out
}

fn client_span(req: Req) -> &'static str {
    match req {
        Req::Rect(_) => "net.client.rect",
        Req::Cells(_) => "net.client.cells",
        Req::Batch(_) => "net.client.batch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Data;

    #[test]
    fn a_missing_server_counts_every_request_as_a_transport_failure() {
        let data = Data::generate(Workload::Wide, 1, 1000);
        let pool = Pool::generate(Workload::Wide, 1, &data);
        let prepared = Prepared::new(&pool);
        let seq = Sequence::new(Workload::Wide, 1, &pool, &prepared);
        // A port nothing listens on any more.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("loopback port");
        let (r, _) = closed_loop(addr, &seq, 0, 2, 0.1, false);
        assert!(r.samples.len() >= 2, "{} samples", r.samples.len());
        assert!(r.samples.iter().all(|s| s.outcome == Outcome::Transport));
        assert_eq!(r.reconnects, r.samples.len() as u64);
    }
}
