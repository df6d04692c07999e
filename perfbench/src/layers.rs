//! The traced replay: the run's seeded request sequence, sent through
//! each layer's public entry point in turn, so its cost can be
//! attributed across hashkit → ab (whole table, then one shard's
//! slice) → svc → net (frame codec, then the socket) → store.

use crate::gen::{Data, Pool, Req};
use crate::stats::median;
use crate::trace::SpanLog;
use ab::{AbIndex, HybridMode, KernelOpts, QueryStats};
use bitmap::RectQuery;
use net::frame::{self, FrameReader};
use net::{Request, Response};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};
use svc::{Service, ShardedIndex};

/// Requests of each kind `[rect, cells, batch]` the replay aims for.
const QUOTA: [usize; 3] = [300, 300, 24];
/// Rows per rect whose cells the hashkit probe timing covers.
const HASH_ROWS_PER_RECT: usize = 4096;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Accumulators for one replay.
#[derive(Default)]
struct Acc {
    probe_ns: f64,
    positions: u64,
    ab_rect_us: Vec<f64>,
    ab_shard_us: Vec<f64>,
    ab_cells_us: Vec<f64>,
    /// `QueryStats` summed over the rects' shard parts.
    served: QueryStats,
    rect_queries: u64,
    parts: u64,
    parts_descended: u64,
    part_rows: u64,
    rows_skipped: u64,
    probes_no_hybrid: u64,
    fp_eliminated: u64,
    svc_us: [Vec<f64>; 3],
    overhead_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    wire_bytes: u64,
    wire_rows: u64,
    rtt_us: Vec<f64>,
    socket_mismatches: u64,
}

/// Positions of every (row, attribute, bin) cell `req` touches, for
/// the served family of the whole-table index.
fn hash_cells(whole: &AbIndex, pool: &Pool, req: Req) -> (f64, u64) {
    let mut groups: Vec<(usize, u32, Vec<usize>)> = Vec::new();
    let mut add_rect = |q: &RectQuery, cap: usize| {
        let rows: Vec<usize> = (q.row_lo..=q.row_hi).take(cap).collect();
        for r in &q.ranges {
            for bin in r.lo..=r.hi {
                groups.push((r.attribute, bin, rows.clone()));
            }
        }
    };
    match req {
        Req::Rect(s) => add_rect(&pool.rects[s], HASH_ROWS_PER_RECT),
        Req::Batch(s) => {
            for q in &pool.batches[s] {
                add_rect(q, HASH_ROWS_PER_RECT / 8);
            }
        }
        Req::Cells(s) => {
            for c in &pool.cells[s] {
                groups.push((c.attribute, c.bin, vec![c.row]));
            }
        }
    }
    let t = Instant::now();
    let mut positions = 0u64;
    let mut sink = 0u64;
    for (attr, bin, rows) in &groups {
        // Per-attribute level: attribute `attr` owns AB `attr`, and a
        // cell's column id is its bin.
        let ab = &whole.abs()[*attr];
        let prober = ab
            .family()
            .col_prober(*bin as u64, ab.mapper(), ab.n_bits());
        for &row in rows {
            let mut probe = prober.begin(row as u64);
            for _ in 0..ab.k() {
                sink ^= prober.next_position(&mut probe);
            }
            positions += ab.k() as u64;
        }
    }
    black_box(sink);
    (t.elapsed().as_nanos() as f64, positions)
}

fn rows_u64(rows: Vec<usize>) -> Vec<u64> {
    rows.into_iter().map(|r| r as u64).collect()
}

/// One request through every layer. `root` parents the layer spans.
#[allow(clippy::too_many_arguments)]
fn replay_one(
    acc: &mut Acc,
    spans: &mut SpanLog,
    pool: &Pool,
    req: Req,
    id: u64,
    svc: &Service,
    whole: &AbIndex,
    client: &mut net::Client,
) {
    let opts = svc.kernel_opts();
    let root_id = spans.begin("request", None, id);
    let root = Some(root_id);

    let ((ns, positions), _) =
        spans.time("hashkit.probe", root, id, || hash_cells(whole, pool, req));
    acc.probe_ns += ns;
    acc.positions += positions;

    // ab, whole table on one thread.
    match req {
        Req::Rect(s) => {
            let q = &pool.rects[s];
            let (_, us) = spans.time("ab.rect", root, id, || {
                black_box(
                    whole
                        .try_execute_rect_with_stats_opts(q, opts)
                        .expect("valid query"),
                )
            });
            acc.ab_rect_us.push(us);
            acc.rect_queries += 1;
        }
        Req::Batch(s) => {
            for q in &pool.batches[s] {
                spans.time("ab.rect", root, id, || {
                    black_box(
                        whole
                            .try_execute_rect_with_opts(q, opts)
                            .expect("valid query"),
                    )
                });
            }
        }
        Req::Cells(s) => {
            let (_, us) = spans.time("ab.cells", root, id, || {
                black_box(whole.retrieve_cells_with_opts(&pool.cells[s], opts))
            });
            acc.ab_cells_us.push(us);
        }
    }

    // ab, one shard's slice at a time (rects only: the shard parts the
    // service would dispatch for this query).
    let mut slowest_part_us = 0f64;
    if let Req::Rect(s) = req {
        let index = svc.index();
        for (sid, local) in index.split_rect(&pool.rects[s]) {
            let shard = &index.shards()[sid].index();
            let ((_, st), us) = spans.time("ab.shard_rect", root, id, || {
                shard
                    .try_execute_rect_with_stats_opts(&local, opts)
                    .expect("valid part")
            });
            acc.ab_shard_us.push(us);
            slowest_part_us = slowest_part_us.max(us);
            acc.parts += 1;
            acc.part_rows += local.num_rows() as u64;
            acc.served.cells_probed += st.cells_probed;
            acc.served.bits_read += st.bits_read;
            acc.served.rows_matched += st.rows_matched;
            acc.rows_skipped += st.rows_skipped;
            acc.fp_eliminated += st.fp_rows_eliminated;
            if opts.hier != ab::HierMode::Off {
                if let Some(h) = shard.hier() {
                    acc.parts_descended += ab::plan_descent(h, &local) as u64;
                }
            }
            if opts.hybrid != HybridMode::Off {
                let flat = opts.with_hybrid(HybridMode::Off);
                let ((_, st_off), _) = spans.time("ab.shard_rect.hybrid_off", root, id, || {
                    shard
                        .try_execute_rect_with_stats_opts(&local, flat)
                        .expect("valid part")
                });
                acc.probes_no_hybrid += st_off.cells_probed as u64;
            } else {
                acc.probes_no_hybrid += st.cells_probed as u64;
            }
        }
    }

    // svc in-process, then the frame codec on its answer.
    let (resp, request, svc_us) = match req {
        Req::Rect(s) => {
            let (rows, us) = spans.time("svc.rect", root, id, || svc.query_rect(&pool.rects[s]));
            acc.svc_us[0].push(us);
            acc.overhead_us.push(us - slowest_part_us);
            let resp = Response::Rect {
                degraded: vec![],
                rows: rows_u64(rows.expect("in-process rect")),
            };
            let request = Request::Rect {
                deadline_ms: 0,
                query: pool.rects[s].clone(),
            };
            (resp, request, us)
        }
        Req::Cells(s) => {
            let (hits, us) =
                spans.time("svc.cells", root, id, || svc.retrieve_cells(&pool.cells[s]));
            acc.svc_us[1].push(us);
            let resp = Response::Cells {
                degraded: vec![],
                hits: hits.expect("in-process cells"),
            };
            let request = Request::Cells {
                deadline_ms: 0,
                cells: pool.cells[s].clone(),
            };
            (resp, request, us)
        }
        Req::Batch(s) => {
            let (res, us) = spans.time("svc.batch", root, id, || svc.query_batch(&pool.batches[s]));
            acc.svc_us[2].push(us);
            let resp = Response::Batch {
                degraded: vec![],
                results: res
                    .expect("in-process batch")
                    .into_iter()
                    .map(rows_u64)
                    .collect(),
            };
            let request = Request::Batch {
                deadline_ms: 0,
                queries: pool.batches[s].clone(),
            };
            (resp, request, us)
        }
    };
    let (bytes, encode_us) =
        spans.time("net.encode", root, id, || frame::encode_response(id, &resp));
    let (decoded, decode_us) = spans.time("net.decode", root, id, || {
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        let f = reader
            .next_frame()
            .expect("well-formed")
            .expect("one whole frame");
        frame::decode_response(&f).expect("decodes")
    });
    if decoded != resp {
        acc.socket_mismatches += 1;
    }
    let rows = match &resp {
        Response::Rect { rows, .. } => rows.len() as u64,
        Response::Batch { results, .. } => results.iter().map(|r| r.len() as u64).sum(),
        _ => 0,
    };
    if rows > 0 {
        acc.wire_bytes += bytes.len() as u64;
        acc.wire_rows += rows;
    }
    if matches!(req, Req::Rect(_)) {
        acc.encode_us.push(encode_us);
        acc.decode_us.push(decode_us);
    }

    // The same request over the socket; its answer must match svc's.
    let (over_socket, socket_us) = spans.time("net.socket", root, id, || client.call(&request));
    if !matches!(over_socket, Ok(ref r) if *r == resp) {
        acc.socket_mismatches += 1;
    }
    if matches!(req, Req::Rect(_)) {
        acc.rtt_us.push(socket_us - svc_us);
    }
    spans.end(root_id);
}

/// Store layer: segment write and open+decode of the served index.
fn store_layer(spans: &mut SpanLog, svc: &Service, dir: &Path, rows: usize) -> Metrics {
    let path = dir.join("replay.abpg");
    let mut build = Vec::new();
    let mut open = Vec::new();
    for i in 0..3u64 {
        let (_, us) = spans.time("store.build", None, i, || {
            let payload = svc.index().to_bytes();
            store::write(&path, &payload, store::DEFAULT_PAGE_SIZE, &store::RealIo)
                .expect("segment write")
        });
        build.push(us / 1e6);
        let (_, us) = spans.time("store.open", None, i, || {
            let st = store::Store::open_with(&path, false).expect("segment opens");
            black_box(ShardedIndex::from_bytes(st.payload()).expect("segment decodes"))
        });
        open.push(us / 1e6);
    }
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&path);
    BTreeMap::from([
        ("store.build_s", median(&build).unwrap_or(0.0)),
        ("store.open_s", median(&open).unwrap_or(0.0)),
        ("store.bytes_per_row", bytes as f64 / rows as f64),
    ])
}

/// Replays the sequence from its start through every layer for about
/// `budget` (longer if a kind has not been seen yet).
#[allow(clippy::too_many_arguments)]
pub fn replay(
    seed: u64,
    data: &Data,
    pool: &Pool,
    svc: &Service,
    whole: &AbIndex,
    addr: SocketAddr,
    budget: Duration,
    dir: &Path,
    spans: &mut SpanLog,
) -> Result<Metrics, String> {
    let mut client = net::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut acc = Acc::default();
    let mut seen = [0usize; 3];
    let start = Instant::now();
    // Round-robin over the kinds' sequences, each from its start.
    'replay: for i in 0u64.. {
        for kind in 0..3 {
            let done = seen.iter().zip(QUOTA).all(|(&n, q)| n >= q);
            let out_of_time = start.elapsed() > budget && seen.iter().all(|&n| n > 0);
            if done || out_of_time {
                break 'replay;
            }
            if seen[kind] < QUOTA[kind] {
                seen[kind] += 1;
                let req = pool.item(seed, kind, i);
                replay_one(
                    &mut acc,
                    spans,
                    pool,
                    req,
                    3 * i + kind as u64,
                    svc,
                    whole,
                    &mut client,
                );
            }
        }
    }
    if acc.socket_mismatches > 0 {
        return Err(format!(
            "{} replayed answers differ between svc, the frame codec and the socket",
            acc.socket_mismatches
        ));
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let per_rect = |x: f64| x / acc.rect_queries.max(1) as f64;
    let mut m = Metrics::new();
    m.insert(
        "hashkit.probe_ns",
        acc.probe_ns / acc.positions.max(1) as f64,
    );
    m.insert("ab.rect_us", med(&acc.ab_rect_us));
    m.insert("ab.shard_rect_us", med(&acc.ab_shard_us));
    m.insert("ab.cells_probed", per_rect(acc.served.cells_probed as f64));
    m.insert("ab.bits_read", per_rect(acc.served.bits_read as f64));
    m.insert(
        "ab.probes_per_match",
        acc.served.cells_probed as f64 / acc.served.rows_matched.max(1) as f64,
    );
    m.insert("ab.cells_us", med(&acc.ab_cells_us));
    m.insert(
        "ab.hier.descend_frac",
        acc.parts_descended as f64 / acc.parts.max(1) as f64,
    );
    m.insert(
        "ab.hier.rows_skipped_frac",
        acc.rows_skipped as f64 / acc.part_rows.max(1) as f64,
    );
    m.insert(
        "ab.hybrid.probes_saved_frac",
        1.0 - acc.served.cells_probed as f64 / acc.probes_no_hybrid.max(1) as f64,
    );
    m.insert(
        "ab.hybrid.fp_rows_eliminated",
        per_rect(acc.fp_eliminated as f64),
    );
    m.insert("svc.rect_us", med(&acc.svc_us[0]));
    m.insert("svc.cells_us", med(&acc.svc_us[1]));
    m.insert("svc.batch_us", med(&acc.svc_us[2]));
    m.insert("svc.overhead_us", med(&acc.overhead_us));
    m.insert("net.encode_us", med(&acc.encode_us));
    m.insert("net.decode_us", med(&acc.decode_us));
    m.insert(
        "net.wire_bytes_per_row",
        acc.wire_bytes as f64 / acc.wire_rows.max(1) as f64,
    );
    m.insert("net.rtt_us", med(&acc.rtt_us));
    m.extend(store_layer(spans, svc, dir, data.rows));
    eprintln!(
        "replay: {} rect, {} cells, {} batch requests through every layer in {:.1} s",
        seen[0],
        seen[1],
        seen[2],
        start.elapsed().as_secs_f64()
    );
    Ok(m)
}

/// The whole table as one index on one thread (ROADMAP layer 1), with
/// the served tiers attached.
pub fn whole_table(binned: &bitmap::BinnedTable, opts: KernelOpts) -> AbIndex {
    let mut whole = AbIndex::build_parallel(binned, &crate::gate::ab_config(), 2);
    if opts.hier != ab::HierMode::Off {
        whole.ensure_hier(&ab::HierConfig::default());
    }
    if opts.hybrid != HybridMode::Off {
        whole.ensure_hybrid(binned, &ab::HybridConfig::default());
    }
    whole
}
