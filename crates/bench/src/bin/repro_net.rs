//! End-to-end socket throughput: req/s and client-observed latency
//! through the full network stack (client → ABQ/2 framing → epoll
//! event loop → admission → sharded service → framing → client), so
//! the repo's headline numbers include the wire, not just the index.
//!
//! Points: closed-loop rect and batch mixes at 1 and 4 connections,
//! plus one open-loop rect point at ~50% of the measured closed-loop
//! capacity (arrival-rate driven, coordinated-omission-corrected — the
//! honest tail-latency number).
//!
//! Emits `BENCH_net.json` whose `extra` map carries
//! `net.rps.<kind>.conns<N>`,
//! `net.latency_us.<kind>.conns<N>.{p50,p95,p99,p999}`, and
//! `net.total_rps.conns<N>` — the grammar `abq bench-report` folds
//! next to the in-process `BENCH_svc.json` numbers.
//!
//! Usage: `cargo run --release -p bench --bin repro_net
//!         [--scale F] [--seed N]`

use bench::{print_table, write_bench_snapshot};
use net::loadgen::{LoadgenConfig, LoadgenReport, Mix, Mode};
use net::{NetConfig, NetServer};
use std::sync::Arc;
use std::time::Duration;
use svc::{Service, SvcConfig};

const CONN_POINTS: [usize; 2] = [1, 4];
const SECS_PER_POINT: f64 = 1.5;

fn main() {
    let opts = bench::cli::from_env();
    obs::global().reset();

    let rows = ((1_000_000.0 * opts.scale) as usize).max(20_000);
    let ds = datagen::small_uniform(rows, 4, 10, opts.seed);
    let config = ab::AbConfig::new(ab::Level::PerAttribute).with_alpha(8);
    let svc = Arc::new(Service::build(
        &ds.binned,
        &config,
        &SvcConfig {
            shards: 8,
            // Span trees per request would dominate the wire overhead
            // this bench is trying to isolate.
            trace_requests: false,
            ..SvcConfig::default()
        },
    ));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&svc), NetConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr().to_string();
    println!(
        "dataset: {rows} rows x 4 attributes, 8 shards; serving on {addr} ({} backend)",
        server.backend()
    );

    let point = |mix: Mix, conns: usize, mode: Mode| -> LoadgenReport {
        net::loadgen::run(&LoadgenConfig {
            addr: addr.clone(),
            conns,
            duration: Duration::from_secs_f64(SECS_PER_POINT),
            mode,
            mix,
            seed: opts.seed,
            batch_size: 8,
            deadline_ms: 0,
        })
        .expect("loadgen run")
    };

    // Closed-loop grid: rect and batch at each connection count.
    let mut table_rows: Vec<Vec<String>> = Vec::new();
    let mut snap = obs::global().snapshot();
    let mut rect_rps_at_max_conns = 0.0;
    for &conns in &CONN_POINTS {
        for (label, mix) in [("rect", Mix::RECT), ("batch", Mix::BATCH)] {
            let r = point(mix, conns, Mode::Closed { pipeline: 4 });
            assert_eq!(r.transport_errors, 0, "transport errors at {label}/{conns}");
            let k = r
                .kinds
                .iter()
                .find(|k| k.kind == label)
                .expect("kind has traffic");
            if label == "rect" {
                rect_rps_at_max_conns = r.rps;
            }
            table_rows.push(vec![
                label.to_string(),
                conns.to_string(),
                "closed/4".to_string(),
                format!("{:.0}", r.rps),
                k.p50.to_string(),
                k.p95.to_string(),
                k.p99.to_string(),
                k.p999.to_string(),
            ]);
            snap = snap
                .with_extra(&format!("net.rps.{label}.conns{conns}"), r.rps)
                .with_extra(&format!("net.total_rps.conns{conns}"), r.rps);
            let base = format!("net.latency_us.{label}.conns{conns}");
            snap = snap
                .with_extra(&format!("{base}.p50"), k.p50 as f64)
                .with_extra(&format!("{base}.p95"), k.p95 as f64)
                .with_extra(&format!("{base}.p99"), k.p99 as f64)
                .with_extra(&format!("{base}.p999"), k.p999 as f64);
        }
    }

    // Open-loop point: rect arrivals at half the closed-loop capacity,
    // so the latency distribution reflects service time + queueing at
    // a sustainable load rather than saturation.
    let target = (rect_rps_at_max_conns * 0.5).max(50.0);
    let conns = *CONN_POINTS.last().expect("points");
    let r = point(Mix::RECT, conns, Mode::Open { rps: target });
    if let Some(k) = r.kinds.iter().find(|k| k.kind == "rect") {
        table_rows.push(vec![
            "rect_open".to_string(),
            conns.to_string(),
            format!("open@{target:.0}"),
            format!("{:.0}", r.rps),
            k.p50.to_string(),
            k.p95.to_string(),
            k.p99.to_string(),
            k.p999.to_string(),
        ]);
        snap = snap.with_extra(&format!("net.rps.rect_open.conns{conns}"), r.rps);
        let base = format!("net.latency_us.rect_open.conns{conns}");
        snap = snap
            .with_extra(&format!("{base}.p50"), k.p50 as f64)
            .with_extra(&format!("{base}.p95"), k.p95 as f64)
            .with_extra(&format!("{base}.p99"), k.p99 as f64)
            .with_extra(&format!("{base}.p999"), k.p999 as f64);
    }

    print_table(
        "Socket throughput (full network stack, loopback TCP)",
        &[
            "kind", "conns", "mode", "req/s", "p50 µs", "p95 µs", "p99 µs", "p999 µs",
        ],
        &table_rows,
    );

    server.shutdown(Duration::from_secs(2));

    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    snap = snap
        .with_extra("net.hw_threads", hw as f64)
        .with_extra("net.dataset_rows", rows as f64);
    match write_bench_snapshot("net", &snap) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write snapshot: {e}"),
    }
}
