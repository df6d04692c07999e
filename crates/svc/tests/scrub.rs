//! Scrub-under-load: rot a byte of the segment store **on disk**
//! while a service built from that store is answering queries, and
//! drive the detect → degrade → repair → healthy lifecycle. The
//! contract at every step:
//!
//! * detection — the scrubber finds the flipped page and names the
//!   damaged shard;
//! * degradation — the shard is quarantined, so every answer is a
//!   conservative superset (100% recall, zero false negatives);
//! * repair — the file is rebuilt through the crash-safe writer and
//!   is **bit-identical** to the pre-damage bytes (AB builds are
//!   deterministic);
//! * recovery — quarantine lifts, `/healthz` walks
//!   `healthy → degraded/repairing → healthy`.

use ab::{AbConfig, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use svc::scrub::{scrub_pass, PassOutcome, RepairSource, Scrubber, StoreState, StoreStatus};
use svc::{Service, ShardedIndex, SvcConfig, TelemetryServer};

const ROWS: usize = 600;
const SHARDS: usize = 4;
const PAGE: u32 = 256;

fn table() -> BinnedTable {
    BinnedTable::new(vec![
        BinnedColumn::new("a", (0..ROWS).map(|i| (i % 5) as u32).collect(), 5),
        BinnedColumn::new("b", (0..ROWS).map(|i| ((i * 7) % 3) as u32).collect(), 3),
    ])
}

fn cfg() -> AbConfig {
    AbConfig::new(Level::PerAttribute).with_alpha(8)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svc-scrub-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn flip_on_disk(path: &Path, offset: u64, xor: u8) {
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&[b[0] ^ xor]).unwrap();
    f.sync_all().unwrap();
}

/// Rows 0..ROWS with a % 5 in 1..=2 — the exact answer the AB
/// superset must always contain.
fn must_contain() -> Vec<usize> {
    (0..ROWS).filter(|r| (1..=2).contains(&(r % 5))).collect()
}

fn the_query() -> RectQuery {
    RectQuery::new(vec![AttrRange::new(0, 1, 2)], 0, ROWS - 1)
}

fn assert_superset(rows: &[usize], what: &str) {
    for r in must_contain() {
        assert!(rows.contains(&r), "{what}: false negative on row {r}");
    }
}

fn healthz(addr: std::net::SocketAddr) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    resp.split_once("\r\n\r\n").unwrap().1.to_string()
}

#[test]
fn detect_degrade_repair_recover_under_live_traffic() {
    let dir = tmpdir("lifecycle");
    let path = dir.join("idx.seg");
    let payload = ShardedIndex::build(&table(), &cfg(), SHARDS, false).to_bytes();
    store::write(&path, &payload, PAGE, &store::RealIo).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let mut st = store::Store::open(&path).unwrap();
    let service = Arc::new(Service::from_index(
        ShardedIndex::from_bytes(st.payload()).unwrap(),
        &SvcConfig {
            threads: 2,
            shards: SHARDS,
            ..SvcConfig::default()
        },
    ));
    let health = service.health_arc();
    let status = Arc::new(StoreStatus::new(st.backend()));
    let telemetry = TelemetryServer::bind_with_store(
        "127.0.0.1:0",
        Arc::clone(&health),
        Some(Arc::clone(&status)),
    )
    .unwrap();

    // Live traffic: hammer the service from two threads for the whole
    // lifecycle, checking the no-false-negative contract on every
    // single answer.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic: Vec<_> = (0..2)
        .map(|t| {
            let (svc, stop) = (Arc::clone(&service), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut answers = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let resp = svc
                        .try_query_rect_ctx(&the_query(), &svc.request_ctx())
                        .unwrap();
                    assert_superset(&resp.value, &format!("traffic thread {t}"));
                    answers += 1;
                }
                answers
            })
        })
        .collect();

    let repair = RepairSource {
        table: table(),
        config: cfg(),
    };

    // Pass 1: clean, healthy.
    let out = scrub_pass(&mut st, &health, Some(&repair), &status, &store::RealIo).unwrap();
    assert_eq!(out, PassOutcome::Clean);
    assert_eq!(status.state(), StoreState::Healthy);
    assert!(healthz(telemetry.local_addr()).contains("\"state\":\"healthy\""));

    // Rot one byte in the middle of shard 2's extent, on disk, while
    // traffic flows.
    let victim_shard = 2usize;
    let e = st.extents()[victim_shard];
    flip_on_disk(
        &path,
        st.header().payload_offset() + (e.offset + e.len / 2) as u64,
        0x10,
    );

    // Pass 2 without repair: detect + degrade, and the degraded
    // service must still never drop a row.
    let out = scrub_pass(&mut st, &health, None, &status, &store::RealIo).unwrap();
    assert_eq!(out, PassOutcome::Degraded(vec![victim_shard]));
    assert!(health.is_quarantined(victim_shard));
    assert_eq!(status.state(), StoreState::Degraded);
    assert!(status.crc_errors() >= 1);
    let body = healthz(telemetry.local_addr());
    assert!(body.contains("\"status\":\"degraded\""), "body: {body}");
    assert!(body.contains("\"state\":\"degraded\""), "body: {body}");
    let resp = service
        .try_query_rect_ctx(&the_query(), &service.request_ctx())
        .unwrap();
    assert!(resp.is_degraded(), "quarantined shard must mark responses");
    assert_superset(&resp.value, "degraded window");

    // Pass 3 with repair: rebuild, crash-safe rewrite, verified
    // reopen, quarantine lifted — and the file is bit-identical to
    // the pre-damage bytes.
    let out = scrub_pass(&mut st, &health, Some(&repair), &status, &store::RealIo).unwrap();
    assert_eq!(out, PassOutcome::Repaired(vec![victim_shard]));
    assert!(!health.is_quarantined(victim_shard));
    assert_eq!(status.state(), StoreState::Healthy);
    assert_eq!(status.repairs(), 1);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        pristine,
        "repair must be bit-identical"
    );
    assert!(st.scrub().unwrap().clean());
    let body = healthz(telemetry.local_addr());
    assert!(body.contains("\"status\":\"ok\""), "body: {body}");
    assert!(body.contains("\"state\":\"healthy\""), "body: {body}");
    assert!(body.contains("\"repairs\":1"), "body: {body}");

    stop.store(true, Ordering::Release);
    for t in traffic {
        let answers = t.join().unwrap();
        assert!(answers > 0, "traffic thread never got an answer");
    }
    telemetry.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn background_scrubber_repairs_without_help() {
    let dir = tmpdir("background");
    let path = dir.join("idx.seg");
    let payload = ShardedIndex::build(&table(), &cfg(), SHARDS, false).to_bytes();
    store::write(&path, &payload, PAGE, &store::RealIo).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let st = store::Store::open(&path).unwrap();
    let victim = st.header().payload_offset() + st.header().payload_len / 3;

    let health = Arc::new(svc::ShardHealth::new(SHARDS));
    let scrubber = Scrubber::spawn(
        st,
        Arc::clone(&health),
        Some(RepairSource {
            table: table(),
            config: cfg(),
        }),
        Duration::from_millis(10),
        Arc::new(store::RealIo),
    )
    .unwrap();
    let status = scrubber.status();

    // Let it complete at least one clean pass, then rot the file.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while status.passes() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    flip_on_disk(&path, victim, 0x44);
    while status.repairs() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(status.repairs(), 1, "scrubber never repaired");
    assert_eq!(status.state(), StoreState::Healthy);
    assert!(health.all_healthy(), "quarantine must lift after repair");
    assert_eq!(std::fs::read(&path).unwrap(), pristine);
    scrubber.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A segment built with the independent roster, repaired from a
/// `RepairSource` carrying today's default config (double hashing):
/// the rebuilt shard must take the family its intact sibling records,
/// so the file comes back bit-identical instead of mixing families.
#[test]
fn repair_keeps_the_stored_hash_family() {
    let dir = tmpdir("family");
    let path = dir.join("idx.seg");
    let roster = cfg().with_family(hashkit::HashFamily::default_independent());
    assert_ne!(roster.family, cfg().family, "the default must differ here");
    let payload = ShardedIndex::build(&table(), &roster, 2, false).to_bytes();
    store::write(&path, &payload, PAGE, &store::RealIo).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let mut st = store::Store::open(&path).unwrap();
    let e = st.extents()[1];
    flip_on_disk(
        &path,
        st.header().payload_offset() + (e.offset + e.len / 2) as u64,
        0x08,
    );
    let health = svc::ShardHealth::new(2);
    let status = StoreStatus::new(st.backend());
    let repair = RepairSource {
        table: table(),
        config: cfg(),
    };
    let out = scrub_pass(&mut st, &health, Some(&repair), &status, &store::RealIo).unwrap();
    assert_eq!(out, PassOutcome::Repaired(vec![1]));
    assert_eq!(
        std::fs::read(&path).unwrap(),
        pristine,
        "repair must rebuild with the stored family"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
