//! Hierarchical pruning: flat vs coarse-to-fine rect execution.
//!
//! Reproduces the DESIGN.md §18 claim that the [`ab::HierAb`] pyramid
//! turns large low-selectivity rects from full scans into a handful
//! of span-sized scans: a coarse miss is a definite absence, so whole
//! row-span × bin-range regions are pruned before the per-row
//! batched kernel runs.
//!
//! The data set is **clustered** (the regime pruning exists for):
//! one 16-bin attribute laid out in contiguous runs. Bins 0–7 are
//! large head segments; bins 8–15 are graded tail clusters sized so a
//! single-bin rect on bin b selects a known fraction of the table —
//! 10 ppm (0.001 %) up to 100 000 ppm (10 %). The base AB runs at
//! α = 32 so cell false positives (~2e-7) almost never keep an empty
//! region alive, and at 68 M rows the AB is 512 MiB — ~2× the
//! benchmark machine's 260 MiB L3, so flat probes pay memory latency.
//!
//! Every measured pair is checked bit-identical (flat rows == hier
//! rows) before timing. Results land in `BENCH_hier.json`
//! (`hier.rows_per_sec.<flat|hier>.<kernel>.<rect>.<sel>`) next to
//! the raw pruning counters (`hier.regions_pruned`,
//! `hier.rows_skipped`), and fold into `abq bench-report`.
//!
//! Usage: `repro_hier [--quick]` — `--quick` shrinks to a smoke-test
//! size (no JSON claims should be read off a quick run).

use ab::{AbConfig, AbIndex, HierConfig, HierMode, KernelKind, KernelOpts, Level};
use bench::{fmt_bytes, print_table, write_bench_snapshot};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use hashkit::HashFamily;
use std::hint::black_box;
use std::time::Instant;

const CARD: u32 = 16;
const KERNELS: [(KernelKind, &str); 2] = [
    (KernelKind::Scalar, "scalar"),
    (KernelKind::Batched, "batched"),
];
/// Selectivity sweep: (bin, ppm of the table that bin holds).
const SWEEP: [(u32, usize); 5] = [
    (15, 10),
    (14, 100),
    (13, 1_000),
    (12, 10_000),
    (11, 100_000),
];

/// Per-bin row counts: graded tail clusters at exact ppm fractions,
/// head bins splitting the remainder evenly.
fn bin_counts(rows: usize) -> [usize; 16] {
    let ppm = |p: usize| (rows * p / 1_000_000).max(1);
    let mut c = [0usize; 16];
    c[8] = ppm(50);
    c[9] = ppm(500);
    c[10] = ppm(5_000);
    c[11] = ppm(100_000);
    c[12] = ppm(10_000);
    c[13] = ppm(1_000);
    c[14] = ppm(100);
    c[15] = ppm(10);
    let tail: usize = c[8..].iter().sum();
    let head = rows - tail;
    for slot in c.iter_mut().take(8) {
        *slot = head / 8;
    }
    c[0] += head - (head / 8) * 8;
    c
}

/// One clustered attribute: bins in contiguous runs, bin order.
fn make_table(rows: usize) -> BinnedTable {
    let counts = bin_counts(rows);
    let mut bins = Vec::with_capacity(rows);
    for (b, &c) in counts.iter().enumerate() {
        bins.extend(std::iter::repeat_n(b as u32, c));
    }
    BinnedTable::new(vec![BinnedColumn::new("V", bins, CARD)])
}

/// Rows scanned per second for one query under `opts`: one warm-up
/// run, then repeat until ≥200 ms elapsed (hier runs finish in
/// microseconds; a single pass would be all timer noise).
fn rows_per_sec(idx: &AbIndex, q: &RectQuery, opts: KernelOpts) -> f64 {
    black_box(idx.try_execute_rect_with_opts(q, opts).unwrap());
    let scanned = q.num_rows() as f64;
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        black_box(idx.try_execute_rect_with_opts(q, opts).unwrap());
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= 0.2 || iters >= 64 {
            return scanned * f64::from(iters) / elapsed;
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // 68M cells · α=32 = 2.18e9 bits → pow2-rounded to 2^32 bits =
    // 512 MiB, ~2× the benchmark machine's 260 MiB L3.
    let rows: usize = if quick { 500_000 } else { 68_000_000 };

    println!("generating {rows} clustered rows…");
    let table = make_table(rows);
    let build_start = Instant::now();
    let mut idx = AbIndex::build(
        &table,
        &AbConfig::new(Level::PerDataset)
            .with_alpha(32)
            .with_k(22)
            .with_family(HashFamily::DoubleHashing),
    );
    let ab_build_s = build_start.elapsed().as_secs_f64();
    let ab_bytes = idx.size_bytes();
    let hier_start = Instant::now();
    idx.ensure_hier(&HierConfig::default());
    let hier_build_s = hier_start.elapsed().as_secs_f64();
    let pyramid_bytes = idx.hier().expect("just built").size_bytes();
    println!(
        "AB {} in {ab_build_s:.1}s, pyramid {} in {hier_build_s:.1}s",
        fmt_bytes(ab_bytes as u64),
        fmt_bytes(pyramid_bytes as u64),
    );

    // Measurement points: the full-row selectivity sweep, plus a
    // rect-size axis at the 0.1 % point (half / last-tenth windows
    // partially overlapping the tail clusters).
    let mut points: Vec<(String, String, RectQuery)> = Vec::new();
    for (bin, ppm) in SWEEP {
        points.push((
            "full".into(),
            format!("sel{ppm}ppm"),
            RectQuery::new(vec![AttrRange::new(0, bin, bin)], 0, rows - 1),
        ));
    }
    for (rect, lo) in [("half", rows / 2), ("tenth", rows - rows / 10)] {
        points.push((
            rect.into(),
            "sel1000ppm".into(),
            RectQuery::new(vec![AttrRange::new(0, 13, 13)], lo, rows - 1),
        ));
    }

    let mut snap_extras: Vec<(String, f64)> = Vec::new();
    let mut rows_out: Vec<Vec<String>> = Vec::new();
    for (rect, sel, q) in &points {
        for (kernel, kname) in KERNELS {
            let flat_opts = KernelOpts::new(kernel);
            let hier_opts = flat_opts.with_hier(HierMode::Force);
            // Bit-identity first: a pruning pyramid that changes the
            // answer is a bug, not a speedup.
            let flat_rows = idx.try_execute_rect_with_opts(q, flat_opts).unwrap();
            let hier_rows = idx.try_execute_rect_with_opts(q, hier_opts).unwrap();
            assert_eq!(
                flat_rows, hier_rows,
                "hier diverged from flat at {kname}/{rect}/{sel}"
            );
            let flat = rows_per_sec(&idx, q, flat_opts);
            let hier = rows_per_sec(&idx, q, hier_opts);
            rows_out.push(vec![
                rect.clone(),
                sel.clone(),
                kname.to_string(),
                format!("{:.1}", flat / 1e6),
                format!("{:.1}", hier / 1e6),
                format!("{:.2}x", hier / flat),
            ]);
            for (mode, v) in [("flat", flat), ("hier", hier)] {
                snap_extras.push((format!("hier.rows_per_sec.{mode}.{kname}.{rect}.{sel}"), v));
            }
        }
    }

    print_table(
        "Hierarchical pruning: flat vs coarse-to-fine (rows/sec)",
        &["rect", "sel", "kernel", "flat Mr/s", "hier Mr/s", "speedup"],
        &rows_out,
    );

    let mut snap = obs::global().snapshot();
    for (key, v) in snap_extras {
        snap = snap.with_extra(&key, v);
    }
    snap = snap
        .with_extra("hier.rows", rows as f64)
        .with_extra("hier.ab_bytes", ab_bytes as f64)
        .with_extra("hier.pyramid_bytes", pyramid_bytes as f64)
        .with_extra("hier.ab_build_s", ab_build_s)
        .with_extra("hier.pyramid_build_s", hier_build_s);
    if quick {
        println!("(quick mode: skipping BENCH_hier.json)");
    } else {
        let path = write_bench_snapshot("hier", &snap).expect("write snapshot");
        println!("wrote {}", path.display());
    }
}
