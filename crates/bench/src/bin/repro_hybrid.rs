//! Hybrid exact tier: flat AB vs hier pruning vs Roaring-backed bins.
//!
//! Reproduces the DESIGN.md §19 claim that planner-calibrated exact
//! backing of hot bins turns mid-selectivity rects from k-hash-probe
//! scans into word-parallel container intersections — with **zero**
//! false positives for the backed bins, where the flat AB pays both
//! the probes and the downstream verification of its false-positive
//! rows.
//!
//! The data set is the clustered table from `repro_hier`: one 16-bin
//! attribute in contiguous runs, head bins large, tail bins graded so
//! a single-bin rect selects a known ppm fraction. The base AB runs
//! at α = 8 — the paper's bread-and-butter space point, where the
//! per-cell false-positive rate (~0.4 %) is large enough that flat
//! answers carry real verification debt. The planner's split decision
//! (density × fp rate × verify cost) backs the head bins and the
//! denser tail clusters; the thinnest bins stay AB-only, so the sweep
//! crosses the backed/unbacked boundary and both dispatch paths get
//! measured.
//!
//! Correctness is asserted before timing, not sampled: hybrid answers
//! must be a subset of flat (it only removes false positives), a
//! superset of the ground truth (100 % recall), and **exactly** the
//! ground truth for fully-backed rects. Results land in
//! `BENCH_hybrid.json`
//! (`hybrid.rows_per_sec.<flat|hier|hybrid>.<kernel>.<rect>.<sel>`,
//! `hybrid.p99_us.*`, `hybrid.fp_rows_eliminated.<rect>.<sel>`) and
//! fold into `abq bench-report` as the `## Hybrid tier` table.
//!
//! Usage: `repro_hybrid [--quick]` — `--quick` shrinks to a
//! smoke-test size (no JSON claims should be read off a quick run).

use ab::{
    AbConfig, AbIndex, HierConfig, HierMode, HybridConfig, HybridMode, KernelKind, KernelOpts,
    Level,
};
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
/// head bins splitting the remainder evenly (same layout as
/// `repro_hier` so the two snapshots compare).
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

/// The contiguous row range bin `b` occupies in the clustered layout —
/// the exact answer to a full-row single-bin rect.
fn truth_range(rows: usize, b: u32) -> std::ops::Range<usize> {
    let counts = bin_counts(rows);
    let start: usize = counts[..b as usize].iter().sum();
    start..start + counts[b as usize]
}

/// Rows scanned per second plus p99 per-query latency (µs) for one
/// query under `opts`: one warm-up run, then repeat until ≥200 ms
/// elapsed, recording each iteration's wall time.
fn measure(idx: &AbIndex, q: &RectQuery, opts: KernelOpts) -> (f64, f64) {
    black_box(idx.try_execute_rect_with_opts(q, opts).unwrap());
    let scanned = q.num_rows() as f64;
    let start = Instant::now();
    let mut lat_us: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        black_box(idx.try_execute_rect_with_opts(q, opts).unwrap());
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= 0.2 || lat_us.len() >= 64 {
            let rps = scanned * lat_us.len() as f64 / elapsed;
            lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let p99 = lat_us[(lat_us.len() * 99 / 100).min(lat_us.len() - 1)];
            return (rps, p99);
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rows: usize = if quick { 400_000 } else { 16_000_000 };

    println!("generating {rows} clustered rows…");
    let table = make_table(rows);
    let build_start = Instant::now();
    let mut idx = AbIndex::build(
        &table,
        &AbConfig::new(Level::PerDataset)
            .with_alpha(8)
            .with_family(HashFamily::DoubleHashing),
    );
    let ab_build_s = build_start.elapsed().as_secs_f64();
    let ab_bytes = idx.size_bytes();
    let hier_start = Instant::now();
    idx.ensure_hier(&HierConfig::default());
    let pyramid_bytes = idx.hier().expect("just built").size_bytes();
    let hier_build_s = hier_start.elapsed().as_secs_f64();
    // min_density 1/2048 pulls the 500 ppm–1000 ppm tail clusters into
    // the exact tier while leaving the thinnest bins (≤100 ppm)
    // AB-only — the sweep's 10/100 ppm points measure the unbacked
    // fallback, the rest the containers.
    let hybrid_start = Instant::now();
    idx.ensure_hybrid(
        &table,
        &HybridConfig {
            min_density: 1.0 / 2048.0,
            ..HybridConfig::default()
        },
    );
    let hybrid_build_s = hybrid_start.elapsed().as_secs_f64();
    let tier = idx.hybrid().expect("just built");
    let (backed_bins, container_bytes) = (tier.bins().len(), tier.size_bytes());
    println!(
        "AB {} in {ab_build_s:.1}s, pyramid {} in {hier_build_s:.1}s, \
         exact tier {} ({backed_bins}/{CARD} bins backed) in {hybrid_build_s:.1}s",
        fmt_bytes(ab_bytes as u64),
        fmt_bytes(pyramid_bytes as u64),
        fmt_bytes(container_bytes as u64),
    );

    // Measurement points: the full-row selectivity sweep, plus a
    // rect-size axis at the 0.1 % point.
    let mut points: Vec<(String, String, RectQuery, Option<std::ops::Range<usize>>)> = Vec::new();
    for (bin, ppm) in SWEEP {
        points.push((
            "full".into(),
            format!("sel{ppm}ppm"),
            RectQuery::new(vec![AttrRange::new(0, bin, bin)], 0, rows - 1),
            Some(truth_range(rows, bin)),
        ));
    }
    for (rect, lo) in [("half", rows / 2), ("tenth", rows - rows / 10)] {
        points.push((
            rect.into(),
            "sel1000ppm".into(),
            RectQuery::new(vec![AttrRange::new(0, 13, 13)], lo, rows - 1),
            None,
        ));
    }

    let mut snap_extras: Vec<(String, f64)> = Vec::new();
    let mut rows_out: Vec<Vec<String>> = Vec::new();
    let mut eliminated_total = 0usize;
    for (rect, sel, q, truth) in &points {
        let mut fp_eliminated = 0usize;
        for (kernel, kname) in KERNELS {
            let flat_opts = KernelOpts::new(kernel);
            let hier_opts = flat_opts.with_hier(HierMode::Force);
            let hyb_opts = flat_opts.with_hybrid(HybridMode::Auto);
            // Correctness before timing. The hybrid answer is flat
            // minus exactly the backed bins' false positives: subset
            // of flat, superset of truth — and for a fully-backed
            // rect, truth *exactly* (zero false positives).
            let flat_rows = idx.try_execute_rect_with_opts(q, flat_opts).unwrap();
            let hier_rows = idx.try_execute_rect_with_opts(q, hier_opts).unwrap();
            let hyb_rows = idx.try_execute_rect_with_opts(q, hyb_opts).unwrap();
            assert_eq!(
                flat_rows, hier_rows,
                "hier diverged from flat at {kname}/{rect}/{sel}"
            );
            let flat_set: std::collections::HashSet<usize> = flat_rows.iter().copied().collect();
            assert!(
                hyb_rows.iter().all(|r| flat_set.contains(r)),
                "hybrid returned a row flat did not at {kname}/{rect}/{sel}"
            );
            if let Some(t) = truth {
                let backed = tier.backing(0, q.ranges[0].lo).is_some();
                if backed {
                    assert_eq!(
                        hyb_rows,
                        t.clone().collect::<Vec<_>>(),
                        "backed rect not exact at {kname}/{rect}/{sel}"
                    );
                } else {
                    let hyb_set: std::collections::HashSet<usize> =
                        hyb_rows.iter().copied().collect();
                    assert!(
                        t.clone().all(|r| hyb_set.contains(&r)),
                        "hybrid dropped a true row at {kname}/{rect}/{sel}"
                    );
                }
            }
            fp_eliminated = flat_rows.len() - hyb_rows.len();

            let (flat, flat_p99) = measure(&idx, q, flat_opts);
            let (hier, hier_p99) = measure(&idx, q, hier_opts);
            let (hyb, hyb_p99) = measure(&idx, q, hyb_opts);
            rows_out.push(vec![
                rect.clone(),
                sel.clone(),
                kname.to_string(),
                format!("{:.1}", flat / 1e6),
                format!("{:.1}", hier / 1e6),
                format!("{:.1}", hyb / 1e6),
                format!("{:.2}x", hyb / flat),
                format!("{fp_eliminated}"),
            ]);
            for (mode, rps, p99) in [
                ("flat", flat, flat_p99),
                ("hier", hier, hier_p99),
                ("hybrid", hyb, hyb_p99),
            ] {
                snap_extras.push((
                    format!("hybrid.rows_per_sec.{mode}.{kname}.{rect}.{sel}"),
                    rps,
                ));
                snap_extras.push((format!("hybrid.p99_us.{mode}.{kname}.{rect}.{sel}"), p99));
            }
        }
        snap_extras.push((
            format!("hybrid.fp_rows_eliminated.{rect}.{sel}"),
            fp_eliminated as f64,
        ));
        eliminated_total += fp_eliminated;
    }
    assert!(
        eliminated_total > 0,
        "the exact tier eliminated no false positives anywhere — \
         either α is too high for fp to exist or backing is broken"
    );

    print_table(
        "Hybrid exact tier: flat vs hier vs Roaring-backed (rows/sec)",
        &[
            "rect",
            "sel",
            "kernel",
            "flat Mr/s",
            "hier Mr/s",
            "hyb Mr/s",
            "speedup",
            "fp elim",
        ],
        &rows_out,
    );

    let mut snap = obs::global().snapshot();
    for (key, v) in snap_extras {
        snap = snap.with_extra(&key, v);
    }
    snap = snap
        .with_extra("hybrid.rows", rows as f64)
        .with_extra("hybrid.ab_bytes", ab_bytes as f64)
        .with_extra("hybrid.pyramid_bytes", pyramid_bytes as f64)
        .with_extra("hybrid.container_bytes", container_bytes as f64)
        .with_extra("hybrid.backed_bins", backed_bins as f64)
        .with_extra("hybrid.ab_build_s", ab_build_s)
        .with_extra("hybrid.build_s", hybrid_build_s);
    if quick {
        println!("(quick mode: skipping BENCH_hybrid.json)");
    } else {
        let path = write_bench_snapshot("hybrid", &snap).expect("write snapshot");
        println!("wrote {}", path.display());
    }
}
