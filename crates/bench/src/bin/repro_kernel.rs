//! Probe-kernel throughput: scalar vs batched rect execution.
//!
//! Compares the DESIGN.md §13 mask kernel with the row-at-a-time
//! reference loop: hash state is hoisted per (attribute, bin), and
//! each bin probes a 64-row word's surviving candidates in a run of
//! independent cell tests, so the probes of many rows overlap.
//!
//! Two AB sizes bracket the memory hierarchy:
//!
//! * `in_llc`  — a ~2 MiB AB; probes hit L2/L3 and the kernel's win
//!   comes from hash hoisting alone;
//! * `out_llc` — a 512 MiB AB (the benchmark machine's L3 is 260 MiB);
//!   random probes miss the cache hierarchy and the win comes from
//!   memory-level parallelism.
//!
//! Each size runs at k ∈ {4, 8, 16}. Results land in
//! `BENCH_kernel.json` (`kernel.rows_per_sec.*`, `kernel.speedup.*`)
//! next to the raw obs counters (`kernel.batches`,
//! `kernel.scalar_fallbacks`).
//!
//! Usage: `repro_kernel [--quick]` — `--quick` shrinks both configs to
//! smoke-test sizes (no JSON claims should be read off a quick run).

use ab::{AbConfig, AbIndex, KernelKind, Level};
use bench::{fmt_bytes, print_table, write_bench_snapshot};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use hashkit::{splitmix64, HashFamily};
use std::hint::black_box;
use std::time::Instant;

const CARD: u32 = 16;
const KS: [usize; 3] = [4, 8, 16];

struct SizeConfig {
    name: &'static str,
    rows: usize,
    alpha: u64,
}

/// Deterministic two-attribute uniform table; bins from splitmix64 so
/// generation stays O(rows) with no rand dependency.
fn make_table(rows: usize, seed: u64) -> BinnedTable {
    let mk = |attr_seed: u64| -> Vec<u32> {
        (0..rows)
            .map(|i| (splitmix64(attr_seed ^ (i as u64).wrapping_mul(0x9E37)) % CARD as u64) as u32)
            .collect()
    };
    BinnedTable::new(vec![
        BinnedColumn::new("A", mk(seed), CARD),
        BinnedColumn::new("B", mk(seed ^ 0xABCD), CARD),
    ])
}

/// Width-2 conjunctive range queries over the full row span: per row,
/// up to 2 probes on attribute A (AND short-circuit on miss), then up
/// to 2 on B — the paper's workhorse rect shape, probe-bound.
fn make_queries(rows: usize) -> Vec<RectQuery> {
    (0..4u32)
        .map(|i| {
            let lo = (i * 3) % (CARD - 1);
            RectQuery::new(
                vec![
                    AttrRange::new(0, lo, lo + 1),
                    AttrRange::new(1, (lo + 5) % (CARD - 1), (lo + 5) % (CARD - 1) + 1),
                ],
                0,
                rows - 1,
            )
        })
        .collect()
}

/// Rows scanned per second across the query batch (one warm-up pass).
fn rows_per_sec(idx: &AbIndex, queries: &[RectQuery], kernel: KernelKind) -> f64 {
    for q in queries {
        black_box(idx.execute(q, kernel.into(), ab::no_cancel).unwrap());
    }
    let scanned: usize = queries.iter().map(|q| q.row_hi - q.row_lo + 1).sum();
    let start = Instant::now();
    for q in queries {
        black_box(idx.execute(q, kernel.into(), ab::no_cancel).unwrap());
    }
    scanned as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // out_llc: s = rows·2 cells, s·α = 68M·32 = 2.18e9 bits — just over
    // 2^31, so the pow2 rounding lands on 2^32 bits = 512 MiB, roughly
    // 2× the benchmark machine's 260 MiB L3.
    let sizes = if quick {
        [
            SizeConfig {
                name: "in_llc",
                rows: 20_000,
                alpha: 16,
            },
            SizeConfig {
                name: "out_llc",
                rows: 60_000,
                alpha: 32,
            },
        ]
    } else {
        [
            SizeConfig {
                name: "in_llc",
                rows: 500_000,
                alpha: 16,
            },
            SizeConfig {
                name: "out_llc",
                rows: 34_000_000,
                alpha: 32,
            },
        ]
    };

    let mut snap_extras: Vec<(String, f64)> = Vec::new();
    let mut rows_out: Vec<Vec<String>> = Vec::new();

    for size in &sizes {
        let table = make_table(size.rows, 0xAB);
        let queries = make_queries(size.rows);
        for k in KS {
            let build_start = Instant::now();
            let idx = AbIndex::build(
                &table,
                &AbConfig::new(Level::PerDataset)
                    .with_alpha(size.alpha)
                    .with_k(k)
                    .with_family(HashFamily::DoubleHashing),
            );
            let build_s = build_start.elapsed().as_secs_f64();
            let ab_bytes = idx.size_bytes();

            let scalar = rows_per_sec(&idx, &queries, KernelKind::Scalar);
            let batched = rows_per_sec(&idx, &queries, KernelKind::Batched);
            let speedup = batched / scalar;

            rows_out.push(vec![
                size.name.to_string(),
                k.to_string(),
                fmt_bytes(ab_bytes as u64),
                format!("{:.1}", scalar / 1e6),
                format!("{:.1}", batched / 1e6),
                format!("{speedup:.2}x"),
                format!("{build_s:.1}s"),
            ]);
            for (kernel, v) in [("scalar", scalar), ("batched", batched)] {
                snap_extras.push((
                    format!("kernel.rows_per_sec.{kernel}.k{k}.{}", size.name),
                    v,
                ));
            }
            snap_extras.push((format!("kernel.speedup.k{k}.{}", size.name), speedup));
            snap_extras.push((format!("kernel.ab_bytes.{}", size.name), ab_bytes as f64));
        }
    }

    print_table(
        "Probe kernel: scalar vs batched (rows/sec)",
        &[
            "config",
            "k",
            "AB bytes",
            "scalar Mr/s",
            "batched Mr/s",
            "speedup",
            "build",
        ],
        &rows_out,
    );

    let mut snap = obs::global().snapshot();
    for (key, v) in snap_extras {
        snap = snap.with_extra(&key, v);
    }
    if quick {
        println!("(quick mode: skipping BENCH_kernel.json)");
    } else {
        let path = write_bench_snapshot("kernel", &snap).expect("write snapshot");
        println!("wrote {}", path.display());
    }
}
