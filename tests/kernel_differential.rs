//! Probe-kernel differential tests: the full kernel matrix
//! (scalar × batched) × batch-depth policies (adaptive and
//! forced 8/64/256) against the scalar reference loop.
//!
//! The batched kernel (DESIGN.md §13) restructures the
//! Figure 5/7 probe loops for memory-level parallelism but must not
//! change a single observable: rect results must be bit-identical and
//! the `QueryStats` probe accounting (`cells_probed`, `bits_read`,
//! `rows_matched`) must match the scalar reference loop exactly —
//! this is the guard against double-counting `bits_read` and, more
//! importantly, against any probe-sequence divergence that would show
//! up as a false negative.
//!
//! CI's `kernel-smoke` job runs this file in release mode.

use ab::{
    AbConfig, AbIndex, BatchRows, Cell, HierConfig, HierLevelSpec, HierMode, HybridConfig,
    HybridMode, KernelKind, KernelOpts, Level,
};
use bitmap::{AttrRange, BinnedTable, RectQuery};
use datagen::small_uniform;
use hashkit::HashFamily;

/// Every non-reference kernel configuration under test: the batched
/// kernel crossed with the adaptive policy and fixed block sizes
/// bracketing it (8 = sub-word, 64 = one word, 256 = the maximum).
fn kernel_matrix() -> Vec<KernelOpts> {
    let mut m = Vec::new();
    for kernel in [KernelKind::Batched] {
        for batch in [
            BatchRows::Adaptive,
            BatchRows::Fixed(8),
            BatchRows::Fixed(64),
            BatchRows::Fixed(256),
        ] {
            m.push(KernelOpts::new(kernel).with_batch_rows(batch));
        }
    }
    m
}

/// The 3 seeded datasets the satellite task asks for: different row
/// counts (off multiples of the 64-row batch), attribute counts, and
/// cardinalities.
fn datasets() -> Vec<BinnedTable> {
    vec![
        small_uniform(1931, 3, 12, 7).binned,
        small_uniform(4096, 2, 8, 99).binned,
        small_uniform(777, 4, 20, 2024).binned,
    ]
}

/// A workload of rect queries exercising every short-circuit shape:
/// multi-range ANDs, single bins, full-table spans, sub-64-row spans,
/// an empty range list, and an empty row interval.
fn queries(table: &BinnedTable) -> Vec<RectQuery> {
    let last = table.num_rows() - 1;
    let card = |a: usize| table.column(a).cardinality;
    let mut qs = vec![
        RectQuery::new(vec![AttrRange::new(0, 0, card(0) / 2)], 0, last),
        RectQuery::new(
            vec![
                AttrRange::new(0, 1, card(0) - 1),
                AttrRange::new(1, 0, card(1) / 3),
            ],
            last / 4,
            3 * last / 4,
        ),
        RectQuery::new(vec![AttrRange::new(1, 2, 2)], 0, last),
        RectQuery::new(vec![AttrRange::new(0, 0, card(0) - 1)], 17, 29),
        RectQuery::new(vec![], 5, last.min(500)),
        RectQuery::new(vec![AttrRange::new(0, 0, 1)], 63, 63),
    ];
    if table.columns().len() > 2 {
        qs.push(RectQuery::new(
            vec![
                AttrRange::new(0, 0, card(0) - 1),
                AttrRange::new(1, 1, 1),
                AttrRange::new(2, 0, card(2) / 2),
            ],
            0,
            last,
        ));
    }
    qs
}

fn configs() -> Vec<AbConfig> {
    vec![
        AbConfig::new(Level::PerAttribute).with_alpha(8),
        AbConfig::new(Level::PerDataset).with_alpha(8),
        AbConfig::new(Level::PerColumn).with_alpha(8),
        AbConfig::new(Level::PerAttribute)
            .with_alpha(8)
            .with_family(HashFamily::DoubleHashing),
        AbConfig::new(Level::PerAttribute)
            .with_alpha(16)
            .with_k(11)
            .with_family(HashFamily::Sha1Split),
        AbConfig::new(Level::PerDataset)
            .with_alpha(8)
            .with_family(HashFamily::ColumnGroup { num_columns: 1 }),
    ]
}

#[test]
fn rect_results_and_probe_accounting_identical() {
    for (d, table) in datasets().iter().enumerate() {
        for (c, cfg) in configs().iter().enumerate() {
            let idx = AbIndex::build(table, cfg);
            for (qi, q) in queries(table).iter().enumerate() {
                let (scalar_rows, scalar_stats) = idx
                    .try_execute_rect_with_stats_kernel(q, KernelKind::Scalar)
                    .unwrap();
                for opts in kernel_matrix() {
                    let (rows, stats) = idx.try_execute_rect_with_stats_opts(q, opts).unwrap();
                    let ctx = format!("dataset {d}, config {c}, query {qi}, kernel {opts:?}");
                    assert_eq!(scalar_rows, rows, "rows diverged: {ctx}");
                    assert_eq!(
                        scalar_stats.cells_probed, stats.cells_probed,
                        "cells_probed diverged: {ctx}"
                    );
                    assert_eq!(
                        scalar_stats.bits_read, stats.bits_read,
                        "bits_read diverged: {ctx}"
                    );
                    assert_eq!(
                        scalar_stats.rows_matched, stats.rows_matched,
                        "rows_matched diverged: {ctx}"
                    );
                }
            }
        }
    }
}

#[test]
fn cell_subset_verdicts_identical() {
    for table in &datasets() {
        for cfg in &configs() {
            let idx = AbIndex::build(table, cfg);
            // A mix of genuinely-set cells and (probably) absent ones,
            // 3 batches plus a ragged tail.
            let cells: Vec<Cell> = (0..200)
                .map(|i| {
                    let row = (i * 37) % table.num_rows();
                    let attr = i % table.columns().len();
                    let bin = if i % 3 == 0 {
                        table.column(attr).bins[row]
                    } else {
                        (i as u32 * 7) % table.column(attr).cardinality
                    };
                    Cell::new(row, attr, bin)
                })
                .collect();
            let scalar = idx.retrieve_cells_with_kernel(&cells, KernelKind::Scalar);
            for opts in kernel_matrix() {
                let waves = idx.retrieve_cells_with_opts(&cells, opts);
                assert_eq!(scalar, waves, "verdicts diverged on {opts:?}");
            }
        }
    }
}

/// The per-chunk `CellPlan` dedupe must not change verdicts even when
/// a chunk is dominated by one (attribute, bin) pair — the sharpest
/// plan-sharing shape.
#[test]
fn cell_subset_with_heavy_duplicates_identical() {
    let table = &datasets()[0];
    let idx = AbIndex::build(table, &AbConfig::new(Level::PerAttribute).with_alpha(8));
    // 300 cells over just 4 distinct (attribute, bin) pairs, rows
    // varying — every chunk dedupes most of its plans.
    let cells: Vec<Cell> = (0..300)
        .map(|i| {
            let row = (i * 13) % table.num_rows();
            let attr = i % 2;
            let bin = ((i / 2) % 2) as u32 % table.column(attr).cardinality;
            Cell::new(row, attr, bin)
        })
        .collect();
    let scalar = idx.retrieve_cells_with_kernel(&cells, KernelKind::Scalar);
    for opts in kernel_matrix() {
        assert_eq!(
            scalar,
            idx.retrieve_cells_with_opts(&cells, opts),
            "verdicts diverged on {opts:?}"
        );
    }
}

/// The batched path must keep the no-false-negative contract on its
/// own terms too: every genuinely set cell of the table answers true.
#[test]
fn batched_kernel_never_misses_set_cells() {
    let table = &datasets()[0];
    let idx = AbIndex::build(table, &AbConfig::new(Level::PerAttribute).with_alpha(4));
    let cells: Vec<Cell> = (0..table.num_rows())
        .flat_map(|r| (0..table.columns().len()).map(move |a| (r, a)))
        .map(|(r, a)| Cell::new(r, a, table.column(a).bins[r]))
        .collect();
    assert!(
        idx.retrieve_cells_with_kernel(&cells, KernelKind::Batched)
            .iter()
            .all(|&b| b),
        "batched kernel produced a false negative"
    );
}

/// Degenerate row intervals (lo > hi) return empty results on both
/// kernels without probing.
#[test]
fn empty_row_interval_matches() {
    let table = &datasets()[1];
    let idx = AbIndex::build(table, &AbConfig::new(Level::PerAttribute).with_alpha(8));
    // `RectQuery::new` rejects lo > hi; build the degenerate interval
    // directly to exercise the kernels' own guard.
    let q = RectQuery {
        ranges: vec![AttrRange::new(0, 0, 3)],
        row_lo: 100,
        row_hi: 50,
    };
    for kernel in [KernelKind::Scalar, KernelKind::Batched] {
        let (rows, stats) = idx.try_execute_rect_with_stats_kernel(&q, kernel).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.cells_probed, 0);
        assert_eq!(stats.bits_read, 0);
    }
}

/// Pyramid geometries scaled to the test datasets (777–4096 rows):
/// a single fine level, and a two-level coarse-over-fine stack.
fn hier_configs() -> Vec<HierConfig> {
    vec![
        HierConfig {
            levels: vec![HierLevelSpec {
                row_span: 8,
                bin_group: 2,
            }],
        },
        HierConfig {
            levels: vec![
                HierLevelSpec {
                    row_span: 16,
                    bin_group: 2,
                },
                HierLevelSpec {
                    row_span: 64,
                    bin_group: 4,
                },
            ],
        },
    ]
}

/// The hier on/off axis over the full matrix: with a pyramid attached
/// and `HierMode::Force`, every kernel must return the exact flat rows
/// (pruning is allowed to skip work, never to change the answer), all
/// kernels must agree on stats with each other, and `cells_probed`
/// must never exceed the flat scalar reference — the pyramid's own
/// level-AB probes are bookkept separately and pruned intervals are a
/// subset of the original row interval.
#[test]
fn hier_pruning_is_bit_identical_and_never_probes_more() {
    for (d, table) in datasets().iter().enumerate() {
        for (c, cfg) in configs().iter().enumerate() {
            for (h, hcfg) in hier_configs().iter().enumerate() {
                let mut idx = AbIndex::build(table, cfg);
                idx.ensure_hier(hcfg);
                for (qi, q) in queries(table).iter().enumerate() {
                    let (flat_rows, flat_stats) = idx
                        .try_execute_rect_with_stats_kernel(q, KernelKind::Scalar)
                        .unwrap();
                    // Hier reference: scalar under Force. All other
                    // kernels must match it bit-for-bit and stat-for-stat.
                    let href = KernelOpts::new(KernelKind::Scalar).with_hier(HierMode::Force);
                    let (href_rows, href_stats) =
                        idx.try_execute_rect_with_stats_opts(q, href).unwrap();
                    let ctx = format!("dataset {d}, config {c}, hier {h}, query {qi}");
                    assert_eq!(
                        flat_rows, href_rows,
                        "hier scalar diverged from flat: {ctx}"
                    );
                    assert!(
                        href_stats.cells_probed <= flat_stats.cells_probed,
                        "hier probed more cells than flat ({} > {}): {ctx}",
                        href_stats.cells_probed,
                        flat_stats.cells_probed
                    );
                    assert_eq!(
                        href_stats.rows_matched, flat_stats.rows_matched,
                        "rows_matched diverged under hier: {ctx}"
                    );
                    for base in kernel_matrix() {
                        let opts = base.with_hier(HierMode::Force);
                        let (rows, stats) = idx.try_execute_rect_with_stats_opts(q, opts).unwrap();
                        let kctx = format!("{ctx}, kernel {opts:?}");
                        assert_eq!(flat_rows, rows, "rows diverged under hier: {kctx}");
                        assert_eq!(
                            href_stats.cells_probed, stats.cells_probed,
                            "cells_probed diverged across hier kernels: {kctx}"
                        );
                        assert_eq!(
                            href_stats.bits_read, stats.bits_read,
                            "bits_read diverged across hier kernels: {kctx}"
                        );
                        assert_eq!(
                            href_stats.regions_pruned, stats.regions_pruned,
                            "regions_pruned diverged across hier kernels: {kctx}"
                        );
                        assert_eq!(
                            href_stats.rows_skipped, stats.rows_skipped,
                            "rows_skipped diverged across hier kernels: {kctx}"
                        );
                    }
                    // With the pyramid attached but HierMode::Off, the
                    // flat path must be untouched — identical stats, no
                    // pruning accounting.
                    let off = KernelOpts::new(KernelKind::Scalar).with_hier(HierMode::Off);
                    let (off_rows, off_stats) =
                        idx.try_execute_rect_with_stats_opts(q, off).unwrap();
                    assert_eq!(flat_rows, off_rows, "HierMode::Off changed rows: {ctx}");
                    assert_eq!(
                        flat_stats.cells_probed, off_stats.cells_probed,
                        "HierMode::Off changed probe accounting: {ctx}"
                    );
                    assert_eq!(off_stats.regions_pruned, 0, "Off reported pruning: {ctx}");
                }
            }
        }
    }
}

/// The hybrid exact-tier axis over the full matrix. With every bin
/// exact-backed (`min_density: 0.0` lets the cost model back them
/// all) the hybrid answer for any rect IS the ground truth: a subset
/// of the flat answer (it only removes the AB's false positives), a
/// superset of the true rows (100 % recall is non-negotiable), and
/// `fp_rows_eliminated` must account for the difference exactly.
/// Every kernel × batch policy × hier on/off must agree, and
/// `HybridMode::Off` must leave the flat path byte-for-byte untouched
/// — same stats, zero hybrid accounting.
#[test]
fn hybrid_tier_is_exact_for_backed_bins_and_never_drops_rows() {
    let mut eliminated_total = 0u64;
    for (d, table) in datasets().iter().enumerate() {
        for (c, cfg) in configs().iter().enumerate() {
            let mut idx = AbIndex::build(table, cfg);
            idx.ensure_hybrid(
                table,
                &HybridConfig {
                    min_density: 0.0,
                    ..HybridConfig::default()
                },
            );
            idx.ensure_hier(&hier_configs()[0]);
            for (qi, q) in queries(table).iter().enumerate() {
                let ctx = format!("dataset {d}, config {c}, query {qi}");
                // Ground truth straight off the binned table.
                let truth: Vec<usize> = (q.row_lo..=q.row_hi.min(table.num_rows() - 1))
                    .filter(|&r| {
                        q.ranges.iter().all(|rg| {
                            let b = table.column(rg.attribute).bins[r];
                            rg.lo <= b && b <= rg.hi
                        })
                    })
                    .collect();
                let (flat_rows, flat_stats) = idx
                    .try_execute_rect_with_stats_kernel(q, KernelKind::Scalar)
                    .unwrap();
                let flat_set: std::collections::HashSet<usize> =
                    flat_rows.iter().copied().collect();
                let href = KernelOpts::new(KernelKind::Scalar).with_hybrid(HybridMode::Force);
                let (href_rows, href_stats) =
                    idx.try_execute_rect_with_stats_opts(q, href).unwrap();
                assert_eq!(
                    href_rows, truth,
                    "fully-backed hybrid answer is not the ground truth: {ctx}"
                );
                assert!(
                    href_rows.iter().all(|r| flat_set.contains(r)),
                    "hybrid returned a row flat did not: {ctx}"
                );
                assert_eq!(
                    (flat_rows.len() - href_rows.len()) as u64,
                    href_stats.fp_rows_eliminated,
                    "fp_rows_eliminated does not account for flat minus hybrid: {ctx}"
                );
                eliminated_total += href_stats.fp_rows_eliminated;
                for base in kernel_matrix() {
                    for hier in [HierMode::Off, HierMode::Force] {
                        let opts = base.with_hybrid(HybridMode::Force).with_hier(hier);
                        let (rows, stats) = idx.try_execute_rect_with_stats_opts(q, opts).unwrap();
                        let kctx = format!("{ctx}, kernel {opts:?}");
                        assert_eq!(truth, rows, "hybrid rows diverged from truth: {kctx}");
                        // Under hier, pruned regions never produce flat
                        // false positives to eliminate, so the count may
                        // only shrink — never grow, never go negative.
                        assert!(
                            stats.fp_rows_eliminated <= href_stats.fp_rows_eliminated,
                            "hier+hybrid eliminated more fp rows than hybrid alone: {kctx}"
                        );
                    }
                }
                // HybridMode::Off with the tier attached: the flat path
                // must be untouched — identical rows and probe stats,
                // zero hybrid accounting.
                let off = KernelOpts::new(KernelKind::Scalar).with_hybrid(HybridMode::Off);
                let (off_rows, off_stats) = idx.try_execute_rect_with_stats_opts(q, off).unwrap();
                assert_eq!(flat_rows, off_rows, "HybridMode::Off changed rows: {ctx}");
                assert_eq!(
                    flat_stats.cells_probed, off_stats.cells_probed,
                    "HybridMode::Off changed probe accounting: {ctx}"
                );
                assert_eq!(
                    off_stats.fp_rows_eliminated, 0,
                    "Off reported fp elimination: {ctx}"
                );
            }
        }
    }
    // The suite crosses enough α=8 configs that the AB is guaranteed
    // to produce false positives somewhere; if the tier never
    // eliminated any, the companion containers are broken.
    assert!(
        eliminated_total > 0,
        "no false positives eliminated across the whole matrix"
    );
}
