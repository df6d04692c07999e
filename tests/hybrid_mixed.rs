//! The exact tier's mixed path: rects whose ranges straddle backed
//! and unbacked bins, so the kernel seeds its masks from the exact
//! containers and probes the AB only for the unbacked bins.
//!
//! The scalar per-row loop is the reference. The batched mask kernel
//! must agree with it on rows and on every probe counter, and the
//! answer must sit between the truth and the flat AB answer.

use ab::{AbConfig, AbIndex, BatchRows, HybridConfig, HybridMode, KernelKind, KernelOpts, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, BitmapIndex, Encoding, RectQuery};

const ROWS: usize = 8192;

/// A time-ordered table. Attribute `a` holds four large contiguous
/// clusters (bins 0–3) and four small ones (bins 4–7, under the
/// tier's minimum density). Attribute `b` cycles through four
/// 512-row runs (bins 0–3) with two sparse bins (4, 5) sprinkled in.
fn clustered() -> BinnedTable {
    let small = [40usize, 30, 20, 10];
    let big = (ROWS - small.iter().sum::<usize>()) / 4;
    let mut a = Vec::with_capacity(ROWS);
    for bin in 0..4u32 {
        a.extend(std::iter::repeat_n(bin, big));
    }
    for (i, &n) in small.iter().enumerate() {
        a.extend(std::iter::repeat_n(4 + i as u32, n));
    }
    a.resize(ROWS, 3);
    let b = (0..ROWS)
        .map(|i| match i {
            _ if i % 97 == 0 => 4,
            _ if i % 89 == 0 => 5,
            _ => ((i / 512) % 4) as u32,
        })
        .collect();
    BinnedTable::new(vec![
        BinnedColumn::new("a", a, 8),
        BinnedColumn::new("b", b, 6),
    ])
}

fn queries() -> Vec<RectQuery> {
    let last = ROWS - 1;
    vec![
        RectQuery::new(vec![AttrRange::new(0, 2, 5)], 0, last),
        RectQuery::new(vec![AttrRange::new(0, 3, 7)], 37, 8100),
        RectQuery::new(
            vec![AttrRange::new(0, 3, 7), AttrRange::new(1, 0, 4)],
            100,
            8000,
        ),
        RectQuery::new(
            vec![AttrRange::new(1, 2, 5), AttrRange::new(0, 0, 6)],
            0,
            last,
        ),
        RectQuery::new(
            vec![AttrRange::new(0, 1, 4), AttrRange::new(1, 3, 5)],
            1000,
            1000 + 700,
        ),
    ]
}

#[test]
fn mixed_ranges_agree_across_kernels_and_sit_between_truth_and_flat() {
    let table = clustered();
    let exact = BitmapIndex::build(&table, Encoding::Equality);
    let mut idx = AbIndex::build(&table, &AbConfig::new(Level::PerAttribute).with_alpha(4));
    idx.ensure_hybrid(&table, &HybridConfig::default());
    let hy = idx.hybrid().expect("tier attached");
    let mut eliminated = 0u64;
    for q in queries() {
        assert!(
            q.ranges.iter().any(|r| {
                let backed = (r.lo..=r.hi)
                    .filter(|&b| hy.backing(r.attribute, b).is_some())
                    .count();
                backed > 0 && backed < (r.hi - r.lo + 1) as usize
            }),
            "{q:?} does not straddle backed and unbacked bins"
        );
        let truth = exact.evaluate_rows(&q);
        let run = |opts: KernelOpts| idx.try_execute_rect_with_stats_opts(&q, opts).unwrap();
        let flat = run(KernelOpts::new(KernelKind::Scalar)).0;
        let reference = run(KernelOpts::new(KernelKind::Scalar).with_hybrid(HybridMode::Force));
        for batch in [
            BatchRows::Adaptive,
            BatchRows::Fixed(64),
            BatchRows::Fixed(256),
        ] {
            let got = run(KernelOpts::new(KernelKind::Batched)
                .with_batch_rows(batch)
                .with_hybrid(HybridMode::Force));
            assert_eq!(got.0, reference.0, "{q:?} {batch}: rows differ");
            let (g, r) = (got.1, reference.1);
            assert_eq!(g.cells_probed, r.cells_probed, "{q:?} {batch}");
            assert_eq!(g.bits_read, r.bits_read, "{q:?} {batch}");
            assert_eq!(g.fp_rows_eliminated, r.fp_rows_eliminated, "{q:?} {batch}");
            assert_eq!(g.rows_matched, r.rows_matched, "{q:?} {batch}");
        }
        let (rows, stats) = reference;
        assert!(stats.cells_probed > 0, "{q:?}: unbacked bins must probe");
        assert!(
            truth.iter().all(|r| rows.binary_search(r).is_ok()),
            "{q:?}: hybrid answer dropped a true row"
        );
        assert!(
            rows.iter().all(|r| flat.binary_search(r).is_ok()),
            "{q:?}: hybrid answer is not a subset of flat"
        );
        assert_eq!(
            stats.fp_rows_eliminated,
            (flat.len() - rows.len()) as u64,
            "{q:?}: fp accounting"
        );
        eliminated += stats.fp_rows_eliminated;
    }
    assert!(
        eliminated > 0,
        "alpha 4 leaves false positives to eliminate"
    );
}
