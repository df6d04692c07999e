//! Cost-based engine selection: AB vs WAH per query.
//!
//! Figure 14's lesson is operational: the AB wins while the queried
//! row fraction is small and loses to WAH's flat full-column cost
//! beyond a crossover. [`CostModel`] captures both costs (calibrated
//! from measurements on the actual data), and [`plan`] picks the
//! engine per query — turning the paper's observation ("executing a
//! query that selects up to around 15% of the rows by using AB is
//! still faster") into a planner rule with a data-derived threshold
//! instead of a hard-coded 15%.

use bitmap::RectQuery;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which index answers a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// Approximate Bitmap: O(rows queried), approximate (100% recall).
    Ab,
    /// WAH-compressed bitmaps: flat full-column cost, exact.
    Wah,
}

/// Calibrated per-query cost estimates, with per-sample dispersion.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Mean cost of one WAH rectangular query (ms) — independent of
    /// the row range.
    pub wah_ms_per_query: f64,
    /// Mean AB cost per (row × constrained attribute) probed (ms).
    pub ab_ms_per_row_attr: f64,
    /// Population stddev of the per-query WAH cost across the
    /// calibration samples (0 for a hand-built model).
    pub wah_ms_stddev: f64,
    /// Population stddev of the per-(row × attribute) AB cost across
    /// the calibration samples (0 for a hand-built model).
    pub ab_ms_stddev: f64,
}

impl CostModel {
    /// A model from point estimates alone (no dispersion), e.g. for
    /// tests or externally supplied costs.
    pub fn new(wah_ms_per_query: f64, ab_ms_per_row_attr: f64) -> Self {
        CostModel {
            wah_ms_per_query,
            ab_ms_per_row_attr,
            wah_ms_stddev: 0.0,
            ab_ms_stddev: 0.0,
        }
    }

    /// Estimated AB cost for a query: rows × qdim probe groups.
    pub fn ab_estimate_ms(&self, query: &RectQuery) -> f64 {
        self.ab_ms_per_row_attr * query.num_rows() as f64 * query.qdim().max(1) as f64
    }

    /// Estimated WAH cost (flat).
    pub fn wah_estimate_ms(&self, _query: &RectQuery) -> f64 {
        self.wah_ms_per_query
    }

    /// The row count at which the engines break even for a query of
    /// dimensionality `qdim` — the calibrated Figure 14 crossover.
    pub fn crossover_rows(&self, qdim: usize) -> usize {
        (self.wah_ms_per_query / (self.ab_ms_per_row_attr * qdim.max(1) as f64)).ceil() as usize
    }

    /// The crossover as a `(low, mid, high)` interval: `mid` is
    /// [`Self::crossover_rows`]; `low`/`high` re-solve it with both
    /// costs shifted one stddev against/for the AB. A wide interval
    /// means noisy calibration — the single-number crossover should
    /// not be trusted to the row.
    pub fn crossover_rows_spread(&self, qdim: usize) -> (usize, usize, usize) {
        let mid = self.crossover_rows(qdim);
        let q = qdim.max(1) as f64;
        let lo = ((self.wah_ms_per_query - self.wah_ms_stddev).max(0.0)
            / ((self.ab_ms_per_row_attr + self.ab_ms_stddev) * q))
            .ceil() as usize;
        let hi = ((self.wah_ms_per_query + self.wah_ms_stddev)
            / ((self.ab_ms_per_row_attr - self.ab_ms_stddev).max(1e-15) * q))
            .ceil() as usize;
        (lo.min(mid), mid, hi.max(mid))
    }
}

/// Chooses the cheaper engine under the model (and counts the choice
/// into `planner.plan.ab` / `planner.plan.wah`).
pub fn plan(model: &CostModel, query: &RectQuery) -> Engine {
    if model.ab_estimate_ms(query) <= model.wah_estimate_ms(query) {
        obs::counter!("planner.plan.ab").inc();
        Engine::Ab
    } else {
        obs::counter!("planner.plan.wah").inc();
        Engine::Wah
    }
}

/// Finest-level occupancy above which descent is pointless: nearly
/// every region survives, so the pyramid walk is pure overhead.
const DESCENT_MAX_OCCUPANCY: f64 = 0.9;

/// Decides whether walking the [`HierAb`](crate::hier::HierAb)
/// pyramid beats a flat scan for `query` (and counts the choice into
/// `planner.descent.hier` / `planner.descent.flat`).
///
/// Descent costs O(spans × groups) level-AB probes and only pays off
/// when whole finest-level regions die, so it wins when
///
/// * the query's row interval spans at least two finest row-spans
///   (anything smaller cannot prune a full region the flat scan would
///   have visited), and
/// * the finest level is not near-saturated (occupancy below
///   `DESCENT_MAX_OCCUPANCY` = 0.9) — on uniformly shuffled data
///   every region is occupied and pruning never fires.
///
/// Queries with no range constraints match every row; there is
/// nothing to prune.
pub fn plan_descent(hier: &crate::hier::HierAb, query: &RectQuery) -> bool {
    let descend = !query.ranges.is_empty()
        && query.num_rows() >= 2 * hier.finest().row_span()
        && hier.finest().occupancy_fraction() < DESCENT_MAX_OCCUPANCY;
    if descend {
        obs::counter!("planner.descent.hier").inc();
    } else {
        obs::counter!("planner.descent.flat").inc();
    }
    descend
}

fn mean_and_stddev(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Measures a cost model by timing `sample_queries` against both
/// indexes (intended to run once at load time). Each sample is timed
/// individually — one clock read per sample boundary, since the read
/// that ends sample *i* also starts sample *i+1* — so the model
/// carries per-sample dispersion, and each sample's elapsed time lands
/// in the `planner.calibrate.{ab,wah}_us` histograms. After fitting,
/// every sample's |actual − estimated| lands in `planner.residual_us`.
///
/// # Panics
///
/// Panics if `sample_queries` is empty.
pub fn calibrate(
    ab: &crate::AbIndex,
    wah: &wah_like::WahLike<'_>,
    sample_queries: &[RectQuery],
) -> CostModel {
    assert!(!sample_queries.is_empty(), "need sample queries");

    // The kernel's adaptive block size is a per-index property of the
    // same calibration pass (AB footprint vs cache hierarchy); record
    // it here so one `kernel.batch_rows` sample per index exists even
    // before the first query runs.
    obs::histogram!("kernel.batch_rows").record(ab.adaptive_batch_rows() as u64);

    let mut ab_ms = Vec::with_capacity(sample_queries.len());
    let mut ab_per_row_attr = Vec::with_capacity(sample_queries.len());
    let mut last = Instant::now();
    for q in sample_queries {
        std::hint::black_box(ab.execute_rect(q));
        let now = Instant::now();
        let ms = (now - last).as_secs_f64() * 1e3;
        last = now;
        obs::histogram!("planner.calibrate.ab_us").record((ms * 1e3) as u64);
        let row_attrs = (q.num_rows() * q.qdim().max(1)).max(1);
        ab_ms.push(ms);
        ab_per_row_attr.push(ms / row_attrs as f64);
    }

    let mut wah_ms = Vec::with_capacity(sample_queries.len());
    let mut last = Instant::now();
    for q in sample_queries {
        wah.evaluate(q);
        let now = Instant::now();
        let ms = (now - last).as_secs_f64() * 1e3;
        last = now;
        obs::histogram!("planner.calibrate.wah_us").record((ms * 1e3) as u64);
        wah_ms.push(ms);
    }

    let (wah_mean, wah_sd) = mean_and_stddev(&wah_ms);
    let (ab_mean, ab_sd) = mean_and_stddev(&ab_per_row_attr);
    let model = CostModel {
        wah_ms_per_query: wah_mean.max(1e-9),
        ab_ms_per_row_attr: ab_mean.max(1e-12),
        wah_ms_stddev: wah_sd,
        ab_ms_stddev: ab_sd,
    };

    for (q, &ms) in sample_queries.iter().zip(&ab_ms) {
        let residual_us = (ms - model.ab_estimate_ms(q)).abs() * 1e3;
        obs::histogram!("planner.residual_us").record(residual_us as u64);
    }
    for &ms in &wah_ms {
        let residual_us = (ms - model.wah_ms_per_query).abs() * 1e3;
        obs::histogram!("planner.residual_us").record(residual_us as u64);
    }
    model
}

/// A thin closure wrapper so the planner can calibrate against any WAH
/// implementation without this crate depending on the `wah` crate
/// (which sits above `ab` in the workspace graph).
pub mod wah_like {
    use bitmap::RectQuery;

    /// An opaque "evaluate a rectangular query" callable.
    pub struct WahLike<'a> {
        eval: Box<dyn Fn(&RectQuery) + 'a>,
    }

    impl<'a> WahLike<'a> {
        /// Wraps an evaluator closure (it should fully execute the
        /// query and discard the result).
        pub fn new<F: Fn(&RectQuery) + 'a>(eval: F) -> Self {
            WahLike {
                eval: Box::new(eval),
            }
        }

        /// Runs the wrapped evaluator.
        pub fn evaluate(&self, q: &RectQuery) {
            (self.eval)(q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitmap::AttrRange;

    fn model() -> CostModel {
        CostModel::new(1.0, 0.001)
    }

    fn q(rows: usize) -> RectQuery {
        RectQuery::new(vec![AttrRange::new(0, 0, 1)], 0, rows - 1)
    }

    #[test]
    fn small_queries_go_to_ab() {
        assert_eq!(plan(&model(), &q(100)), Engine::Ab);
    }

    #[test]
    fn large_queries_go_to_wah() {
        assert_eq!(plan(&model(), &q(10_000)), Engine::Wah);
    }

    #[test]
    fn crossover_is_consistent_with_plan() {
        let m = model();
        let cross = m.crossover_rows(1);
        assert_eq!(cross, 1000);
        let q1 = RectQuery::new(vec![AttrRange::new(0, 0, 0)], 0, cross - 2);
        let q2 = RectQuery::new(vec![AttrRange::new(0, 0, 0)], 0, cross * 2);
        assert_eq!(plan(&m, &q1), Engine::Ab);
        assert_eq!(plan(&m, &q2), Engine::Wah);
    }

    #[test]
    fn higher_qdim_lowers_crossover() {
        let m = model();
        assert!(m.crossover_rows(4) < m.crossover_rows(1));
    }

    #[test]
    fn calibrate_produces_positive_costs() {
        use crate::{AbConfig, AbIndex, Level};
        use bitmap::{BinnedColumn, BinnedTable, BitmapIndex, Encoding};
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "x",
            (0..2000u32).map(|i| i % 8).collect(),
            8,
        )]);
        let ab = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(8));
        let exact = BitmapIndex::build(&t, Encoding::Equality);
        let wah = wah_like::WahLike::new(|q: &RectQuery| {
            std::hint::black_box(exact.evaluate(q));
        });
        let samples: Vec<RectQuery> = (0..5)
            .map(|i| RectQuery::new(vec![AttrRange::new(0, 0, 3)], i * 100, i * 100 + 199))
            .collect();
        let m = calibrate(&ab, &wah, &samples);
        assert!(m.wah_ms_per_query > 0.0);
        assert!(m.ab_ms_per_row_attr > 0.0);
        assert!(m.crossover_rows(1) > 0);
        assert!(m.wah_ms_stddev >= 0.0);
        assert!(m.ab_ms_stddev >= 0.0);
    }

    #[test]
    fn plan_descent_requires_large_sparse_queries() {
        use crate::hier::{HierAb, HierConfig, HierLevelSpec};
        use crate::{AbConfig, AbIndex, Level};
        use bitmap::{BinnedColumn, BinnedTable};
        // Clustered data: 8 bins over 2000 rows in contiguous runs, so
        // the finest 64-row × 2-bin grid is sparse.
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..2000u32).map(|i| (i / 250).min(7)).collect(),
            8,
        )]);
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        let hier = HierAb::build(
            &idx,
            &HierConfig {
                levels: vec![HierLevelSpec {
                    row_span: 64,
                    bin_group: 2,
                }],
            },
        );
        let ranges = vec![AttrRange::new(0, 0, 1)];
        // Spans ≥ 2 row-spans of sparse data: descend.
        assert!(plan_descent(
            &hier,
            &RectQuery::new(ranges.clone(), 0, 1999)
        ));
        // Smaller than 2 row-spans: a full region can't be pruned.
        assert!(!plan_descent(&hier, &RectQuery::new(ranges, 0, 100)));
        // No range constraints: every row matches, nothing to prune.
        assert!(!plan_descent(&hier, &RectQuery::new(vec![], 0, 1999)));
    }

    #[test]
    fn crossover_spread_brackets_the_mean() {
        let mut m = model();
        m.wah_ms_stddev = 0.2;
        m.ab_ms_stddev = 0.0002;
        let (lo, mid, hi) = m.crossover_rows_spread(1);
        assert_eq!(mid, m.crossover_rows(1));
        assert!(lo <= mid && mid <= hi, "({lo}, {mid}, {hi}) not ordered");
        assert!(lo < hi, "nonzero dispersion must widen the interval");
        // Zero dispersion collapses the interval to the point estimate.
        let (lo0, mid0, hi0) = model().crossover_rows_spread(1);
        assert_eq!((lo0, hi0), (mid0, mid0));
    }
}
