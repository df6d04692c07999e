//! The correctness gate, run after the timed window on every run.
//!
//! Every served answer must (1) contain the exact truth computed from
//! the generated table — the AB's no-false-negative guarantee — and
//! (2) be bit-identical to an in-process [`svc::Service`] built from
//! the same table with the library defaults. (2) proves the benchmark
//! measured the served hash family, α, k, level and shard count: any
//! drift changes the false-positive set.

use crate::gen::{Data, Pool, Req, BINS};
use crate::load::{Answer, Outcome, Sample};
use ab::{AbConfig, HierMode, HybridMode, Level};
use bitmap::{BinnedTable, Column, EquiDepth, Table};
use std::collections::HashMap;
use svc::{Service, SvcConfig};

/// The served configuration the reference must reproduce.
#[derive(Clone, Copy, Debug)]
pub struct ServedConfig {
    pub threads: usize,
    pub shards: usize,
    pub hier: HierMode,
    pub hybrid: HybridMode,
}

/// Bins the generated table with the library (as `abq` does after
/// parsing the CSV) and checks that they equal the benchmark's own
/// equi-depth bins, which the truth evaluator uses.
pub fn library_bins(data: &Data) -> Result<BinnedTable, String> {
    let table = Table::new(
        data.values
            .iter()
            .zip(["a", "b", "c", "d"])
            .map(|(v, name)| Column::new(name, v.iter().map(|&x| f64::from(x)).collect()))
            .collect(),
    );
    let binned = BinnedTable::from_table(&table, &EquiDepth::new(BINS));
    for (attr, (lib, own)) in binned.columns().iter().zip(&data.bins).enumerate() {
        if lib.bins.len() != own.len() || lib.bins.iter().zip(own).any(|(&l, &o)| l != o as u32) {
            return Err(format!(
                "library binning differs from the truth binning on attribute {attr}"
            ));
        }
    }
    Ok(binned)
}

/// The library's default AB configuration: per-attribute, α = 8, the
/// default hash family.
pub fn ab_config() -> AbConfig {
    AbConfig::new(Level::PerAttribute)
}

/// The in-process reference: the library defaults ([`ab_config`],
/// default kernel) plus the served thread, shard and tier settings.
pub fn reference(binned: &BinnedTable, served: ServedConfig) -> Service {
    let cfg = SvcConfig {
        threads: served.threads,
        shards: served.shards,
        hier: served.hier,
        hybrid: served.hybrid,
        ..SvcConfig::default()
    };
    Service::build(binned, &ab_config(), &cfg)
}

#[derive(Debug, Default)]
pub struct GateReport {
    /// Served answers compared against the reference.
    pub checked: u64,
    /// Served answers that were not bit-identical to the reference.
    pub mismatches: u64,
    /// True rows (or set cells) missing from an answer.
    pub false_negatives: u64,
    /// Answers the server marked degraded.
    pub degraded: u64,
    /// Σ truth rows and Σ reference rows over every rect of the pool.
    pub truth_rows: u64,
    pub answer_rows: u64,
    pub notes: Vec<String>,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.mismatches == 0 && self.false_negatives == 0 && self.notes.is_empty()
    }

    /// Truth rows ÷ answered rows, summed over the pool's rects.
    pub fn precision(&self) -> f64 {
        self.truth_rows as f64 / self.answer_rows.max(1) as f64
    }

    pub fn note(&mut self, msg: String) {
        if self.notes.len() < 20 {
            eprintln!("gate: {msg}");
            self.notes.push(msg);
        }
    }
}

fn rows_u64(rows: Vec<usize>) -> Vec<u64> {
    rows.into_iter().map(|r| r as u64).collect()
}

/// The reference answer to every request of the pool.
pub fn reference_answers(pool: &Pool, svc: &Service) -> Result<HashMap<Req, Answer>, String> {
    let mut out = HashMap::new();
    for (i, q) in pool.rects.iter().enumerate() {
        let rows = svc
            .query_rect(q)
            .map_err(|e| format!("reference rect {i}: {e}"))?;
        out.insert(Req::Rect(i), Answer::Rows(rows_u64(rows)));
    }
    for (i, c) in pool.cells.iter().enumerate() {
        let hits = svc
            .retrieve_cells(c)
            .map_err(|e| format!("reference cells {i}: {e}"))?;
        out.insert(Req::Cells(i), Answer::Hits(hits));
    }
    for (i, b) in pool.batches.iter().enumerate() {
        let res = svc
            .query_batch(b)
            .map_err(|e| format!("reference batch {i}: {e}"))?;
        out.insert(
            Req::Batch(i),
            Answer::Batch(res.into_iter().map(rows_u64).collect()),
        );
    }
    Ok(out)
}

/// Number of `truth` rows missing from the sorted `answer`.
fn missing(truth: &[u64], answer: &[u64]) -> u64 {
    let mut j = 0;
    let mut miss = 0;
    for &t in truth {
        while j < answer.len() && answer[j] < t {
            j += 1;
        }
        if j == answer.len() || answer[j] != t {
            miss += 1;
        }
    }
    miss
}

/// False negatives of `answer` to request `req`, against the truth.
fn false_negatives(data: &Data, pool: &Pool, req: Req, answer: &Answer) -> u64 {
    match (req, answer) {
        (Req::Rect(s), Answer::Rows(rows)) => missing(&data.truth(&pool.rects[s]), rows),
        (Req::Batch(s), Answer::Batch(results)) if results.len() == pool.batches[s].len() => pool
            .batches[s]
            .iter()
            .zip(results)
            .map(|(q, rows)| missing(&data.truth(q), rows))
            .sum(),
        (Req::Cells(s), Answer::Hits(hits)) if hits.len() == pool.cells[s].len() => pool.cells[s]
            .iter()
            .zip(hits)
            .filter(|(c, &hit)| data.cell_truth(c) && !hit)
            .count()
            as u64,
        _ => u64::MAX,
    }
}

/// Checks every sample and kept answer of a run.
pub fn check(
    data: &Data,
    pool: &Pool,
    reference: &HashMap<Req, Answer>,
    samples: &[Sample],
    first_answers: &[(Req, Answer)],
) -> GateReport {
    let mut report = GateReport::default();
    // The reference itself must hold the guarantee on every request.
    let mut keys: Vec<&Req> = reference.keys().collect();
    keys.sort();
    for &req in keys {
        let answer = &reference[&req];
        let fneg = false_negatives(data, pool, req, answer);
        if fneg > 0 {
            report.false_negatives += fneg;
            report.note(format!("reference {req:?}: {fneg} false negatives"));
        }
        let rects: Vec<&bitmap::RectQuery> = match req {
            Req::Rect(s) => vec![&pool.rects[s]],
            Req::Batch(s) => pool.batches[s].iter().collect(),
            Req::Cells(_) => vec![],
        };
        for q in rects {
            report.truth_rows += data.truth(q).len() as u64;
        }
        report.answer_rows += answer.rows();
    }
    let digests: HashMap<Req, u64> = reference.iter().map(|(k, v)| (*k, v.digest())).collect();
    for s in samples.iter().filter(|s| s.outcome == Outcome::Ok) {
        report.checked += 1;
        if s.degraded {
            report.degraded += 1;
        }
        if digests.get(&s.req) != Some(&s.digest) {
            report.mismatches += 1;
            report.note(format!(
                "served {:?} differs from the in-process answer",
                s.req
            ));
        }
    }
    for (req, answer) in first_answers {
        let fneg = false_negatives(data, pool, *req, answer);
        if fneg > 0 {
            report.false_negatives += fneg;
            report.note(format!("served {req:?}: {fneg} false negatives"));
        }
        if reference.get(req) != Some(answer) {
            report.mismatches += 1;
            report.note(format!(
                "served {req:?} is not bit-identical to the in-process answer"
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use bitmap::{AttrRange, BitmapIndex, Encoding, RectQuery};

    #[test]
    fn truth_agrees_with_the_exact_bitmap_index() {
        for w in [Workload::Narrow, Workload::Wide, Workload::Clustered] {
            let data = Data::generate(w, 5, 6000);
            let binned = library_bins(&data).expect("bins agree");
            let exact = BitmapIndex::build(&binned, Encoding::Equality);
            let pool = Pool::generate(w, 5, &data);
            let mut queries: Vec<RectQuery> = pool.rects.clone();
            queries.push(RectQuery::new(vec![AttrRange::new(1, 0, 9)], 17, 4000));
            queries.push(RectQuery::new(
                vec![AttrRange::new(0, 2, 2), AttrRange::new(3, 5, 8)],
                0,
                5999,
            ));
            for q in &queries {
                let want: Vec<u64> = exact
                    .evaluate_rows(q)
                    .into_iter()
                    .map(|r| r as u64)
                    .collect();
                assert_eq!(data.truth(q), want, "{w:?} {q:?}");
            }
            for c in pool.cells.iter().flatten() {
                let want = binned.column(c.attribute).bins[c.row] == c.bin;
                assert_eq!(data.cell_truth(c), want);
            }
        }
    }

    #[test]
    fn missing_counts_rows_absent_from_a_superset() {
        assert_eq!(missing(&[1, 4, 9], &[0, 1, 2, 4, 9, 12]), 0);
        assert_eq!(missing(&[1, 4, 9], &[1, 9]), 1);
        assert_eq!(missing(&[1, 4, 9], &[]), 3);
        assert_eq!(missing(&[], &[3]), 0);
    }

    #[test]
    fn gate_accepts_the_reference_and_rejects_a_dropped_row() {
        let data = Data::generate(Workload::Wide, 9, 4000);
        let binned = library_bins(&data).unwrap();
        let served = ServedConfig {
            threads: 2,
            shards: 2,
            hier: HierMode::Off,
            hybrid: HybridMode::Off,
        };
        let svc = reference(&binned, served);
        let pool = Pool::generate(Workload::Wide, 9, &data);
        let refs = reference_answers(&pool, &svc).unwrap();
        let good = refs[&Req::Rect(0)].clone();
        let sample = |a: &Answer| Sample {
            req: Req::Rect(0),
            round: 0,
            latency_us: 1.0,
            outcome: Outcome::Ok,
            digest: a.digest(),
            degraded: false,
        };
        let ok = check(
            &data,
            &pool,
            &refs,
            &[sample(&good)],
            &[(Req::Rect(0), good.clone())],
        );
        assert!(ok.passed(), "{ok:?}");
        assert!(ok.precision() > 0.5 && ok.precision() <= 1.0);

        let Answer::Rows(mut rows) = good else {
            unreachable!()
        };
        let truth = data.truth(&pool.rects[0]);
        rows.retain(|&r| r != truth[0]);
        let bad = Answer::Rows(rows);
        let report = check(
            &data,
            &pool,
            &refs,
            &[sample(&bad)],
            &[(Req::Rect(0), bad.clone())],
        );
        assert!(!report.passed());
        assert_eq!(report.false_negatives, 1);
        assert_eq!(report.mismatches, 2);
    }
}
