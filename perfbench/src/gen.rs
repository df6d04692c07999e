//! Seeded inputs: the table each workload serves, its equi-depth bins,
//! and the request sequence the client replays.
//!
//! Everything here is a pure function of `(workload, seed)`, so a run
//! can be replayed exactly and the correctness gate can recompute any
//! request from its sequence number.

use ab::Cell;
use bitmap::{AttrRange, RectQuery};
use hashkit::splitmix64;
use std::io::Write;

/// Attributes per table (`a`, `b`, `c`, `d`).
pub const ATTRS: usize = 4;
/// Equi-depth bins per attribute: the served default (`--bins 10`).
pub const BINS: u32 = 10;
/// Cells per cell-retrieval request.
pub const CELLS_PER_REQUEST: usize = 64;
/// Rects per batch request.
pub const RECTS_PER_BATCH: usize = 8;
/// Row window of a `narrow` rect (the paper's direct-access queries).
pub const NARROW_WINDOW: usize = 4096;
/// Uniform column values are drawn from `0..VALUE_RANGE`.
const VALUE_RANGE: u32 = 1_000_000;
/// First value of the monotone, time-like column `a` on `clustered`.
const CLUSTERED_EPOCH: u32 = 1_600_000_000;

/// splitmix64: a small, fast, well-mixed PRNG.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let x = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// The three served workloads (see `perfbench/WORKLOADS.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Narrow,
    Wide,
    Clustered,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "narrow" => Some(Workload::Narrow),
            "wide" => Some(Workload::Wide),
            "clustered" => Some(Workload::Clustered),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Narrow => "narrow",
            Workload::Wide => "wide",
            Workload::Clustered => "clustered",
        }
    }

    /// Rows in the generated table.
    pub fn rows(self) -> usize {
        match self {
            Workload::Narrow => 1 << 21,
            Workload::Wide => 1 << 15,
            Workload::Clustered => 1 << 16,
        }
    }

    /// Share of a run's seconds given to each kind's closed-loop phase,
    /// `[rect, cells, batch]`: enough for ≥1000 samples of each kind on
    /// the reference machine (a `narrow` batch costs about eight rects,
    /// a `wide` or `clustered` batch about one, a cell request ~1/50).
    /// The kinds never share the server; `rps` counts the requests all
    /// phases complete over their wall time, so it weighs each kind's
    /// rate by its share.
    pub fn phase_shares(self) -> [f64; 3] {
        match self {
            Workload::Narrow => [0.3, 0.15, 0.55],
            Workload::Wide | Workload::Clustered => [0.4, 0.2, 0.4],
        }
    }

    /// Distinct requests per kind `[rect, cells, batch]`, whole cycles
    /// of each workload's rect shapes. Requests are drawn from these
    /// pools, which bounds the correctness gate's in-process work; the
    /// server caches no answers.
    pub fn pool_sizes(self) -> [usize; 3] {
        match self {
            Workload::Narrow => [512, 512, 64],
            Workload::Wide => [100, 256, 20],
            Workload::Clustered => [99, 256, 18],
        }
    }

    /// Served from an `ABPG` store with both pruning tiers on.
    pub fn uses_store(self) -> bool {
        self == Workload::Clustered
    }
}

/// The generated table: raw values (what the CSV holds) and the
/// benchmark's own equi-depth binning of them (what truth uses).
pub struct Data {
    pub rows: usize,
    pub values: Vec<Vec<u32>>,
    pub bins: Vec<Vec<u8>>,
}

impl Data {
    pub fn generate(w: Workload, seed: u64, rows: usize) -> Data {
        let mut values = Vec::with_capacity(ATTRS);
        for attr in 0..ATTRS {
            let mut rng = Rng::new(splitmix64(
                seed ^ (attr as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407),
            ));
            let col: Vec<u32> = if w == Workload::Clustered && attr == 0 {
                (0..rows as u32).map(|r| CLUSTERED_EPOCH + r).collect()
            } else {
                (0..rows)
                    .map(|_| rng.below(VALUE_RANGE as u64) as u32)
                    .collect()
            };
            values.push(col);
        }
        let bins = std::thread::scope(|s| {
            let handles: Vec<_> = values
                .iter()
                .map(|col| s.spawn(move || equi_depth(col, BINS)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("binning thread"))
                .collect()
        });
        Data { rows, values, bins }
    }

    /// Writes the table as a CSV with a header row, the format
    /// `abq serve --csv` and `abq store build --csv` read.
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        let names = ["a", "b", "c", "d"];
        writeln!(out, "{}", names[..ATTRS].join(","))?;
        let mut line = String::with_capacity(64);
        for r in 0..self.rows {
            line.clear();
            for (i, col) in self.values.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                push_u32(&mut line, col[r]);
            }
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// The rows of `q` that truly match (bins compared exactly).
    pub fn truth(&self, q: &RectQuery) -> Vec<u64> {
        (q.row_lo..=q.row_hi)
            .filter(|&r| {
                q.ranges.iter().all(|ar| {
                    let b = self.bins[ar.attribute][r] as u32;
                    ar.lo <= b && b <= ar.hi
                })
            })
            .map(|r| r as u64)
            .collect()
    }

    /// Whether `cell` is truly set.
    pub fn cell_truth(&self, cell: &Cell) -> bool {
        self.bins[cell.attribute][cell.row] as u32 == cell.bin
    }
}

fn push_u32(s: &mut String, mut v: u32) {
    let mut buf = [0u8; 10];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// Equi-depth binning as the paper defines it: rank rows by value
/// (ties by row order) and give rank `i` bin `i·bins/n`.
pub fn equi_depth(col: &[u32], bins: u32) -> Vec<u8> {
    let n = col.len();
    let mut order: Vec<(u32, u32)> = col
        .iter()
        .enumerate()
        .map(|(r, &v)| (v, r as u32))
        .collect();
    order.sort_unstable();
    let mut out = vec![0u8; n];
    for (rank, &(_, row)) in order.iter().enumerate() {
        out[row as usize] = ((rank as u64 * bins as u64) / n as u64) as u8;
    }
    out
}

/// One request of the replayed sequence: a kind and its pool slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Req {
    Rect(usize),
    Cells(usize),
    Batch(usize),
}

impl Req {
    pub fn kind(self) -> usize {
        match self {
            Req::Rect(_) => 0,
            Req::Cells(_) => 1,
            Req::Batch(_) => 2,
        }
    }
}

pub const KIND_NAMES: [&str; 3] = ["rect", "cells", "batch"];

/// The distinct requests of a run.
pub struct Pool {
    pub rects: Vec<RectQuery>,
    pub cells: Vec<Vec<Cell>>,
    pub batches: Vec<Vec<RectQuery>>,
}

impl Pool {
    pub fn generate(w: Workload, seed: u64, data: &Data) -> Pool {
        let [nr, nc, nb] = w.pool_sizes();
        let mut rng = Rng::new(splitmix64(seed ^ 0x005E_ED0F_9001));
        let rects = (0..nr).map(|j| rect(w, data.rows, &mut rng, j)).collect();
        let cells = (0..nc).map(|_| cells(data, &mut rng)).collect();
        let batches = (0..nb).map(|j| batch(w, data.rows, &mut rng, j)).collect();
        Pool {
            rects,
            cells,
            batches,
        }
    }

    /// Request `i` of kind `kind`'s sequence: a uniformly drawn slot
    /// of that kind's pool.
    pub fn item(&self, seed: u64, kind: usize, i: u64) -> Req {
        let slot = splitmix64(
            seed ^ splitmix64(i ^ ((kind as u64 + 1) << 56)).wrapping_add(0x51_7CC1_B727_220A),
        );
        match kind {
            0 => Req::Rect((slot % self.rects.len() as u64) as usize),
            1 => Req::Cells((slot % self.cells.len() as u64) as usize),
            _ => Req::Batch((slot % self.batches.len() as u64) as usize),
        }
    }
}

/// Eight rects in one request. On `narrow`, eight independent
/// direct-access rects. On `wide` and `clustered`, one rect of the
/// workload cut into eight row slices (a client paging a large scan),
/// so a batch costs about one rect and answers as many rows.
fn batch(w: Workload, rows: usize, rng: &mut Rng, j: usize) -> Vec<RectQuery> {
    if w == Workload::Narrow {
        return (0..RECTS_PER_BATCH)
            .map(|i| rect(w, rows, rng, j * RECTS_PER_BATCH + i))
            .collect();
    }
    let whole = rect(w, rows, rng, j);
    let per = rows.div_ceil(RECTS_PER_BATCH);
    (0..RECTS_PER_BATCH)
        .map(|i| {
            let lo = i * per;
            RectQuery::new(whole.ranges.clone(), lo, (lo + per).min(rows) - 1)
        })
        .collect()
}

/// `width` bins of `attr` at a uniform start.
fn bin_range(rng: &mut Rng, attr: usize, width: u32) -> AttrRange {
    let lo = rng.below((BINS - width + 1) as u64) as u32;
    AttrRange::new(attr, lo, lo + width - 1)
}

/// The `j`-th rect of a pool. Its shape (attributes, bin widths, kind
/// of range) cycles with `j`, so every pool holds the same mix of
/// shapes whatever the seed; positions are drawn from `rng`.
fn rect(w: Workload, rows: usize, rng: &mut Rng, j: usize) -> RectQuery {
    match w {
        // §5.3 direct access: a 4K-row window, 1–2 attributes of 1–2
        // bins each (32 shapes).
        Workload::Narrow => {
            let lo = rng.below((rows - NARROW_WINDOW + 1) as u64) as usize;
            let first = j % ATTRS;
            let mut ranges = vec![bin_range(rng, first, 1 + (j / 8 % 2) as u32)];
            if j / 4 % 2 == 1 {
                let second = (first + 1 + rng.below(ATTRS as u64 - 1) as usize) % ATTRS;
                ranges.push(bin_range(rng, second, 1 + (j / 16 % 2) as u32));
            }
            RectQuery::new(ranges, lo, lo + NARROW_WINDOW - 1)
        }
        // Full row range over 1–5 bins of one attribute: 10–50 % of
        // the rows match, so answers are large (20 shapes).
        Workload::Wide => {
            let width = 1 + (j % 5) as u32;
            RectQuery::new(vec![bin_range(rng, j / 5 % ATTRS, width)], 0, rows - 1)
        }
        // Full row range over 1–3 bins of the time-like column `a`
        // (9 shapes). A third straddle the middle bin boundary, where
        // each shard holds some selected bins and lacks others (the
        // hybrid tier's mixed path); a third AND a uniform attribute's
        // range.
        Workload::Clustered => {
            let width = 1 + (j / 3 % 3) as u32;
            let a = if j.is_multiple_of(3) {
                let mid = BINS / 2;
                let lo = rng.between((mid - width) as u64, (mid - 1) as u64) as u32;
                AttrRange::new(0, lo, lo + width)
            } else {
                bin_range(rng, 0, width)
            };
            let mut ranges = vec![a];
            if j % 3 == 2 {
                let attr = 1 + rng.below(ATTRS as u64 - 1) as usize;
                let width = 1 + rng.below(3) as u32;
                ranges.push(bin_range(rng, attr, width));
            }
            RectQuery::new(ranges, 0, rows - 1)
        }
    }
}

/// 64 cells at uniformly random rows and attributes; half name the
/// row's true bin (a hit), half a uniformly random bin.
fn cells(data: &Data, rng: &mut Rng) -> Vec<Cell> {
    (0..CELLS_PER_REQUEST)
        .map(|_| {
            let row = rng.below(data.rows as u64) as usize;
            let attribute = rng.below(ATTRS as u64) as usize;
            let bin = if rng.below(2) == 0 {
                data.bins[attribute][row] as u32
            } else {
                rng.below(BINS as u64) as u32
            };
            Cell::new(row, attribute, bin)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csv(w: Workload, seed: u64, rows: usize) -> Vec<u8> {
        let mut out = Vec::new();
        Data::generate(w, seed, rows).write_csv(&mut out).unwrap();
        out
    }

    fn sequence(w: Workload, seed: u64, rows: usize) -> Vec<String> {
        let data = Data::generate(w, seed, rows);
        let pool = Pool::generate(w, seed, &data);
        (0..200)
            .map(|i| match pool.item(seed, (i % 3) as usize, i / 3) {
                Req::Rect(s) => format!("{:?}", pool.rects[s]),
                Req::Cells(s) => format!("{:?}", pool.cells[s]),
                Req::Batch(s) => format!("{:?}", pool.batches[s]),
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_different() {
        for w in [Workload::Narrow, Workload::Wide, Workload::Clustered] {
            let rows = 8192;
            assert_eq!(csv(w, 7, rows), csv(w, 7, rows), "{w:?} csv");
            assert_eq!(sequence(w, 7, rows), sequence(w, 7, rows), "{w:?} sequence");
            assert_ne!(csv(w, 7, rows), csv(w, 8, rows), "{w:?} csv");
            assert_ne!(sequence(w, 7, rows), sequence(w, 8, rows), "{w:?} sequence");
        }
    }

    #[test]
    fn each_kind_draws_uniformly_from_its_own_pool() {
        let data = Data::generate(Workload::Wide, 3, 8192);
        let pool = Pool::generate(Workload::Wide, 3, &data);
        for (kind, len) in [pool.rects.len(), pool.cells.len(), pool.batches.len()]
            .into_iter()
            .enumerate()
        {
            let mut hits = vec![0u32; len];
            for i in 0..(len as u64 * 200) {
                let req = pool.item(3, kind, i);
                assert_eq!(req.kind(), kind);
                let (Req::Rect(s) | Req::Cells(s) | Req::Batch(s)) = req;
                hits[s] += 1;
            }
            // 200 expected draws per slot: every slot is reached, none
            // is drawn more than twice as often as expected.
            assert!(
                hits.iter().all(|&h| (50..400).contains(&h)),
                "{kind}: {hits:?}"
            );
        }
    }

    #[test]
    fn pools_hold_the_same_shapes_whatever_the_seed() {
        let shapes = |seed| {
            let data = Data::generate(Workload::Wide, seed, 5000);
            let mut widths: Vec<u32> = Pool::generate(Workload::Wide, seed, &data)
                .rects
                .iter()
                .map(|q| q.ranges[0].width())
                .collect();
            widths.sort();
            widths
        };
        assert_eq!(shapes(1), shapes(2));
    }

    #[test]
    fn wide_batches_page_one_rect_over_every_row() {
        let data = Data::generate(Workload::Wide, 4, 1001);
        let pool = Pool::generate(Workload::Wide, 4, &data);
        for b in &pool.batches {
            assert_eq!(b.len(), RECTS_PER_BATCH);
            assert_eq!(b[0].row_lo, 0);
            assert_eq!(b[RECTS_PER_BATCH - 1].row_hi, 1000);
            assert!(b
                .windows(2)
                .all(|p| p[1].row_lo == p[0].row_hi + 1 && p[1].ranges == p[0].ranges));
        }
    }

    #[test]
    fn equi_depth_balances_and_breaks_ties_by_row() {
        let col = vec![5, 5, 5, 5, 1, 9, 9, 0];
        // Sorted: 0(r7) 1(r4) 5(r0) 5(r1) 5(r2) 5(r3) 9(r5) 9(r6).
        assert_eq!(equi_depth(&col, 4), vec![1, 1, 2, 2, 0, 3, 3, 0]);
        let uniform: Vec<u32> = (0..1000).map(|i| (splitmix64(i) % 100) as u32).collect();
        let bins = equi_depth(&uniform, 10);
        for b in 0..10u8 {
            assert_eq!(bins.iter().filter(|&&x| x == b).count(), 100);
        }
    }

    #[test]
    fn clustered_column_a_is_monotone_and_bins_are_row_blocks() {
        let data = Data::generate(Workload::Clustered, 1, 10_000);
        assert!(data.values[0].windows(2).all(|w| w[0] < w[1]));
        assert!(data.bins[0].windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(data.bins[0][0], 0);
        assert_eq!(data.bins[0][9_999], (BINS - 1) as u8);
    }

    #[test]
    fn generated_queries_are_in_range() {
        for w in [Workload::Narrow, Workload::Wide, Workload::Clustered] {
            let data = Data::generate(w, 11, 20_000);
            let pool = Pool::generate(w, 11, &data);
            for q in pool.rects.iter().chain(pool.batches.iter().flatten()) {
                assert!(q.row_hi < data.rows);
                assert!(!q.ranges.is_empty());
                assert!(q.ranges.iter().all(|r| r.hi < BINS && r.attribute < ATTRS));
            }
            assert!(pool.cells.iter().flatten().all(|c| c.row < data.rows));
        }
    }
}
