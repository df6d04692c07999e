//! The 64-row mask probe kernel (DESIGN.md §13).
//!
//! The paper's retrieval algorithms (Figures 5 and 7) are O(c·k) in
//! probe count. The reference loop in `query.rs` evaluates them one
//! row at a time. This module evaluates the same algorithms over
//! blocks of rows held as 64-row machine words, without changing a
//! single observable result:
//!
//! 1. **Hash hoisting.** A rect query touches the same (attribute,
//!    bin) columns for every row, so the row-independent half of the
//!    probe pipeline (family dispatch, reduction mask, column-group
//!    geometry) is computed once per query into a `CellPlan`. Per-row
//!    positions then come from the cheap mixer via
//!    [`hashkit::ColProber`].
//! 2. **Mask narrowing.** For each block, an `alive` word per 64 rows
//!    starts full. Each range ORs its bins into a `hit` word: a bin
//!    probes only the candidates `alive & !hit`, each with Figure 5's
//!    break at the first zero bit, and sets the rows it admits. After
//!    the range, `alive &= hit`. That is Figure 7's OR short-circuit
//!    (a row hit by one bin is never probed for the next) and AND
//!    short-circuit (a row dead after one range is never probed
//!    again), so `cells_probed`, `bits_read` and the OR short-circuit
//!    count equal the scalar loop's exactly.
//! 3. **The hybrid fold.** For the exact tier's mixed ranges, `hit`
//!    starts from the backed bins' exact-container words and only the
//!    unbacked bins are probed. A second `alive` word tracks the flat
//!    AB's verdict from the `E ∪ F` words (see [`crate::hybrid`]), so
//!    `fp_rows_eliminated` costs no probe.
//!
//! [`BatchRows`] sets the block: rows per block, rounded up to whole
//! 64-row words, at most [`MAX_BATCH_ROWS`].
//!
//! Observability: `kernel.batches` (blocks opened),
//! `kernel.cell_plans_deduped` (Figure 5 plan-hoisting hits), and the
//! `kernel.batch_rows` histogram (block sizes chosen).

use crate::encoding::ApproximateBitmap;
use crate::hybrid::HybridRangePlan;
use crate::level::AbIndex;
use crate::query::{Cell, Pacer, QueryStats};
use bitmap::RectQuery;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::OnceLock;

/// The block size the adaptive model picks for LLC-resident ABs.
pub const BATCH_ROWS: usize = 64;

/// Upper bound on the rows of one mask block (the adaptive model's
/// pick for DRAM-resident ABs).
pub const MAX_BATCH_ROWS: usize = 256;

/// 64-row words in the largest block.
const MAX_BLOCK_WORDS: usize = MAX_BATCH_ROWS / 64;

/// Which probe engine executes a query. Results are always identical;
/// only the evaluation order differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelKind {
    /// The reference row-at-a-time loop (Figures 5/7 verbatim).
    Scalar,
    /// The 64-row mask kernel.
    #[default]
    Batched,
}

impl std::str::FromStr for KernelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(KernelKind::Scalar),
            "batched" => Ok(KernelKind::Batched),
            other => Err(format!(
                "unknown kernel '{other}' (expected scalar|batched)"
            )),
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Batched => "batched",
        })
    }
}

/// How many rows one mask block covers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchRows {
    /// Pick per query from the resolved AB footprint vs the cache
    /// hierarchy ([`CacheModel::batch_rows_for`]).
    #[default]
    Adaptive,
    /// A fixed number of rows, rounded up to whole 64-row words and
    /// capped at [`MAX_BATCH_ROWS`].
    Fixed(usize),
}

impl std::str::FromStr for BatchRows {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s == "adaptive" {
            return Ok(BatchRows::Adaptive);
        }
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(BatchRows::Fixed(n.min(MAX_BATCH_ROWS))),
            _ => Err(format!(
                "bad batch rows '{s}' (expected adaptive or 1..={MAX_BATCH_ROWS})"
            )),
        }
    }
}

impl std::fmt::Display for BatchRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchRows::Adaptive => f.write_str("adaptive"),
            BatchRows::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Whether the coarse-to-fine pyramid ([`crate::hier::HierAb`])
/// prunes row regions before the per-row kernel runs. Results are
/// identical in every mode; only the amount of work differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum HierMode {
    /// Never consult the pyramid (flat scan), even if one is attached.
    #[default]
    Off,
    /// Descend when the planner's cost model says pruning beats a flat
    /// scan ([`crate::planner::plan_descent`]); requires a pyramid.
    Auto,
    /// Always descend when a pyramid is attached (differential tests).
    Force,
}

impl std::str::FromStr for HierMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(HierMode::Off),
            "auto" => Ok(HierMode::Auto),
            "force" => Ok(HierMode::Force),
            other => Err(format!(
                "unknown hier mode '{other}' (expected off|auto|force)"
            )),
        }
    }
}

impl std::fmt::Display for HierMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HierMode::Off => "off",
            HierMode::Auto => "auto",
            HierMode::Force => "force",
        })
    }
}

/// Whether the exact tier ([`crate::hybrid::HybridAb`]) answers
/// backed bins from Roaring containers instead of probing the AB.
/// Exact-backed bins contribute zero false positives; results are a
/// subset of (or equal to) the flat AB answer, never missing a true
/// row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum HybridMode {
    /// Never consult the exact tier, even if one is attached.
    #[default]
    Off,
    /// Engage when an attached tier backs at least one bin the query
    /// touches ([`crate::hybrid::HybridAb::covers_any`]).
    Auto,
    /// Always engage when a tier is attached (differential tests).
    Force,
}

impl std::str::FromStr for HybridMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(HybridMode::Off),
            "auto" => Ok(HybridMode::Auto),
            "force" => Ok(HybridMode::Force),
            other => Err(format!(
                "unknown hybrid mode '{other}' (expected off|auto|force)"
            )),
        }
    }
}

impl std::fmt::Display for HybridMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HybridMode::Off => "off",
            HybridMode::Auto => "auto",
            HybridMode::Force => "force",
        })
    }
}

/// Full kernel configuration: which engine, how large the mask blocks,
/// whether hierarchical pruning runs first, whether the exact tier
/// answers backed bins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelOpts {
    /// The probe engine.
    pub kernel: KernelKind,
    /// The mask-block policy.
    pub batch_rows: BatchRows,
    /// The hierarchical-pruning policy.
    pub hier: HierMode,
    /// The exact-tier policy.
    #[serde(default)]
    pub hybrid: HybridMode,
}

impl KernelOpts {
    /// `kernel` with the default (adaptive) block policy, pruning
    /// off, and the exact tier off.
    pub fn new(kernel: KernelKind) -> Self {
        KernelOpts {
            kernel,
            batch_rows: BatchRows::default(),
            hier: HierMode::default(),
            hybrid: HybridMode::default(),
        }
    }

    /// Overrides the mask-block policy.
    pub fn with_batch_rows(mut self, batch_rows: BatchRows) -> Self {
        self.batch_rows = batch_rows;
        self
    }

    /// Overrides the hierarchical-pruning policy.
    pub fn with_hier(mut self, hier: HierMode) -> Self {
        self.hier = hier;
        self
    }

    /// Overrides the exact-tier policy.
    pub fn with_hybrid(mut self, hybrid: HybridMode) -> Self {
        self.hybrid = hybrid;
        self
    }
}

impl From<KernelKind> for KernelOpts {
    fn from(kernel: KernelKind) -> Self {
        KernelOpts::new(kernel)
    }
}

/// The two cache-hierarchy levels the adaptive batch model cares
/// about. Detected once per process from sysfs on Linux
/// ([`CacheModel::get`]); conservative defaults elsewhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheModel {
    /// Per-core L2 capacity in bytes.
    pub l2_bytes: u64,
    /// Last-level cache capacity in bytes.
    pub llc_bytes: u64,
}

impl CacheModel {
    /// Fallback when detection finds nothing: a small modern core
    /// (1 MiB L2, 32 MiB LLC). Erring small only makes batches deeper,
    /// which is the safe direction for throughput.
    pub const DEFAULT: CacheModel = CacheModel {
        l2_bytes: 1 << 20,
        llc_bytes: 32 << 20,
    };

    /// Reads cpu0's cache sizes from Linux sysfs. Returns
    /// [`Self::DEFAULT`] when the hierarchy can't be read (non-Linux,
    /// restricted container).
    pub fn detect() -> CacheModel {
        Self::from_sysfs("/sys/devices/system/cpu/cpu0/cache").unwrap_or(Self::DEFAULT)
    }

    /// The process-wide model, detected on first use.
    pub fn get() -> CacheModel {
        static MODEL: OnceLock<CacheModel> = OnceLock::new();
        *MODEL.get_or_init(CacheModel::detect)
    }

    fn from_sysfs(dir: &str) -> Option<CacheModel> {
        let mut l2 = 0u64;
        let mut llc = 0u64;
        for entry in std::fs::read_dir(dir).ok()? {
            // Skip anything that isn't a fully-populated indexN dir
            // (the cache dir also holds e.g. `uevent`).
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            let read = |leaf: &str| std::fs::read_to_string(path.join(leaf)).ok();
            let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                continue;
            };
            let Ok(level) = level.trim().parse::<u32>() else {
                continue;
            };
            if kind.trim() == "Instruction" {
                continue;
            }
            let Some(size) = parse_cache_size(size.trim()) else {
                continue;
            };
            if level == 2 {
                l2 = l2.max(size);
            }
            if level >= 2 {
                llc = llc.max(size);
            }
        }
        if llc == 0 {
            return None;
        }
        Some(CacheModel {
            l2_bytes: if l2 > 0 { l2 } else { llc },
            llc_bytes: llc,
        })
    }

    /// The block rows for a query whose probes land in
    /// `resolved_ab_bytes` of AB storage: 16 when the working set sits
    /// in L2, [`BATCH_ROWS`] inside the LLC, and [`MAX_BATCH_ROWS`]
    /// once probes miss to DRAM, where a longer run of independent
    /// probes on one column keeps more misses in flight. The kernel
    /// rounds the pick up to whole 64-row words.
    pub fn batch_rows_for(&self, resolved_ab_bytes: u64) -> usize {
        if resolved_ab_bytes <= self.l2_bytes {
            16
        } else if resolved_ab_bytes <= self.llc_bytes {
            BATCH_ROWS
        } else {
            MAX_BATCH_ROWS
        }
    }
}

/// Parses sysfs cache sizes like `48K`, `2048K`, `260M`, `1G`.
fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1024),
        b'M' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.trim().parse::<u64>().ok().map(|v| v * mult)
}

impl AbIndex {
    /// The block rows [`BatchRows::Adaptive`] picks for full-index
    /// queries against this index — the per-index half of the
    /// calibration (the per-query half narrows the footprint to the
    /// ABs a query actually resolves to). Recorded into the
    /// `kernel.batch_rows` histogram by [`crate::planner::calibrate`]
    /// so index load time captures the decision once.
    pub fn adaptive_batch_rows(&self) -> usize {
        CacheModel::get().batch_rows_for(self.size_bytes() as u64)
    }
}

/// The hoisted, row-independent state for one (attribute, bin) column
/// of a query: raw AB words, k, and the reusable hash prober.
struct CellPlan<'a> {
    words: &'a [u64],
    k: u32,
    prober: hashkit::ColProber<'a>,
    /// Hash positions computed against this plan, flushed once per
    /// query into `hashkit.hash_calls.*` so the probe loop stays
    /// atomics-free.
    calls: u64,
}

impl<'a> CellPlan<'a> {
    fn new(ab: &'a ApproximateBitmap, col: u64) -> Self {
        CellPlan {
            words: ab.bits().words(),
            k: ab.k() as u32,
            prober: ab.family().col_prober(col, ab.mapper(), ab.n_bits()),
            calls: 0,
        }
    }

    /// Figure 5 for one cell: reads up to k bits, breaking at the first
    /// zero bit, and adds the bits read to `bits_read`.
    #[inline(always)]
    fn test(&mut self, row: u64, bits_read: &mut usize) -> bool {
        let mut probe = self.prober.begin(row);
        let mut read = 0u32;
        let hit = loop {
            if read == self.k {
                break true;
            }
            let pos = self.prober.next_position(&mut probe);
            read += 1;
            if (self.words[(pos / 64) as usize] >> (pos % 64)) & 1 == 0 {
                break false;
            }
        };
        self.calls += u64::from(read);
        *bits_read += read as usize;
        hit
    }

    fn flush(&self) {
        self.prober.record_hash_calls(self.calls);
    }
}

/// Resolves the block policy against a resolved AB footprint into
/// 64-row words, and records the block size in the `kernel.batch_rows`
/// histogram.
fn block_words(batch_rows: BatchRows, resolved_ab_bytes: u64) -> usize {
    let rows = match batch_rows {
        BatchRows::Fixed(n) => n,
        BatchRows::Adaptive => CacheModel::get().batch_rows_for(resolved_ab_bytes),
    };
    let words = rows.div_ceil(64).clamp(1, MAX_BLOCK_WORDS);
    obs::histogram!("kernel.batch_rows").record((words * 64) as u64);
    words
}

/// Total bytes of the *distinct* ABs a query's plans resolve to — the
/// probe working set the adaptive block model sizes against (several
/// plans of a per-attribute or per-dataset index share one AB).
fn resolved_plan_bytes(plans: &[Vec<CellPlan>]) -> u64 {
    let mut seen: Vec<*const u64> = Vec::new();
    let mut bytes = 0u64;
    for plan in plans.iter().flatten() {
        let ptr = plan.words.as_ptr();
        if !seen.contains(&ptr) {
            seen.push(ptr);
            bytes += (plan.words.len() * 8) as u64;
        }
    }
    bytes
}

/// Pushes `base + i` for every set bit `i` of `words`, ascending.
pub(crate) fn drain_rows(words: &[u64], base: usize, rows: &mut Vec<usize>) {
    for (w, &word) in words.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            rows.push(base + w * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 7: rectangular queries
// ---------------------------------------------------------------------------

/// Figure 7 over 64-row mask blocks: bit-identical rows and
/// [`QueryStats`] to the scalar loop in `query.rs`. Returns
/// `(rows, stats, or_short_circuits)`.
///
/// With `hybrid`, range `r` probes only `hybrid[r].unbacked` and seeds
/// its `hit` words from `hybrid[r].exact`; `hybrid[r].flat` feeds the
/// flat-AB shadow behind `fp_rows_eliminated`. The masks are relative
/// to `query.row_lo` (see [`crate::hybrid::HybridAb::plan_range`]).
///
/// The caller has already validated row and bin bounds. `pacer` runs
/// the caller's check hook between blocks; its first error aborts the
/// query.
pub(crate) fn execute_rect_masks<E>(
    index: &AbIndex,
    query: &RectQuery,
    opts: KernelOpts,
    hybrid: Option<&[HybridRangePlan]>,
    pacer: &mut Pacer<E>,
) -> Result<(Vec<usize>, QueryStats, u64), E> {
    let mut rows = Vec::new();
    let mut stats = QueryStats::default();
    let mut short_circuits = 0u64;
    if query.row_lo > query.row_hi {
        return Ok((rows, stats, 0));
    }
    if query.ranges.is_empty() {
        // Vacuous AND: every row matches without a single probe, as in
        // the scalar loop.
        rows.extend(query.row_lo..=query.row_hi);
        stats.rows_matched = rows.len();
        return Ok((rows, stats, 0));
    }
    // Hash hoisting: one plan per (attribute, bin) the query probes,
    // shared by every row.
    let mut plans: Vec<Vec<CellPlan>> = query
        .ranges
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let plan = |bin: u32| {
                let (ab, col) = index.cell_plan_target(r.attribute, bin);
                CellPlan::new(ab, col)
            };
            match hybrid {
                Some(hy) => hy[i].unbacked.iter().map(|&bin| plan(bin)).collect(),
                None => (r.lo..=r.hi).map(plan).collect(),
            }
        })
        .collect();
    let words = block_words(opts.batch_rows, resolved_plan_bytes(&plans));
    let span = query.row_hi - query.row_lo + 1;
    let mut blocks = 0u64;
    for first in (0..span).step_by(words * 64) {
        blocks += 1;
        let len = (span - first).min(words * 64);
        let nw = len.div_ceil(64);
        let w0 = first / 64;
        let base = query.row_lo + first;
        pacer.before(base, len)?;
        // `alive`: rows the flat AB still admits. `hyb`: rows the
        // exact tier still admits (equal to `alive` without a tier).
        let mut alive = [0u64; MAX_BLOCK_WORDS];
        for (w, a) in alive[..nw].iter_mut().enumerate() {
            let bits = (len - w * 64).min(64);
            *a = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        }
        let mut hyb = alive;
        for (r, range_plans) in plans.iter_mut().enumerate() {
            let mut hit = [0u64; MAX_BLOCK_WORDS];
            let mut flat = [0u64; MAX_BLOCK_WORDS];
            if let Some(hy) = hybrid {
                hit[..nw].copy_from_slice(&hy[r].exact[w0..w0 + nw]);
                flat[..nw].copy_from_slice(&hy[r].flat[w0..w0 + nw]);
            }
            let last = range_plans.len().saturating_sub(1);
            for (b, plan) in range_plans.iter_mut().enumerate() {
                let mut pending = 0u64;
                for w in 0..nw {
                    let mut cand = alive[w] & !hit[w];
                    pending |= cand;
                    while cand != 0 {
                        let i = cand.trailing_zeros();
                        cand &= cand - 1;
                        stats.cells_probed += 1;
                        let row = (base + w * 64) as u64 + u64::from(i);
                        if plan.test(row, &mut stats.bits_read) {
                            hit[w] |= 1 << i;
                            short_circuits += u64::from(b < last);
                        }
                    }
                }
                if pending == 0 {
                    break;
                }
            }
            let mut any = 0u64;
            for w in 0..nw {
                hyb[w] &= hit[w];
                alive[w] &= hit[w] | flat[w];
                any |= alive[w];
            }
            if any == 0 {
                break;
            }
        }
        for w in 0..nw {
            stats.fp_rows_eliminated += u64::from((alive[w] & !hyb[w]).count_ones());
        }
        drain_rows(&hyb[..nw], base, &mut rows);
    }
    stats.rows_matched = rows.len();
    for plan in plans.iter().flatten() {
        plan.flush();
    }
    obs::counter!("kernel.batches").add(blocks);
    Ok((rows, stats, short_circuits))
}

// ---------------------------------------------------------------------------
// Figure 5: cell-subset queries
// ---------------------------------------------------------------------------

/// Figure 5 over cell blocks: identical verdicts (in query order) to
/// the scalar `test_cell` loop, with per-block `CellPlan` hoisting —
/// repeated (attribute, bin) pairs within a block share one hoisted
/// hash state (counted in `kernel.cell_plans_deduped`).
///
/// # Panics
///
/// Panics on out-of-range rows or bins, with the same messages as
/// [`AbIndex::test_cell_counted`].
pub(crate) fn retrieve_cells_masks(index: &AbIndex, cells: &[Cell], opts: KernelOpts) -> Vec<bool> {
    let block = block_words(opts.batch_rows, index.size_bytes() as u64) * 64;
    let mut out = Vec::with_capacity(cells.len());
    let mut deduped = 0u64;
    let mut bits_read = 0usize;
    let mut plan_ids: HashMap<(usize, u32), usize> = HashMap::new();
    let mut plans: Vec<CellPlan> = Vec::new();
    for chunk in cells.chunks(block) {
        plan_ids.clear();
        plans.clear();
        for c in chunk {
            let meta = &index.attributes()[c.attribute];
            assert!(
                c.bin < meta.cardinality,
                "bin {} out of range for attribute {}",
                c.bin,
                c.attribute
            );
            assert!(
                c.row < index.num_rows(),
                "row {} out of range {}",
                c.row,
                index.num_rows()
            );
            let pid = match plan_ids.entry((c.attribute, c.bin)) {
                Entry::Occupied(e) => {
                    deduped += 1;
                    *e.get()
                }
                Entry::Vacant(v) => {
                    let (ab, col) = index.cell_plan_target(c.attribute, c.bin);
                    plans.push(CellPlan::new(ab, col));
                    *v.insert(plans.len() - 1)
                }
            };
            out.push(plans[pid].test(c.row as u64, &mut bits_read));
        }
        for plan in &plans {
            plan.flush();
        }
    }
    if deduped > 0 {
        obs::counter!("kernel.cell_plans_deduped").add(deduped);
    }
    obs::counter!("kernel.batches").add(cells.len().div_ceil(block) as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_kind_parses_and_displays() {
        assert_eq!("scalar".parse::<KernelKind>(), Ok(KernelKind::Scalar));
        assert_eq!("batched".parse::<KernelKind>(), Ok(KernelKind::Batched));
        assert_eq!(KernelKind::default(), KernelKind::Batched);
        assert_eq!(KernelKind::Scalar.to_string(), "scalar");
        assert_eq!(KernelKind::Batched.to_string(), "batched");
        let err = "simd".parse::<KernelKind>().unwrap_err();
        assert!(
            err.contains("simd") && err.contains("scalar|batched"),
            "{err}"
        );
    }

    #[test]
    fn batch_rows_parses_clamps_and_displays() {
        assert_eq!("adaptive".parse::<BatchRows>(), Ok(BatchRows::Adaptive));
        assert_eq!("8".parse::<BatchRows>(), Ok(BatchRows::Fixed(8)));
        assert_eq!(
            "100000".parse::<BatchRows>(),
            Ok(BatchRows::Fixed(MAX_BATCH_ROWS))
        );
        assert!("0".parse::<BatchRows>().is_err());
        assert!("turbo".parse::<BatchRows>().is_err());
        assert_eq!(BatchRows::Adaptive.to_string(), "adaptive");
        assert_eq!(BatchRows::Fixed(64).to_string(), "64");
        assert_eq!(BatchRows::default(), BatchRows::Adaptive);
    }

    #[test]
    fn block_rows_round_up_to_whole_words() {
        assert_eq!(block_words(BatchRows::Fixed(1), 0), 1);
        assert_eq!(block_words(BatchRows::Fixed(64), 0), 1);
        assert_eq!(block_words(BatchRows::Fixed(65), 0), 2);
        assert_eq!(block_words(BatchRows::Fixed(256), 0), MAX_BLOCK_WORDS);
        assert_eq!(block_words(BatchRows::Fixed(100_000), 0), MAX_BLOCK_WORDS);
    }

    #[test]
    fn kernel_opts_builders() {
        let o = KernelOpts::new(KernelKind::Scalar).with_batch_rows(BatchRows::Fixed(8));
        assert_eq!(o.kernel, KernelKind::Scalar);
        assert_eq!(o.batch_rows, BatchRows::Fixed(8));
        let d: KernelOpts = KernelKind::Batched.into();
        assert_eq!(d.batch_rows, BatchRows::Adaptive);
    }

    #[test]
    fn cache_model_thresholds() {
        let m = CacheModel {
            l2_bytes: 1 << 20,
            llc_bytes: 32 << 20,
        };
        assert_eq!(m.batch_rows_for(16 << 10), 16); // in L2
        assert_eq!(m.batch_rows_for(1 << 20), 16); // exactly L2
        assert_eq!(m.batch_rows_for(2 << 20), BATCH_ROWS); // in LLC
        assert_eq!(m.batch_rows_for(33 << 20), MAX_BATCH_ROWS); // DRAM
    }

    #[test]
    fn cache_size_parsing() {
        assert_eq!(parse_cache_size("48K"), Some(48 * 1024));
        assert_eq!(parse_cache_size("2048K"), Some(2048 * 1024));
        assert_eq!(parse_cache_size("260M"), Some(260 * 1024 * 1024));
        assert_eq!(parse_cache_size("1G"), Some(1 << 30));
        assert_eq!(parse_cache_size("12345"), Some(12345));
        assert_eq!(parse_cache_size("nope"), None);
    }

    #[test]
    fn detected_cache_model_is_sane() {
        let m = CacheModel::detect();
        assert!(m.l2_bytes >= 64 << 10, "implausible L2: {}", m.l2_bytes);
        assert!(m.llc_bytes >= m.l2_bytes, "LLC smaller than L2: {m:?}");
    }

    #[test]
    fn drain_rows_is_ascending() {
        let mut rows = Vec::new();
        drain_rows(&[1 | 1 << 3, 0, 1 << 63], 1000, &mut rows);
        assert_eq!(rows, vec![1000, 1003, 1191]);
    }
}
