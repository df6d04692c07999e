//! Online segment-store scrubbing with quarantine and bit-identical
//! repair.
//!
//! A [`Scrubber`] owns an open [`store::Store`] and re-verifies every
//! page on a fixed cadence ([`store::Store::scrub`] — positioned
//! re-reads, so damage written to the file *after* open is caught even
//! though the query path decoded the payload long ago). The detect →
//! degrade → repair → healthy lifecycle:
//!
//! 1. **detect** — a page's CRC no longer matches the table captured
//!    at open; the pass maps the page back to the shard(s) whose
//!    serialized bytes it covers;
//! 2. **degrade** — those shards are quarantined in the shared
//!    [`ShardHealth`], so answers stay conservative (*maybe present*,
//!    never a false negative) while the durable copy is untrusted;
//! 3. **repair** — with a [`RepairSource`] (the original table and
//!    build config), damaged segments are rebuilt deterministically
//!    (`ShardedIndex::from_bytes_with_repair`; whole-index rebuild
//!    when even the envelope walk is broken), re-serialized —
//!    bit-identical, because AB builds are deterministic — and written
//!    back through the crash-safe [`store::write`] protocol (temp +
//!    fsync + rename), then the store is reopened and verified;
//! 4. **healthy** — quarantine is lifted only after the rewritten file
//!    passes a full open-time verification.
//!
//! [`StoreStatus`] mirrors the lifecycle as atomics for `/healthz`
//! (see [`crate::telemetry`]).

use crate::degrade::ShardHealth;
use crate::shard::ShardedIndex;
use ab::AbConfig;
use bitmap::BinnedTable;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the scrubber needs to rebuild damaged segments: the source
/// table and the exact build configuration. AB builds are
/// deterministic, so a rebuild from the same inputs is bit-identical
/// to the original — which is what lets repair promise "the file is
/// exactly what it was".
#[derive(Clone)]
pub struct RepairSource {
    /// The binned source table the index was built from.
    pub table: BinnedTable,
    /// The build configuration (level, alpha, hashing) used originally.
    /// A rebuilt shard takes its hash family from an intact sibling
    /// shard; `config.family` applies only when no shard is intact.
    pub config: AbConfig,
}

/// Store lifecycle state, as exposed on `/healthz`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreState {
    /// Every page verified on the last pass.
    Healthy,
    /// Damage detected; affected shards are quarantined and no repair
    /// has succeeded yet.
    Degraded,
    /// A repair (rebuild + crash-safe rewrite) is in flight.
    Repairing,
}

impl StoreState {
    fn as_str(self) -> &'static str {
        match self {
            StoreState::Healthy => "healthy",
            StoreState::Degraded => "degraded",
            StoreState::Repairing => "repairing",
        }
    }
}

/// Shared, lock-free view of the scrubber's progress for telemetry.
#[derive(Debug)]
pub struct StoreStatus {
    state: AtomicU8,
    passes: AtomicU64,
    pages_scanned: AtomicU64,
    crc_errors: AtomicU64,
    repairs: AtomicU64,
    repair_failures: AtomicU64,
    backend: &'static str,
}

impl StoreStatus {
    /// A fresh status (healthy, zero counters) for the given serving
    /// backend. [`Scrubber::spawn`] creates one per store; standalone
    /// construction is for tests and custom scrub drivers.
    pub fn new(backend: &'static str) -> Self {
        StoreStatus {
            state: AtomicU8::new(0),
            passes: AtomicU64::new(0),
            pages_scanned: AtomicU64::new(0),
            crc_errors: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            repair_failures: AtomicU64::new(0),
            backend,
        }
    }

    fn set_state(&self, s: StoreState) {
        self.state.store(s as u8, Ordering::Release);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> StoreState {
        match self.state.load(Ordering::Acquire) {
            0 => StoreState::Healthy,
            1 => StoreState::Degraded,
            _ => StoreState::Repairing,
        }
    }

    /// Completed scrub passes.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Cumulative pages verified across all passes.
    pub fn pages_scanned(&self) -> u64 {
        self.pages_scanned.load(Ordering::Relaxed)
    }

    /// Cumulative pages that failed verification.
    pub fn crc_errors(&self) -> u64 {
        self.crc_errors.load(Ordering::Relaxed)
    }

    /// Successful repairs (rewrite + verified reopen).
    pub fn repairs(&self) -> u64 {
        self.repairs.load(Ordering::Relaxed)
    }

    /// Repair attempts that failed (store stays degraded, retried on
    /// the next pass).
    pub fn repair_failures(&self) -> u64 {
        self.repair_failures.load(Ordering::Relaxed)
    }

    /// Which backend serves the payload: `"mmap"` or `"pread"`.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The `"store"` object for the `/healthz` JSON body.
    pub fn healthz_fragment(&self) -> String {
        format!(
            "{{\"state\":\"{}\",\"backend\":\"{}\",\"passes\":{},\
             \"pages_scanned\":{},\"crc_errors\":{},\"repairs\":{},\
             \"repair_failures\":{}}}",
            self.state().as_str(),
            self.backend,
            self.passes(),
            self.pages_scanned(),
            self.crc_errors(),
            self.repairs(),
            self.repair_failures(),
        )
    }
}

/// Outcome of one [`scrub_pass`].
#[derive(Debug, PartialEq, Eq)]
pub enum PassOutcome {
    /// Every page verified.
    Clean,
    /// Damage found and repaired (store rewritten, reopened, verified;
    /// quarantine lifted). Carries the shards that were implicated.
    Repaired(Vec<usize>),
    /// Damage found and no repair possible (no [`RepairSource`], or
    /// the repair itself failed); implicated shards stay quarantined.
    Degraded(Vec<usize>),
}

/// Runs one detect → degrade → repair cycle synchronously. The
/// [`Scrubber`] thread calls this on its cadence; tests call it
/// directly for determinism. On successful repair `store` is replaced
/// by the freshly-verified reopen of the rewritten file.
pub fn scrub_pass(
    store: &mut store::Store,
    health: &ShardHealth,
    repair: Option<&RepairSource>,
    status: &StoreStatus,
    io: &dyn store::SegmentIo,
) -> std::io::Result<PassOutcome> {
    let report = store.scrub()?;
    status.passes.fetch_add(1, Ordering::Relaxed);
    status
        .pages_scanned
        .fetch_add(report.pages_scanned, Ordering::Relaxed);
    if report.clean() {
        // Healthy is only re-entered via a verified repair; a clean
        // pass on an already-healthy store just confirms it.
        if status.state() == StoreState::Healthy {
            return Ok(PassOutcome::Clean);
        }
        // Clean pass while degraded means the damage was external and
        // has gone away (e.g. an operator restored the file): lift the
        // quarantine.
        for &s in &report.bad_shards {
            health.clear(s);
        }
        status.set_state(StoreState::Healthy);
        return Ok(PassOutcome::Clean);
    }

    status
        .crc_errors
        .fetch_add(report.bad_pages.len() as u64, Ordering::Relaxed);
    obs::counter!("svc.scrub.detected").add(report.bad_pages.len() as u64);
    for &s in &report.bad_shards {
        health.quarantine(s);
    }
    status.set_state(StoreState::Degraded);

    let Some(src) = repair else {
        return Ok(PassOutcome::Degraded(report.bad_shards));
    };
    status.set_state(StoreState::Repairing);
    match try_repair(store, src, io) {
        Ok(()) => {
            obs::counter!("svc.scrub.repairs").inc();
            status.repairs.fetch_add(1, Ordering::Relaxed);
            for &s in &report.bad_shards {
                health.clear(s);
            }
            status.set_state(StoreState::Healthy);
            Ok(PassOutcome::Repaired(report.bad_shards))
        }
        Err(_) => {
            obs::counter!("svc.scrub.repair_failures").inc();
            status.repair_failures.fetch_add(1, Ordering::Relaxed);
            status.set_state(StoreState::Degraded);
            Ok(PassOutcome::Degraded(report.bad_shards))
        }
    }
}

/// Rebuilds the index from the (possibly damaged) on-disk payload,
/// rewrites the store crash-safely, reopens, and swaps the handle.
/// The deterministic build makes the rewritten payload bit-identical
/// to the original.
fn try_repair(
    store: &mut store::Store,
    src: &RepairSource,
    io: &dyn store::SegmentIo,
) -> Result<(), store::StoreError> {
    let num_shards = store.num_shards();
    // Segment-level repair first: intact shards are decoded (cheap),
    // damaged ones rebuilt. When even the envelope walk is broken —
    // or the mapped payload no longer matches this table at all —
    // fall back to a full deterministic rebuild from source.
    let rebuilt =
        match ShardedIndex::from_bytes_with_repair(store.payload(), &src.table, &src.config) {
            Ok((index, _repaired)) => index,
            Err(_) => ShardedIndex::build(&src.table, &src.config, num_shards, false),
        };
    let payload = rebuilt.to_bytes();
    store::write(store.path(), &payload, store.header().page_size, io)?;
    let reopened = store::Store::open_with(store.path(), store.backend() == "pread")?;
    *store = reopened;
    Ok(())
}

/// A background scrub loop: one thread, one pass every `interval`,
/// sharing its [`StoreStatus`] with telemetry. Dropping joins the
/// thread.
pub struct Scrubber {
    stop: Arc<AtomicBool>,
    status: Arc<StoreStatus>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Scrubber {
    /// Takes ownership of the store and starts scrubbing every
    /// `interval`. `health` is the service's shard-health registry
    /// (quarantine target); `repair` enables online rebuild; `io` is
    /// the syscall boundary for repair rewrites (fault-injectable in
    /// tests, [`store::RealIo`] in production).
    pub fn spawn(
        store: store::Store,
        health: Arc<ShardHealth>,
        repair: Option<RepairSource>,
        interval: Duration,
        io: Arc<dyn store::SegmentIo>,
    ) -> std::io::Result<Scrubber> {
        let stop = Arc::new(AtomicBool::new(false));
        let status = Arc::new(StoreStatus::new(store.backend()));
        let (stop2, status2) = (Arc::clone(&stop), Arc::clone(&status));
        let handle = std::thread::Builder::new()
            .name("abq-scrub".into())
            .spawn(move || {
                let mut store = store;
                while !stop2.load(Ordering::Acquire) {
                    if scrub_pass(&mut store, &health, repair.as_ref(), &status2, io.as_ref())
                        .is_err()
                    {
                        obs::counter!("svc.scrub.pass_errors").inc();
                    }
                    // Sleep in small slices so stop() never waits a
                    // full interval.
                    let mut left = interval;
                    while !stop2.load(Ordering::Acquire) && left > Duration::ZERO {
                        let nap = left.min(Duration::from_millis(20));
                        std::thread::sleep(nap);
                        left = left.saturating_sub(nap);
                    }
                }
            })?;
        Ok(Scrubber {
            stop,
            status,
            handle: Some(handle),
        })
    }

    /// The live status shared with `/healthz`.
    pub fn status(&self) -> Arc<StoreStatus> {
        Arc::clone(&self.status)
    }

    /// Stops the loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.shutdown();
    }
}
