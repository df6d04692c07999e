//! End-to-end benchmark of the configuration `abq serve` actually
//! serves, attributed per layer.
//!
//! ```text
//! perfbench --workload narrow|wide|clustered --seed N --seconds S
//!           --trace 0|1 --abq PATH --work DIR
//!           [--rustc VERSION] [--commit REV]
//! ```
//!
//! One run generates a seeded table and request pool, launches the
//! real `abq` server on it (timing set-up), drives it closed-loop over
//! loopback `ABQ/1`, checks every answer against the exact truth and
//! an in-process service, and prints one JSON result as the last line
//! of stdout. `--trace 1` additionally replays the sequence through
//! each layer and reports per-layer metrics instead of end-to-end ones.
//! See `perfbench/WORKLOADS.md`.

mod gate;
mod gen;
mod layers;
mod load;
mod metrics;
mod server;
mod stats;
mod trace;

use gate::ServedConfig;
use gen::{Data, Pool, Workload, KIND_NAMES};
use load::{LoadResult, Outcome, Prepared, Sequence};
use server::Server;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client connections: one per core of the 2-core reference machine.
const CONNS: usize = 2;
/// Worker threads of the served process (`abq serve --threads`).
const SERVER_THREADS: usize = 2;
/// Set-ups per untraced run: at least `MIN_SETUPS`, more while they
/// fit in `SETUP_BUDGET` (up to `MAX_SETUPS`); `setup_s` is their
/// median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Unrecorded closed-loop time before measuring.
const WARMUP: Duration = Duration::from_millis(1000);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    abq: PathBuf,
    work: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let need = |flag: &str| get(flag).ok_or(format!("{flag} is required"));
    let workload = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number")?,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        abq: need("--abq")?.into(),
        work: need("--work")?.into(),
        rustc: get("--rustc").unwrap_or_else(|| "unknown".into()),
        commit: get("--commit").unwrap_or_else(|| "unknown".into()),
    })
}

/// Removes a run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The served command line for this workload.
fn serve_args(w: Workload, csv: &Path, store: &Path) -> Vec<String> {
    let mut args: Vec<String> = vec!["serve".into()];
    if w.uses_store() {
        args.extend(["--store".into(), store.display().to_string()]);
        args.extend(["--hier", "auto", "--hybrid", "auto"].map(String::from));
    } else {
        args.extend(["--csv".into(), csv.display().to_string()]);
    }
    args.extend(["--threads".into(), SERVER_THREADS.to_string()]);
    args.extend(["--listen", "127.0.0.1:0"].map(String::from));
    args
}

/// One set-up, timed from the first command's launch to the first
/// answered ping (on `clustered` that includes `abq store build`).
fn setup_once(a: &Args, csv: &Path, store: &Path) -> Result<(Server, f64, String), String> {
    let start = Instant::now();
    let mut store_line = String::new();
    if a.workload.uses_store() {
        let _ = std::fs::remove_file(store);
        store_line = server::store_build(&a.abq, csv, store)?.1;
    }
    let (srv, secs) = Server::launch(&a.abq, &serve_args(a.workload, csv, store), start)?;
    Ok((srv, secs, store_line))
}

/// `"<n> <label>"` fields of the server's `ready:` line, by label.
fn ready_field(ready: &str, label: &str) -> Option<u64> {
    let words: Vec<&str> = ready
        .split(|c: char| c.is_whitespace() || c == '(' || c == ',')
        .collect();
    words
        .windows(2)
        .find(|w| w[1] == label)
        .and_then(|w| w[0].parse().ok())
}

/// Latencies of one kind's answered requests in `round` (all rounds
/// when `None`).
fn round_latencies(samples: &[load::Sample], kind: usize, round: Option<usize>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.req.kind() == kind && s.outcome == Outcome::Ok)
        .filter(|s| round.is_none_or(|r| s.round == r))
        .map(|s| s.latency_us)
        .collect()
}

/// `f` evaluated on every round of a pass, medianed over the rounds: a
/// slow spell of the host that spoils a round or two does not move it.
fn over_rounds(rounds: usize, f: impl Fn(usize) -> Option<f64>) -> f64 {
    median(&(0..rounds).filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Requests completed per second of one round's wall time, over all
/// its phases.
fn round_rps(samples: &[load::Sample], round: usize, secs: f64) -> f64 {
    let ok = samples
        .iter()
        .filter(|s| s.round == round && s.outcome == Outcome::Ok)
        .count();
    ok as f64 / secs
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

struct Outcomes {
    attempted: u64,
    failed: u64,
    by_kind: BTreeMap<&'static str, u64>,
}

fn outcomes(samples: &[load::Sample], reconnects: u64) -> Outcomes {
    let mut by_kind: BTreeMap<&'static str, u64> =
        Outcome::FAILURES.iter().map(|o| (o.name(), 0)).collect();
    for s in samples.iter().filter(|s| s.outcome != Outcome::Ok) {
        *by_kind.entry(s.outcome.name()).or_default() += 1;
    }
    by_kind.insert("reconnects", reconnects);
    let failed = samples.iter().filter(|s| s.outcome != Outcome::Ok).count() as u64;
    Outcomes {
        attempted: samples.len() as u64,
        failed,
        by_kind,
    }
}

fn run(a: &Args) -> Result<String, String> {
    let w = a.workload;
    let rows = w.rows();
    let dir = a.work.join(format!(
        "{}-seed{}-{}",
        w.name(),
        a.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _scratch = ScratchDir(dir.clone());
    let csv = dir.join("table.csv");
    let store_path = dir.join("table.abpg");

    let t = Instant::now();
    let data = Data::generate(w, a.seed, rows);
    {
        let f = std::fs::File::create(&csv).map_err(|e| format!("{}: {e}", csv.display()))?;
        let mut out = std::io::BufWriter::with_capacity(1 << 20, f);
        data.write_csv(&mut out)
            .map_err(|e| format!("write csv: {e}"))?;
        // Written back now rather than during the timed window.
        let f = out.into_inner().map_err(|e| format!("write csv: {e}"))?;
        f.sync_all().map_err(|e| format!("sync csv: {e}"))?;
    }
    let pool = Pool::generate(w, a.seed, &data);
    let prepared = Prepared::new(&pool);
    eprintln!(
        "inputs: {rows} rows generated in {:.1} s",
        t.elapsed().as_secs_f64()
    );

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // `store build` shards by the library's default, `serve --csv` by
    // its worker threads.
    let served = if w.uses_store() {
        ServedConfig {
            threads: SERVER_THREADS,
            shards: svc::SvcConfig::default().resolved_shards(rows),
            hier: ab::HierMode::Auto,
            hybrid: ab::HybridMode::Auto,
        }
    } else {
        ServedConfig {
            threads: SERVER_THREADS,
            shards: SERVER_THREADS,
            hier: ab::HierMode::Off,
            hybrid: ab::HybridMode::Off,
        }
    };

    // Set-up, several times; the last server stays up.
    let setups_started = Instant::now();
    let mut setup_s = Vec::new();
    let (mut srv, store_line) = loop {
        let (srv, secs, store_line) = setup_once(a, &csv, &store_path)?;
        setup_s.push(secs);
        let n = setup_s.len();
        let more = !a.trace
            && n < MAX_SETUPS
            && (n < MIN_SETUPS
                || setups_started.elapsed() + Duration::from_secs_f64(secs) < SETUP_BUDGET);
        if !more {
            break (srv, store_line);
        }
        srv.stop();
    };
    eprintln!("setups: {setup_s:?}");

    let seq = Sequence::new(w, a.seed, &pool, &prepared);
    let warm = load::traffic(srv.addr, &seq, CONNS, WARMUP.as_secs_f64(), false);
    let mut untraced = LoadResult::default();
    let mut traced = LoadResult::default();
    if a.trace {
        // Alternate untraced and traced passes so drift hits both.
        for pass in 0..4 {
            let r = load::traffic(srv.addr, &seq, CONNS, a.seconds / 4.0, pass % 2 == 1);
            if pass % 2 == 1 {
                &mut traced
            } else {
                &mut untraced
            }
            .absorb(r);
        }
    } else {
        untraced = load::traffic(srv.addr, &seq, CONNS, a.seconds, false);
    }
    // A server that died during the traffic fails the run. Its peak RSS
    // is gone with it (a zombie has no `VmHWM`); a live server's must be
    // readable.
    let died = srv.exited();
    let rss_kib = match died {
        Some(_) => None,
        None => Some(
            srv.peak_rss_kib()
                .ok_or("the server's peak RSS (VmHWM) is unreadable")?,
        ),
    };

    // Everything below is outside the timed window.
    let binned = gate::library_bins(&data)?;
    let svc = gate::reference(&binned, served);
    let mut spans = traced.spans;
    let layer_metrics = if a.trace {
        let whole = layers::whole_table(&binned, svc.kernel_opts());
        let budget = Duration::from_secs_f64((a.seconds / 2.0).max(1.0));
        Some(layers::replay(
            a.seed, &data, &pool, &svc, &whole, srv.addr, budget, &dir, &mut spans,
        )?)
    } else {
        None
    };
    let ready = srv.ready.clone();
    srv.stop();
    drop(binned);

    let mut samples = warm.samples;
    samples.extend(untraced.samples.iter().cloned());
    samples.extend(traced.samples.iter().cloned());
    let mut first = warm.first_answers;
    first.extend(std::mem::take(&mut untraced.first_answers));
    first.extend(std::mem::take(&mut traced.first_answers));
    let refs = gate::reference_answers(&pool, &svc)?;
    let mut report = gate::check(&data, &pool, &refs, &samples, &first);
    drop(first);
    if let Some(status) = died {
        report.note(format!("the server exited during the run ({status})"));
    }

    // The served configuration must be the one the reference built.
    let tier_bytes: usize = svc
        .index()
        .shards()
        .iter()
        .map(|s| {
            s.index().hier().map_or(0, |h| h.size_bytes())
                + s.index().hybrid().map_or(0, |h| h.size_bytes())
        })
        .sum();
    let ab_bytes = svc.index().size_bytes();
    let served_ab = ready_field(&ready, "AB");
    let served_shards = ready_field(&ready, "shards");
    if served_ab != Some(ab_bytes as u64) || served_shards != Some(svc.index().num_shards() as u64)
    {
        report.note(format!(
            "served `{ready}` does not match the reference ({ab_bytes} AB bytes, {} shards)",
            svc.index().num_shards()
        ));
    }
    let store_bytes = std::fs::metadata(&store_path).map(|m| m.len()).ok();
    let index_bytes = match store_bytes {
        Some(b) if w.uses_store() => b as f64,
        _ => (ab_bytes + tier_bytes) as f64,
    };

    let measured = &untraced;
    let oc = outcomes(&measured.samples, measured.reconnects);
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(lm) = layer_metrics {
        metrics.extend(lm);
        let p50_u = median(&round_latencies(&untraced.samples, 0, None)).unwrap_or(0.0);
        let p50_t = median(&round_latencies(&traced.samples, 0, None)).unwrap_or(0.0);
        metrics.insert("obs.trace_overhead_frac", p50_t / p50_u.max(1e-9) - 1.0);
    } else {
        let ok = measured
            .samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .count();
        metrics.insert("setup_s", median(&setup_s).unwrap_or(0.0));
        let rounds = &measured.round_secs;
        metrics.insert(
            "rps",
            over_rounds(rounds.len(), |r| {
                Some(round_rps(&measured.samples, r, rounds[r]))
            }),
        );
        for (kind, p50) in metrics::P50.into_iter().enumerate() {
            let p = over_rounds(rounds.len(), |r| {
                percentile(&round_latencies(&measured.samples, kind, Some(r)), 50.0)
            });
            metrics.insert(p50, p);
        }
        metrics.insert("success_rate", ok as f64 / oc.attempted.max(1) as f64);
        metrics.insert("precision", report.precision());
        metrics.insert("index_bytes_per_row", index_bytes / rows as f64);
        if let Some(kib) = rss_kib {
            metrics.insert("server_rss_mib", kib as f64 / 1024.0);
        }
    }

    // The record of what was measured, and how.
    let cache = ab::kernel::CacheModel::get();
    let ab_cfg = gate::ab_config();
    let first_ab = &svc.index().shards()[0].index().abs()[0];
    let opts = svc.kernel_opts();
    let (backed, total_bins, container_bytes) = svc
        .index()
        .hybrid_split_stats()
        .iter()
        .flatten()
        .fold((0, 0, 0), |(b, t, c), (bb, tt, cc)| {
            (b + bb, t + *tt as usize, c + cc)
        });
    let per_kind: Vec<(String, String)> = KIND_NAMES
        .iter()
        .enumerate()
        .map(|(k, n)| {
            (
                n.to_string(),
                round_latencies(&measured.samples, k, None)
                    .len()
                    .to_string(),
            )
        })
        .collect();
    let config = json_object(&[
        ("workload".into(), json_str(w.name())),
        ("seed".into(), a.seed.to_string()),
        ("rows".into(), rows.to_string()),
        ("seconds".into(), json_num(a.seconds)),
        ("trace".into(), (a.trace as u8).to_string()),
        ("served".into(), json_str(&ready)),
        ("store".into(), json_str(&store_line)),
        (
            "family".into(),
            json_str(&format!("{:?}", first_ab.family())),
        ),
        ("sizing".into(), json_str(&format!("{:?}", ab_cfg.sizing))),
        ("k".into(), first_ab.k().to_string()),
        ("level".into(), json_str(&format!("{:?}", ab_cfg.level))),
        ("shards".into(), svc.index().num_shards().to_string()),
        ("threads".into(), SERVER_THREADS.to_string()),
        ("kernel".into(), json_str(&opts.kernel.to_string())),
        ("batch_rows".into(), json_str(&opts.batch_rows.to_string())),
        ("hier".into(), json_str(&opts.hier.to_string())),
        ("hybrid".into(), json_str(&opts.hybrid.to_string())),
        ("backed_bins".into(), backed.to_string()),
        ("total_bins".into(), total_bins.to_string()),
        ("ab_bytes".into(), ab_bytes.to_string()),
        ("tier_bytes".into(), tier_bytes.to_string()),
        ("container_bytes".into(), container_bytes.to_string()),
        ("conns".into(), CONNS.to_string()),
        ("pipeline".into(), 1.to_string()),
        ("loop".into(), json_str("closed")),
        (
            "phase_shares_rect_cells_batch".into(),
            format!("{:?}", w.phase_shares()),
        ),
        ("samples".into(), json_object(&per_kind)),
        ("p99_us".into(), p99_record(measured)),
        (
            "failures".into(),
            json_object(
                &oc.by_kind
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "setup_s".into(),
            format!(
                "[{}]",
                setup_s
                    .iter()
                    .map(|s| json_num(*s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("gate_checked".into(), report.checked.to_string()),
        (
            "gate_false_negatives".into(),
            report.false_negatives.to_string(),
        ),
        ("gate_mismatches".into(), report.mismatches.to_string()),
        ("gate_degraded".into(), report.degraded.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("l2_bytes".into(), cache.l2_bytes.to_string()),
        ("llc_bytes".into(), cache.llc_bytes.to_string()),
        ("rustc".into(), json_str(&a.rustc)),
        ("commit".into(), json_str(&a.commit)),
    ]);
    println!("config {config}");
    let out_dir = a.work.join("out");
    let _ = std::fs::create_dir_all(&out_dir);
    let stem = format!("{}-seed{}-trace{}", w.name(), a.seed, a.trace as u8);
    let _ = std::fs::write(out_dir.join(format!("{stem}-config.json")), &config);
    if a.trace {
        let _ = std::fs::write(out_dir.join(format!("{stem}-spans.json")), spans.to_json());
        eprintln!(
            "spans ({} recorded): name, count, median self time",
            spans.len()
        );
        for (name, (n, us)) in spans.summary() {
            eprintln!("  {name:<28} {n:>7} {us:>12.1} us");
        }
    }

    let metric_fields: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, v)| {
            let unit = metrics::unit(name).expect("every emitted metric has a unit");
            (
                name.to_string(),
                format!(
                    "{{\"value\": {}, \"unit\": {}}}",
                    json_num(*v),
                    json_str(unit)
                ),
            )
        })
        .collect();
    Ok(json_object(&[
        ("correct".into(), report.passed().to_string()),
        ("attempted".into(), oc.attempted.max(1).to_string()),
        ("failed".into(), oc.failed.to_string()),
        ("metrics".into(), json_object(&metric_fields)),
    ]))
}

/// Tail latency per kind, recorded but not a metric: the p99 of short
/// requests moves with the host's slow spells by far more than any
/// bound a regression gate could use. Both the whole-run p99 and the
/// median over rounds of each round's p99 are kept.
fn p99_record(lr: &LoadResult) -> String {
    let fields: Vec<(String, String)> = KIND_NAMES
        .iter()
        .enumerate()
        .flat_map(|(k, n)| {
            let all = percentile(&round_latencies(&lr.samples, k, None), 99.0).unwrap_or(0.0);
            let per_round = over_rounds(lr.round_secs.len(), |r| {
                percentile(&round_latencies(&lr.samples, k, Some(r)), 99.0)
            });
            [
                (format!("{n}_run"), json_num(all)),
                (format!("{n}_rounds"), json_num(per_round)),
            ]
        })
        .collect();
    json_object(&fields)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
