//! `abq bench-report`: folds the `BENCH_*.json` snapshots the repro
//! binaries drop (`repro_kernel` → `BENCH_kernel.json`, `repro_hier` →
//! `BENCH_hier.json`, …) into one summary so the perf trajectory is
//! diffable across PRs.
//!
//! The snapshots are written by [`obs::Snapshot::to_json`]; the repo
//! deliberately carries no JSON dependency (serde here is a
//! derive-only facade), so this module brings its own ~100-line reader
//! for exactly that grammar: objects, strings, numbers, and the nested
//! histogram objects — anything else is a parse error, which is fine
//! because we only ever read our own output.

use std::collections::BTreeMap;

/// The parts of a `BENCH_*.json` snapshot the report consumes:
/// everything numeric, flattened to `section.path` keys
/// (`counters.kernel.batches`, `extra.kernel.rows_per_sec.batched.k8.out_llc`,
/// `histograms.ab.query.us.count`, …).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Flattened name → value map.
    pub values: BTreeMap<String, f64>,
}

impl BenchSnapshot {
    /// Parses an [`obs::Snapshot::to_json`] document.
    pub fn parse(json: &str) -> Result<Self, String> {
        let mut p = Parser {
            bytes: json.as_bytes(),
            at: 0,
        };
        let mut values = BTreeMap::new();
        p.skip_ws();
        p.object(&mut values, "")?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(BenchSnapshot { values })
    }

    /// Reads and parses a snapshot file.
    pub fn read(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// All `(suffix, value)` pairs whose key starts with `prefix`.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, f64)> {
        self.values
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(move |(k, v)| (&k[prefix.len()..], *v))
    }
}

/// Recursive-descent reader for the snapshot grammar. Numbers flatten
/// into the output map under dotted paths; strings are only legal as
/// keys (snapshot values are all numeric).
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.at))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    /// Parses `{...}`, flattening numeric members under `prefix`.
    fn object(&mut self, out: &mut BTreeMap<String, f64>, prefix: &str) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            let path = if prefix.is_empty() {
                key
            } else {
                format!("{prefix}.{key}")
            };
            self.expect(b':')?;
            match self.peek() {
                Some(b'{') => self.object(out, &path)?,
                // Arrays (histogram `buckets`) carry per-bucket detail
                // the report never uses; skip them structurally.
                Some(b'[') => self.skip_array()?,
                _ => {
                    let v = self.number()?;
                    out.insert(path, v);
                }
            }
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.at)),
            }
        }
    }

    /// Consumes a (possibly nested) array of numbers/arrays without
    /// recording anything.
    fn skip_array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(());
        }
        loop {
            match self.peek() {
                Some(b'[') => self.skip_array()?,
                _ => {
                    self.number()?;
                }
            }
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.at)),
            }
        }
    }

    /// Parses a quoted string. Snapshot keys are metric names (no
    /// escapes beyond `\"` and `\\` ever occur); unknown escapes are
    /// kept verbatim rather than rejected.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    if let Some(&next) = self.bytes.get(self.at + 1) {
                        s.push(next as char);
                        self.at += 2;
                    } else {
                        return Err("dangling escape at end of input".into());
                    }
                }
                Some(&b) => {
                    s.push(b as char);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// Parses a JSON number (also accepts the bare `NaN`/`inf` the
    /// exporter never emits but `json_f64` guards against).
    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

/// One row of the folded throughput report.
struct TputRow {
    source: String,
    kernel: String,
    k: String,
    size: String,
    rows_per_sec: f64,
}

/// One row of the folded hierarchical-pruning report: flat and hier
/// throughput for the same (kernel, rect shape, selectivity) point.
struct HierRow {
    source: String,
    kernel: String,
    rect: String,
    sel: String,
    flat: Option<f64>,
    hier: Option<f64>,
}

/// One row of the folded hybrid-tier report: flat, hier, and hybrid
/// throughput for the same (kernel, rect shape, selectivity) point,
/// plus the false-positive rows the exact tier eliminated there.
struct HybridRow {
    source: String,
    kernel: String,
    rect: String,
    sel: String,
    flat: Option<f64>,
    hier: Option<f64>,
    hybrid: Option<f64>,
    fp_eliminated: Option<f64>,
}

/// One row of the folded service-latency report.
struct LatRow {
    source: String,
    kind: String,
    threads: String,
    p50: Option<f64>,
    p95: Option<f64>,
    p99: Option<f64>,
}

/// One row of the folded socket (network front end) report.
struct NetRow {
    source: String,
    kind: String,
    conns: String,
    rps: Option<f64>,
    errors: Option<f64>,
    shed: Option<f64>,
    p50: Option<f64>,
    p95: Option<f64>,
    p99: Option<f64>,
    p999: Option<f64>,
}

/// Folds `BENCH_kernel.json`-style snapshots into one report:
/// a throughput table over every `kernel.rows_per_sec.<kernel>.<k>.<size>`
/// entry (with per-config speedup vs that file's scalar baseline),
/// a hierarchical-pruning table over every
/// `hier.rows_per_sec.<flat|hier>.<kernel>.<rect>.<sel>` entry,
/// a hybrid-tier table over every
/// `hybrid.rows_per_sec.<flat|hier|hybrid>.<kernel>.<rect>.<sel>`
/// entry (with the false-positive rows the exact tier eliminated),
/// plus the snapshots' kernel counters.
///
/// Returns the rendered report. **Missing** files are skipped with a
/// note so the command stays usable mid-bringup when only some
/// benches have run, but a file that exists and fails to parse is an
/// error naming the file — a malformed snapshot silently dropped from
/// the report would read as "bench regressed to nothing".
pub fn bench_report(paths: &[std::path::PathBuf]) -> Result<String, String> {
    use std::fmt::Write;
    let mut out = String::from("# Bench report\n");
    let mut rows: Vec<TputRow> = Vec::new();
    let mut loaded: Vec<(String, BenchSnapshot)> = Vec::new();
    for path in paths {
        let source = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string())
            .trim_start_matches("BENCH_")
            .to_string();
        if !path.exists() {
            let _ = writeln!(out, "- skipped: {}: not found", path.display());
            continue;
        }
        match BenchSnapshot::read(path) {
            Ok(snap) => loaded.push((source, snap)),
            Err(e) => return Err(format!("malformed bench snapshot: {e}")),
        }
    }
    for (source, snap) in &loaded {
        for (suffix, v) in snap.with_prefix("extra.kernel.rows_per_sec.") {
            // suffix = "<kernel>.<k>.<size>"
            let parts: Vec<&str> = suffix.splitn(3, '.').collect();
            if parts.len() == 3 {
                rows.push(TputRow {
                    source: source.clone(),
                    kernel: parts[0].to_string(),
                    k: parts[1].to_string(),
                    size: parts[2].to_string(),
                    rows_per_sec: v,
                });
            }
        }
    }
    // Hierarchical pruning: extra.hier.rows_per_sec.<mode>.<kernel>.<rect>.<sel>
    let mut hier: Vec<HierRow> = Vec::new();
    for (source, snap) in &loaded {
        for (suffix, v) in snap.with_prefix("extra.hier.rows_per_sec.") {
            // suffix = "<flat|hier>.<kernel>.<rect>.<sel>"
            let parts: Vec<&str> = suffix.splitn(4, '.').collect();
            let [mode, kernel, rect, sel] = parts[..] else {
                continue;
            };
            let row = match hier.iter_mut().find(|r| {
                r.source == *source && r.kernel == kernel && r.rect == rect && r.sel == sel
            }) {
                Some(r) => r,
                None => {
                    hier.push(HierRow {
                        source: source.clone(),
                        kernel: kernel.to_string(),
                        rect: rect.to_string(),
                        sel: sel.to_string(),
                        flat: None,
                        hier: None,
                    });
                    hier.last_mut().expect("just pushed")
                }
            };
            match mode {
                "flat" => row.flat = Some(v),
                "hier" => row.hier = Some(v),
                _ => {}
            }
        }
    }
    // Hybrid exact tier:
    // extra.hybrid.rows_per_sec.<flat|hier|hybrid>.<kernel>.<rect>.<sel>
    // plus extra.hybrid.fp_rows_eliminated.<rect>.<sel>.
    let mut hybrid: Vec<HybridRow> = Vec::new();
    for (source, snap) in &loaded {
        for (suffix, v) in snap.with_prefix("extra.hybrid.rows_per_sec.") {
            let parts: Vec<&str> = suffix.splitn(4, '.').collect();
            let [mode, kernel, rect, sel] = parts[..] else {
                continue;
            };
            let row = match hybrid.iter_mut().find(|r| {
                r.source == *source && r.kernel == kernel && r.rect == rect && r.sel == sel
            }) {
                Some(r) => r,
                None => {
                    hybrid.push(HybridRow {
                        source: source.clone(),
                        kernel: kernel.to_string(),
                        rect: rect.to_string(),
                        sel: sel.to_string(),
                        flat: None,
                        hier: None,
                        hybrid: None,
                        fp_eliminated: None,
                    });
                    hybrid.last_mut().expect("just pushed")
                }
            };
            match mode {
                "flat" => row.flat = Some(v),
                "hier" => row.hier = Some(v),
                "hybrid" => row.hybrid = Some(v),
                _ => {}
            }
        }
        // The eliminated-rows count is per point, not per kernel:
        // attach it to every kernel row of that point.
        for (suffix, v) in snap.with_prefix("extra.hybrid.fp_rows_eliminated.") {
            let parts: Vec<&str> = suffix.splitn(2, '.').collect();
            let [rect, sel] = parts[..] else { continue };
            for r in hybrid
                .iter_mut()
                .filter(|r| r.source == *source && r.rect == rect && r.sel == sel)
            {
                r.fp_eliminated = Some(v);
            }
        }
    }
    // Service latency percentiles: extra.svc.latency_us.<kind>.threads<N>.<p>
    let mut lat: Vec<LatRow> = Vec::new();
    for (source, snap) in &loaded {
        for (suffix, v) in snap.with_prefix("extra.svc.latency_us.") {
            // suffix = "<kind>.threads<N>.<p50|p95|p99>"
            let parts: Vec<&str> = suffix.splitn(3, '.').collect();
            let (kind, threads, p) = match parts[..] {
                [kind, t, p] => match t.strip_prefix("threads") {
                    Some(n) => (kind, n.to_string(), p),
                    None => continue,
                },
                _ => continue,
            };
            let row = match lat
                .iter_mut()
                .find(|r| r.source == *source && r.kind == kind && r.threads == threads)
            {
                Some(r) => r,
                None => {
                    lat.push(LatRow {
                        source: source.clone(),
                        kind: kind.to_string(),
                        threads,
                        p50: None,
                        p95: None,
                        p99: None,
                    });
                    lat.last_mut().expect("just pushed")
                }
            };
            match p {
                "p50" => row.p50 = Some(v),
                "p95" => row.p95 = Some(v),
                "p99" => row.p99 = Some(v),
                _ => {}
            }
        }
    }
    // Socket points from the net front end:
    // extra.net.latency_us.<kind>.conns<N>.<p> and
    // extra.net.rps.<kind>.conns<N>.
    let mut net: Vec<NetRow> = Vec::new();
    for (source, snap) in &loaded {
        let entries: Vec<(String, f64)> = snap
            .with_prefix("extra.net.")
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        for (suffix, v) in entries {
            // "latency_us.<kind>.conns<N>.<p>" or "rps.<kind>.conns<N>"
            let (kind, conns, field) = if let Some(rest) = suffix.strip_prefix("latency_us.") {
                let parts: Vec<&str> = rest.splitn(3, '.').collect();
                match parts[..] {
                    [kind, c, p] => match c.strip_prefix("conns") {
                        Some(n) => (kind.to_string(), n.to_string(), p.to_string()),
                        None => continue,
                    },
                    _ => continue,
                }
            } else if let Some((field, rest)) = ["rps.", "errors.", "shed."]
                .iter()
                .find_map(|p| suffix.strip_prefix(p).map(|rest| (&p[..p.len() - 1], rest)))
            {
                let parts: Vec<&str> = rest.splitn(2, '.').collect();
                match parts[..] {
                    [kind, c] => match c.strip_prefix("conns") {
                        Some(n) => (kind.to_string(), n.to_string(), field.to_string()),
                        None => continue,
                    },
                    _ => continue,
                }
            } else {
                continue;
            };
            let row = match net
                .iter_mut()
                .find(|r| r.source == *source && r.kind == kind && r.conns == conns)
            {
                Some(r) => r,
                None => {
                    net.push(NetRow {
                        source: source.clone(),
                        kind,
                        conns,
                        rps: None,
                        errors: None,
                        shed: None,
                        p50: None,
                        p95: None,
                        p99: None,
                        p999: None,
                    });
                    net.last_mut().expect("just pushed")
                }
            };
            match field.as_str() {
                "rps" => row.rps = Some(v),
                "errors" => row.errors = Some(v),
                "shed" => row.shed = Some(v),
                "p50" => row.p50 = Some(v),
                "p95" => row.p95 = Some(v),
                "p99" => row.p99 = Some(v),
                "p999" => row.p999 = Some(v),
                _ => {}
            }
        }
    }
    if rows.is_empty() && hier.is_empty() && hybrid.is_empty() && lat.is_empty() && net.is_empty() {
        out.push_str(
            "no kernel.rows_per_sec, hier.rows_per_sec, hybrid.rows_per_sec, svc.latency_us, \
             or net.* entries found\n",
        );
        return Ok(out);
    }
    if !rows.is_empty() {
        out.push_str(
            "\n## Probe-kernel throughput (Mrows/s; speedup vs same file's scalar)\n\n\
             source  kernel   k    size      Mrows/s  speedup\n\
             ------  -------  ---  -------  --------  -------\n",
        );
        rows.sort_by(|a, b| {
            (&a.source, &a.size, &a.k, &a.kernel).cmp(&(&b.source, &b.size, &b.k, &b.kernel))
        });
        for r in &rows {
            let scalar = rows
                .iter()
                .find(|s| {
                    s.source == r.source && s.k == r.k && s.size == r.size && s.kernel == "scalar"
                })
                .map(|s| s.rows_per_sec);
            let speedup = match scalar {
                Some(s) if s > 0.0 => format!("{:.2}x", r.rows_per_sec / s),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<6}  {:<7}  {:<3}  {:<7}  {:>8.2}  {:>7}",
                r.source,
                r.kernel,
                r.k,
                r.size,
                r.rows_per_sec / 1e6,
                speedup
            );
        }
    }
    if !hier.is_empty() {
        out.push_str(
            "\n## Hierarchical pruning (Mrows/s; speedup hier vs flat)\n\n\
             source  kernel   rect     sel          flat M/s   hier M/s  speedup\n\
             ------  -------  -------  ----------  ---------  ---------  -------\n",
        );
        hier.sort_by(|a, b| {
            // Selectivity points sort numerically (sel10ppm < sel800ppm).
            let sa = a.sel.trim_start_matches("sel").trim_end_matches("ppm");
            let sb = b.sel.trim_start_matches("sel").trim_end_matches("ppm");
            let (na, nb) = (
                sa.parse::<u64>().unwrap_or(u64::MAX),
                sb.parse::<u64>().unwrap_or(u64::MAX),
            );
            (&a.source, &a.kernel, &a.rect, na).cmp(&(&b.source, &b.kernel, &b.rect, nb))
        });
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{:.2}", v / 1e6),
            None => "-".to_string(),
        };
        for r in &hier {
            let speedup = match (r.flat, r.hier) {
                (Some(f), Some(h)) if f > 0.0 => format!("{:.2}x", h / f),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<6}  {:<7}  {:<7}  {:<10}  {:>9}  {:>9}  {:>7}",
                r.source,
                r.kernel,
                r.rect,
                r.sel,
                fmt(r.flat),
                fmt(r.hier),
                speedup
            );
        }
    }
    if !hybrid.is_empty() {
        out.push_str(
            "\n## Hybrid tier (Mrows/s; speedup hybrid vs flat; fp rows eliminated per query)\n\n\
             source  kernel   rect     sel           flat M/s   hier M/s    hyb M/s  speedup  fp elim\n\
             ------  -------  -------  ----------   ---------  ---------  ---------  -------  -------\n",
        );
        hybrid.sort_by(|a, b| {
            let sa = a.sel.trim_start_matches("sel").trim_end_matches("ppm");
            let sb = b.sel.trim_start_matches("sel").trim_end_matches("ppm");
            let (na, nb) = (
                sa.parse::<u64>().unwrap_or(u64::MAX),
                sb.parse::<u64>().unwrap_or(u64::MAX),
            );
            (&a.source, &a.kernel, &a.rect, na).cmp(&(&b.source, &b.kernel, &b.rect, nb))
        });
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{:.2}", v / 1e6),
            None => "-".to_string(),
        };
        for r in &hybrid {
            let speedup = match (r.flat, r.hybrid) {
                (Some(f), Some(h)) if f > 0.0 => format!("{:.2}x", h / f),
                _ => "-".to_string(),
            };
            let fp = match r.fp_eliminated {
                Some(v) => format!("{v:.0}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<6}  {:<7}  {:<7}  {:<10}   {:>9}  {:>9}  {:>9}  {:>7}  {:>7}",
                r.source,
                r.kernel,
                r.rect,
                r.sel,
                fmt(r.flat),
                fmt(r.hier),
                fmt(r.hybrid),
                speedup,
                fp
            );
        }
    }
    if !lat.is_empty() {
        out.push_str(
            "\n## Service latency (µs, client-observed, in-process)\n\n\
             source  kind   threads   p50 µs   p95 µs   p99 µs\n\
             ------  -----  -------  -------  -------  -------\n",
        );
        lat.sort_by(|a, b| {
            let ta = a.threads.parse::<u64>().unwrap_or(0);
            let tb = b.threads.parse::<u64>().unwrap_or(0);
            (&a.source, &a.kind, ta).cmp(&(&b.source, &b.kind, tb))
        });
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.0}"),
            None => "-".to_string(),
        };
        for r in &lat {
            let _ = writeln!(
                out,
                "{:<6}  {:<5}  {:>7}  {:>7}  {:>7}  {:>7}",
                r.source,
                r.kind,
                r.threads,
                fmt(r.p50),
                fmt(r.p95),
                fmt(r.p99)
            );
        }
    }
    if !net.is_empty() {
        out.push_str(
            "\n## Socket latency (µs, client-observed over loopback TCP)\n\n\
             source  kind       conns     req/s      err     shed   p50 µs   p95 µs   p99 µs  p999 µs\n\
             ------  ---------  -----  --------  -------  -------  -------  -------  -------  -------\n",
        );
        net.sort_by(|a, b| {
            let ca = a.conns.parse::<u64>().unwrap_or(0);
            let cb = b.conns.parse::<u64>().unwrap_or(0);
            (&a.source, &a.kind, ca).cmp(&(&b.source, &b.kind, cb))
        });
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.0}"),
            None => "-".to_string(),
        };
        for r in &net {
            let _ = writeln!(
                out,
                "{:<6}  {:<9}  {:>5}  {:>8}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}",
                r.source,
                r.kind,
                r.conns,
                fmt(r.rps),
                fmt(r.errors),
                fmt(r.shed),
                fmt(r.p50),
                fmt(r.p95),
                fmt(r.p99),
                fmt(r.p999)
            );
        }
    }
    out.push_str("\n## Environment\n\n");
    for (source, snap) in &loaded {
        for key in [
            "extra.kernel.ab_bytes.in_llc",
            "extra.kernel.ab_bytes.out_llc",
            "extra.kernel.batch_rows.out_llc",
        ] {
            if let Some(v) = snap.get(key) {
                let _ = writeln!(out, "{source}: {} = {v}", &key["extra.".len()..]);
            }
        }
        // Socket reliability: connection-level failures and heals.
        for prefix in ["net.transport_errors.", "net.reconnects."] {
            for (suffix, v) in snap.with_prefix(&format!("extra.{prefix}")) {
                let _ = writeln!(out, "{source}: {prefix}{suffix} = {v}");
            }
        }
        // Pruning effectiveness from the hier repro.
        for key in ["counters.hier.regions_pruned", "counters.hier.rows_skipped"] {
            if let Some(v) = snap.get(key) {
                let _ = writeln!(out, "{source}: {} = {v}", &key["counters.".len()..]);
            }
        }
        // Exact-tier shape and the planner's split from the hybrid
        // repro.
        for key in [
            "extra.hybrid.backed_bins",
            "extra.hybrid.container_bytes",
            "counters.planner.split.exact",
            "counters.planner.split.ab",
            "counters.hybrid.fp_rows_eliminated",
        ] {
            if let Some(v) = snap.get(key) {
                let label = key
                    .strip_prefix("extra.")
                    .or_else(|| key.strip_prefix("counters."))
                    .unwrap_or(key);
                let _ = writeln!(out, "{source}: {label} = {v}");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "counters": {
    "kernel.batches": 12
  },
  "histograms": {
    "ab.query.us": { "count": 3, "sum": 42, "min": 1, "max": 40 }
  },
  "extra": {
    "kernel.ab_bytes.out_llc": 536870912,
    "kernel.rows_per_sec.scalar.k8.out_llc": 2.5e6,
    "kernel.rows_per_sec.batched.k8.out_llc": 10e6
  }
}
"#;

    #[test]
    fn parses_snapshot_shape() {
        let s = BenchSnapshot::parse(SAMPLE).unwrap();
        assert_eq!(s.get("counters.kernel.batches"), Some(12.0));
        assert_eq!(s.get("histograms.ab.query.us.count"), Some(3.0));
        assert_eq!(
            s.get("extra.kernel.rows_per_sec.batched.k8.out_llc"),
            Some(10e6)
        );
        assert_eq!(s.get("nope"), None);
        let ks: Vec<_> = s
            .with_prefix("extra.kernel.rows_per_sec.")
            .map(|(k, _)| k.to_string())
            .collect();
        assert_eq!(ks, vec!["batched.k8.out_llc", "scalar.k8.out_llc"]);
    }

    #[test]
    fn parses_real_exporter_output() {
        let r = obs::Registry::new();
        r.counter("report.test.counter").add(5);
        r.histogram("report.test.hist").record(9);
        let json = r.snapshot().with_extra("check.x", 1.5).to_json();
        let s = BenchSnapshot::parse(&json).unwrap();
        #[cfg(not(feature = "obs-off"))]
        {
            assert_eq!(s.get("counters.report.test.counter"), Some(5.0));
            assert_eq!(s.get("histograms.report.test.hist.count"), Some(1.0));
        }
        assert_eq!(s.get("extra.check.x"), Some(1.5));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(BenchSnapshot::parse("").is_err());
        assert!(BenchSnapshot::parse("{").is_err());
        assert!(BenchSnapshot::parse(r#"{"a": }"#).is_err());
        assert!(BenchSnapshot::parse(r#"{"a": 1} trailing"#).is_err());
    }

    #[test]
    fn report_folds_files_and_computes_speedup() {
        let dir = std::env::temp_dir().join("bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("BENCH_kernel.json");
        std::fs::write(&p, SAMPLE).unwrap();
        let missing = dir.join("BENCH_absent.json");
        let report = bench_report(&[p, missing]).unwrap();
        assert!(report.contains("4.00x"), "{report}");
        assert!(report.contains("skipped"), "{report}");
        assert!(
            report.contains("kernel.ab_bytes.out_llc = 536870912"),
            "{report}"
        );
    }

    #[test]
    fn malformed_snapshot_is_a_hard_error_naming_the_file() {
        let dir = std::env::temp_dir().join("bench_report_malformed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("BENCH_kernel.json");
        std::fs::write(&good, SAMPLE).unwrap();
        let bad = dir.join("BENCH_bad.json");
        std::fs::write(&bad, "{oops").unwrap();
        // A present-but-unparseable snapshot must fail the whole
        // report (not silently vanish from it), naming the file.
        let err = bench_report(&[good.clone(), bad.clone()]).unwrap_err();
        assert!(err.contains("BENCH_bad.json"), "{err}");
        assert!(err.contains("malformed"), "{err}");
        // Truly missing files are still just skipped.
        std::fs::remove_file(&bad).unwrap();
        let report = bench_report(&[good, bad]).unwrap();
        assert!(report.contains("skipped"), "{report}");
    }

    #[test]
    fn report_folds_hier_flat_pairs_with_speedup() {
        let dir = std::env::temp_dir().join("bench_report_hier_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("BENCH_hier.json");
        std::fs::write(
            &p,
            r#"{
  "counters": {
    "hier.regions_pruned": 420,
    "hier.rows_skipped": 15000000
  },
  "extra": {
    "hier.rows_per_sec.flat.batched.full.sel10ppm": 2.0e8,
    "hier.rows_per_sec.hier.batched.full.sel10ppm": 3.0e9,
    "hier.rows_per_sec.flat.batched.full.sel800ppm": 2.0e8,
    "hier.rows_per_sec.hier.batched.full.sel800ppm": 4.0e8
  }
}
"#,
        )
        .unwrap();
        let report = bench_report(&[p]).unwrap();
        assert!(report.contains("## Hierarchical pruning"), "{report}");
        // 3e9 / 2e8 = 15x on the sparse point.
        assert!(report.contains("15.00x"), "{report}");
        assert!(report.contains("2.00x"), "{report}");
        // Selectivity points sort numerically, sparsest first.
        let sparse = report.find("sel10ppm").expect("sparse row");
        let dense = report.find("sel800ppm").expect("dense row");
        assert!(sparse < dense, "{report}");
        assert!(report.contains("hier.regions_pruned = 420"), "{report}");
    }

    #[test]
    fn report_folds_hybrid_three_mode_points() {
        let dir = std::env::temp_dir().join("bench_report_hybrid_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("BENCH_hybrid.json");
        std::fs::write(
            &p,
            r#"{
  "counters": {
    "planner.split.exact": 13,
    "planner.split.ab": 3
  },
  "extra": {
    "hybrid.rows_per_sec.flat.batched.full.sel1000ppm": 2.0e7,
    "hybrid.rows_per_sec.hier.batched.full.sel1000ppm": 2.5e7,
    "hybrid.rows_per_sec.hybrid.batched.full.sel1000ppm": 6.0e9,
    "hybrid.fp_rows_eliminated.full.sel1000ppm": 2538,
    "hybrid.backed_bins": 13,
    "hybrid.container_bytes": 62458
  }
}
"#,
        )
        .unwrap();
        let report = bench_report(&[p]).unwrap();
        assert!(report.contains("## Hybrid tier"), "{report}");
        // 6e9 / 2e7 = 300x speedup hybrid vs flat.
        assert!(report.contains("300.00x"), "{report}");
        // The per-point eliminated count rides the kernel row.
        assert!(report.contains("2538"), "{report}");
        // Split and shape land in the environment section.
        assert!(report.contains("planner.split.exact = 13"), "{report}");
        assert!(report.contains("hybrid.backed_bins = 13"), "{report}");
    }

    #[test]
    fn report_folds_net_socket_points() {
        let dir = std::env::temp_dir().join("bench_report_net_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("BENCH_net.json");
        std::fs::write(
            &p,
            r#"{
  "counters": {},
  "extra": {
    "net.total_rps.conns4": 9000.0,
    "net.rps.rect.conns1": 2500.0,
    "net.rps.rect.conns4": 9000.0,
    "net.latency_us.rect.conns1.p50": 300.0,
    "net.latency_us.rect.conns1.p95": 700.0,
    "net.latency_us.rect.conns1.p99": 1500.0,
    "net.latency_us.rect.conns1.p999": 4000.0,
    "net.latency_us.rect.conns4.p50": 350.0,
    "net.latency_us.rect.conns4.p95": 800.0,
    "net.latency_us.rect.conns4.p99": 1900.0,
    "net.latency_us.rect.conns4.p999": 5200.0,
    "net.rps.batch.conns4": 1100.0,
    "net.latency_us.batch.conns4.p99": 2600.0,
    "net.errors.rect.conns4": 17.0,
    "net.shed.rect.conns4": 12.0,
    "net.transport_errors.conns4": 1.0,
    "net.reconnects.conns4": 3.0
  }
}
"#,
        )
        .unwrap();
        let report = bench_report(&[p]).unwrap();
        assert!(report.contains("## Socket latency"), "{report}");
        // Rps, error/shed counts, and all four quantiles of one point
        // share a line; conns points sort numerically under each kind.
        let rect4 = report
            .lines()
            .find(|l| l.contains("rect") && l.contains("9000"))
            .unwrap_or_else(|| panic!("no rect/conns4 row in {report}"));
        for v in ["350", "800", "1900", "5200", "17", "12"] {
            assert!(rect4.contains(v), "{rect4}");
        }
        // Connection-level reliability lands in the environment block.
        assert!(
            report.contains("net.transport_errors.conns4 = 1"),
            "{report}"
        );
        assert!(report.contains("net.reconnects.conns4 = 3"), "{report}");
        assert!(report.contains("batch"), "{report}");
        let one = report.find(" 2500 ").expect("conns1 row");
        let four = report.find(" 9000 ").expect("conns4 row");
        assert!(one < four, "conns points out of order:\n{report}");
    }

    #[test]
    fn report_folds_service_latency_percentiles() {
        let dir = std::env::temp_dir().join("bench_report_lat_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("BENCH_svc.json");
        std::fs::write(
            &p,
            r#"{
  "counters": {},
  "extra": {
    "svc.rps.threads8": 5000.0,
    "svc.latency_us.rect.threads1.p50": 120.0,
    "svc.latency_us.rect.threads1.p95": 340.0,
    "svc.latency_us.rect.threads1.p99": 900.0,
    "svc.latency_us.rect.threads8.p50": 150.0,
    "svc.latency_us.rect.threads8.p95": 410.0,
    "svc.latency_us.rect.threads8.p99": 1200.0,
    "svc.latency_us.batch.threads8.p50": 800.0,
    "svc.latency_us.batch.threads8.p95": 1500.0,
    "svc.latency_us.batch.threads8.p99": 2100.0
  }
}
"#,
        )
        .unwrap();
        let report = bench_report(&[p]).unwrap();
        assert!(report.contains("## Service latency"), "{report}");
        // All three quantiles of one row land on one line, kinds are
        // separate rows, and thread points sort numerically.
        let rect8 = report
            .lines()
            .find(|l| l.contains("rect") && l.contains("  8  "))
            .unwrap_or_else(|| panic!("no rect/8 row in {report}"));
        for v in ["150", "410", "1200"] {
            assert!(rect8.contains(v), "{rect8}");
        }
        assert!(report.contains("batch"), "{report}");
        let order: Vec<usize> = ["threads  ", " 1 ", " 8 "]
            .iter()
            .filter_map(|s| report.find(*s))
            .collect();
        assert_eq!(order.len(), 3, "{report}");
    }
}
