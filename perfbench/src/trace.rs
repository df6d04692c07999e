//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent and request id. Spans
//! stay in memory during the run and are written out at its end; a
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One process-wide time origin, so spans from every thread compare.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = now_ns();
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in microseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        let s = &self.spans[id];
        (out, (s.end_ns - s.start_ns) as f64 / 1e3)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another log's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// union of its children's intervals (clipped to the span).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (lo, hi) in kids {
                    let lo = lo.max(cursor);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        cursor = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Span count and median self time (µs) per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            by_name.entry(s.name).or_default().push(t as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(k, v)| (k, (v.len(), crate::stats::median(&v).unwrap_or(0.0))))
            .collect()
    }

    /// All spans as a JSON array, with self times.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::from("[");
        for (i, (s, st)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"self_ns\":{st}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
            ));
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let log = SpanLog {
            spans: vec![
                Span {
                    name: "root",
                    start_ns: 0,
                    end_ns: 100,
                    parent: None,
                    request: 1,
                },
                Span {
                    name: "a",
                    start_ns: 10,
                    end_ns: 40,
                    parent: Some(0),
                    request: 1,
                },
                // Overlaps `a`: only 40..50 is newly covered.
                Span {
                    name: "b",
                    start_ns: 30,
                    end_ns: 50,
                    parent: Some(0),
                    request: 1,
                },
                Span {
                    name: "c",
                    start_ns: 90,
                    end_ns: 120,
                    parent: Some(0),
                    request: 1,
                },
            ],
        };
        assert_eq!(log.self_times_ns(), vec![100 - 30 - 10 - 10, 30, 20, 30]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = SpanLog::default();
        let r = a.begin("root", None, 1);
        a.end(r);
        let mut b = SpanLog::default();
        let p = b.begin("p", None, 2);
        let c = b.begin("c", Some(p), 2);
        b.end(c);
        b.end(p);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.summary().len(), 3);
    }
}
