//! The metric names the benchmark emits, with their units. These must
//! match `BENCHMARK.json` (a self-test checks).

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rps", "1/s"),
    ("rect_p50_us", "us"),
    ("cells_p50_us", "us"),
    ("batch_p50_us", "us"),
    ("success_rate", "ratio"),
    ("precision", "ratio"),
    ("index_bytes_per_row", "B/row"),
    ("server_rss_mib", "MiB"),
];

/// Printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hashkit.probe_ns", "ns"),
    ("ab.rect_us", "us"),
    ("ab.shard_rect_us", "us"),
    ("ab.cells_probed", "count"),
    ("ab.bits_read", "count"),
    ("ab.probes_per_match", "ratio"),
    ("ab.cells_us", "us"),
    ("ab.hier.descend_frac", "ratio"),
    ("ab.hier.rows_skipped_frac", "ratio"),
    ("ab.hybrid.probes_saved_frac", "ratio"),
    ("ab.hybrid.fp_rows_eliminated", "count"),
    ("svc.rect_us", "us"),
    ("svc.cells_us", "us"),
    ("svc.batch_us", "us"),
    ("svc.overhead_us", "us"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.wire_bytes_per_row", "B/row"),
    ("net.rtt_us", "us"),
    ("store.build_s", "s"),
    ("store.open_s", "s"),
    ("store.bytes_per_row", "B/row"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Median latency metric names per request kind, in
/// [`crate::gen::KIND_NAMES`] order.
pub const P50: [&str; 3] = ["rect_p50_us", "cells_p50_us", "batch_p50_us"];

pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn latency_names_are_declared_end_to_end_metrics() {
        for (kind, name) in P50.iter().enumerate() {
            assert!(name.starts_with(crate::gen::KIND_NAMES[kind]));
            assert_eq!(unit(name), Some("us"));
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    /// Every `"name": "..."` string in `text` following `key`, until
    /// the next top-level array.
    fn names_in(text: &str, key: &str) -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let section = &text[start..];
        let end = section.find(']').expect("section ends");
        section[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&text, "end_to_end"), e2e);
        assert_eq!(names_in(&text, "per_layer"), layer);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = text
                .split('{')
                .find(|e| e.contains(&format!("\"name\": \"{name}\"")))
                .expect("entry");
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
    }
}
