//! What a workload hands back, the metric names shared with
//! `BENCHMARK.json`, the host fingerprint, and the JSON that is written.
//! JSON is hand-rolled: the repo has no serde in its dependency budget.

use crate::stats::{median, summarize};
use crate::workloads::Config;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, in the order `BENCHMARK.json` lists them. Every
/// workload reports every one (see README.md for what an *operation* is
/// per workload).
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order. A
/// workload reports the ones its layers produce; the rest print as 0, so
/// "this layer does nothing here" is visible rather than absent.
pub const PER_LAYER: &[(&str, &str)] = &[
    // ga_stream::admission
    ("admit_us", "us"),
    ("admitted_updates", "count"),
    ("shed_updates", "count"),
    // ga_stream::wal + ga_core::durability
    ("wal_append_ms", "ms"),
    ("wal_bytes_per_update", "B"),
    ("wal_appends", "count"),
    ("checkpoint_ms", "ms"),
    ("checkpoint_bytes", "B"),
    ("checkpoint_load_ms", "ms"),
    ("wal_replay_ms", "ms"),
    // ga_stream::engine + ga_graph::dynamic
    ("apply_ms", "ms"),
    ("apply_ns_per_update", "ns"),
    ("quarantined_updates", "count"),
    // ga_graph::snapshot
    ("freeze_ms", "ms"),
    ("rows_reused_fraction", "fraction"),
    ("snapshot_mem_bytes", "B"),
    // ga_stream::epoch
    ("publish_ms", "ms"),
    ("publishes", "count"),
    ("revalidate_ns", "ns"),
    // ga_graph::sub
    ("extract_ms", "ms"),
    ("extract_vertices", "count"),
    ("extract_edges", "count"),
    // ga_kernels
    ("kernel_ms.bfs.serial.plain", "ms"),
    ("kernel_ms.bfs.serial.compressed", "ms"),
    ("kernel_ms.bfs.parallel.plain", "ms"),
    ("kernel_ms.bfs.parallel.compressed", "ms"),
    ("kernel_ms.pagerank.serial.plain", "ms"),
    ("kernel_ms.pagerank.serial.compressed", "ms"),
    ("kernel_ms.pagerank.parallel.plain", "ms"),
    ("kernel_ms.pagerank.parallel.compressed", "ms"),
    ("kernel_ms.sssp.serial.plain", "ms"),
    ("kernel_ms.sssp.serial.compressed", "ms"),
    ("kernel_ms.sssp.parallel.plain", "ms"),
    ("kernel_ms.sssp.parallel.compressed", "ms"),
    ("kernel_ms.cc.serial.plain", "ms"),
    ("kernel_ms.cc.serial.compressed", "ms"),
    ("kernel_ms.cc.parallel.plain", "ms"),
    ("kernel_ms.cc.parallel.compressed", "ms"),
    ("kernel_ms.tc.serial.plain", "ms"),
    ("kernel_ms.tc.serial.compressed", "ms"),
    ("kernel_ms.tc.parallel.plain", "ms"),
    ("kernel_ms.tc.parallel.compressed", "ms"),
    ("kernel_cpu_ops", "count"),
    ("kernel_mem_bytes", "B"),
    ("kernel_edges_touched", "count"),
    ("kernel_ns_per_edge", "ns"),
    ("kernel_bytes_per_edge", "B"),
    ("batch_run_ms_p50.pagerank", "ms"),
    ("batch_run_ms_p50.components", "ms"),
    ("batch_run_ms_p50.triangles", "ms"),
    ("batch_run_ms_p50.jaccard", "ms"),
    // ga_graph::props
    ("writeback_ms", "ms"),
    ("props_written", "count"),
    ("props_clone_ms", "ms"),
    // ga_core::serve + ga_stream::queries
    ("exec_us_p50.point", "us"),
    ("exec_us_p50.khop", "us"),
    ("exec_us_p50.topk", "us"),
    ("admit_ns", "ns"),
    ("shed_queries", "count"),
    // ga_core::flow (orchestration) and the tracer itself
    ("unattributed_fraction", "fraction"),
    ("trace_overhead", "ratio"),
];

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run produced. End-to-end numbers come from the
/// untraced rounds only; `layers` is filled by the traced run only.
#[derive(Default)]
pub struct Outcome {
    /// Operations offered to the system, and those that failed: shed or
    /// quarantined updates, shed or unanswered queries.
    pub attempted: u64,
    pub failed: u64,
    /// Seconds of each set-up (generation + preload + build).
    pub setup_s: Vec<f64>,
    /// Operations per second of each timed round.
    pub ops_per_s: Vec<f64>,
    /// Latency of every operation of every round, in milliseconds.
    pub op_ms: Vec<f64>,
    /// The workload's own metrics under the names README.md defines,
    /// including the tail percentiles that are diagnostics, not gates.
    pub named: Vec<Metric>,
    /// Per-layer metrics (a subset of [`PER_LAYER`]).
    pub layers: BTreeMap<String, f64>,
    /// Operation counts this run was sized with, for the manifest.
    pub counts: Vec<(&'static str, u64)>,
}

impl Outcome {
    pub fn name(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push(Metric::new(name, value, unit));
    }

    /// Record a timing sample under `name`: its median, its quartiles,
    /// and the highest percentile with ten samples beyond it.
    pub fn name_timing(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = summarize(samples);
        self.name(format!("{name}_p50"), s.p50, unit);
        self.name(format!("{name}_p25"), s.p25, unit);
        self.name(format!("{name}_p75"), s.p75, unit);
        if let Some((p, v)) = s.tail.filter(|(p, _)| *p > 0.5) {
            let label = format!("{}", p * 100.0).replace('.', "");
            self.name(format!("{name}_p{label}"), v, unit);
        }
        self.name(format!("{name}_samples"), s.n as f64, "count");
    }

    /// Record one more percentile of `samples`, whether or not ten samples
    /// lie beyond it: a diagnostic the README's definitions call for.
    pub fn name_percentile(&mut self, name: &str, unit: &'static str, samples: &[f64], q: f64) {
        let label = format!("{name}_p{}", format!("{}", q * 100.0).replace('.', ""));
        if !self.named.iter().any(|m| m.name == label) {
            let v = crate::stats::quantile_sorted(&crate::stats::sorted(samples), q);
            self.name(label, v, unit);
        }
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not in PER_LAYER"
        );
        self.layers.insert(name, value);
    }

    /// The four end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let values = [
            median(&self.ops_per_s),
            median(&self.op_ms),
            peak_rss_mb(),
            median(&self.setup_s),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| Metric::new(*name, v, unit))
            .collect()
    }

    /// Every per-layer metric, zeros included, in [`PER_LAYER`] order.
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                Metric::new(*name, self.layers.get(*name).copied().unwrap_or(0.0), unit)
            })
            .collect()
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and how a result was produced: the head of every result file.
fn manifest_fields(cfg: &Config) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("workload", quote(&cfg.workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", num(cfg.seconds)),
        ("trace", cfg.trace.to_string()),
        ("smoke", cfg.smoke.to_string()),
        ("available_parallelism", threads.to_string()),
        (
            "rayon_num_threads",
            std::env::var("RAYON_NUM_THREADS").map_or("null".into(), |v| quote(&v)),
        ),
        ("engine_parallelism", quote("Parallelism::Auto")),
        ("cpu_model", quote(&cpu)),
        ("profile", quote(profile)),
        ("git_rev", quote(&git_rev())),
    ]
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkouts are not repositories, hence "unknown" there.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number, got {v}");
    format!("{v}")
}

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result the contract asks for as the last line of stdout.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_object(metrics)
    )
}

/// The result file: manifest, gated metrics, and the workload's named
/// metrics (diagnostics included).
pub fn result_file(cfg: &Config, outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut fields = manifest_fields(cfg);
    let counts: Vec<String> = outcome
        .counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    fields.push(("counts", format!("{{{}}}", counts.join(", "))));
    let manifest: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("    {}: {v}", quote(k)))
        .collect();
    let failed_fraction = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let list = |values: &[f64]| -> String {
        let items: Vec<String> = values.iter().map(|&v| num(v)).collect();
        format!("[{}]", items.join(", "))
    };
    format!(
        "{{\n  \"manifest\": {{\n{}\n  }},\n  \"correct\": true,\n  \"attempted\": {},\n  \"failed\": {},\n  \"failed_fraction\": {},\n  \"ops_per_s_per_round\": {},\n  \"setup_s_per_round\": {},\n  \"op_ms_samples\": {},\n  \"metrics\": {},\n  \"named\": {}\n}}\n",
        manifest.join(",\n"),
        outcome.attempted,
        outcome.failed,
        num(failed_fraction),
        list(&outcome.ops_per_s),
        list(&outcome.setup_s),
        outcome.op_ms.len(),
        metrics_object(metrics),
        metrics_object(&outcome.named),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            setup_s: vec![0.5, 0.7, 0.6],
            ops_per_s: vec![100.0, 120.0],
            op_ms: vec![1.0, 2.0, 3.0],
            ..Outcome::default()
        };
        let m = o.end_to_end();
        assert_eq!(
            m.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["ops_per_s", "op_ms_p50", "peak_rss_mb", "setup_s"]
        );
        assert_eq!((m[0].value, m[1].value, m[3].value), (110.0, 2.0, 0.6));
        let line = result_line(&o, &m);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.6, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));

        o.layer("freeze_ms", 12.5);
        let layers = o.per_layer();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers
            .iter()
            .any(|m| m.name == "freeze_ms" && m.value == 12.5));
        assert!(layers
            .iter()
            .any(|m| m.name == "wal_append_ms" && m.value == 0.0));
    }

    #[test]
    fn timing_names_carry_the_supported_tail_and_the_count() {
        let mut o = Outcome::default();
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        o.name_timing("visible_lag_ms", "ms", &v);
        let names: Vec<&str> = o.named.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "visible_lag_ms_p50",
                "visible_lag_ms_p25",
                "visible_lag_ms_p75",
                "visible_lag_ms_p95",
                "visible_lag_ms_samples"
            ]
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics, in the same order, with the same units.
    #[test]
    fn benchmark_json_lists_what_this_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // Every string value of `field` inside the array under `section`.
        let values = |section: &str, field: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            body[..body.find(']').unwrap()]
                .split(&format!("\"{field}\""))
                .skip(1)
                .map(|rest| rest.split('"').nth(1).unwrap().to_string())
                .collect()
        };
        for (section, own) in [("end_to_end", &END_TO_END[..]), ("per_layer", PER_LAYER)] {
            let (names, units): (Vec<&str>, Vec<&str>) = own.iter().copied().unzip();
            assert_eq!(values(section, "name"), names, "{section} names");
            assert_eq!(values(section, "unit"), units, "{section} units");
        }
        assert_eq!(values("workloads", "name"), crate::workloads::NAMES);
    }
}
