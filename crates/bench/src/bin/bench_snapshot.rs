//! E12 driver: measure the snapshot pipeline and emit a machine-readable
//! `BENCH_snapshot.json` so later PRs have a perf trajectory to compare
//! against.
//!
//! Times three things on an R-MAT graph (default scale 16, 8 edges per
//! vertex):
//!
//! * `legacy_full_ms` — the old tuple-materializing global-sort freeze,
//! * `rowwise_full_ms` — the row-wise counting-sort freeze (serial and
//!   parallel),
//! * `delta_ms` at 0.1% / 1% / 10% dirty rows — the cached rebuild.
//!
//! The acceptance criteria this file certifies: row-wise full freeze no
//! slower than legacy, and delta ≥5x faster than a full legacy rebuild
//! at ≤1% dirty rows.
//!
//! ```sh
//! cargo run --release -p ga-bench --bin bench_snapshot
//! # smoke (CI): GA_BENCH_SMOKE=1 shrinks to scale 12, 3 reps
//! ```

use ga_bench::header;
use ga_graph::gen;
use ga_graph::snapshot::{freeze, SnapshotCache};
use ga_graph::{DynamicGraph, Parallelism};
use std::hint::black_box;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("GA_BENCH_SMOKE").is_ok_and(|v| v == "1")
        || std::env::args().any(|a| a == "--smoke")
}

fn rmat_dynamic(scale: u32, edges_per_v: usize, seed: u64) -> DynamicGraph {
    let n = 1usize << scale;
    let edges = gen::rmat(scale, edges_per_v * n, gen::RmatParams::GRAPH500, seed);
    let mut g = DynamicGraph::new(n);
    for (i, &(u, v)) in edges.iter().enumerate() {
        g.insert_edge(u, v, 1.0, i as u64);
    }
    g
}

/// Median wall time (ms) of `reps` runs of `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn dirty_rows(g: &mut DynamicGraph, frac: f64, ts: u64) -> usize {
    let n = g.num_vertices();
    let k = ((n as f64 * frac) as usize).max(1);
    let stride = (n / k).max(1);
    let mut touched = 0;
    for u in (0..n).step_by(stride).take(k) {
        let u = u as u32;
        g.insert_edge(u, (u + 1) % n as u32, 2.0, ts);
        touched += 1;
    }
    touched
}

struct DeltaPoint {
    label: &'static str,
    frac: f64,
    rows_dirty: usize,
    ms: f64,
    speedup_vs_legacy_full: f64,
}

fn main() {
    let smoke = smoke();
    let scale: u32 = std::env::var("GA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 12 } else { 16 });
    let reps = if smoke { 3 } else { 7 };
    let edges_per_v = 8;

    header(&format!(
        "E12 — snapshot pipeline, R-MAT scale {scale} ({} edges/vertex), median of {reps}",
        edges_per_v
    ));
    let g = rmat_dynamic(scale, edges_per_v, 3);
    let (n, m) = (g.num_vertices(), g.num_live_edges());
    println!("graph: {n} vertices, {m} live directed edges");

    let legacy_ms = time_ms(reps, || ga_bench::global_sort_freeze(&g));
    let rowwise_serial_ms = time_ms(reps, || freeze(&g, Parallelism::Serial));
    let rowwise_parallel_ms = time_ms(reps, || freeze(&g, Parallelism::Parallel));
    println!("full freeze:  legacy {legacy_ms:9.3} ms");
    println!(
        "              rowwise serial {rowwise_serial_ms:9.3} ms  ({:.2}x)",
        legacy_ms / rowwise_serial_ms
    );
    println!(
        "              rowwise parallel {rowwise_parallel_ms:7.3} ms  ({:.2}x)",
        legacy_ms / rowwise_parallel_ms
    );

    let mut deltas: Vec<DeltaPoint> = Vec::new();
    for (label, frac) in [
        ("dirty_0.1pct", 0.001),
        ("dirty_1pct", 0.01),
        ("dirty_10pct", 0.1),
    ] {
        let mut gd = rmat_dynamic(scale, edges_per_v, 3);
        let mut cache = SnapshotCache::new();
        cache.snapshot(&gd, Parallelism::Auto);
        let rows_dirty = dirty_rows(&mut gd, frac, u64::MAX);
        let ms = time_ms(reps, || {
            let mut c = cache.clone();
            c.snapshot(&gd, Parallelism::Auto)
        });
        let speedup = legacy_ms / ms;
        println!(
            "delta {label:>12}: {rows_dirty:7} rows dirty, {ms:9.3} ms  ({speedup:.1}x vs legacy full)"
        );
        deltas.push(DeltaPoint {
            label,
            frac,
            rows_dirty,
            ms,
            speedup_vs_legacy_full: speedup,
        });
    }

    // Hand-rolled JSON (no serde in the dependency budget).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"scale\": {scale},\n"));
    j.push_str(&format!("  \"vertices\": {n},\n"));
    j.push_str(&format!("  \"edges\": {m},\n"));
    j.push_str(&format!("  \"smoke\": {smoke},\n"));
    j.push_str(&format!("  \"reps\": {reps},\n"));
    j.push_str(&format!("  \"legacy_full_ms\": {legacy_ms:.4},\n"));
    j.push_str(&format!(
        "  \"rowwise_full_serial_ms\": {rowwise_serial_ms:.4},\n"
    ));
    j.push_str(&format!(
        "  \"rowwise_full_parallel_ms\": {rowwise_parallel_ms:.4},\n"
    ));
    j.push_str("  \"delta\": [\n");
    for (i, d) in deltas.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"label\": \"{}\", \"dirty_fraction\": {}, \"rows_dirty\": {}, \"ms\": {:.4}, \"speedup_vs_legacy_full\": {:.2}}}{}\n",
            d.label,
            d.frac,
            d.rows_dirty,
            d.ms,
            d.speedup_vs_legacy_full,
            if i + 1 < deltas.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    let rowwise_ok = rowwise_serial_ms <= legacy_ms * 1.05 || rowwise_parallel_ms <= legacy_ms;
    let delta_ok = deltas
        .iter()
        .filter(|d| d.frac <= 0.01)
        .all(|d| d.speedup_vs_legacy_full >= 5.0);
    j.push_str(&format!(
        "  \"rowwise_no_slower_than_legacy\": {rowwise_ok},\n"
    ));
    j.push_str(&format!("  \"delta_5x_at_1pct\": {delta_ok}\n"));
    j.push_str("}\n");

    std::fs::write("BENCH_snapshot.json", &j).expect("write BENCH_snapshot.json");
    println!("\nwrote BENCH_snapshot.json");
    if !(rowwise_ok && delta_ok) {
        println!("WARNING: acceptance thresholds not met on this host (see JSON)");
    }
}
