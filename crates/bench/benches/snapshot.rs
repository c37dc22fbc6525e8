//! Criterion benches for the incremental snapshot pipeline (E12).
//!
//! Two questions:
//!
//! * `snapshot_full` — is the row-wise freeze (offsets from a counting
//!   pass over row lengths, then each sorted row copied whole) at least
//!   as fast as the legacy tuple-materializing global-sort `CsrBuilder`
//!   path on a full rebuild?
//! * `snapshot_delta` — how much does the dirty-row delta rebuild save
//!   at 0.1% / 1% / 10% dirty rows (every k-th row dirty), and on the
//!   rows one 512-update R-MAT batch dirties (`ingest_batch`: they
//!   cluster on the R-MAT hubs, as `bench_e2e`'s `ingest.durable`
//!   batches do)?
//!
//! Scale defaults to 16; override with `GA_BENCH_SCALE` (CI smoke uses
//! 10).

use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion, Throughput,
};
use ga_graph::gen;
use ga_graph::snapshot::{freeze, SnapshotCache};
use ga_graph::{DynamicGraph, Parallelism};
use std::hint::black_box;

fn rmat_dynamic(scale: u32, edges_per_v: usize, seed: u64) -> DynamicGraph {
    let n = 1usize << scale;
    let edges = gen::rmat(scale, edges_per_v * n, gen::RmatParams::GRAPH500, seed);
    let mut g = DynamicGraph::new(n);
    for (i, &(u, v)) in edges.iter().enumerate() {
        g.insert_edge(u, v, 1.0, i as u64);
    }
    g
}

/// Dirty roughly `frac` of the rows by refreshing one edge per chosen
/// row (timestamps move, content stays sorted-compatible).
fn dirty_rows(g: &mut DynamicGraph, frac: f64, ts: u64) {
    let n = g.num_vertices();
    let k = ((n as f64 * frac) as usize).max(1);
    let stride = (n / k).max(1);
    for u in (0..n).step_by(stride).take(k) {
        let u = u as u32;
        g.insert_edge(u, (u + 1) % n as u32, 2.0, ts);
    }
}

fn bench_full_freeze(c: &mut Criterion) {
    let g = rmat_dynamic(ga_bench::scale(16, 16), 8, 3);
    let mut group = c.benchmark_group("snapshot_full");
    group.throughput(Throughput::Elements(g.num_live_edges() as u64));
    group.bench_function("legacy_global_sort", |b| {
        b.iter(|| black_box(ga_bench::global_sort_freeze(&g)))
    });
    let (n, m, rows) = (g.num_vertices(), g.num_live_edges(), |v| g.row_slots(v));
    group.bench_function("rowwise_serial", |b| {
        b.iter(|| black_box(freeze(n, m, rows, Parallelism::Serial)))
    });
    group.bench_function("rowwise_parallel", |b| {
        b.iter(|| black_box(freeze(n, m, rows, Parallelism::Parallel)))
    });
    group.finish();
}

/// Insert one 512-edge R-MAT batch drawn apart from the base graph's,
/// as one `bench_e2e` ingest batch would.
fn ingest_batch(g: &mut DynamicGraph, ts: u64) {
    let scale = g.num_vertices().trailing_zeros();
    for (u, v) in gen::rmat(scale, 512, gen::RmatParams::GRAPH500, 99) {
        g.insert_edge(u, v, 2.0, ts);
    }
}

fn bench_delta_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_delta");
    for (label, frac) in [
        ("dirty_0.1pct", 0.001),
        ("dirty_1pct", 0.01),
        ("dirty_10pct", 0.1),
    ] {
        delta_case(&mut group, label, |g| dirty_rows(g, frac, u64::MAX));
    }
    delta_case(&mut group, "ingest_batch", |g| ingest_batch(g, u64::MAX));
    group.finish();
}

/// One `snapshot_delta` case: a warm cache over the base graph, then
/// `dirty` applied; every iteration clones the warm cache and pays only
/// the delta.
fn delta_case(group: &mut BenchmarkGroup<'_>, label: &str, dirty: impl FnOnce(&mut DynamicGraph)) {
    let mut g = rmat_dynamic(ga_bench::scale(16, 16), 8, 3);
    let mut cache = SnapshotCache::new();
    cache.snapshot(&g, Parallelism::Auto);
    dirty(&mut g);
    group.bench_function(label, |b| {
        b.iter_batched(
            || cache.clone(),
            |mut cache| black_box(cache.snapshot(&g, Parallelism::Auto)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    // Bounded measurement so `cargo bench --workspace` finishes in
    // minutes; raise for publication-grade confidence intervals.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_full_freeze, bench_delta_rebuild
);
criterion_main!(benches);
