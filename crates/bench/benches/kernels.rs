//! Criterion benches for the batch kernel suite (Fig. 1 rows) on
//! Graph500-style R-MAT inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ga_graph::{gen, CsrBuilder, CsrGraph};
use ga_kernels::{bc, bfs, cc, jaccard, pagerank, sssp, triangles, KernelCtx};
use std::hint::black_box;

fn rmat_graph(scale: u32, deg: usize) -> CsrGraph {
    let edges = gen::rmat(scale, deg << scale, gen::RmatParams::GRAPH500, 42);
    CsrBuilder::new(1 << scale)
        .edges(edges.iter().copied())
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true)
        .reverse(true)
        .build()
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs");
    for scale in [12u32, 14] {
        let g = rmat_graph(scale, 16);
        group.bench_with_input(BenchmarkId::new("top_down", scale), &g, |b, g| {
            b.iter(|| bfs::bfs(black_box(g), 0))
        });
        group.bench_with_input(BenchmarkId::new("direction_opt", scale), &g, |b, g| {
            b.iter(|| bfs::bfs_direction_optimizing(black_box(g), 0, 15))
        });
    }
    group.finish();
}

fn bench_sssp(c: &mut Criterion) {
    let mut group = c.benchmark_group("sssp");
    let scale = 12u32;
    let n = 1usize << scale;
    let edges = gen::with_random_weights(
        &gen::rmat(scale, 16 << scale, gen::RmatParams::GRAPH500, 7),
        0.1,
        2.0,
        8,
    );
    let g = CsrGraph::from_weighted_edges(n, &edges);
    group.bench_function("dijkstra", |b| b.iter(|| sssp::dijkstra(black_box(&g), 0)));
    group.bench_function("delta_stepping", |b| {
        b.iter(|| sssp::delta_stepping(black_box(&g), 0, 0.5))
    });
    group.finish();
}

fn bench_cc(c: &mut Criterion) {
    let mut group = c.benchmark_group("connected_components");
    let g = rmat_graph(14, 16);
    group.bench_function("union_find", |b| {
        b.iter(|| cc::wcc_union_find(black_box(&g)))
    });
    group.bench_function("label_prop", |b| {
        b.iter(|| cc::wcc_label_prop(black_box(&g)))
    });
    group.finish();
}

fn bench_pagerank(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagerank");
    let g = rmat_graph(13, 16);
    group.bench_function("pull_power", |b| {
        b.iter(|| pagerank::pagerank(black_box(&g), 0.85, 1e-6, 50))
    });
    group.finish();
}

fn bench_triangles(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangles");
    for scale in [10u32, 12] {
        let g = rmat_graph(scale, 16);
        group.bench_with_input(BenchmarkId::new("count_global", scale), &g, |b, g| {
            b.iter(|| triangles::count_global(black_box(g)))
        });
    }
    group.finish();
}

fn bench_bc(c: &mut Criterion) {
    let mut group = c.benchmark_group("betweenness");
    group.sample_size(10);
    let g = rmat_graph(10, 16);
    group.bench_function("brandes_exact", |b| b.iter(|| bc::brandes(black_box(&g))));
    group.bench_function("sampled_64", |b| {
        b.iter(|| bc::sampled(black_box(&g), 64, 1))
    });
    group.finish();
}

fn bench_jaccard(c: &mut Criterion) {
    let mut group = c.benchmark_group("jaccard");
    let g = rmat_graph(12, 8);
    group.bench_function("all_pairs_tau0.3", |b| {
        b.iter(|| jaccard::all_pairs_above(black_box(&g), 0.3))
    });
    group.bench_function("for_vertex", |b| {
        b.iter(|| jaccard::for_vertex(black_box(&g), 7, 0.1))
    });
    group.finish();
}

/// Serial vs parallel engine on the same input — the speedup points the
/// issue's acceptance criteria read. Scale defaults to 18 (Graph500
/// "toy" class); override with `GA_BENCH_SCALE` (CI smoke uses 10).
fn bench_serial_vs_parallel(c: &mut Criterion) {
    let scale: u32 = std::env::var("GA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(18);
    let g = rmat_graph(scale, 16);
    let wedges = gen::with_random_weights(
        &gen::rmat(scale, 16 << scale, gen::RmatParams::GRAPH500, 7),
        0.1,
        2.0,
        8,
    );
    let wg = CsrGraph::from_weighted_edges(1usize << scale, &wedges);
    let (ser, par) = (KernelCtx::serial(), KernelCtx::parallel());

    let mut group = c.benchmark_group("serial_vs_parallel");
    group.sample_size(10);
    for (mode, ctx) in [("serial", &ser), ("parallel", &par)] {
        group.bench_function(BenchmarkId::new("bfs", mode), |b| {
            b.iter(|| bfs::bfs_with(black_box(&g), 0, ctx))
        });
        group.bench_function(BenchmarkId::new("pagerank", mode), |b| {
            b.iter(|| pagerank::pagerank_with(black_box(&g), 0.85, 1e-6, 20, ctx))
        });
        group.bench_function(BenchmarkId::new("cc", mode), |b| {
            b.iter(|| cc::wcc_with(black_box(&g), ctx))
        });
        group.bench_function(BenchmarkId::new("triangles", mode), |b| {
            b.iter(|| triangles::count_global_with(black_box(&g), ctx))
        });
        group.bench_function(BenchmarkId::new("sssp", mode), |b| {
            b.iter(|| sssp::sssp_with(black_box(&wg), 0, 0.5, ctx))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    // Bounded measurement so `cargo bench --workspace` finishes in
    // minutes; raise for publication-grade confidence intervals.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_bfs, bench_sssp, bench_cc, bench_pagerank, bench_triangles, bench_bc, bench_jaccard, bench_serial_vs_parallel
);
criterion_main!(benches);
