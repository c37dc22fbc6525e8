//! Criterion benches for the batch kernel suite (Fig. 1 rows) on
//! Graph500-style R-MAT inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ga_core::nora::{self, NoraParams, NoraWorld};
use ga_graph::sub::extract_ball;
use ga_graph::{gen, CsrBuilder, CsrGraph, ExtractOptions, VertexId};
use ga_kernels::{bfs, cc, cluster, jaccard, pagerank, sssp, triangles, KernelCtx};
use std::cmp::Reverse;
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
        group.bench_with_input(BenchmarkId::new("bfs_with", scale), &g, |b, g| {
            b.iter(|| bfs::bfs_with(black_box(g), 0, &KernelCtx::serial()))
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
    let delta = sssp::auto_delta(&g);
    group.bench_function("sssp_with", |b| {
        b.iter(|| sssp::sssp_with(black_box(&g), 0, delta, &KernelCtx::serial()))
    });
    group.finish();
}

fn bench_cc(c: &mut Criterion) {
    let mut group = c.benchmark_group("connected_components");
    let g = rmat_graph(14, 16);
    group.bench_function("union_find", |b| {
        b.iter(|| cc::wcc_union_find(black_box(&g)))
    });
    group.bench_function("afforest", |b| b.iter(|| cc::wcc_afforest(black_box(&g))));
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

fn bench_jaccard(c: &mut Criterion) {
    let mut group = c.benchmark_group("jaccard");
    let g = rmat_graph(12, 8);
    group.bench_function("all_pairs_tau0.3", |b| {
        b.iter(|| jaccard::all_pairs_above(black_box(&g), 0.3))
    });
    group.bench_function("for_vertex", |b| {
        b.iter(|| jaccard::for_vertex(black_box(&g), 7, 0.1))
    });
    let (g, hubs, opts) = hub_ball();
    let ball = extract_ball(&g, &hubs, &opts, None).graph;
    group.bench_function("ball_tau0.5", |b| {
        b.iter(|| jaccard::all_pairs_above(black_box(&ball), 0.5))
    });
    group.finish();
}

/// The ball the flow's batch analytics get: a depth-2 ball, capped at
/// 4 096 vertices, around the 8 highest-degree vertices of an R-MAT 16
/// graph. Returns the source graph, the seeds and the options.
fn hub_ball() -> (CsrGraph, Vec<VertexId>, ExtractOptions) {
    let g = rmat_graph(16, 8);
    let mut hubs: Vec<VertexId> = g.vertices().collect();
    hubs.sort_unstable_by_key(|&v| (Reverse(g.degree(v)), v));
    hubs.truncate(8);
    let opts = ExtractOptions {
        depth: 2,
        max_vertices: 4096,
        undirected_expand: false,
    };
    (g, hubs, opts)
}

/// One batch run's build and kernel on that ball, apart: the copy
/// (`extract`), the reverse index PageRank pulls through
/// (`with_reverse`), and the per-vertex triangle walk behind the
/// clustering analytic (`clustering`, serial).
fn bench_ball(c: &mut Criterion) {
    let mut group = c.benchmark_group("ball");
    let (g, hubs, opts) = hub_ball();
    group.bench_function("extract", |b| {
        b.iter(|| extract_ball(black_box(&g), &hubs, &opts, None))
    });
    let ball = extract_ball(&g, &hubs, &opts, None).graph;
    group.bench_function("with_reverse", |b| {
        b.iter(|| black_box(&ball).with_reverse())
    });
    group.bench_function("clustering", |b| {
        b.iter(|| cluster::clustering_coefficients(black_box(&ball), &KernelCtx::serial()))
    });
    group.finish();
}

/// NORA's weekly boil (§III) on the default world with eight times its
/// people, addresses and rings, seed 7: the person-row freeze, the
/// all-pairs shared-address count and the scored, indexed answer set.
fn bench_nora(c: &mut Criterion) {
    let d = NoraParams::default();
    let params = NoraParams {
        num_people: 8 * d.num_people,
        num_addresses: 8 * d.num_addresses,
        num_rings: 8 * d.num_rings,
        ..d
    };
    let world = NoraWorld::generate(params, 7);
    let g = world.build_graph();
    let mut group = c.benchmark_group("nora");
    group.bench_function("boil", |b| b.iter(|| nora::boil(black_box(&world), &g)));
    group.finish();
}

/// Serial vs parallel on the same input, for the kernels whose work
/// goes on the pool under `Parallelism` (BFS's bottom-up steps, the
/// PageRank sweep, triangles; WCC runs serially in both modes, and
/// SSSP's bucket phases are measured end to end by `kernels.gap`).
/// Scale defaults to 18 (Graph500 "toy" class); override with
/// `GA_BENCH_SCALE` (CI smoke uses 10).
fn bench_serial_vs_parallel(c: &mut Criterion) {
    let scale = ga_bench::scale(18, 18);
    let g = rmat_graph(scale, 16);
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
        group.bench_function(BenchmarkId::new("triangles", mode), |b| {
            b.iter(|| triangles::count_global_with(black_box(&g), ctx))
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
    targets = bench_bfs, bench_sssp, bench_cc, bench_pagerank, bench_triangles, bench_jaccard, bench_ball, bench_nora, bench_serial_vs_parallel
);
criterion_main!(benches);
