//! Criterion benches for the GraphBLAS-style substrate: SpMV, SpGEMM,
//! and the matrix-language kernels vs their direct counterparts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ga_bench::random_sparse;
use ga_graph::{gen, CsrGraph};
use ga_linalg::algos;
use ga_linalg::ops::{spgemm, spmv};
use ga_linalg::semiring::PlusTimes;
use std::hint::black_box;

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    for n in [1usize << 12, 1 << 14] {
        let a = random_sparse(n, 16, 1);
        let x = vec![1.0f64; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &(a, x), |b, (a, x)| {
            b.iter(|| spmv(PlusTimes, black_box(a), black_box(x)))
        });
    }
    group.finish();
}

fn bench_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm");
    group.sample_size(10);
    for &(n, nnz) in &[(2048usize, 8usize), (4096, 8), (4096, 16)] {
        let a = random_sparse(n, nnz, 2);
        let b_m = random_sparse(n, nnz, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{nnz}")),
            &(a, b_m),
            |bch, (a, b_m)| bch.iter(|| spgemm(PlusTimes, black_box(a), black_box(b_m))),
        );
    }
    group.finish();
}

fn bench_matrix_vs_direct(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix_vs_direct");
    let scale = 12u32;
    let edges = gen::rmat(scale, 16 << scale, gen::RmatParams::GRAPH500, 4);
    let g = CsrGraph::from_edges_undirected(1 << scale, &edges);
    group.bench_function("bfs_matrix", |b| {
        b.iter(|| algos::bfs_levels(black_box(&g), 0))
    });
    group.bench_function("bfs_direct", |b| {
        b.iter(|| ga_kernels::bfs::bfs(black_box(&g), 0))
    });
    group.sample_size(10);
    group.bench_function("triangles_matrix", |b| {
        b.iter(|| algos::triangle_count(black_box(&g)))
    });
    group.bench_function("triangles_direct", |b| {
        b.iter(|| ga_kernels::triangles::count_global(black_box(&g)))
    });
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
    targets = bench_spmv, bench_spgemm, bench_matrix_vs_direct
);
criterion_main!(benches);
