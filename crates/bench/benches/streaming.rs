//! Criterion benches for the streaming side: update ingestion through
//! incremental monitors, experiment E7 — the per-query latency of
//! streaming Jaccard (the paper's §V-B "10s of microseconds" claim, here
//! measured on a real CPU) — the two serving scans, top-k and k-hop, on a
//! published snapshot (E32, E33), and two sharded-fleet kernel calls
//! (E15).
//!
//! The `queries` group's R-MAT scale defaults to 16 and the `fleet`
//! group's to 13; override both with `GA_BENCH_SCALE` (CI smoke uses 10).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ga_core::flow::FlowEngine;
use ga_core::sharded::ShardedFlow;
use ga_graph::{gen, DynamicGraph, PropertyStore};
use ga_kernels::jaccard;
use ga_stream::engine::StreamEngine;
use ga_stream::queries::Query;
use ga_stream::tri_inc::IncrementalTriangles;
use ga_stream::update::{into_batches, rmat_edge_stream};
use std::hint::black_box;

fn bench_update_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_ingest");
    let updates = rmat_edge_stream(14, 50_000, 0.05, 3);
    group.throughput(Throughput::Elements(updates.len() as u64));
    group.bench_function("plain_apply", |b| {
        b.iter_batched(
            || (StreamEngine::new(1 << 14), updates.clone()),
            |(mut e, ups)| {
                for batch in into_batches(ups, 1000, 0) {
                    e.apply_batch(&batch);
                }
                black_box(e.stats())
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("with_triangle_monitor", |b| {
        b.iter_batched(
            || {
                let mut e = StreamEngine::new(1 << 14);
                e.register(Box::new(IncrementalTriangles::new()));
                (e, updates.clone())
            },
            |(mut e, ups)| {
                for batch in into_batches(ups, 1000, 0) {
                    e.apply_batch(&batch);
                }
                black_box(e.stats())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// E7: single streaming Jaccard query latency on a live RMAT-16 graph.
fn bench_jaccard_query_latency(c: &mut Criterion) {
    let mut engine = StreamEngine::new(1 << 16);
    for batch in into_batches(rmat_edge_stream(16, 400_000, 0.0, 9), 10_000, 0) {
        engine.apply_batch(&batch);
    }
    let g = engine.graph();
    // Mid-degree query targets (hubs are the slow tail).
    let targets: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| (8..=64).contains(&g.degree(v)))
        .take(64)
        .collect();
    assert!(!targets.is_empty());
    let mut i = 0;
    c.bench_function("jaccard_query_rmat16", |b| {
        b.iter(|| {
            let v = targets[i % targets.len()];
            i += 1;
            let g = engine.graph();
            black_box(jaccard::two_hop(v, |x| g.neighbor_ids(x), |_, j| j >= 0.1))
        })
    });
}

/// E32: `TopKByProperty{8}` and `KHop{2, limit 64}` — the scan classes
/// of `bench_e2e`'s serving mix — on a published R-MAT snapshot with
/// eight edges per vertex and a "w" column on half the vertices.
/// `khop_2_limit64` spreads its 64 origins over the id range;
/// `khop_2_hub` takes 64 whose out-row holds the highest-degree vertex,
/// where the last level's cap does the work (E33).
/// `topk_8_ascending` ranks a column that rises with vertex id, where
/// every slot outranks the heap's floor and replaces its root: the
/// bounded heap's worst case.
fn bench_queries(c: &mut Criterion) {
    let scale = ga_bench::scale(16, 10);
    let n = 1usize << scale;
    let mut g = DynamicGraph::new(n);
    for (i, (u, v)) in gen::rmat(scale, 8 * n, gen::RmatParams::GRAPH500, 5)
        .into_iter()
        .enumerate()
    {
        g.insert_edge(u, v, 1.0, i as u64);
    }
    let mut props = PropertyStore::new(n);
    for v in (0..n as u32).step_by(2) {
        props.set("w", v, (v.wrapping_mul(2_654_435_761) % 1000) as f64);
        props.set("ascending", v, v as f64);
    }
    let snap = FlowEngine::with_graph(g, props)
        .serve_handle()
        .load()
        .expect("serve_handle publishes the first generation");
    let origins: Vec<u32> = (0..n as u32).step_by((n / 64).max(1)).collect();
    let mut group = c.benchmark_group("queries");
    let topk = Query::top_k_by_property("w", 8);
    group.bench_function("topk_8", |b| b.iter(|| black_box(topk.run(&snap))));
    let rising = Query::top_k_by_property("ascending", 8);
    group.bench_function("topk_8_ascending", |b| {
        b.iter(|| black_box(rising.run(&snap)))
    });
    let mut i = 0;
    group.bench_function("khop_2_limit64", |b| {
        b.iter(|| {
            let vertex = origins[i % origins.len()];
            i += 1;
            black_box(
                Query::KHop {
                    vertex,
                    hops: 2,
                    limit: 64,
                }
                .run(&snap),
            )
        })
    });
    // Origins whose out-row holds the highest-degree vertex, so the
    // last level reads the hub's row on every query.
    let csr = &snap.csr;
    let hub = (0..n as u32).max_by_key(|&v| csr.degree(v)).unwrap_or(0);
    let feeders: Vec<u32> = (0..n as u32)
        .filter(|&u| csr.neighbors(u).binary_search(&hub).is_ok())
        .collect();
    let fed: Vec<u32> = feeders
        .iter()
        .step_by((feeders.len() / 64).max(1))
        .take(64)
        .copied()
        .collect();
    let mut i = 0;
    group.bench_function("khop_2_hub", |b| {
        b.iter(|| {
            let vertex = fed[i % fed.len()];
            i += 1;
            black_box(
                Query::KHop {
                    vertex,
                    hops: 2,
                    limit: 64,
                }
                .run(&snap),
            )
        })
    });
    group.finish();
}

/// E15: BFS on a 1-shard fleet and components on an 8-shard fleet, the
/// two fleet timings ROADMAP item 3 judges. Each fleet ingests an
/// R-MAT stream of 12 updates per vertex (seed 42, batches of 512)
/// before timing; only the kernel call, with its freeze of the serving
/// rows and its traffic pricing, is timed.
fn bench_fleet(c: &mut Criterion) {
    let scale = ga_bench::scale(13, 10);
    let n = 1usize << scale;
    let batches = into_batches(rmat_edge_stream(scale, 12 * n, 0.15, 42), 512, 1);
    let fleet = |shards: usize| {
        let mut flow = ShardedFlow::builder(shards)
            .build(n)
            .expect("in-memory fleet");
        for b in &batches {
            flow.process_batch(b).expect("in-memory ingest");
        }
        flow
    };
    let (mut one, mut eight) = (fleet(1), fleet(8));
    let mut group = c.benchmark_group("fleet");
    group.bench_function("bfs_1_shard", |b| b.iter(|| black_box(one.bfs(0))));
    group.bench_function("cc_8_shards", |b| b.iter(|| black_box(eight.components())));
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
    targets = bench_update_ingest, bench_jaccard_query_latency, bench_queries, bench_fleet
);
criterion_main!(benches);
