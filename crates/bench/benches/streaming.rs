//! Criterion benches for the streaming side: update ingestion through
//! incremental monitors, Firehose detector throughput, and experiment
//! E7 — the per-query latency of streaming Jaccard (the paper's §V-B
//! "10s of microseconds" claim, here measured on a real CPU).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ga_stream::engine::StreamEngine;
use ga_stream::firehose::{FixedKeyDetector, TwoLevelDetector, UnboundedKeyDetector};
use ga_stream::jaccard_stream::for_vertex_dynamic;
use ga_stream::tri_inc::IncrementalTriangles;
use ga_stream::update::{firehose_stream, into_batches, rmat_edge_stream, two_level_stream};
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
            black_box(for_vertex_dynamic(engine.graph(), v, 0.1))
        })
    });
}

fn bench_firehose(c: &mut Criterion) {
    let mut group = c.benchmark_group("firehose");
    let packets = firehose_stream(10_000, 100_000, 0.1, 0.9, 0.05, 1);
    group.throughput(Throughput::Elements(packets.len() as u64));
    group.bench_function("fixed_key", |b| {
        b.iter_batched(
            || (FixedKeyDetector::new(), Vec::new()),
            |(mut det, mut out)| {
                for (i, p) in packets.iter().enumerate() {
                    det.ingest(p, i as u64, &mut out);
                }
                black_box(out.len())
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("unbounded_key_cap4k", |b| {
        b.iter_batched(
            || (UnboundedKeyDetector::new(4000), Vec::new()),
            |(mut det, mut out)| {
                for (i, p) in packets.iter().enumerate() {
                    det.ingest(p, i as u64, &mut out);
                }
                black_box(out.len())
            },
            BatchSize::SmallInput,
        )
    });
    let two_level = two_level_stream(500, 5, 100_000, 2);
    group.bench_function("two_level", |b| {
        b.iter_batched(
            || (TwoLevelDetector::new(25), Vec::new()),
            |(mut det, mut out)| {
                for (i, p) in two_level.iter().enumerate() {
                    det.ingest(p, i as u64, &mut out);
                }
                black_box(out.len())
            },
            BatchSize::SmallInput,
        )
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
    targets = bench_update_ingest, bench_jaccard_query_latency, bench_firehose
);
criterion_main!(benches);
