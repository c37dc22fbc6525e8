//! E15 driver: the sharded scale-out scaling curve.
//!
//! For shard counts 1/2/4/8 over two stream shapes (skewed R-MAT and
//! flat uniform), the driver routes the same update stream through an
//! N-shard [`ShardedFlow`], runs the fleet kernels (PageRank, BFS,
//! connected components), and records:
//!
//! * **agreement** — merged kernel outputs must be *bit-identical* to
//!   the 1-shard ground truth (any divergence aborts with a non-zero
//!   exit — the gate CI relies on);
//! * **cross-shard traffic** — bytes per kernel under the wire model
//!   (ghost updates × 13 B at ingest, 8 B per cross-shard rank pull,
//!   4 B per exchanged frontier candidate, 8 B per forest pair);
//! * **balance-limited speedup** — total work over max per-shard work,
//!   the upper bound a perfectly overlapped deployment could reach
//!   (shards here ingest serially in one process and each kernel runs
//!   once on the merged graph, so *measured* wall time shows
//!   replication and merge overhead instead — both are reported);
//! * wall clock per phase.
//!
//! Results land in `BENCH_shard.json`. This is the paper's §V
//! scale-out argument made measurable: cross-shard (network) bytes per
//! kernel grow with shard count while per-shard work shrinks, so
//! injection bandwidth — not per-node compute — bounds the curve.
//!
//! ```sh
//! cargo run --release -p ga-bench --bin bench_shard
//! # smoke (CI): GA_BENCH_SMOKE=1 GA_BENCH_SCALE=12 cargo run ... --bin bench_shard
//! ```

use ga_bench::{eng, header, scale, smoke};
use ga_core::sharded::{CrossShardTraffic, ShardedFlow};
use ga_stream::update::{into_batches, rmat_edge_stream, uniform_edge_stream, UpdateBatch};
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const DAMPING: f64 = 0.85;
const TOL: f64 = 1e-9;
const MAX_ITERS: usize = 50;

struct ShardPoint {
    shards: usize,
    ingest_ms: f64,
    pagerank_ms: f64,
    bfs_ms: f64,
    cc_ms: f64,
    ghost_updates: u64,
    ghost_fraction: f64,
    traffic: CrossShardTraffic,
    ingest_balance_speedup: f64,
    kernel_balance_speedup: f64,
    agrees: bool,
}

struct GroundTruth {
    rank: Vec<f64>,
    depth: Vec<u32>,
    cc_label: Vec<u32>,
    cc_count: usize,
}

fn run_point(
    shards: usize,
    batches: &[UpdateBatch],
    num_vertices: usize,
    total_updates: usize,
    truth: Option<&GroundTruth>,
) -> (ShardPoint, GroundTruth) {
    let mut flow = ShardedFlow::builder(shards)
        .build(num_vertices)
        .expect("in-memory fleet");

    let t0 = Instant::now();
    for b in batches {
        flow.process_batch(b).expect("non-durable ingest");
    }
    let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let pr = flow.pagerank(DAMPING, TOL, MAX_ITERS);
    let pagerank_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let depth = flow.bfs(0).value;
    let bfs_ms = t2.elapsed().as_secs_f64() * 1e3;

    let t3 = Instant::now();
    let cc = flow.components().value;
    let cc_ms = t3.elapsed().as_secs_f64() * 1e3;

    // Balance-limited ideal speedups: total work / max per-shard work.
    let applied: Vec<usize> = flow
        .shards()
        .iter()
        .map(|s| s.stats().ingest.updates_applied)
        .collect();
    let edges: Vec<usize> = flow
        .shards()
        .iter()
        .map(|s| s.graph().num_live_edges())
        .collect();
    let balance = |per: &[usize]| {
        let total: usize = per.iter().sum();
        let max = per.iter().copied().max().unwrap_or(0).max(1);
        total as f64 / max as f64
    };

    let mine = GroundTruth {
        rank: pr.rank,
        depth,
        cc_label: cc.label,
        cc_count: cc.count,
    };
    // Bit-identical agreement with the 1-shard ground truth: exact
    // f64 equality for ranks, exact integers for depths and labels.
    let agrees = truth.is_none_or(|t| {
        t.rank == mine.rank
            && t.depth == mine.depth
            && t.cc_label == mine.cc_label
            && t.cc_count == mine.cc_count
    });

    let point = ShardPoint {
        shards,
        ingest_ms,
        pagerank_ms,
        bfs_ms,
        cc_ms,
        ghost_updates: flow.ghost_updates(),
        ghost_fraction: flow.ghost_updates() as f64 / total_updates.max(1) as f64,
        traffic: flow.traffic(),
        ingest_balance_speedup: balance(&applied),
        kernel_balance_speedup: balance(&edges),
        agrees,
    };
    (point, mine)
}

fn sweep(
    name: &str,
    batches: &[UpdateBatch],
    num_vertices: usize,
    total: usize,
) -> Vec<ShardPoint> {
    header(&format!("E15 — {name}: shard sweep {SHARD_COUNTS:?}"));
    let mut truth: Option<GroundTruth> = None;
    let mut points = Vec::new();
    for shards in SHARD_COUNTS {
        let (p, result) = run_point(shards, batches, num_vertices, total, truth.as_ref());
        if truth.is_none() {
            truth = Some(result);
        }
        println!(
            "{:2} shards: ingest {:8.1} ms, PR {:7.1} ms, BFS {:6.1} ms, CC {:6.1} ms | \
             ghosts {:>8} ({:4.1}%) | xshard {:>9} B | balance {:4.2}x/{:4.2}x | {}",
            p.shards,
            p.ingest_ms,
            p.pagerank_ms,
            p.bfs_ms,
            p.cc_ms,
            p.ghost_updates,
            p.ghost_fraction * 100.0,
            eng(p.traffic.total() as f64),
            p.ingest_balance_speedup,
            p.kernel_balance_speedup,
            if p.agrees {
                "bit-identical"
            } else {
                "DIVERGED"
            },
        );
        points.push(p);
    }
    points
}

fn json_points(points: &[ShardPoint]) -> String {
    let mut j = String::new();
    for (i, p) in points.iter().enumerate() {
        let t = &p.traffic;
        j.push_str(&format!(
            "      {{\"shards\": {}, \"ingest_ms\": {:.2}, \"pagerank_ms\": {:.2}, \
             \"bfs_ms\": {:.2}, \"cc_ms\": {:.2}, \"ghost_updates\": {}, \
             \"ghost_fraction\": {:.4}, \"ingest_balance_speedup\": {:.3}, \
             \"kernel_balance_speedup\": {:.3}, \"agrees_with_single_shard\": {}, \
             \"cross_shard_bytes\": {{\"ingest\": {}, \"pagerank\": {}, \"bfs\": {}, \
             \"components\": {}, \"total\": {}}}}}{}\n",
            p.shards,
            p.ingest_ms,
            p.pagerank_ms,
            p.bfs_ms,
            p.cc_ms,
            p.ghost_updates,
            p.ghost_fraction,
            p.ingest_balance_speedup,
            p.kernel_balance_speedup,
            p.agrees,
            t.ingest_bytes,
            t.pagerank_bytes,
            t.bfs_bytes,
            t.components_bytes,
            t.total(),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    j
}

fn main() {
    let smoke = smoke();
    let scale = scale(13, 12);
    let total_updates = 12usize << scale.min(14);
    let batch_len = 512;
    let num_vertices = 1usize << scale;

    header(&format!(
        "E15 — sharded scale-out, scale {scale} ({num_vertices} vertices), \
         {total_updates} updates, batches of {batch_len}"
    ));

    let rmat = sweep(
        "R-MAT (skewed)",
        &into_batches(
            rmat_edge_stream(scale, total_updates, 0.15, 42),
            batch_len,
            1,
        ),
        num_vertices,
        total_updates,
    );
    let uniform = sweep(
        "uniform (flat)",
        &into_batches(
            uniform_edge_stream(scale, total_updates, 0.15, 42),
            batch_len,
            1,
        ),
        num_vertices,
        total_updates,
    );

    // Hand-rolled JSON (no serde in the dependency budget).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"scale\": {scale},\n"));
    j.push_str(&format!("  \"num_vertices\": {num_vertices},\n"));
    j.push_str(&format!("  \"total_updates\": {total_updates},\n"));
    j.push_str(&format!("  \"batch_len\": {batch_len},\n"));
    j.push_str(&format!("  \"smoke\": {smoke},\n"));
    j.push_str(&format!("  \"shard_counts\": {SHARD_COUNTS:?},\n"));
    j.push_str("  \"wire_model\": {\"update_bytes\": 13, \"rank_bytes\": 8, \"frontier_bytes\": 4, \"forest_pair_bytes\": 8},\n");
    j.push_str("  \"graphs\": {\n");
    j.push_str("    \"rmat\": [\n");
    j.push_str(&json_points(&rmat));
    j.push_str("    ],\n");
    j.push_str("    \"uniform\": [\n");
    j.push_str(&json_points(&uniform));
    j.push_str("    ]\n");
    j.push_str("  }\n");
    j.push_str("}\n");
    std::fs::write("BENCH_shard.json", &j).expect("write BENCH_shard.json");
    println!("\nwrote BENCH_shard.json");

    // Agreement is the whole point of the protocol: divergence is
    // always fatal.
    let diverged: Vec<String> = rmat
        .iter()
        .map(|p| ("rmat", p))
        .chain(uniform.iter().map(|p| ("uniform", p)))
        .filter(|(_, p)| !p.agrees)
        .map(|(g, p)| format!("{g}/{} shards", p.shards))
        .collect();
    if !diverged.is_empty() {
        eprintln!("DIVERGENCE from 1-shard ground truth: {diverged:?}");
        std::process::exit(1);
    }
    println!("all shard counts bit-identical to 1-shard ground truth");
}
