//! E16 driver: shard failover and online rebuild under a mid-stream
//! kill.
//!
//! For shard counts 2/4 and both rebuild sources (checkpoint + WAL
//! replay on a durable fleet; replica copy on an in-memory fleet), the
//! driver kills one shard halfway through a replicated ingest, keeps
//! streaming through the outage, rebuilds the shard online, and
//! records:
//!
//! * **update loss** — must be zero: while the shard is dead its
//!   ring-successor replica absorbs its share (in-memory) or the
//!   backlog queues for redelivery (durable). Any loss aborts with a
//!   non-zero exit — the gate CI relies on;
//! * **degraded window** — how many batches the fleet served in the
//!   typed-degraded state, and whether merged state was *still*
//!   bit-identical to an unkilled reference during the outage (replica
//!   rows are slot-exact copies, so it must be);
//! * **recovery time** — wall-clock millis for
//!   [`ShardedFlow::rebuild_shard`], plus redelivered backlog size;
//! * **bit-identity after rebuild** — merged graph, properties, and
//!   BFS depths against the unkilled reference.
//!
//! Results land in `BENCH_failover.json`.
//!
//! ```sh
//! cargo run --release -p ga-bench --bin bench_failover
//! # smoke (CI): GA_BENCH_SMOKE=1 cargo run ... --bin bench_failover
//! ```

use ga_bench::{header, scale, smoke};
use ga_core::flow::FlowEngine;
use ga_core::sharded::{RebuildSource, ShardedFlow};
use ga_kernels::{bfs::bfs_with, KernelCtx};
use ga_stream::update::{into_batches, rmat_edge_stream, UpdateBatch};
use std::path::PathBuf;
use std::time::Instant;

const SHARD_COUNTS: [usize; 2] = [2, 4];

struct FailoverPoint {
    shards: usize,
    source: &'static str,
    kill_after_batches: usize,
    degraded_batches: usize,
    rebuild_ms: f64,
    redelivered_batches: usize,
    redelivered_updates: usize,
    replication_bytes: u64,
    lost_updates: u64,
    exact_during_outage: bool,
    exact_after_rebuild: bool,
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ga_bench_failover")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run_point(
    shards: usize,
    durable: bool,
    batches: &[UpdateBatch],
    num_vertices: usize,
) -> FailoverPoint {
    let base = durable.then(|| tmpdir(&format!("wal-{shards}")));
    let mut cfg = ShardedFlow::builder(shards).replicate(true);
    if let Some(b) = &base {
        cfg = cfg.durability_base(b);
    }
    let mut fleet = cfg.build(num_vertices).expect("fleet");
    let mut reference = FlowEngine::new(num_vertices);

    let victim = shards / 2;
    let mid = batches.len() / 2;
    for b in &batches[..mid] {
        fleet.process_batch(b).expect("pre-kill ingest");
        reference.process_stream(b, |_| None, None);
    }
    if durable {
        // Give WAL replay a checkpoint prefix to restart from.
        fleet.checkpoint().expect("checkpoint");
    }
    fleet.kill_shard(victim, "bench kill");
    for b in &batches[mid..] {
        fleet.process_batch(b).expect("ingest through outage");
        reference.process_stream(b, |_| None, None);
    }

    // On the durable fleet the dead shard's backlog is queued, so the
    // merged view mid-outage trails by the queued share; the in-memory
    // replica path must already be exact.
    let exact_during_outage =
        fleet.merged_graph() == *reference.graph() && fleet.merged_props() == *reference.props();

    let t0 = Instant::now();
    let report = fleet.rebuild_shard(victim).expect("rebuild");
    let rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;
    let want = if durable {
        RebuildSource::WalReplay
    } else {
        RebuildSource::Replica
    };
    assert_eq!(report.source, want, "rebuild took the wrong source");

    let serial = KernelCtx::serial();
    let exact_after_rebuild = fleet.supervisor().all_healthy()
        && fleet.merged_graph() == *reference.graph()
        && fleet.merged_props() == *reference.props()
        && fleet.bfs(0).value == bfs_with(&reference.graph().snapshot(), 0, &serial).depth;

    if let Some(b) = &base {
        std::fs::remove_dir_all(b).ok();
    }
    FailoverPoint {
        shards,
        source: report.source.name(),
        kill_after_batches: mid,
        degraded_batches: batches.len() - mid,
        rebuild_ms,
        redelivered_batches: report.redelivered_batches,
        redelivered_updates: report.redelivered_updates,
        replication_bytes: fleet.traffic().replication_bytes,
        lost_updates: fleet.lost_updates(),
        exact_during_outage,
        exact_after_rebuild,
    }
}

fn main() {
    let smoke = smoke();
    let scale = scale(12, 10);
    let num_vertices = 1usize << scale;
    let total_updates = 8usize << scale.min(14);
    let batch_len = 256;
    let batches = into_batches(
        rmat_edge_stream(scale, total_updates, 0.15, 42),
        batch_len,
        1,
    );

    header(&format!(
        "E16 — shard failover, scale {scale} ({num_vertices} vertices), \
         {total_updates} updates, batches of {batch_len}, kill mid-stream"
    ));

    let mut points = Vec::new();
    for shards in SHARD_COUNTS {
        for durable in [false, true] {
            let p = run_point(shards, durable, &batches, num_vertices);
            println!(
                "{:2} shards, {:12}: degraded {:3} batches | rebuild {:7.2} ms \
                 ({} batches / {} updates redelivered) | lost {} | \
                 outage {} | rebuilt {}",
                p.shards,
                p.source,
                p.degraded_batches,
                p.rebuild_ms,
                p.redelivered_batches,
                p.redelivered_updates,
                p.lost_updates,
                if p.exact_during_outage {
                    "bit-identical"
                } else {
                    "trailing"
                },
                if p.exact_after_rebuild {
                    "bit-identical"
                } else {
                    "DIVERGED"
                },
            );
            points.push(p);
        }
    }

    // Hand-rolled JSON (no serde in the dependency budget).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"scale\": {scale},\n"));
    j.push_str(&format!("  \"num_vertices\": {num_vertices},\n"));
    j.push_str(&format!("  \"total_updates\": {total_updates},\n"));
    j.push_str(&format!("  \"batch_len\": {batch_len},\n"));
    j.push_str(&format!("  \"smoke\": {smoke},\n"));
    j.push_str(&format!("  \"shard_counts\": {SHARD_COUNTS:?},\n"));
    j.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"shards\": {}, \"source\": \"{}\", \"kill_after_batches\": {}, \
             \"degraded_batches\": {}, \"rebuild_ms\": {:.3}, \
             \"redelivered_batches\": {}, \"redelivered_updates\": {}, \
             \"replication_bytes\": {}, \"lost_updates\": {}, \
             \"exact_during_outage\": {}, \"exact_after_rebuild\": {}}}{}\n",
            p.shards,
            p.source,
            p.kill_after_batches,
            p.degraded_batches,
            p.rebuild_ms,
            p.redelivered_batches,
            p.redelivered_updates,
            p.replication_bytes,
            p.lost_updates,
            p.exact_during_outage,
            p.exact_after_rebuild,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    j.push_str("  ]\n");
    j.push_str("}\n");
    std::fs::write("BENCH_failover.json", &j).expect("write BENCH_failover.json");
    println!("\nwrote BENCH_failover.json");

    // Zero loss and post-rebuild bit-identity are the whole point of
    // the protocol: any violation is fatal.
    let bad: Vec<String> = points
        .iter()
        .filter(|p| p.lost_updates != 0 || !p.exact_after_rebuild)
        .map(|p| {
            format!(
                "{} shards/{} (lost {}, exact {})",
                p.shards, p.source, p.lost_updates, p.exact_after_rebuild
            )
        })
        .collect();
    if !bad.is_empty() {
        eprintln!("FAILOVER GATE VIOLATED: {bad:?}");
        std::process::exit(1);
    }
    println!("zero update loss; every rebuild bit-identical to the unkilled reference");
}
