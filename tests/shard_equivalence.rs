//! Sharded scale-out equivalence suite — the CI `shard-matrix` job's
//! workload.
//!
//! Three contracts, each checked across shard counts and seeds:
//!
//! 1. **Scatter-gather agreement**: merged PageRank / BFS / components
//!    results from an N-shard [`ShardedFlow`] are *bit-identical* to
//!    the unsharded kernels on the merged graph — and to the 1-shard
//!    run, so the whole scaling curve computes one answer.
//! 2. **Sharded recovery equivalence**: crash-and-recover on per-shard
//!    durability directories reproduces graph, properties, and stats
//!    exactly (recovery is shard-local).
//! 3. **Labeled recovery errors**: corrupted shard checkpoints fail
//!    recovery with one error naming *every* bad shard (`[shard-01]`,
//!    `[shard-02]`, …) and the offending file paths — the whole blast
//!    radius is diagnosable from a single CI log line.
//!
//! With `GA_SHARDS` set (the CI matrix), only that shard count runs;
//! unset, counts 1/2/4 all run in-process.

use ga_core::flow::FlowEngine;
use ga_core::sharded::{shard_dir, shard_label, RebuildSource, ShardedConfig, ShardedFlow};
use ga_graph::{CompressedCsr, CsrBuilder};
use ga_kernels::bfs::bfs_with;
use ga_kernels::cc::wcc_union_find;
use ga_kernels::pagerank::pagerank_with;
use ga_kernels::KernelCtx;
use ga_stream::update::{into_batches, rmat_edge_stream, uniform_edge_stream, UpdateBatch};
use std::path::PathBuf;

const SCALE: u32 = 6;
const UPDATES: usize = 1400;
const BATCH: usize = 120;
const SEEDS: std::ops::Range<u64> = 0..5;

fn shard_counts() -> Vec<usize> {
    match std::env::var("GA_SHARDS") {
        Ok(s) => vec![s.parse().expect("GA_SHARDS must be a shard count")],
        Err(_) => vec![1, 2, 4],
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ga_shard_equivalence")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn workload(seed: u64, uniform: bool) -> Vec<UpdateBatch> {
    let stream = if uniform {
        uniform_edge_stream(SCALE, UPDATES, 0.2, seed)
    } else {
        rmat_edge_stream(SCALE, UPDATES, 0.2, seed)
    };
    into_batches(stream, BATCH, 1)
}

/// Drive a sharded fleet and an unsharded reference engine through the
/// same batches (both on the default symmetrize=true contract).
fn drive_pair(shards: usize, seed: u64, uniform: bool) -> (ShardedFlow, FlowEngine) {
    let mut flow = ShardedFlow::builder(shards).build(1 << SCALE).unwrap();
    let mut reference = FlowEngine::new(1 << SCALE);
    for batch in workload(seed, uniform) {
        flow.process_batch(&batch).unwrap();
        reference.process_stream(&batch, |_| None, None);
    }
    (flow, reference)
}

#[test]
fn scatter_gather_agrees_with_unsharded_kernels() {
    for seed in SEEDS {
        for uniform in [false, true] {
            // Ground truth: the 1-shard run's PageRank.
            let (mut one, _) = drive_pair(1, seed, uniform);
            let pr_one = one.pagerank(0.85, 1e-10, 50);

            for shards in shard_counts() {
                let (mut flow, reference) = drive_pair(shards, seed, uniform);
                let merged = flow.merged_graph();
                assert_eq!(
                    &merged,
                    reference.graph(),
                    "merged graph diverged (shards={shards} seed={seed} uniform={uniform})"
                );

                let snap = merged.snapshot();
                let rev = CsrBuilder::new(merged.num_vertices())
                    .edges(snap.edges())
                    .reverse(true)
                    .build();
                // With GA_COMPRESSED=1 (the CI matrix leg), the
                // unsharded reference kernels read the delta-varint
                // representation instead of the plain CSR — the merged
                // results must not move by a single bit either way.
                let compressed = std::env::var("GA_COMPRESSED").is_ok_and(|v| v == "1");
                let kernel = if compressed {
                    pagerank_with(
                        &CompressedCsr::from_csr(&rev),
                        0.85,
                        1e-10,
                        50,
                        &KernelCtx::serial(),
                    )
                } else {
                    pagerank_with(&rev, 0.85, 1e-10, 50, &KernelCtx::serial())
                };
                let pr = flow.pagerank(0.85, 1e-10, 50);
                assert_eq!(pr.work, kernel.work, "pagerank iters (shards={shards})");
                assert_eq!(
                    pr.rank, kernel.rank,
                    "pagerank ranks not bit-identical (shards={shards} seed={seed})"
                );
                assert_eq!(
                    pr.rank, pr_one.rank,
                    "N-shard vs 1-shard pagerank (shards={shards} seed={seed})"
                );

                let bfs_ref = if compressed {
                    bfs_with(&CompressedCsr::from_csr(&snap), 0, &KernelCtx::serial()).depth
                } else {
                    bfs_with(&snap, 0, &KernelCtx::serial()).depth
                };
                assert_eq!(
                    flow.bfs(0).value,
                    bfs_ref,
                    "bfs depths (shards={shards} seed={seed})"
                );

                let cc = flow.components().value;
                let direct = if compressed {
                    wcc_union_find(&CompressedCsr::from_csr(&snap))
                } else {
                    wcc_union_find(&snap)
                };
                assert_eq!(cc.label, direct.label, "cc labels (shards={shards})");
                assert_eq!(cc.count, direct.count, "cc count (shards={shards})");
            }
        }
    }
}

#[test]
fn sharded_recovery_reproduces_state_exactly() {
    for shards in shard_counts() {
        for seed in SEEDS {
            let base = tmpdir(&format!("recover-{shards}-{seed}"));
            let mut flow = ShardedFlow::builder(shards)
                .durability_base(&base)
                .build(1 << SCALE)
                .unwrap();
            let batches = workload(seed, false);
            let mid = batches.len() / 2;
            for b in &batches[..mid] {
                flow.process_batch(b).unwrap();
            }
            // Checkpoint mid-history so recovery exercises both the
            // checkpoint load and the WAL-suffix replay on every shard.
            flow.checkpoint().unwrap();
            for b in &batches[mid..] {
                flow.process_batch(b).unwrap();
            }
            let want_graph = flow.merged_graph();
            let want_props = flow.merged_props();
            let want_stats = flow.shard_stats();
            drop(flow); // crash

            let recovered = ShardedConfig::new(shards).recover(&base).unwrap();
            assert_eq!(
                recovered.merged_graph(),
                want_graph,
                "recovered graph (shards={shards} seed={seed})"
            );
            assert_eq!(
                recovered.merged_props(),
                want_props,
                "recovered props (shards={shards} seed={seed})"
            );
            assert_eq!(
                recovered.shard_stats(),
                want_stats,
                "recovered per-shard stats (shards={shards} seed={seed})"
            );
            std::fs::remove_dir_all(&base).ok();
        }
    }
}

/// A recovered fleet must stay durable: batches ingested *after* a
/// recovery keep flowing through the WAL, dead-shard deliveries queue
/// for rebuild instead of counting as loss, and a second crash +
/// recovery still reproduces every batch ever acknowledged.
#[test]
fn recovered_fleet_stays_durable_across_restarts() {
    let shards = 3;
    let base = tmpdir("re-recover");
    let batches = workload(17, false);
    let third = batches.len() / 3;

    let mut flow = ShardedFlow::builder(shards)
        .durability_base(&base)
        .build(1 << SCALE)
        .unwrap();
    for b in &batches[..third] {
        flow.process_batch(b).unwrap();
    }
    drop(flow); // crash #1

    // Recover and keep ingesting — durably, even though this handle
    // came from recover() rather than build().
    let mut flow = ShardedConfig::new(shards).recover(&base).unwrap();
    for b in &batches[third..2 * third] {
        flow.process_batch(b).unwrap();
    }
    // A dead shard on a recovered fleet queues its backlog for rebuild
    // (durable semantics) rather than counting the updates as lost.
    flow.kill_shard(1, "mid-life kill");
    for b in &batches[2 * third..] {
        flow.process_batch(b).unwrap();
    }
    assert_eq!(
        flow.lost_updates(),
        0,
        "durable fleet must not lose updates"
    );
    assert!(
        flow.pending_backlog()[1] > 0,
        "dead shard's deliveries must queue for the rebuild"
    );
    let report = flow
        .rebuild_shard(1)
        .expect("checkpoint+WAL must be a rebuild source");
    assert_eq!(report.source, RebuildSource::WalReplay);
    let want_graph = flow.merged_graph();
    let want_props = flow.merged_props();
    drop(flow); // crash #2, no checkpoint: the WAL alone must carry it

    let recovered = ShardedConfig::new(shards).recover(&base).unwrap();
    assert_eq!(
        recovered.merged_graph(),
        want_graph,
        "post-recovery ingest must survive the second restart"
    );
    assert_eq!(recovered.merged_props(), want_props);

    // And the whole history matches an unsharded reference.
    let mut reference = FlowEngine::new(1 << SCALE);
    for b in &batches {
        reference.process_stream(b, |_| None, None);
    }
    assert_eq!(&recovered.merged_graph(), reference.graph());
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn corrupted_shard_checkpoints_error_names_every_bad_shard() {
    let shards = 3;
    let base = tmpdir("labeled-error");
    let mut flow = ShardedFlow::builder(shards)
        .durability_base(&base)
        .build(1 << SCALE)
        .unwrap();
    for b in workload(9, false).iter().take(4) {
        flow.process_batch(b).unwrap();
    }
    flow.checkpoint().unwrap();
    drop(flow);

    // Scribble over every checkpoint in shard 1's AND shard 2's
    // directories so neither recovery has a usable fallback. The fleet
    // error must collect both, not stop at the first.
    let victims = [shard_dir(&base, 1), shard_dir(&base, 2)];
    for victim in &victims {
        let mut corrupted = 0;
        for entry in std::fs::read_dir(victim).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "gac") {
                std::fs::write(&path, b"not a checkpoint").unwrap();
                corrupted += 1;
            }
        }
        assert!(corrupted > 0, "no checkpoint files found to corrupt");
    }

    let err = match ShardedConfig::new(shards).recover(&base) {
        Ok(_) => panic!("recovery must fail with corrupted shard checkpoints"),
        Err(e) => e,
    };
    let msg = err.to_string();
    for bad in [1, 2] {
        assert!(
            msg.contains(&format!("[{}]", shard_label(bad))),
            "error must name failing shard {bad}: {msg}"
        );
    }
    assert!(
        !msg.contains(&format!("[{}]", shard_label(0))),
        "healthy shard 0 must not be blamed: {msg}"
    );
    assert!(
        msg.contains("2/3 shards"),
        "error must summarize the failure count: {msg}"
    );
    assert!(
        msg.contains("ckpt-") || msg.contains(victims[0].to_str().unwrap()),
        "error must name the offending path: {msg}"
    );
    std::fs::remove_dir_all(&base).ok();
}
