//! Sharded scale-out equivalence suite — the CI `shard-matrix` job's
//! workload.
//!
//! Four contracts, each checked across shard counts and seeds:
//!
//! 1. **Kernel agreement**: PageRank / BFS / components results from
//!    an N-shard [`ShardedFlow`] are *bit-identical* to the unsharded
//!    kernels on the merged graph — and to the 1-shard run, so the
//!    whole scaling curve computes one answer. Besides the scale-6
//!    seeds, one scale-12 sweep holds 2/4/8 shards to the 1-shard run
//!    on both stream shapes.
//! 2. **Sharded recovery equivalence**: crash-and-recover on per-shard
//!    durability directories reproduces graph, properties, and stats
//!    exactly (recovery is shard-local).
//! 3. **Labeled recovery errors**: corrupted shard checkpoints fail
//!    recovery with one error naming *every* bad shard (`[shard-01]`,
//!    `[shard-02]`, …) and the offending file paths — the whole blast
//!    radius is diagnosable from a single CI log line.
//! 4. **Pinned traffic**: the five cross-shard byte counters are fixed
//!    for R-MAT and uniform streams at 1/2/4/8 shards, with and without
//!    replication, after a replica-covered kill, and (all but PageRank)
//!    after an uncovered one.
//!
//! With `GA_SHARDS` set (the CI matrix runs 1/2/4/8), only that shard
//! count runs; unset, counts 1/2/4 all run in-process, and 2/4/8 in the
//! scale-12 sweep.

use ga_core::flow::FlowEngine;
use ga_core::sharded::{shard_dir, shard_label, RebuildSource, ShardedConfig, ShardedFlow};
use ga_graph::{CompressedCsr, CsrBuilder};
use ga_kernels::bfs::bfs_with;
use ga_kernels::cc::wcc_union_find;
use ga_kernels::pagerank::pagerank_with;
use ga_kernels::{KernelCtx, UNREACHED};
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

/// The scale-12 sweep: 12 updates per vertex in batches of 512 from
/// seed 42, on an R-MAT and a uniform stream. Every shard count's
/// PageRank ranks, BFS depths and component labels and count equal the
/// 1-shard run's bit for bit.
#[test]
fn scale_12_fleets_agree_with_one_shard() {
    const SCALE_12: u32 = 12;
    let n = 1usize << SCALE_12;
    let counts = match std::env::var("GA_SHARDS") {
        Ok(_) => shard_counts(),
        Err(_) => vec![2, 4, 8],
    };
    for uniform in [false, true] {
        let stream = if uniform {
            uniform_edge_stream(SCALE_12, 12 * n, 0.15, 42)
        } else {
            rmat_edge_stream(SCALE_12, 12 * n, 0.15, 42)
        };
        let batches = into_batches(stream, 512, 1);
        let run = |shards: usize| {
            let mut flow = ShardedFlow::builder(shards).build(n).unwrap();
            for b in &batches {
                flow.process_batch(b).unwrap();
            }
            let rank = flow.pagerank(0.85, 1e-9, 50).rank;
            let depth = flow.bfs(0).value;
            let cc = flow.components().value;
            (rank, depth, cc.label, cc.count)
        };
        let one = run(1);
        for &shards in &counts {
            let got = run(shards);
            let ctx = format!("shards={shards} uniform={uniform}");
            assert_eq!(got.0, one.0, "pagerank ranks ({ctx})");
            assert_eq!(got.1, one.1, "bfs depths ({ctx})");
            assert_eq!(got.2, one.2, "cc labels ({ctx})");
            assert_eq!(got.3, one.3, "cc count ({ctx})");
        }
    }
}

/// Stream seed of the pinned cross-shard traffic table.
const TRAFFIC_SEED: u64 = 3;

/// Cross-shard bytes after one `pagerank(0.85, 1e-10, 50)`, one
/// `bfs(0)` and one `components()` on seed 3's stream, per
/// `(uniform, shards, replicate)`:
/// `[ingest, replication, pagerank, bfs, components]`.
#[rustfmt::skip]
const TRAFFIC: [(bool, usize, bool, [u64; 5]); 16] = [
    (false, 1, false, [0, 0, 0, 0, 0]),
    (false, 1, true, [0, 0, 0, 0, 0]),
    (false, 2, false, [10075, 0, 70560, 1176, 936]),
    (false, 2, true, [10075, 8125, 70560, 1176, 992]),
    (false, 4, false, [14196, 0, 107520, 1792, 1616]),
    (false, 4, true, [14196, 22321, 107520, 1792, 1896]),
    (false, 8, false, [16276, 0, 123360, 2056, 2544]),
    (false, 8, true, [16276, 29523, 123360, 2056, 3296]),
    (true, 1, false, [0, 0, 0, 0, 0]),
    (true, 1, true, [0, 0, 0, 0, 0]),
    (true, 2, false, [8736, 0, 88944, 2616, 1008]),
    (true, 2, true, [8736, 9464, 88944, 2616, 1008]),
    (true, 4, false, [13910, 0, 136000, 4000, 2008]),
    (true, 4, true, [13910, 23374, 136000, 4000, 2016]),
    (true, 8, false, [16276, 0, 158848, 4672, 3896]),
    (true, 8, true, [16276, 29861, 158848, 4672, 4032]),
];

/// The same, on a replicated 4-shard R-MAT fleet whose shard 1 dies
/// halfway through the stream and is served by its replica.
const TRAFFIC_AFTER_KILL: [u64; 5] = [14196, 22321, 88800, 1480, 1400];

/// `[ingest, replication, bfs, components]` on a 2-shard R-MAT fleet
/// whose shard 0 dies halfway through the stream with no replica.
const TRAFFIC_UNCOVERED: [u64; 4] = [10075, 0, 588, 0];

/// Run the three fleet kernels and read the five traffic counters.
fn kernel_traffic(flow: &mut ShardedFlow) -> [u64; 5] {
    flow.pagerank(0.85, 1e-10, 50);
    flow.bfs(0);
    flow.components();
    let t = flow.traffic();
    [
        t.ingest_bytes,
        t.replication_bytes,
        t.pagerank_bytes,
        t.bfs_bytes,
        t.components_bytes,
    ]
}

/// The wire model prices the same bytes for every configuration it has
/// ever priced: a kernel rewrite that moves a single traffic counter
/// changes what `bench_shard` reports as network demand.
#[test]
fn cross_shard_traffic_is_pinned() {
    for (uniform, shards, replicate, want) in TRAFFIC {
        let mut flow = ShardedFlow::builder(shards)
            .replicate(replicate)
            .build(1 << SCALE)
            .unwrap();
        for b in workload(TRAFFIC_SEED, uniform) {
            flow.process_batch(&b).unwrap();
        }
        assert_eq!(
            kernel_traffic(&mut flow),
            want,
            "traffic (uniform={uniform} shards={shards} replicate={replicate})"
        );
    }

    let mut flow = ShardedFlow::builder(4)
        .replicate(true)
        .build(1 << SCALE)
        .unwrap();
    let batches = workload(TRAFFIC_SEED, false);
    let (head, tail) = batches.split_at(batches.len() / 2);
    for b in head {
        flow.process_batch(b).unwrap();
    }
    flow.kill_shard(1, "pinned kill");
    for b in tail {
        flow.process_batch(b).unwrap();
    }
    assert_eq!(flow.coverage(), (vec![1], vec![]));
    assert_eq!(kernel_traffic(&mut flow), TRAFFIC_AFTER_KILL, "after kill");

    // Uncovered: shard 0 of 2 dies with no replica. PageRank's bytes
    // are left out: the scatter-gather protocol these figures were
    // recorded under also priced pulls out of vertices no shard
    // serves, so there is no shared figure to pin.
    let mut flow = ShardedFlow::builder(2).build(1 << SCALE).unwrap();
    for b in head {
        flow.process_batch(b).unwrap();
    }
    flow.kill_shard(0, "pinned kill");
    for b in tail {
        flow.process_batch(b).unwrap();
    }
    assert_eq!(flow.coverage(), (vec![], vec![0]));
    let [ingest, replication, _, bfs, components] = kernel_traffic(&mut flow);
    assert_eq!(
        [ingest, replication, bfs, components],
        TRAFFIC_UNCOVERED,
        "uncovered"
    );
    // A BFS from a vertex no shard serves reaches only itself: it ships
    // no frontier.
    let lost = (0..1 << SCALE).find(|&v| flow.row_source(v).is_none());
    let run = flow.bfs(lost.expect("shard 0 owns a vertex"));
    assert_eq!(run.value.iter().filter(|&&d| d != UNREACHED).count(), 1);
    assert_eq!(flow.traffic().bfs_bytes, bfs, "bfs from an unserved vertex");
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
