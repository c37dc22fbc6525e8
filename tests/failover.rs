//! Shard fault tolerance suite — the CI `failover` job's workload.
//!
//! Protocol, for every point of the shard fault matrix
//! (`ga_core::faults::FaultPlan::shard`) × the `GA_SHARDS` counts:
//!
//! 1. **Reference run**: feed N seeded batches (edges + property sets)
//!    through an unsharded engine with no faults.
//! 2. **Faulted fleet run**: same input through a durable *replicated*
//!    fleet; at the plan's fault point the scoped site is armed (and/or
//!    the target shard is killed outright). The fleet keeps ingesting —
//!    shard failures are absorbed as health strikes, undeliverable
//!    batches queue, and reads fail over to ring-successor replicas.
//! 3. **Assert mid-window**: if the plan took the shard down, analytics
//!    issued *during* the outage return typed
//!    [`Completion::Degraded`] results whose values still match the
//!    reference exactly (replica rows are slot-exact copies).
//! 4. **Rebuild + assert**: [`ShardedFlow::rebuild_shard`] restores the
//!    shard online; the final merged graph and properties must be
//!    bit-identical to the unkilled reference, with **zero** lost
//!    updates and a fully healthy fleet.
//!
//! With `GA_FAULT_SEED` set (the CI loop), only that one matrix point
//! runs; unset, the whole matrix runs in-process. `GA_SHARDS` pins the
//! fleet size (default: 2 and 4 both run).

use ga_core::faults::{self, FaultMode, FaultPlan, MATRIX_SIZE};
use ga_core::flow::{FlowEngine, PageRankAnalytic, SelectionCriteria};
use ga_core::sharded::{RebuildSource, ShardHealth, ShardedFlow};
use ga_graph::tier::TierConfig;
use ga_graph::CsrBuilder;
use ga_kernels::bfs::bfs_with;
use ga_kernels::cc::wcc_union_find;
use ga_kernels::pagerank::pagerank_with;
use ga_kernels::{Completion, KernelCtx};
use ga_stream::update::{into_batches, rmat_edge_stream, Update, UpdateBatch};
use std::path::PathBuf;
use std::sync::Mutex;

// The fault registry is process-global: serialize every test here.
static LOCK: Mutex<()> = Mutex::new(());

const SCALE: u32 = 6;
const NUM_BATCHES: usize = 12;
const PER_BATCH: usize = 20;

fn shard_counts() -> Vec<usize> {
    match std::env::var("GA_SHARDS") {
        Ok(s) => vec![s.parse().expect("GA_SHARDS must be a shard count")],
        Err(_) => vec![2, 4],
    }
}

fn seeds() -> Vec<u64> {
    match FaultPlan::from_env(|seed| FaultPlan::shard(seed, 2)) {
        Some(p) => vec![p.seed],
        None => (0..MATRIX_SIZE).collect(),
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ga_failover")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Edges plus a sprinkle of valid property sets, so failover covers
/// both row state and property columns.
fn workload(seed: u64) -> Vec<UpdateBatch> {
    let mut updates = rmat_edge_stream(SCALE, NUM_BATCHES * PER_BATCH, 0.15, seed);
    updates[17] = Update::PropertySet {
        vertex: 3,
        name: "risk".into(),
        value: 0.25,
    };
    updates[111] = Update::PropertySet {
        vertex: 5,
        name: "risk".into(),
        value: 0.75,
    };
    updates[173] = Update::PropertySet {
        vertex: 3,
        name: "risk".into(),
        value: 0.5,
    };
    into_batches(updates, PER_BATCH, 1)
}

fn assert_exact(fleet: &ShardedFlow, reference: &FlowEngine, ctx: &str) {
    assert_eq!(
        &fleet.merged_graph(),
        reference.graph(),
        "merged graph diverged ({ctx})"
    );
    assert_eq!(
        &fleet.merged_props(),
        reference.props(),
        "merged props diverged ({ctx})"
    );
}

fn assert_analytics_match(fleet: &mut ShardedFlow, reference: &FlowEngine, ctx: &str) {
    let snap = reference.graph().snapshot();
    assert_eq!(
        fleet.bfs(0).value,
        bfs_with(&snap, 0, &KernelCtx::serial()).depth,
        "bfs depths diverged ({ctx})"
    );
    let cc = fleet.components().value;
    let direct = wcc_union_find(&snap);
    assert_eq!(cc.label, direct.label, "cc labels diverged ({ctx})");
    let rev = CsrBuilder::new(reference.graph().num_vertices())
        .edges(snap.edges())
        .reverse(true)
        .build();
    let kernel = pagerank_with(&rev, 0.85, 1e-10, 50, &KernelCtx::serial());
    let pr = fleet.pagerank(0.85, 1e-10, 50);
    assert_eq!(pr.rank, kernel.rank, "pagerank ranks diverged ({ctx})");
}

/// One matrix point: durable + replicated fleet vs unsharded reference.
fn run_matrix_point(shards: usize, seed: u64) {
    let plan = FaultPlan::shard(seed, shards);
    let ctx = format!("shards={shards} seed={seed} plan={plan:?}");
    let base = tmpdir(&format!("matrix-{shards}-{seed}"));
    let mut fleet = ShardedFlow::builder(shards)
        .durability_base(&base)
        .replicate(true)
        .build(1 << SCALE)
        .unwrap();
    let mut reference = FlowEngine::new(1 << SCALE);

    for (k, batch) in workload(seed).iter().enumerate() {
        if k == plan.after_batches {
            plan.arm();
            if plan.checkpoint_first {
                fleet.checkpoint().unwrap();
            }
            if plan.kill {
                fleet.kill_shard(plan.shard, "matrix kill");
            }
        }
        fleet.process_batch(batch).unwrap();
        reference.process_stream(batch, |_| None, None);
    }

    if plan.expects_death() {
        assert_eq!(
            fleet.health(plan.shard),
            ShardHealth::Dead,
            "plan expects a dead shard ({ctx})"
        );
        assert_eq!(fleet.fleet_completion(), Completion::Degraded);

        // Analytics during the outage: typed degraded, exact values
        // whenever the replica covers the dead shard.
        let run = fleet.bfs(0);
        assert_eq!(run.completion, Completion::Degraded, "{ctx}");
        let covered = run.failed_over.contains(&plan.shard);
        if covered {
            assert_exact(&fleet, &reference, &format!("dead window, {ctx}"));
            assert_eq!(
                run.value,
                bfs_with(&reference.graph().snapshot(), 0, &KernelCtx::serial()).depth,
                "failover bfs diverged ({ctx})"
            );
            let pr = fleet.pagerank(0.85, 1e-10, 50);
            assert_eq!(pr.completion, Completion::Degraded, "{ctx}");
        }

        // Online rebuild from checkpoint + WAL + queued backlog.
        let report = fleet.rebuild_shard(plan.shard).unwrap();
        assert_eq!(report.source, RebuildSource::WalReplay, "{ctx}");
        assert!(
            report.redelivered_batches > 0,
            "death mid-stream must leave a backlog ({ctx})"
        );
    }

    // The armed site must actually have fired (guards against a matrix
    // point silently testing nothing). Checked after rebuild: the
    // checkpoint.load point only fires during recovery itself.
    if let Some(site) = &plan.site {
        assert!(faults::fired_count(site) > 0, "site never fired ({ctx})");
    }

    // End state: fully healthy, nothing lost, bit-identical to the
    // unkilled reference — state and analytics both.
    assert!(
        fleet.supervisor().all_healthy(),
        "fleet must end healthy ({ctx}): {:?}",
        (0..shards).map(|i| fleet.health(i)).collect::<Vec<_>>()
    );
    assert_eq!(fleet.lost_updates(), 0, "update loss ({ctx})");
    assert_eq!(fleet.fleet_completion(), Completion::Complete, "{ctx}");
    assert_exact(&fleet, &reference, &format!("final, {ctx}"));
    assert_analytics_match(&mut fleet, &reference, &ctx);

    // The outage and recovery left an audit trail. Route drops never
    // change health (the batch just queues for redelivery) — they are
    // observable as a delivery-drop count instead.
    if plan.targets("route.drop") {
        assert!(fleet.dropped_deliveries() > 0, "no drops counted ({ctx})");
    } else {
        let events = fleet.take_health_events();
        assert!(!events.is_empty(), "no health events recorded ({ctx})");
    }

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn shard_fault_matrix_recovers_bit_identically() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for shards in shard_counts() {
        for seed in seeds() {
            faults::clear_all();
            run_matrix_point(shards, seed);
        }
    }
    faults::clear_all();
}

/// Non-durable fleets rebuild a killed shard exactly from its ring
/// neighbors' replica state — kill every shard id in turn.
#[test]
fn replica_only_rebuild_is_exact_for_every_victim() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear_all();
    for shards in shard_counts() {
        if shards < 2 {
            continue; // replica rebuild needs a ring
        }
        for victim in 0..shards {
            let mut fleet = ShardedFlow::builder(shards)
                .replicate(true)
                .build(1 << SCALE)
                .unwrap();
            let mut reference = FlowEngine::new(1 << SCALE);
            let batches = workload(31 + victim as u64);
            let mid = batches.len() / 2;
            for b in &batches[..mid] {
                fleet.process_batch(b).unwrap();
                reference.process_stream(b, |_| None, None);
            }
            fleet.kill_shard(victim, "victim sweep");
            // Ingest continues across the outage; the replica absorbs
            // the dead shard's share.
            for b in &batches[mid..] {
                fleet.process_batch(b).unwrap();
                reference.process_stream(b, |_| None, None);
            }
            assert_eq!(fleet.lost_updates(), 0, "shards={shards} victim={victim}");
            assert_exact(
                &fleet,
                &reference,
                &format!("dead window, shards={shards} victim={victim}"),
            );
            let report = fleet.rebuild_shard(victim).unwrap();
            assert_eq!(report.source, RebuildSource::Replica);
            assert!(fleet.supervisor().all_healthy());
            assert_exact(
                &fleet,
                &reference,
                &format!("rebuilt, shards={shards} victim={victim}"),
            );
            assert_analytics_match(
                &mut fleet,
                &reference,
                &format!("rebuilt, shards={shards} victim={victim}"),
            );
        }
    }
}

/// Without replication or durability, an outage is honest: typed
/// degraded results, counted loss, and no rebuild source.
#[test]
fn unprotected_outage_reports_degraded_and_loss() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear_all();
    let mut fleet = ShardedFlow::builder(2).build(1 << SCALE).unwrap();
    let batches = workload(47);
    for b in &batches[..4] {
        fleet.process_batch(b).unwrap();
    }
    fleet.kill_shard(1, "unprotected");
    for b in &batches[4..] {
        fleet.process_batch(b).unwrap();
    }
    assert!(fleet.lost_updates() > 0, "loss must be counted");
    let run = fleet.bfs(0);
    assert_eq!(run.completion, Completion::Degraded);
    assert_eq!(run.uncovered, vec![1]);
    assert!(run.failed_over.is_empty());
    let cc = fleet.components();
    assert_eq!(cc.completion, Completion::Degraded);
    assert!(fleet.rebuild_shard(1).is_err());
}

/// A fleet checkpoint sweep reports partial failure per shard: the
/// caller sees exactly which shards wrote a fresh checkpoint, which
/// failed (and why), and which were skipped as not serving — instead
/// of a bare path list that hides the gap.
#[test]
fn checkpoint_reports_partial_failure_per_shard() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear_all();
    let base = tmpdir("ckpt-report");
    let mut fleet = ShardedFlow::builder(3)
        .durability_base(&base)
        .build(1 << SCALE)
        .unwrap();
    for b in workload(59).iter().take(4) {
        fleet.process_batch(b).unwrap();
    }

    faults::arm("shard-01/checkpoint.write", FaultMode::FailOnce);
    let report = fleet.checkpoint().unwrap();
    assert!(!report.is_complete());
    assert_eq!(
        report.paths.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        vec![0, 2],
        "paths must carry shard ids"
    );
    assert_eq!(report.failed.len(), 1, "{:?}", report.failed);
    assert_eq!(report.failed[0].0, 1);
    assert!(report.skipped.is_empty());
    assert_eq!(fleet.health(1), ShardHealth::Suspect);

    // The fault was one-shot: the next sweep succeeds everywhere and
    // heals the shard.
    let report = fleet.checkpoint().unwrap();
    assert!(report.is_complete(), "{report:?}");
    assert!(fleet.supervisor().all_healthy());

    // A dead shard is skipped, not silently absent.
    fleet.kill_shard(2, "skip check");
    let report = fleet.checkpoint().unwrap();
    assert!(!report.is_complete());
    assert_eq!(report.skipped, vec![2]);
    assert!(report.failed.is_empty());
    std::fs::remove_dir_all(&base).ok();
    faults::clear_all();
}

/// A one-shot crash fault armed while its target shard is already down
/// must not be consumed by deliveries to the dead shard — it stays
/// armed and fires against the rebuilt shard's first delivery.
#[test]
fn crash_armed_during_outage_fires_on_the_rebuilt_shard() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear_all();
    let victim = 1;
    let mut fleet = ShardedFlow::builder(3)
        .replicate(true)
        .build(1 << SCALE)
        .unwrap();
    let batches = workload(61);
    for b in &batches[..4] {
        fleet.process_batch(b).unwrap();
    }
    fleet.kill_shard(victim, "outage");
    faults::arm("shard-01/crash", FaultMode::FailOnce);
    // Deliveries while dead must not evaluate (and so not consume) the
    // crash site.
    for b in &batches[4..8] {
        fleet.process_batch(b).unwrap();
    }
    assert_eq!(fleet.health(victim), ShardHealth::Dead);

    let report = fleet.rebuild_shard(victim).unwrap();
    assert_eq!(report.source, RebuildSource::Replica);
    assert!(fleet.supervisor().all_healthy());

    // The armed crash is still live: the first delivery to the rebuilt
    // shard kills it again.
    for b in &batches[8..] {
        fleet.process_batch(b).unwrap();
    }
    assert_eq!(
        fleet.health(victim),
        ShardHealth::Dead,
        "the crash armed during the outage must fire on the rebuilt shard"
    );
    assert_eq!(fleet.lost_updates(), 0, "the replica still covers it");
    faults::clear_all();
}

/// A shard rebuilt from its replicas comes back with the fleet's tier
/// template, like every other way of building a shard engine: its next
/// batch run spills a tier again and the fleet scrub covers it.
#[test]
fn replica_rebuilt_shard_keeps_its_tier() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear_all();
    let base = tmpdir("rebuilt-tier");
    let victim = 1;
    let mut fleet = ShardedFlow::builder(3)
        .replicate(true)
        .tiered(TierConfig::new(&base).segment_rows(8).ram_budget(2 << 10))
        .build(1 << SCALE)
        .unwrap();
    for b in workload(67) {
        fleet.process_batch(&b).unwrap();
    }
    fleet.kill_shard(victim, "tier check");
    let report = fleet.rebuild_shard(victim).unwrap();
    assert_eq!(report.source, RebuildSource::Replica);

    let shard = fleet.shard_mut(victim);
    let idx = shard.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
    shard.run_batch(&SelectionCriteria::TopKDegree { k: 4 }, idx);
    assert!(
        fleet.shards()[victim].tier().is_some(),
        "the rebuilt shard lost its tier"
    );
    assert!(
        fleet.scrub_tiers().iter().any(|(i, _, _)| *i == victim),
        "the fleet scrub skipped the rebuilt shard"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// Satellite: the merged dead-letter surface aggregates quarantined
/// updates across every shard, tagged by shard id, and replay
/// re-validates fleet-wide.
#[test]
fn merged_dead_letters_aggregate_across_shards() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear_all();
    let shards = 3;
    let mut fleet = ShardedFlow::builder(shards)
        .vertex_limit(32)
        .build(32)
        .unwrap();
    // Scale-6 ids run up to 63: everything above the limit of 32 is
    // quarantined on every shard that received a copy.
    for b in workload(53) {
        fleet.process_batch(&b).unwrap();
    }
    let total = fleet.dead_letter_count();
    assert!(total > 0, "workload must overflow the vertex limit");

    // Replay re-validates: still out of range, so everything requeues.
    let (replayed, requeued) = fleet.replay_dead_letters().unwrap();
    assert_eq!(replayed, 0);
    assert_eq!(requeued, total);

    let drained = fleet.drain_dead_letters();
    assert_eq!(drained.len(), total);
    assert_eq!(fleet.dead_letter_count(), 0, "drain empties every shard");
    assert!(
        drained.iter().all(|(shard, _)| *shard < shards),
        "tags must be valid shard ids"
    );
    let tagged_shards: std::collections::BTreeSet<usize> =
        drained.iter().map(|(shard, _)| *shard).collect();
    assert!(
        tagged_shards.len() > 1,
        "quarantine should land on multiple shards: {tagged_shards:?}"
    );
}
