//! Segment-IO chaos matrix for the tiered larger-than-RAM store.
//!
//! Protocol, for every point of [`ga_core::faults::FaultPlan::segment`]
//! (CI loops `GA_FAULT_SEED` over `0..MATRIX_SIZE`; unset, the
//! whole matrix runs in-process):
//!
//! 1. **Direct harness**: spill a weighted, symmetrized, reverse-indexed
//!    R-MAT CSR at a 25% RAM budget with the plan armed, run all five
//!    paper kernels over the tier, then `scrub()` + `repair_from()` the
//!    ground-truth CSR, clear faults, and re-run. Every kernel result
//!    must be bit-identical to the plain in-RAM run at both points, with
//!    zero `lost_rows`/`lost_segments`. A slow-disk plan must fail
//!    nothing — `slow_ios` counted, no error counters moved.
//! 2. **Durable engine**: the same plan under a durable `FlowEngine`
//!    with a spill-forcing tier: the faulted batch matches an untiered
//!    reference, and recovery from checkpoint + WAL reproduces the
//!    graph exactly — zero acknowledged updates lost.
//! 3. **Fleet**: on-disk bit rot in one shard's segment is found by
//!    `ShardedFlow::scrub_tiers`, quarantined, and repaired from that
//!    shard's own recovered state; the other shards stay clean.

use ga_core::faults::{self, FaultPlan, MATRIX_SIZE};
use ga_core::flow::{FlowEngine, PageRankAnalytic, SelectionCriteria};
use ga_core::sharded::{shard_label, ShardedFlow};
use ga_graph::tier::{TierConfig, TieredCsr};
use ga_graph::{gen, Adjacency, CsrBuilder, CsrGraph};
use ga_kernels::{bfs, cc, pagerank, sssp, triangles};
use ga_stream::update::{into_batches, rmat_edge_stream, UpdateBatch};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

// The fault registry is process-global: serialize every test here.
static LOCK: Mutex<()> = Mutex::new(());

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ga_tier_chaos")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn seeds() -> Vec<u64> {
    match FaultPlan::from_env(FaultPlan::segment) {
        Some(p) => vec![p.seed],
        None => (0..MATRIX_SIZE).collect(),
    }
}

fn rmat_weighted(scale: u32, seed: u64) -> Arc<CsrGraph> {
    let edges = gen::rmat(scale, 8 << scale, gen::RmatParams::GRAPH500, seed);
    Arc::new(
        CsrBuilder::new(1 << scale)
            .weighted_edges(
                edges
                    .iter()
                    .enumerate()
                    .map(|(i, &(u, v))| (u, v, (i % 5) as f32 + 1.0)),
            )
            .symmetrize(true)
            .dedup(true)
            .drop_self_loops(true)
            .reverse(true)
            .build(),
    )
}

/// The five paper kernels, captured for bit-exact comparison.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    depth: Vec<u32>,
    dist: Vec<f32>,
    rank: Vec<f64>,
    label: Vec<u32>,
    triangles: u64,
}

fn fingerprint<A: Adjacency>(g: &A) -> Fingerprint {
    Fingerprint {
        depth: bfs::bfs(g, 0).depth,
        dist: sssp::dijkstra(g, 0).dist,
        rank: pagerank::pagerank(g, 0.85, 1e-9, 40).rank,
        label: cc::wcc_union_find(g).label,
        triangles: triangles::count_global(g),
    }
}

/// Matrix point, direct harness: any single segment-IO fault under a
/// spill-forcing budget leaves all five kernels bit-identical, before
/// and after scrub + repair, with zero counted loss.
fn check_kernel_point(seed: u64) {
    let plan = FaultPlan::segment(seed);
    let tag = format!("seed {seed} ({plan:?})");
    faults::clear_all();

    let g = rmat_weighted(8, 42);
    let want = fingerprint(&*g);

    // Probe the working set untaulted, then respill at a 25% budget
    // with the plan armed so the spill itself is inside the blast
    // radius.
    let dir = tmpdir(&format!("matrix-{seed}"));
    let probe = TieredCsr::spill(&g, TierConfig::new(&dir).segment_rows(32)).unwrap();
    let budget = probe.working_set_bytes() / 4;
    drop(probe);
    std::fs::remove_dir_all(&dir).ok();

    plan.arm();
    let cfg = TierConfig::new(&dir)
        .segment_rows(32)
        .ram_budget(budget)
        .keep_pin(true);
    let tier = TieredCsr::spill(&g, cfg).unwrap();

    let under_fault = fingerprint(&tier);
    assert_eq!(under_fault, want, "{tag}: kernels diverged under fault");

    // Scrub with the fault still armed (scrub-site plans target this
    // pass), repair from the ground-truth CSR — the same state a
    // checkpoint+WAL recovery reproduces — then run clean.
    let scrub = tier.scrub();
    let repair = tier.repair_from(Some(&g));
    faults::clear_all();

    let after_repair = fingerprint(&tier);
    assert_eq!(
        after_repair, want,
        "{tag}: kernels diverged after scrub+repair"
    );

    let s = tier.stats();
    assert_eq!(s.lost_rows, 0, "{tag}: rows served as empty");
    assert_eq!(s.lost_segments, 0, "{tag}: segments abandoned");
    assert!(s.spilled_segments > 0, "{tag}: tier never spilled");
    assert!(
        s.cache_misses > 0 || tier.pinned_mode(),
        "{tag}: budget never forced paging"
    );
    if plan.slow_only() {
        // A slow disk is not a broken disk: nothing may fail, nothing
        // may quarantine, and the slowdown must be visible.
        assert!(s.slow_ios > 0, "{tag}: Delay plan never slowed an IO");
        assert_eq!(s.read_failures, 0, "{tag}: Delay plan failed a read");
        assert_eq!(s.write_failures, 0, "{tag}: Delay plan failed a write");
        assert_eq!(s.corrupt_segments, 0, "{tag}: Delay plan corrupted");
        assert_eq!(s.scrub_errors, 0, "{tag}: Delay plan errored a scrub");
        assert!(scrub.corrupt.is_empty(), "{tag}: Delay plan quarantined");
        assert!(
            repair.unrepairable.is_empty(),
            "{tag}: Delay plan lost a segment"
        );
    }
    if plan.targets("segment.scrub") && !plan.slow_only() {
        // An injected scrub IO error is device trouble, not a verdict
        // on the bytes: counted, never quarantined.
        assert!(s.scrub_errors > 0, "{tag}: scrub fault never fired");
        assert_eq!(s.corrupt_segments, 0, "{tag}: scrub error quarantined");
    }
    faults::clear_all();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_matrix_kernels_bit_identical() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for seed in seeds() {
        check_kernel_point(seed);
    }
}

const SCALE: u32 = 6;
const NUM_BATCHES: usize = 6;
const PER_BATCH: usize = 24;

fn workload(seed: u64) -> Vec<UpdateBatch> {
    let updates = rmat_edge_stream(SCALE, NUM_BATCHES * PER_BATCH, 0.1, seed);
    into_batches(updates, PER_BATCH, 1)
}

/// Matrix point, durable engine: a tiered engine under the plan acks
/// the same batches as an untiered reference, produces the same batch
/// analytics, and recovers to the exact same graph — zero acknowledged
/// updates lost to the tier fault.
fn check_durable_point(seed: u64) {
    let plan = FaultPlan::segment(seed);
    let tag = format!("seed {seed} ({plan:?})");
    faults::clear_all();
    let batches = workload(7);

    // Untiered durable reference.
    let ref_dir = tmpdir(&format!("ref-{seed}"));
    let mut reference = FlowEngine::builder()
        .durability_dir(&ref_dir)
        .build(1 << SCALE)
        .unwrap();
    let ridx = reference.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
    for b in &batches {
        reference.process_stream_durable(b, |_| None, None).unwrap();
    }
    let ref_report = reference.run_batch(&SelectionCriteria::TopKDegree { k: 8 }, ridx);

    // Tiered engine with a spill-forcing budget, plan armed across the
    // analytic batch and the scrub.
    let dir = tmpdir(&format!("durable-{seed}"));
    let cfg = TierConfig::new(dir.join("tier"))
        .segment_rows(8)
        .ram_budget(2 << 10);
    let mut e = FlowEngine::builder()
        .durability_dir(&dir)
        .tiered(cfg)
        .build(1 << SCALE)
        .unwrap();
    let idx = e.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
    for b in &batches {
        e.process_stream_durable(b, |_| None, None).unwrap();
    }
    plan.arm();
    let report = e.run_batch(&SelectionCriteria::TopKDegree { k: 8 }, idx);
    let scrubbed = e.scrub_tier();
    faults::clear_all();

    assert_eq!(report.seeds, ref_report.seeds, "{tag}: seeds diverged");
    assert_eq!(
        report.subgraph_size, ref_report.subgraph_size,
        "{tag}: faulted extraction saw a different subgraph"
    );
    assert_eq!(
        report.globals, ref_report.globals,
        "{tag}: analytic globals diverged under tier fault"
    );
    assert_eq!(e.props(), reference.props(), "{tag}: writebacks diverged");

    let stats = e.stats();
    assert!(stats.tier.spilled_segments > 0, "{tag}: tier never engaged");
    assert_eq!(stats.tier.lost_rows, 0, "{tag}: tier served empty rows");
    assert_eq!(stats.tier.lost_segments, 0, "{tag}: tier lost segments");
    assert!(scrubbed.is_some(), "{tag}: no live tier to scrub");

    // Zero acknowledged loss: checkpoint+WAL recovery reproduces every
    // acked update regardless of what the tier fault did.
    let recovered = FlowEngine::recover(&dir).unwrap();
    assert_eq!(
        recovered.graph(),
        e.graph(),
        "{tag}: recovery lost acknowledged updates"
    );
    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_matrix_zero_acknowledged_loss() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for seed in seeds() {
        check_durable_point(seed);
    }
}

/// Fleet path: bit rot on one shard's segment file is detected by the
/// fleet scrub, quarantined, and repaired from that shard's own state;
/// healthy shards report clean; a second scrub pass is entirely clean.
#[test]
fn sharded_scrub_repairs_bit_rotted_shard() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::clear_all();
    let base = tmpdir("fleet-tier");
    let cfg = TierConfig::new(&base).segment_rows(8).ram_budget(2 << 10);
    let mut fleet = ShardedFlow::builder(3)
        .replicate(true)
        .tiered(cfg)
        .build(1 << SCALE)
        .unwrap();
    for b in workload(9) {
        fleet.process_batch(&b).unwrap();
    }
    // Spill every shard's tier by running a per-shard analytic batch.
    for i in 0..3 {
        let shard = fleet.shard_mut(i);
        let idx = shard.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
        shard.run_batch(&SelectionCriteria::TopKDegree { k: 4 }, idx);
        assert!(shard.tier().is_some(), "shard {i} never spilled a tier");
    }

    // Rot one byte of one segment in shard-01's store.
    let victim_dir = base.join(shard_label(1));
    let victim = std::fs::read_dir(&victim_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "gas"))
        .expect("shard-01 spilled no segments");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&victim, &bytes).unwrap();

    let rows = fleet.scrub_tiers();
    assert_eq!(rows.len(), 3, "every serving shard must scrub");
    for (i, scrub, repair) in &rows {
        if *i == 1 {
            assert_eq!(scrub.corrupt.len(), 1, "shard-01 rot not found");
            assert_eq!(repair.repaired.len(), 1, "shard-01 rot not repaired");
            assert!(repair.unrepairable.is_empty());
        } else {
            assert!(scrub.corrupt.is_empty(), "healthy shard {i} quarantined");
            assert!(repair.repaired.is_empty());
        }
    }
    // After repair the fleet scrubs clean and no shard lost anything.
    for (_, scrub, repair) in fleet.scrub_tiers() {
        assert!(scrub.corrupt.is_empty(), "re-scrub found rot after repair");
        assert!(scrub.missing.is_empty());
        assert!(repair.repaired.is_empty());
    }
    for s in fleet.shard_stats() {
        assert_eq!(s.tier.lost_rows, 0);
        assert_eq!(s.tier.lost_segments, 0);
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A scoped fault on one member's scrub site (`shard-01/segment.scrub`)
/// errors exactly that shard's scrub pass — counted as device trouble,
/// no quarantine anywhere — while the rest of the fleet scrubs clean.
#[test]
fn scoped_scrub_fault_hits_exactly_one_shard() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::clear_all();
    let base = tmpdir("fleet-scoped");
    let cfg = TierConfig::new(&base).segment_rows(8).ram_budget(2 << 10);
    let mut fleet = ShardedFlow::builder(2)
        .tiered(cfg)
        .build(1 << SCALE)
        .unwrap();
    for b in workload(11) {
        fleet.process_batch(&b).unwrap();
    }
    for i in 0..2 {
        let shard = fleet.shard_mut(i);
        let idx = shard.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
        shard.run_batch(&SelectionCriteria::TopKDegree { k: 4 }, idx);
    }
    faults::arm(
        &format!("{}/segment.scrub", shard_label(1)),
        ga_core::faults::FaultMode::FailOnce,
    );
    let rows = fleet.scrub_tiers();
    faults::clear_all();
    assert_eq!(rows.len(), 2);
    for (i, scrub, _) in &rows {
        assert!(scrub.corrupt.is_empty(), "IO error is not a verdict");
        if *i == 1 {
            assert_eq!(scrub.errors, 1, "shard-01 scrub fault never fired");
        } else {
            assert_eq!(scrub.errors, 0, "fault leaked into shard {i}");
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
