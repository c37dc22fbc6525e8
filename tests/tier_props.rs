//! Property-based integrity suite for the tiered segment store.
//!
//! Mirrors `durability_props.rs` for the `GAS1` segment codec: random
//! payload round-trips, a per-byte truncation sweep, and a single-bit
//! flip sweep, all asserting that every corruption is *detected* —
//! quarantined or rejected, never silently decoded. On top of the
//! codec, random graphs spill through [`TieredCsr`] and must read back
//! row-for-row bit-identical under arbitrary RAM budgets, all five
//! paper kernels must agree with the in-RAM CSR, and a scale-16 spill
//! under a 25% RAM budget must keep resident tier memory inside the
//! budget for the whole traversal.

use graph_analytics::graph::tier::{
    decode_segment, encode_segment, SegmentKind, SegmentReadError, SegmentStore,
};
use graph_analytics::graph::{gen, Adjacency, CsrBuilder, CsrGraph, TierConfig, TieredCsr};
use graph_analytics::kernels::{bfs, cc, pagerank, sssp, triangles, KernelCtx};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ga-tierprops-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn byte() -> impl Strategy<Value = u8> {
    (0u32..256).prop_map(|b| b as u8)
}

fn kind_from(tag: u8) -> SegmentKind {
    match tag % 2 {
        0 => SegmentKind::Rows,
        _ => SegmentKind::RevRows,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Encode → decode returns the payload, kind, and id untouched.
    #[test]
    fn segment_round_trip_is_exact(
        (payload, tag, id) in (prop::collection::vec(byte(), 0..400), 0u8..2, 0u64..u64::MAX)
    ) {
        let kind = kind_from(tag);
        let frame = encode_segment(kind, id, &payload);
        let (k, i, p) = decode_segment(&frame).unwrap();
        prop_assert_eq!(k, kind);
        prop_assert_eq!(i, id);
        prop_assert_eq!(p, payload);
    }

    /// Truncating the frame at ANY byte boundary is detected. A torn
    /// write can stop anywhere; no prefix may decode.
    #[test]
    fn segment_rejects_truncation_at_every_byte(
        (payload, id) in (prop::collection::vec(byte(), 0..120), 0u64..u64::MAX)
    ) {
        let frame = encode_segment(SegmentKind::Rows, id, &payload);
        for cut in 0..frame.len() {
            prop_assert!(
                decode_segment(&frame[..cut]).is_err(),
                "truncation at byte {} of {} decoded", cut, frame.len()
            );
        }
    }

    /// Flipping ANY single bit anywhere in the frame — header, payload,
    /// or trailer CRC — is detected.
    #[test]
    fn segment_rejects_every_single_bit_flip(
        (payload, id, bit) in (prop::collection::vec(byte(), 0..64), 0u64..u64::MAX, 0usize..8)
    ) {
        let frame = encode_segment(SegmentKind::RevRows, id, &payload);
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 1 << bit;
            prop_assert!(
                decode_segment(&bad).is_err(),
                "bit {} of byte {} flipped undetected", bit, byte
            );
        }
    }
}

/// Raw random graph material, as in `compress_props.rs`: duplicates and
/// self-loops kept, a third of cases weighted, some with reverse.
fn raw_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, bool, bool)> {
    (1usize..48)
        .prop_flat_map(|n| {
            let hi = n as u32;
            (
                Just(n),
                prop::collection::vec((0..hi, 0..hi), 0..160),
                0u32..2,
                0u32..2,
            )
        })
        .prop_map(|(n, edges, w, r)| (n, edges, w == 1, r == 1))
}

fn build(n: usize, edges: &[(u32, u32)], weighted: bool, reverse: bool) -> CsrGraph {
    let b = CsrBuilder::new(n).reverse(reverse);
    if weighted {
        b.weighted_edges(
            edges
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| (u, v, (i % 7) as f32 + 0.5)),
        )
        .build()
    } else {
        b.edges(edges.iter().copied()).build()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Spill → page back in reproduces every row (forward and reverse,
    /// targets and weights) bit-identically, under arbitrary segment
    /// sizes and RAM budgets — including budgets small enough to evict
    /// on nearly every access.
    #[test]
    fn tiered_rows_are_bit_identical(
        ((n, edges, weighted, reverse), seg_rows, budget_kb)
            in (raw_graph(), 1usize..24, 0u64..8)
    ) {
        let g = Arc::new(build(n, &edges, weighted, reverse));
        let dir = tmpdir("rows");
        let cfg = TierConfig::new(&dir)
            .segment_rows(seg_rows)
            .ram_budget(budget_kb * 512)
            .keep_pin(false);
        let tier = TieredCsr::spill(&g, cfg).unwrap();
        prop_assert_eq!(tier.num_vertices(), g.num_vertices());
        prop_assert_eq!(Adjacency::num_edges(&tier), g.num_edges());
        for v in g.vertices() {
            let got: Vec<_> = Adjacency::neighbors(&tier, v).collect();
            prop_assert_eq!(got, g.neighbors(v).to_vec(), "row {}", v);
            let got_w: Vec<_> = Adjacency::weighted_neighbors(&tier, v).collect();
            let want_w: Vec<_> = Adjacency::weighted_neighbors(&*g, v).collect();
            prop_assert_eq!(got_w, want_w, "weighted row {}", v);
            if reverse {
                let got_in: Vec<_> = Adjacency::in_neighbors(&tier, v).collect();
                prop_assert_eq!(got_in, g.in_neighbors(v).to_vec(), "in row {}", v);
            }
        }
        // The WCC engine reads the tier as it reads the CSR, and finds
        // weak components with or without a reverse index.
        prop_assert_eq!(
            cc::wcc_with(&tier, &KernelCtx::serial()),
            cc::wcc_union_find(&*g)
        );
        let s = tier.stats();
        prop_assert_eq!(s.lost_rows, 0);
        prop_assert_eq!(s.corrupt_segments, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn rmat_weighted(scale: u32, seed: u64) -> Arc<CsrGraph> {
    let edges = gen::rmat(scale, 10 << scale, gen::RmatParams::GRAPH500, seed);
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

/// All five paper kernels — BFS, SSSP, PageRank, connected components,
/// triangle counting — produce bit-identical results over the tier and
/// over the in-RAM CSR, with a budget small enough that most rows page
/// in from disk mid-kernel.
#[test]
fn five_kernels_bit_identical_over_tier() {
    let g = rmat_weighted(9, 42);
    let dir = tmpdir("kernels");
    let cfg = TierConfig::new(&dir)
        .segment_rows(64)
        .ram_budget(16 << 10)
        .keep_pin(false);
    let tier = TieredCsr::spill(&g, cfg).unwrap();

    let b1 = bfs::bfs(&*g, 0);
    let b2 = bfs::bfs(&tier, 0);
    assert_eq!(b1.depth, b2.depth, "bfs depths diverge");

    let s1 = sssp::dijkstra(&*g, 0);
    let s2 = sssp::dijkstra(&tier, 0);
    assert_eq!(s1.dist, s2.dist, "sssp distances diverge");

    let p1 = pagerank::pagerank(&*g, 0.85, 1e-9, 50);
    let p2 = pagerank::pagerank(&tier, 0.85, 1e-9, 50);
    assert_eq!(p1.rank, p2.rank, "pagerank diverges");

    let c1 = cc::wcc_union_find(&*g);
    let c2 = cc::wcc_union_find(&tier);
    assert_eq!(c1.label, c2.label, "components diverge");
    assert_eq!(c1, cc::wcc_with(&tier, &KernelCtx::serial()));

    let t1 = triangles::count_global(&*g);
    let t2 = triangles::count_global(&tier);
    assert_eq!(t1, t2, "triangle counts diverge");
    for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
        assert_eq!(
            triangles::count_per_vertex(&*g, &ctx),
            triangles::count_per_vertex(&tier, &ctx),
            "per-vertex triangle counts diverge"
        );
    }

    let s = tier.stats();
    assert!(s.cache_misses > 0, "budget must actually force paging");
    assert_eq!(s.lost_rows, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance bar for ROADMAP item 3: a scale-16 graph spilled
/// under a 25% RAM budget serves a full traversal with resident tier
/// memory inside the budget at every sampled point, and real eviction
/// traffic.
#[test]
fn scale_16_stays_inside_a_quarter_ram_budget() {
    let scale = 16u32;
    let edges = gen::rmat(scale, 4 << scale, gen::RmatParams::GRAPH500, 7);
    let g = Arc::new(CsrGraph::from_edges(1 << scale, &edges));
    let dir = tmpdir("scale16");
    // Budget = 25% of the decoded row working set.
    let probe = TierConfig::new(&dir).segment_rows(512).keep_pin(false);
    let tier = TieredCsr::spill(&g, probe).unwrap();
    let budget = tier.working_set_bytes() / 4;
    drop(tier);
    let cfg = TierConfig::new(&dir)
        .segment_rows(512)
        .ram_budget(budget)
        .keep_pin(false);
    let tier = TieredCsr::spill(&g, cfg).unwrap();
    assert_eq!(tier.ram_budget_bytes(), budget);

    let r = bfs::bfs(&tier, 0);
    assert!(
        tier.resident_bytes() <= budget,
        "resident {} bytes exceeds the {} byte budget after BFS",
        tier.resident_bytes(),
        budget
    );
    // Sample residency across a full sequential sweep too.
    for v in (0..g.num_vertices() as u32).step_by(257) {
        let _ = Adjacency::neighbors(&tier, v).count();
        assert!(
            tier.resident_bytes() <= budget,
            "resident bytes exceeded the budget at vertex {v}"
        );
    }
    // The traversal matched the in-RAM answer and actually paged.
    let r2 = bfs::bfs(&*g, 0);
    assert_eq!(r.depth, r2.depth);
    let s = tier.stats();
    assert!(s.evictions > 0, "a 25% budget must evict");
    assert!(s.cache_misses > s.cache_hits / 64, "misses must be real");
    assert_eq!(s.lost_rows, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// PageRank reads the adjacency once per call — to lay its in-edges out
/// in cache blocks — not once per sweep: over a tier that cannot hold
/// the reverse rows, 2 sweeps and 20 sweeps pull the same bytes off
/// disk. (A per-sweep pull re-pages every evicted segment each sweep.)
#[test]
fn pagerank_reads_a_tiered_adjacency_once_per_call() {
    let scale = 12u32;
    let g = Arc::new(
        CsrBuilder::new(1 << scale)
            .edges(gen::rmat(scale, 8 << scale, gen::RmatParams::GRAPH500, 11))
            .reverse(true)
            .build(),
    );
    let dir = tmpdir("pr-once");
    let probe = TieredCsr::spill(&g, TierConfig::new(&dir).segment_rows(128)).unwrap();
    let budget = probe.working_set_bytes() / 4;
    drop(probe);
    let read_bytes = |max_iters: usize| {
        let cfg = TierConfig::new(&dir)
            .segment_rows(128)
            .ram_budget(budget)
            .keep_pin(false);
        let tier = TieredCsr::spill(&g, cfg).unwrap();
        let r = pagerank::pagerank_with(&tier, 0.85, 0.0, max_iters, &KernelCtx::serial());
        assert_eq!(r.work, max_iters);
        let want = pagerank::pagerank_with(&*g, 0.85, 0.0, max_iters, &KernelCtx::serial());
        assert_eq!(r.rank, want.rank, "tiered ranks diverge");
        let s = tier.stats();
        assert!(s.evictions > 0, "a 25% budget must evict");
        assert_eq!(s.lost_rows, 0);
        s.read_bytes
    };
    let (two, twenty) = (read_bytes(2), read_bytes(20));
    assert!(two > 0);
    assert_eq!(two, twenty, "sweeps must not touch the adjacency");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store-level read of a segment whose file was bit-rotted on disk is
/// quarantined, never returned as data; scrub finds the same thing.
#[test]
fn rotted_segment_files_never_decode() {
    let dir = tmpdir("rot");
    let store = SegmentStore::open(&dir).unwrap();
    let payload: Vec<u8> = (0..777u32).map(|i| (i % 251) as u8).collect();
    store.write(SegmentKind::Rows, 9, &payload).unwrap();
    let path = store.segment_path(SegmentKind::Rows, 9);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    match store.read(SegmentKind::Rows, 9) {
        Err(SegmentReadError::Corrupt(_)) => {}
        other => panic!("rotted segment must be Corrupt, got {other:?}"),
    }
    // The file is now quarantined: a re-read reports Missing, and the
    // quarantine directory holds the evidence.
    match store.read(SegmentKind::Rows, 9) {
        Err(SegmentReadError::Missing) => {}
        other => panic!("quarantined segment must be Missing, got {other:?}"),
    }
    assert!(dir.join("quarantine").join("rows-000009.gas").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
