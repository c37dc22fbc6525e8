//! Property-based equivalence suite for the incremental snapshot
//! pipeline: across random insert/delete sequences, the row-wise
//! freeze and the cached delta rebuild must be **bit-identical**
//! (`raw_offsets` / `raw_targets` / `raw_weights`) to the legacy
//! tuple-materializing `CsrBuilder` snapshot — including delete-heavy
//! histories, all-rows-dirty batches, and vertex growth mid-stream —
//! and, after every batch of a random stream, to a cold `freeze` of the
//! same rows with the counters the cache reports.
//! Every op of a history is also checked against a `BTreeMap` model of
//! the live edges: every row, slot for slot, the binary-searched
//! lookups, and the sorted-row invariant the freeze relies on.

use graph_analytics::graph::snapshot::freeze;
use graph_analytics::graph::{CsrBuilder, CsrGraph, DynamicGraph, Parallelism, SnapshotCache};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of a random mutation history.
#[derive(Clone, Debug)]
enum Op {
    Insert(u32, u32, u32),
    Delete(u32, u32),
    AddVertices(usize),
    DeleteVertex(u32),
}

/// Strategy: a graph size and a mutation sequence. Ids range slightly
/// past `n` so vertex-growth paths get exercised; weights are small ints
/// so float equality is exact. Roughly 60% inserts, 32% deletes and
/// 8% split between vertex additions and vertex deletions.
fn history() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (2usize..24).prop_flat_map(|n| {
        let hi = n as u32 + 4;
        let op = (0u32..40, 0..hi, 0..hi, 0u32..16).prop_map(|(kind, u, v, w)| match kind {
            0..=23 => Op::Insert(u, v, w),
            24..=36 => Op::Delete(u, v),
            37 => Op::AddVertices(1 + v as usize % 3),
            _ => Op::DeleteVertex(u),
        });
        (Just(n), prop::collection::vec(op, 0..120))
    })
}

fn apply(g: &mut DynamicGraph, ops: &[Op], t0: u64) {
    for (i, op) in ops.iter().enumerate() {
        apply_one(g, op, t0 + i as u64);
    }
}

fn apply_one(g: &mut DynamicGraph, op: &Op, ts: u64) {
    match *op {
        Op::Insert(u, v, w) => {
            g.insert_edge(u, v, w as f32 + 0.5, ts);
        }
        Op::Delete(u, v) => {
            g.delete_edge(u, v, ts);
        }
        Op::AddVertices(k) => {
            g.add_vertices(k);
        }
        Op::DeleteVertex(v) => {
            g.delete_vertex(v, ts);
        }
    }
}

/// Live edges `(u, v) -> (weight, timestamp)`, kept the obvious way.
type Model = BTreeMap<(u32, u32), (f32, u64)>;

fn apply_model(m: &mut Model, op: &Op, ts: u64) {
    match *op {
        Op::Insert(u, v, w) => {
            m.insert((u, v), (w as f32 + 0.5, ts));
        }
        Op::Delete(u, v) => {
            m.remove(&(u, v));
        }
        Op::DeleteVertex(x) => m.retain(|&(u, v), _| u != x && v != x),
        Op::AddVertices(_) => {}
    }
}

/// Every row strictly sorted by `dst`, its slots exactly the model's,
/// and every lookup agreeing with the model.
fn assert_matches_model(g: &DynamicGraph, m: &Model) {
    let n = g.num_vertices() as u32;
    let mut slots_total = 0;
    for u in 0..n + 2 {
        let slots = g.row_slots(u);
        assert!(
            slots.windows(2).all(|p| p[0].dst < p[1].dst),
            "row {} unsorted",
            u
        );
        slots_total += slots.len();
        let row: Vec<(u32, f32, u64)> = slots
            .iter()
            .map(|r| (r.dst, r.weight, r.timestamp))
            .collect();
        let want: Vec<(u32, f32, u64)> = m
            .range((u, 0)..=(u, u32::MAX))
            .map(|(&(_, v), &(w, ts))| (v, w, ts))
            .collect();
        assert_eq!(&row, &want, "row {}", u);
        assert_eq!(g.degree(u), want.len());
        let ids: Vec<u32> = g.neighbor_ids(u).collect();
        assert_eq!(ids, want.iter().map(|e| e.0).collect::<Vec<_>>());
        for v in 0..n + 2 {
            let rec = g.edge(u, v).map(|r| (r.weight, r.timestamp));
            assert_eq!(rec, m.get(&(u, v)).copied(), "edge({}, {})", u, v);
            assert_eq!(g.has_edge(u, v), rec.is_some());
        }
    }
    assert_eq!(g.num_live_edges(), m.len());
    assert_eq!(slots_total, g.num_live_edges(), "rows hold live slots only");
}

/// The oracle: materialize every live `(u, v, w)` tuple and let
/// `CsrBuilder` sort them globally.
fn oracle(g: &DynamicGraph) -> CsrGraph {
    CsrBuilder::new(g.num_vertices())
        .weighted_edges(g.edges().map(|(u, v, w, _)| (u, v, w)))
        .build()
}

/// The same three arrays, weights compared by their bits.
fn assert_identical(a: &CsrGraph, b: &CsrGraph) {
    assert_eq!(a.raw_offsets(), b.raw_offsets(), "offsets differ");
    assert_eq!(a.raw_targets(), b.raw_targets(), "targets differ");
    let bits = |c: &CsrGraph| {
        c.raw_weights()
            .map(|w| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
    };
    assert_eq!(bits(a), bits(b), "weights differ");
}

/// Bytes of a CSR's three arrays, as `SnapshotStats::mem_bytes` counts.
fn csr_bytes(c: &CsrGraph) -> u64 {
    (std::mem::size_of_val(c.raw_offsets())
        + std::mem::size_of_val(c.raw_targets())
        + c.raw_weights().map_or(0, std::mem::size_of_val)) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every op, rows and lookups agree with the model.
    #[test]
    fn rows_stay_sorted_and_match_the_model((n, ops) in history()) {
        let mut g = DynamicGraph::new(n);
        let mut model = Model::new();
        for (i, op) in ops.iter().enumerate() {
            apply_one(&mut g, op, i as u64);
            apply_model(&mut model, op, i as u64);
            assert_matches_model(&g, &model);
        }
    }

    /// Row-wise freeze (serial and parallel) == legacy builder output.
    #[test]
    fn rowwise_freeze_matches_legacy((n, ops) in history()) {
        let mut g = DynamicGraph::new(n);
        apply(&mut g, &ops, 0);
        let legacy = oracle(&g);
        let rows = |v| g.row_slots(v);
        let (n, m) = (g.num_vertices(), g.num_live_edges());
        assert_identical(&freeze(n, m, rows, Parallelism::Serial), &legacy);
        assert_identical(&freeze(n, m, rows, Parallelism::Parallel), &legacy);
        // The default entry point routes through the same path.
        assert_identical(&g.snapshot(), &legacy);
    }

    /// Delta rebuilds stay bit-identical across an arbitrary split of
    /// the history into "before first snapshot" and "after" — whatever
    /// mix of clean and dirty rows that split produces.
    #[test]
    fn delta_rebuild_matches_legacy(((n, ops), split) in (history(), 0usize..120)) {
        let split = split.min(ops.len());
        let (before, after) = ops.split_at(split);
        let mut g = DynamicGraph::new(n);
        apply(&mut g, before, 0);
        let mut cache = SnapshotCache::new();
        let first = cache.snapshot(&g, Parallelism::Serial);
        assert_identical(&first, &oracle(&g));
        apply(&mut g, after, split as u64);
        let second = cache.snapshot(&g, Parallelism::Serial);
        assert_identical(&second, &oracle(&g));
        // And a third snapshot with no intervening change is the same Arc.
        let third = cache.snapshot(&g, Parallelism::Serial);
        prop_assert!(std::sync::Arc::ptr_eq(&second, &third));
    }

    /// Chained delta rebuilds: snapshot after every few ops, each one
    /// reusing the last — errors would compound if any rebuild drifted.
    #[test]
    fn chained_deltas_never_drift((n, ops) in history()) {
        let mut g = DynamicGraph::new(n);
        let mut cache = SnapshotCache::new();
        for (i, chunk) in ops.chunks(7).enumerate() {
            apply(&mut g, chunk, (i * 7) as u64);
            let snap = cache.snapshot(&g, Parallelism::Serial);
            assert_identical(&snap, &oracle(&g));
        }
        let s = cache.stats();
        prop_assert_eq!(
            s.snapshots_served,
            s.cache_hits + s.full_rebuilds + s.delta_rebuilds
        );
    }

    /// Delete-heavy histories: after a first snapshot, every live edge
    /// is deleted (every row empties), and the delta rebuild must still
    /// match.
    #[test]
    fn tombstone_heavy_matches_legacy((n, ops) in history()) {
        let mut g = DynamicGraph::new(n);
        let mut cache = SnapshotCache::new();
        apply(&mut g, &ops, 0);
        cache.snapshot(&g, Parallelism::Serial);
        let live: Vec<(u32, u32)> = g.edges().map(|(u, v, _, _)| (u, v)).collect();
        for (i, &(u, v)) in live.iter().enumerate() {
            g.delete_edge(u, v, 1_000 + i as u64);
        }
        prop_assert_eq!(g.edges().count(), 0);
        let snap = cache.snapshot(&g, Parallelism::Serial);
        assert_identical(&snap, &oracle(&g));
        prop_assert_eq!(snap.num_edges(), 0);
    }

    /// All rows dirty between snapshots (a ring pass touches every
    /// row): the delta path must still be exact.
    #[test]
    fn all_rows_dirty_matches_legacy((n, ops) in history()) {
        let mut g = DynamicGraph::new(n);
        apply(&mut g, &ops, 0);
        let mut cache = SnapshotCache::new();
        cache.snapshot(&g, Parallelism::Serial);
        let rows = g.num_vertices() as u32;
        for u in 0..rows {
            g.insert_edge(u, (u + 1) % rows, 2.5, 5_000 + u as u64);
        }
        let snap = cache.snapshot(&g, Parallelism::Parallel);
        assert_identical(&snap, &oracle(&g));
    }

    /// A random update stream cut into random batches: after every
    /// batch the delta freeze equals a cold `freeze` of the same rows,
    /// weight bits included, and its counters name exactly the rows
    /// that changed or appeared since the last freeze.
    #[test]
    fn delta_freeze_is_a_cold_freeze_after_every_batch(
        ((n, ops), cuts) in (history(), prop::collection::vec(1usize..16, 1..40))
    ) {
        let mut g = DynamicGraph::new(n);
        let mut cache = SnapshotCache::new();
        let mut prev = cache.snapshot(&g, Parallelism::Serial);
        let mut rest = &ops[..];
        for (i, &cut) in cuts.iter().enumerate() {
            let (batch, tail) = rest.split_at(cut.min(rest.len()));
            rest = tail;
            let (v0, n0) = (g.version(), g.num_vertices());
            apply(&mut g, batch, (i * 16) as u64);
            let before = cache.stats();
            let snap = cache.snapshot(&g, Parallelism::Auto);
            let (m, edges) = (g.num_vertices(), g.num_live_edges());
            let cold = freeze(m, edges, |v| g.row_slots(v), Parallelism::Serial);
            assert_identical(&snap, &cold);
            let after = cache.stats();
            if g.version() == v0 && m == n0 {
                prop_assert!(std::sync::Arc::ptr_eq(&snap, &prev));
                prop_assert_eq!(after.cache_hits, before.cache_hits + 1);
                continue;
            }
            let dirty = (0..m)
                .filter(|&u| u >= n0 || g.row_changed_since(u as u32, v0))
                .count() as u64;
            prop_assert_eq!(after.delta_rebuilds, before.delta_rebuilds + 1);
            prop_assert_eq!(after.rows_rebuilt, before.rows_rebuilt + dirty);
            prop_assert_eq!(after.rows_reused, before.rows_reused + m as u64 - dirty);
            prop_assert_eq!(after.mem_bytes, before.mem_bytes + csr_bytes(&cold));
            prev = snap;
        }
    }
}
