//! Incremental snapshot pipeline: row-wise CSR freeze + dirty-row
//! delta rebuilds.
//!
//! The paper's Fig. 2 flow re-freezes the persistent dynamic graph into
//! a CSR snapshot every time a streaming threshold fires a batch
//! analytic, and its 4-resource model prices exactly this copy step as
//! memory-bandwidth-bound (the "copy subgraph into faster memory" cost
//! that dominates the X-Caliber/two-level-memory configurations). This
//! module makes that copy scale with the *delta* instead of the graph:
//!
//! * [`freeze`] — freeze rows read through an accessor (a
//!   [`DynamicGraph`]'s own, or a fleet's serving rows): offsets from a
//!   counting pass over row lengths, then each row copied whole, in
//!   order (rayon over disjoint row ranges behind the [`Parallelism`]
//!   knob). Rows hold only live edges, sorted by destination, so no
//!   `(u, v, w)` tuple vector is materialized, nothing is filtered and
//!   no sort of any kind runs; the output is bit-identical to the
//!   global-sort `CsrBuilder` path.
//! * [`SnapshotCache`] — serves repeat snapshots by memcpy-ing the
//!   previous CSR's clean-row slices and rebuilding only rows whose
//!   [`DynamicGraph::version`] generation moved, with retired snapshot
//!   arrays recycled as scratch instead of re-allocated. A trigger that
//!   dirties 0.1% of rows pays for 0.1% of the row gathers.
//!
//! LDBC Graphalytics makes the same point from the benchmark side:
//! evolving-graph workloads are dominated by snapshot/rebuild overhead,
//! not the kernels themselves.

use crate::dynamic::EdgeRecord;
use crate::par::Parallelism;
use crate::{CsrGraph, DynamicGraph, VertexId, Weight};
use std::sync::Arc;

/// Row ranges below this many edges are filled sequentially inside one
/// rayon task; above it the range is split and both halves run
/// concurrently. Only a load-balance grain: the delta freeze measures
/// the same from 1 k to 256 k edges per leaf (EXPERIMENTS E20).
const PAR_LEAF_EDGES: usize = 8_192;

/// Freeze `n` rows, row `v` read through `row(v)` and sorted by `dst`
/// as [`DynamicGraph::row_slots`] is, into a weighted [`CsrGraph`]: the
/// row lengths give the offsets, then each row is copied whole (in
/// parallel when `par` judges `edges`, the edge total, large enough).
/// Bit-identical to feeding the rows' edges through `CsrBuilder`.
pub fn freeze<'g>(
    n: usize,
    edges: usize,
    row: impl Fn(VertexId) -> &'g [EdgeRecord] + Sync,
    par: Parallelism,
) -> CsrGraph {
    let gather = |u: usize, tgt: &mut [VertexId], wts: &mut [Weight]| {
        gather_row(row(u as VertexId), tgt, wts)
    };
    let parallel = par.use_parallel(edges);
    assemble(n, &row, parallel, &gather, SpareParts::default())
}

/// The one CSR build under [`freeze`] and the delta rebuild: row `v`'s
/// length `row(v).len()` gives its offsets, then `fill(u, tgt, wts)`
/// writes row `u`'s slice, into `spare`'s arrays (cleared, reused).
fn assemble<'g>(
    n: usize,
    row: &(impl Fn(VertexId) -> &'g [EdgeRecord] + Sync),
    parallel: bool,
    fill: &(impl Fn(usize, &mut [VertexId], &mut [Weight]) + Sync),
    (mut offsets, mut targets, mut weights): SpareParts,
) -> CsrGraph {
    offsets.clear();
    offsets.resize(n + 1, 0);
    let len = |u| row(u as VertexId).len() as u64;
    count_rows(&mut offsets[1..], 0, parallel, &len);
    prefix_sum(&mut offsets);
    let total = offsets[n] as usize;
    targets.clear();
    targets.resize(total, 0);
    weights.clear();
    weights.resize(total, 0.0);
    fill_rows(
        &offsets,
        0,
        n,
        0,
        &mut targets,
        &mut weights,
        parallel,
        fill,
    );
    // `CsrBuilder` only marks a graph weighted once it sees an edge;
    // match it bit-for-bit on the edgeless case.
    let weights = (total > 0).then_some(weights);
    CsrGraph::from_parts(offsets, targets, weights)
}

/// Rows per leaf task of the parallel counting pass (as flat: 256–64 k).
const COUNT_LEAF_ROWS: usize = 2_048;

/// Write `count(base + i)` into `slots[i]` (`offsets[1..]` gets each
/// row's count), splitting large ranges via `rayon::join` on disjoint
/// sub-slices.
fn count_rows(
    slots: &mut [u64],
    base: usize,
    parallel: bool,
    count: &(impl Fn(usize) -> u64 + Sync),
) {
    if !parallel || slots.len() <= COUNT_LEAF_ROWS {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = count(base + i);
        }
        return;
    }
    let mid = slots.len() / 2;
    let (a, b) = slots.split_at_mut(mid);
    rayon::join(
        || count_rows(a, base, true, count),
        || count_rows(b, base + mid, true, count),
    );
}

/// In-place exclusive prefix sum over `offsets` (counts in `1..`).
fn prefix_sum(offsets: &mut [u64]) {
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
}

/// Copy row `row` into `(tgt, wts)`. The row is sorted by destination
/// (a [`DynamicGraph`] invariant), so it is the CSR row as it stands.
fn gather_row(row: &[EdgeRecord], tgt: &mut [VertexId], wts: &mut [Weight]) {
    for ((t, w), r) in tgt.iter_mut().zip(wts.iter_mut()).zip(row) {
        *t = r.dst;
        *w = r.weight;
    }
}

/// Run `fill(u, targets_slice, weights_slice)` for every row in
/// `lo..hi`, handing each row exactly its slice of the output arrays.
/// `base` is the edge offset where `targets`/`weights` begin. Large
/// ranges split recursively via `rayon::join` on disjoint sub-slices, so
/// the parallelism is safe-Rust and allocation-free.
#[allow(clippy::too_many_arguments)]
fn fill_rows<F>(
    offsets: &[u64],
    lo: usize,
    hi: usize,
    base: u64,
    targets: &mut [VertexId],
    weights: &mut [Weight],
    parallel: bool,
    fill: &F,
) where
    F: Fn(usize, &mut [VertexId], &mut [Weight]) + Sync,
{
    let work = (offsets[hi] - offsets[lo]) as usize;
    if !parallel || hi - lo <= 1 || work <= PAR_LEAF_EDGES {
        for u in lo..hi {
            let s = (offsets[u] - base) as usize;
            let e = (offsets[u + 1] - base) as usize;
            fill(u, &mut targets[s..e], &mut weights[s..e]);
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let cut = (offsets[mid] - base) as usize;
    let (t1, t2) = targets.split_at_mut(cut);
    let (w1, w2) = weights.split_at_mut(cut);
    rayon::join(
        || fill_rows(offsets, lo, mid, base, t1, w1, true, fill),
        || fill_rows(offsets, mid, hi, offsets[mid], t2, w2, true, fill),
    );
}

/// Counters the cache keeps — drained into `FlowStats` by the flow
/// engine and priced by model calibration as the Fig. 2 copy step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshot requests served (hits + rebuilds).
    pub snapshots_served: u64,
    /// Requests answered from the cached CSR without touching a row.
    pub cache_hits: u64,
    /// Rebuilds that had no previous snapshot to reuse (cold start).
    pub full_rebuilds: u64,
    /// Rebuilds that reused at least the clean rows of the previous
    /// snapshot.
    pub delta_rebuilds: u64,
    /// Rows whose slices were memcpy'd from the previous snapshot.
    pub rows_reused: u64,
    /// Rows re-gathered from the dynamic graph.
    pub rows_rebuilt: u64,
    /// Bytes written into snapshot arrays (offsets + targets + weights)
    /// across all rebuilds — the measured memory-bandwidth price of the
    /// copy step.
    pub mem_bytes: u64,
}

impl SnapshotStats {
    /// Element-wise sum.
    pub fn merge(&self, other: &SnapshotStats) -> SnapshotStats {
        SnapshotStats {
            snapshots_served: self.snapshots_served + other.snapshots_served,
            cache_hits: self.cache_hits + other.cache_hits,
            full_rebuilds: self.full_rebuilds + other.full_rebuilds,
            delta_rebuilds: self.delta_rebuilds + other.delta_rebuilds,
            rows_reused: self.rows_reused + other.rows_reused,
            rows_rebuilt: self.rows_rebuilt + other.rows_rebuilt,
            mem_bytes: self.mem_bytes + other.mem_bytes,
        }
    }

    /// Total rebuilds of either kind.
    pub fn rebuilds(&self) -> u64 {
        self.full_rebuilds + self.delta_rebuilds
    }
}

/// A retired snapshot's arrays (offsets, targets, weights), kept to
/// recycle their allocations.
type SpareParts = (Vec<u64>, Vec<VertexId>, Vec<Weight>);

/// Identity stamp of one published snapshot generation.
///
/// `epoch` is the cache's monotonic rebuild counter: it moves exactly
/// when the cached CSR is rebuilt, and stays put across cache hits, so
/// two snapshots with equal epochs are the *same* frozen arrays (same
/// `Arc`). `graph_version` records the [`DynamicGraph::version`] the
/// snapshot reflects — the link back to the mutable store. Concurrent
/// readers use the pair to prove they never observe a torn or
/// mixed-generation view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotEpoch {
    /// Monotonic rebuild counter (1-based; 0 = never built).
    pub epoch: u64,
    /// [`DynamicGraph::version`] at freeze time.
    pub graph_version: u64,
}

/// Serves repeat [`DynamicGraph`] → [`CsrGraph`] freezes incrementally.
///
/// The cache remembers the CSR it produced last time together with the
/// graph version it observed. On the next request it memcpy's the
/// slices of every row whose generation counter did not move and
/// re-gathers only dirty rows — so a trigger-driven batch run whose
/// update batch touched 50 of a million rows re-gathers 50 rows. Retired
/// snapshot arrays are recycled as build buffers when no analytic still
/// holds the `Arc`.
///
/// ```
/// use ga_graph::snapshot::SnapshotCache;
/// use ga_graph::{DynamicGraph, Parallelism};
/// let mut g = DynamicGraph::new(3);
/// g.insert_edge(0, 1, 1.0, 1);
/// let mut cache = SnapshotCache::new();
/// let a = cache.snapshot(&g, Parallelism::Auto);
/// let b = cache.snapshot(&g, Parallelism::Auto); // unchanged -> hit
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// g.insert_edge(2, 0, 1.0, 2);
/// let c = cache.snapshot(&g, Parallelism::Auto); // row 2 rebuilt only
/// assert!(c.has_edge(2, 0));
/// assert_eq!(cache.stats().rows_reused, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SnapshotCache {
    prev: Option<CachedSnapshot>,
    spare: Option<SpareParts>,
    stats: SnapshotStats,
    /// Monotonic rebuild counter backing [`SnapshotEpoch::epoch`].
    epoch: u64,
}

#[derive(Clone, Debug)]
struct CachedSnapshot {
    csr: Arc<CsrGraph>,
    /// Graph version the snapshot reflects.
    version: u64,
    /// Vertex count at freeze time (rows at or past this are new).
    num_vertices: usize,
    /// Rebuild generation that produced this CSR.
    epoch: u64,
}

impl SnapshotCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter totals since construction (or the last
    /// [`Self::take_stats`]).
    pub fn stats(&self) -> SnapshotStats {
        self.stats
    }

    /// Drain the counters (copy then reset) — the flow engine calls
    /// this after each batch run to fold snapshot cost into `FlowStats`.
    pub fn take_stats(&mut self) -> SnapshotStats {
        std::mem::take(&mut self.stats)
    }

    /// Serve a snapshot of `g`, reusing the previous CSR's clean rows.
    /// The returned graph is bit-identical to `g.snapshot()`.
    pub fn snapshot(&mut self, g: &DynamicGraph, par: Parallelism) -> Arc<CsrGraph> {
        self.snapshot_stamped(g, par).0
    }

    /// [`Self::snapshot`] plus the [`SnapshotEpoch`] identifying the
    /// served generation: the epoch moves exactly when the CSR is
    /// rebuilt and repeats across cache hits (same `Arc`, same stamp).
    pub fn snapshot_stamped(
        &mut self,
        g: &DynamicGraph,
        par: Parallelism,
    ) -> (Arc<CsrGraph>, SnapshotEpoch) {
        self.stats.snapshots_served += 1;
        let version = g.version();
        let n = g.num_vertices();
        if let Some(prev) = &self.prev {
            if prev.version == version && prev.num_vertices == n {
                self.stats.cache_hits += 1;
                let stamp = SnapshotEpoch {
                    epoch: prev.epoch,
                    graph_version: version,
                };
                return (Arc::clone(&prev.csr), stamp);
            }
        }
        let csr = Arc::new(self.rebuild(g, par));
        self.epoch += 1;
        let retired = self.prev.replace(CachedSnapshot {
            csr: Arc::clone(&csr),
            version,
            num_vertices: n,
            epoch: self.epoch,
        });
        // Recycle the retired arrays when no analytic still holds them.
        if let Some(old) = retired {
            if let Ok(old_csr) = Arc::try_unwrap(old.csr) {
                let (o, t, w) = old_csr.into_parts();
                self.spare = Some((o, t, w.unwrap_or_default()));
            }
        }
        let stamp = SnapshotEpoch {
            epoch: self.epoch,
            graph_version: version,
        };
        (csr, stamp)
    }

    /// The cache's current rebuild generation (0 = never built).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Build the new CSR, copying clean-row slices from the previous
    /// snapshot and re-gathering dirty rows from the dynamic graph. A
    /// cold cache has nothing to copy from (and no retired arrays to
    /// recycle): that is a plain [`freeze`].
    fn rebuild(&mut self, g: &DynamicGraph, par: Parallelism) -> CsrGraph {
        let n = g.num_vertices();
        let Some(p) = self.prev.as_ref() else {
            let csr = freeze(n, g.num_live_edges(), |v| g.row_slots(v), par);
            self.stats.full_rebuilds += 1;
            self.stats.rows_rebuilt += n as u64;
            self.stats.mem_bytes += written_bytes(&csr);
            return csr;
        };
        // A row is dirty when its generation moved past the cached
        // version or it did not exist at the previous freeze.
        let dirty: Vec<bool> = (0..n)
            .map(|u| u >= p.num_vertices || g.row_changed_since(u as VertexId, p.version))
            .collect();

        let poff = p.csr.raw_offsets();
        let ptgt = p.csr.raw_targets();
        let pwts = p.csr.raw_weights().unwrap_or(&[]);
        let fill = |u: usize, tgt: &mut [VertexId], wts: &mut [Weight]| {
            if dirty[u] {
                gather_row(g.row_slots(u as VertexId), tgt, wts);
            } else {
                let (s, e) = (poff[u] as usize, poff[u + 1] as usize);
                tgt.copy_from_slice(&ptgt[s..e]);
                wts.copy_from_slice(&pwts[s..e]);
            }
        };
        // A clean row's length is its previous CSR degree, so every row
        // counts its offsets from the graph.
        let rows = |v| g.row_slots(v);
        let parallel = par.use_parallel(g.num_live_edges());
        let spare = self.spare.take().unwrap_or_default();
        let csr = assemble(n, &rows, parallel, &fill, spare);
        let rebuilt = dirty.iter().filter(|&&d| d).count() as u64;
        self.stats.delta_rebuilds += 1;
        self.stats.rows_rebuilt += rebuilt;
        self.stats.rows_reused += n as u64 - rebuilt;
        self.stats.mem_bytes += written_bytes(&csr);
        csr
    }
}

/// Bytes a rebuild wrote into `csr`'s arrays (offsets + targets +
/// weights) — the measured memory-bandwidth price of the copy step.
fn written_bytes(csr: &CsrGraph) -> u64 {
    (std::mem::size_of_val(csr.raw_offsets())
        + std::mem::size_of_val(csr.raw_targets())
        + csr.raw_weights().map_or(0, std::mem::size_of_val)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, CsrBuilder, Timestamp};

    /// The oracle: materialize every live `(u, v, w)` tuple and let
    /// `CsrBuilder` sort them globally.
    fn oracle(g: &DynamicGraph) -> CsrGraph {
        CsrBuilder::new(g.num_vertices())
            .weighted_edges(g.edges().map(|(u, v, w, _)| (u, v, w)))
            .build()
    }

    /// The one freeze over `g`'s own rows.
    fn freeze_g(g: &DynamicGraph, par: Parallelism) -> CsrGraph {
        freeze(
            g.num_vertices(),
            g.num_live_edges(),
            |v| g.row_slots(v),
            par,
        )
    }

    /// Assert two CSR graphs are bit-identical (arrays, not semantics).
    fn assert_identical(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.raw_offsets(), b.raw_offsets(), "offsets differ");
        assert_eq!(a.raw_targets(), b.raw_targets(), "targets differ");
        assert_eq!(a.raw_weights(), b.raw_weights(), "weights differ");
    }

    fn rmat_dynamic(scale: u32, edges_per_v: usize, seed: u64) -> DynamicGraph {
        let n = 1usize << scale;
        let edges = gen::rmat(scale, edges_per_v * n, gen::RmatParams::GRAPH500, seed);
        let mut g = DynamicGraph::new(n);
        for (i, &(u, v)) in edges.iter().enumerate() {
            g.insert_edge(u, v, (i % 7) as Weight + 0.5, i as Timestamp);
        }
        g
    }

    #[test]
    fn rowwise_matches_oracle_on_rmat() {
        let g = rmat_dynamic(9, 8, 3);
        assert_identical(&freeze_g(&g, Parallelism::Serial), &oracle(&g));
        assert_identical(&freeze_g(&g, Parallelism::Parallel), &oracle(&g));
    }

    #[test]
    fn rowwise_matches_oracle_after_deletes() {
        let mut g = rmat_dynamic(8, 6, 5);
        // Delete every third edge of every fourth row.
        for u in (0..g.num_vertices() as VertexId).step_by(4) {
            let nbrs: Vec<VertexId> = g.neighbor_ids(u).collect();
            for &v in nbrs.iter().step_by(3) {
                g.delete_edge(u, v, 1_000_000);
            }
        }
        assert_identical(&freeze_g(&g, Parallelism::Parallel), &oracle(&g));
    }

    #[test]
    fn empty_and_isolated() {
        let g = DynamicGraph::new(0);
        assert_identical(&freeze_g(&g, Parallelism::Serial), &oracle(&g));
        let g = DynamicGraph::new(17);
        assert_identical(&freeze_g(&g, Parallelism::Parallel), &oracle(&g));
    }

    #[test]
    fn cache_hit_returns_same_arc() {
        let g = rmat_dynamic(6, 4, 1);
        let mut c = SnapshotCache::new();
        let a = c.snapshot(&g, Parallelism::Serial);
        let b = c.snapshot(&g, Parallelism::Serial);
        assert!(Arc::ptr_eq(&a, &b));
        let s = c.stats();
        assert_eq!(s.snapshots_served, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.full_rebuilds, 1);
        assert_eq!(s.delta_rebuilds, 0);
    }

    #[test]
    fn delta_rebuild_touches_only_dirty_rows() {
        let mut g = rmat_dynamic(8, 8, 7);
        let n = g.num_vertices();
        let mut c = SnapshotCache::new();
        c.snapshot(&g, Parallelism::Serial);
        g.insert_edge(3, 9, 2.5, 999_999);
        g.delete_edge(
            5,
            *g.neighbor_ids(5).collect::<Vec<_>>().first().unwrap(),
            999_999,
        );
        let snap = c.snapshot(&g, Parallelism::Serial);
        assert_identical(&snap, &oracle(&g));
        let s = c.stats();
        assert_eq!(s.delta_rebuilds, 1);
        assert_eq!(s.rows_rebuilt as usize, n + 2); // full build + 2 dirty
        assert_eq!(s.rows_reused as usize, n - 2);
    }

    #[test]
    fn delta_handles_vertex_growth() {
        let mut g = rmat_dynamic(6, 4, 13);
        let mut c = SnapshotCache::new();
        c.snapshot(&g, Parallelism::Serial);
        // Insert an edge beyond the current vertex space.
        let far = (g.num_vertices() + 10) as VertexId;
        g.insert_edge(far, 0, 1.0, 77);
        let snap = c.snapshot(&g, Parallelism::Serial);
        assert_identical(&snap, &oracle(&g));
        assert!(snap.has_edge(far, 0));
    }

    #[test]
    fn delta_after_deletes_stays_identical() {
        let mut g = rmat_dynamic(7, 6, 17);
        let mut c = SnapshotCache::new();
        c.snapshot(&g, Parallelism::Serial);
        for u in 0..32 {
            let nbrs: Vec<VertexId> = g.neighbor_ids(u).collect();
            if let Some(&v) = nbrs.first() {
                g.delete_edge(u, v, 500_000);
            }
        }
        let snap = c.snapshot(&g, Parallelism::Parallel);
        assert_identical(&snap, &oracle(&g));
    }

    #[test]
    fn all_rows_dirty_still_identical() {
        let mut g = rmat_dynamic(7, 4, 19);
        let mut c = SnapshotCache::new();
        c.snapshot(&g, Parallelism::Serial);
        for u in 0..g.num_vertices() as VertexId {
            g.insert_edge(u, (u + 1) % g.num_vertices() as VertexId, 9.0, 600_000);
        }
        let snap = c.snapshot(&g, Parallelism::Parallel);
        assert_identical(&snap, &oracle(&g));
        assert_eq!(c.stats().rows_reused, 0);
    }

    /// Delete one live edge, so the next rebuild needs no more room than
    /// any earlier one had and a recycled buffer is never regrown.
    fn delete_some_edge(g: &mut DynamicGraph, ts: Timestamp) {
        let (u, v, ..) = g.edges().next().expect("graph has edges");
        g.delete_edge(u, v, ts);
    }

    #[test]
    fn retired_arrays_are_recycled() {
        let mut g = rmat_dynamic(6, 4, 23);
        let mut c = SnapshotCache::new();
        let mut targets = Vec::new();
        for generation in 0..4 {
            delete_some_edge(&mut g, 1_000 + generation);
            // Each `Arc` is dropped before the next rebuild retires it.
            let snap = c.snapshot(&g, Parallelism::Serial);
            assert_identical(&snap, &oracle(&g));
            targets.push((snap.raw_targets().as_ptr(), snap.num_edges()));
        }
        // Generation k is built in generation k-2's arrays (k-1 is what
        // it copies clean rows from) ...
        assert_eq!(targets[2].0, targets[0].0);
        assert_eq!(targets[3].0, targets[1].0);
        // ... which an allocator handing a freed block back could fake,
        // so check the capacity too: generation 3 has fewer edges than
        // generation 1 but sits in its allocation.
        let last = c.snapshot(&g, Parallelism::Serial);
        drop(c);
        let (_, t, _) = Arc::try_unwrap(last).expect("sole owner").into_parts();
        assert_eq!(t.len(), targets[3].1);
        assert!(t.capacity() >= targets[1].1 && targets[1].1 > t.len());
    }

    #[test]
    fn a_snapshot_still_held_when_retired_is_let_go_not_reused() {
        let mut g = rmat_dynamic(6, 4, 23);
        let mut c = SnapshotCache::new();
        let pinned = c.snapshot(&g, Parallelism::Serial);
        let before = oracle(&g);
        for generation in 0..2 {
            delete_some_edge(&mut g, 1_000 + generation);
            assert_identical(&c.snapshot(&g, Parallelism::Serial), &oracle(&g));
        }
        assert_identical(&pinned, &before);
        assert_eq!(Arc::strong_count(&pinned), 1);
    }

    #[test]
    fn epochs_move_only_on_rebuild() {
        let mut g = rmat_dynamic(6, 4, 41);
        let mut c = SnapshotCache::new();
        let (a, ea) = c.snapshot_stamped(&g, Parallelism::Serial);
        let (b, eb) = c.snapshot_stamped(&g, Parallelism::Serial);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ea, eb, "cache hit repeats the stamp");
        assert_eq!(ea.epoch, 1);
        g.insert_edge(0, 1, 1.0, 999);
        let (_, ec) = c.snapshot_stamped(&g, Parallelism::Serial);
        assert!(ec.epoch > ea.epoch);
        assert!(ec.graph_version > ea.graph_version);
        assert_eq!(c.epoch(), ec.epoch);
    }

    #[test]
    fn stats_drain() {
        let g = rmat_dynamic(5, 4, 31);
        let mut c = SnapshotCache::new();
        c.snapshot(&g, Parallelism::Serial);
        let s = c.take_stats();
        assert_eq!(s.rebuilds(), 1);
        assert!(s.mem_bytes > 0);
        assert_eq!(c.stats(), SnapshotStats::default());
        let merged = s.merge(&s);
        assert_eq!(merged.mem_bytes, 2 * s.mem_bytes);
    }
}
