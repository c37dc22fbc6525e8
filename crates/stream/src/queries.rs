//! The unified query surface of the concurrent read path.
//!
//! The second streaming form of §II — "for each stream input a
//! specification of some vertex to search for, and an operation to
//! perform to some property(ies) of that vertex" — generalized into one
//! coherent [`Query`]/[`QueryResponse`] API that runs against a
//! published [`EpochSnapshot`] instead of
//! the live mutable graph. Every query is a *pure function* of the
//! frozen snapshot: two executions over the same epoch return
//! bit-identical responses, no matter how many reader threads run them
//! concurrently — the property the serve layer's consistency gate and
//! `tests/serve_props.rs` pin.

use crate::epoch::EpochSnapshot;
use ga_graph::{CsrGraph, PropertyStore, VertexId};
use ga_kernels::jaccard;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One read-only query against a published snapshot generation.
///
/// Property names are owned strings (`impl Into<String>` at the
/// constructor level); vertex ids address the frozen CSR.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Read a named numeric property of a vertex.
    GetProperty {
        /// Target vertex.
        vertex: VertexId,
        /// Property column.
        name: String,
    },
    /// Out-degree of a vertex in the frozen CSR.
    Degree {
        /// Target vertex.
        vertex: VertexId,
    },
    /// Direct neighbor ids of a vertex (bounded, ascending).
    Neighbors {
        /// Target vertex.
        vertex: VertexId,
        /// Maximum neighbors to return.
        limit: usize,
    },
    /// Every vertex within `hops` BFS levels of `vertex` (excluding
    /// `vertex` itself), ascending, truncated to `limit`.
    ///
    /// Cost: levels before the last read each frontier row in full; the
    /// last level reads each row (sorted by id) only up to the
    /// `limit`-th smallest answer found so far, since no larger id can
    /// enter the answer. [`Query::FilteredTraversal`] costs the same.
    KHop {
        /// BFS origin.
        vertex: VertexId,
        /// Maximum BFS depth.
        hops: usize,
        /// Maximum vertices to return.
        limit: usize,
    },
    /// BFS from `vertex` that only visits (and traverses through)
    /// vertices whose numeric `property` is at least `min`; the origin
    /// itself must pass the filter. Ascending, truncated to `limit`.
    FilteredTraversal {
        /// BFS origin.
        vertex: VertexId,
        /// Maximum BFS depth.
        hops: usize,
        /// Property column the filter reads.
        property: String,
        /// Inclusive lower bound a vertex must meet to be visited.
        min: f64,
        /// Maximum vertices to return.
        limit: usize,
    },
    /// Weighted shortest path `src → dst` (Dijkstra over the frozen
    /// CSR; unweighted graphs cost 1.0 per hop).
    ShortestPath {
        /// Path source.
        src: VertexId,
        /// Path destination.
        dst: VertexId,
    },
    /// All vertices with Jaccard similarity ≥ `tau` against the
    /// target, sorted by descending coefficient (ties by id).
    SimilarVertices {
        /// Target vertex.
        vertex: VertexId,
        /// Similarity threshold.
        tau: f64,
    },
    /// The `k` vertices with the largest numeric value in a property
    /// column (descending; ties by id).
    TopKByProperty {
        /// Property column.
        name: String,
        /// Result count bound.
        k: usize,
    },
}

impl Query {
    /// [`Query::GetProperty`] with an `impl Into<String>` name.
    pub fn get_property(vertex: VertexId, name: impl Into<String>) -> Query {
        Query::GetProperty {
            vertex,
            name: name.into(),
        }
    }

    /// [`Query::FilteredTraversal`] with an `impl Into<String>` name.
    pub fn filtered_traversal(
        vertex: VertexId,
        hops: usize,
        property: impl Into<String>,
        min: f64,
        limit: usize,
    ) -> Query {
        Query::FilteredTraversal {
            vertex,
            hops,
            property: property.into(),
            min,
            limit,
        }
    }

    /// [`Query::TopKByProperty`] with an `impl Into<String>` name.
    pub fn top_k_by_property(name: impl Into<String>, k: usize) -> Query {
        Query::TopKByProperty {
            name: name.into(),
            k,
        }
    }

    /// Execute against one published generation. Pure: the same query
    /// over the same epoch returns a bit-identical response on any
    /// thread.
    pub fn run(&self, snap: &EpochSnapshot) -> QueryResponse {
        run_on(&snap.csr, &snap.props, self)
    }
}

/// The answer to one [`Query`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResponse {
    /// A scalar (property value or degree).
    Scalar(f64),
    /// The property (or vertex) was absent.
    Missing,
    /// A vertex list (ascending unless the query defines otherwise).
    Vertices(Vec<VertexId>),
    /// Scored vertices (similarity / top-k results).
    Scored(Vec<(VertexId, f64)>),
    /// A weighted path, source and destination inclusive.
    Path {
        /// Sum of edge weights along the path.
        cost: f64,
        /// The vertices from `src` to `dst`.
        vertices: Vec<VertexId>,
    },
    /// No path exists between the endpoints.
    NoPath,
}

/// Execute `q` against a frozen CSR + property store directly (the
/// internal form [`Query::run`] wraps; also used by the sharded router
/// which serves per-shard arrays).
pub(crate) fn run_on(csr: &CsrGraph, props: &PropertyStore, q: &Query) -> QueryResponse {
    match q {
        Query::GetProperty { vertex, name } => match props.get_f64(name, *vertex) {
            Some(x) => QueryResponse::Scalar(x),
            None => QueryResponse::Missing,
        },
        Query::Degree { vertex } => {
            if (*vertex as usize) < csr.num_vertices() {
                QueryResponse::Scalar(csr.degree(*vertex) as f64)
            } else {
                QueryResponse::Missing
            }
        }
        Query::Neighbors { vertex, limit } => {
            if (*vertex as usize) >= csr.num_vertices() {
                return QueryResponse::Missing;
            }
            QueryResponse::Vertices(
                csr.neighbors(*vertex)
                    .iter()
                    .take(*limit)
                    .copied()
                    .collect(),
            )
        }
        Query::KHop {
            vertex,
            hops,
            limit,
        } => k_hop(csr, *vertex, *hops, *limit, None),
        Query::FilteredTraversal {
            vertex,
            hops,
            property,
            min,
            limit,
        } => k_hop(csr, *vertex, *hops, *limit, Some((props, property, *min))),
        Query::ShortestPath { src, dst } => shortest_path(csr, *src, *dst),
        Query::SimilarVertices { vertex, tau } => {
            QueryResponse::Scored(similar_vertices(csr, *vertex, *tau))
        }
        Query::TopKByProperty { name, k } => QueryResponse::Scored(props.top_k_f64(name, *k)),
    }
}

/// BFS out to `hops` levels; with a filter, only vertices passing it
/// are visited or traversed (origin included in the result only when it
/// passes). The origin is excluded from plain k-hop results.
///
/// Visits are bits in an n/8-byte set and the answer is the set's bits
/// read in id order, so no visited list is collected or sorted. Levels
/// before the last read every row of their frontier in full. The last
/// level enqueues nothing, so an id above `cap` — the `limit`-th
/// smallest answer marked so far, which only falls — can never be
/// returned; CSR rows are sorted, so each last-level row is read only
/// up to `cap`, and the answer is the marked ids up to `cap`.
fn k_hop(
    csr: &CsrGraph,
    origin: VertexId,
    hops: usize,
    limit: usize,
    filter: Option<(&PropertyStore, &str, f64)>,
) -> QueryResponse {
    let n = csr.num_vertices();
    if (origin as usize) >= n {
        return QueryResponse::Missing;
    }
    if limit == 0 {
        return QueryResponse::Vertices(Vec::new());
    }
    let read = filter.map(|(props, name, min)| (props.column_f64(name), min));
    let passes = |v: VertexId| match &read {
        None => true,
        Some((read, min)) => read(v).is_some_and(|x| x >= *min),
    };
    if !passes(origin) {
        return QueryResponse::Vertices(Vec::new());
    }
    let mut seen = vec![0u64; n.div_ceil(64)];
    seen[origin as usize / 64] |= 1 << (origin % 64);
    // `own` masks the plain k-hop's origin, marked but no answer, out
    // of the answer bits; `count` and `top` are the answers marked so
    // far and the largest of them; `cap` is `MAX` until `limit` are.
    let (own, mut count, mut top) = match filter {
        None => (1 << (origin % 64), 0, 0),
        Some(_) => (0, 1, origin),
    };
    let mut cap = if count == limit { top } else { VertexId::MAX };
    let mut frontier = vec![origin];
    let mut next = Vec::new();
    for level in 1..=hops {
        let last = level == hops;
        for &u in &frontier {
            for &v in csr.neighbors(u) {
                if v > cap && last {
                    break;
                }
                if (v as usize) >= n {
                    continue;
                }
                let (w, bit) = (v as usize / 64, 1u64 << (v % 64));
                if seen[w] & bit == 0 && passes(v) {
                    seen[w] |= bit;
                    count += 1;
                    top = top.max(v);
                    if count == limit {
                        cap = top;
                    } else if count > limit && v < cap {
                        cap = answer_below(&seen, cap, origin, own);
                    }
                    if !last {
                        next.push(v);
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
        if frontier.is_empty() {
            break;
        }
    }
    seen[origin as usize / 64] &= !own;
    let out = seen[..=cap.min(top) as usize / 64]
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let b = (bits != 0).then(|| bits.trailing_zeros())?;
                bits &= bits - 1;
                Some((w * 64) as VertexId + b)
            })
        })
        .take_while(|&v| v <= cap)
        .collect();
    QueryResponse::Vertices(out)
}

/// The largest answer bit of `seen` below `cap`, found a word at a
/// time: `own` is the origin's bit when the origin is no answer. The
/// caller has just marked an answer below `cap`, so one exists.
fn answer_below(seen: &[u64], cap: VertexId, origin: VertexId, own: u64) -> VertexId {
    let mut w = cap as usize / 64;
    let mut word = seen[w] & ((1 << (cap % 64)) - 1);
    loop {
        if w == origin as usize / 64 {
            word &= !own;
        }
        if word != 0 {
            return (w * 64) as VertexId + 63 - word.leading_zeros();
        }
        w -= 1;
        word = seen[w];
    }
}

/// Dijkstra over the frozen CSR (weights ≥ 0 assumed; unweighted
/// graphs cost 1.0 per hop). Deterministic: the heap orders by
/// `(cost, vertex)` via `total_cmp`, and a predecessor only changes on
/// a strict improvement.
fn shortest_path(csr: &CsrGraph, src: VertexId, dst: VertexId) -> QueryResponse {
    let n = csr.num_vertices();
    if (src as usize) >= n || (dst as usize) >= n {
        return QueryResponse::Missing;
    }
    if src == dst {
        return QueryResponse::Path {
            cost: 0.0,
            vertices: vec![src],
        };
    }
    let offsets = csr.raw_offsets();
    let weights = csr.raw_weights();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred = vec![VertexId::MAX; n];
    dist[src as usize] = 0.0;
    // Reverse((cost-bits, vertex)): f64 bit patterns of non-negative
    // finite costs order like the costs themselves.
    let mut heap: BinaryHeap<Reverse<(u64, VertexId)>> = BinaryHeap::new();
    heap.push(Reverse((0.0f64.to_bits(), src)));
    while let Some(Reverse((dbits, u))) = heap.pop() {
        let d = f64::from_bits(dbits);
        if d > dist[u as usize] {
            continue;
        }
        if u == dst {
            break;
        }
        let row = offsets[u as usize] as usize..offsets[u as usize + 1] as usize;
        for (e, &v) in csr.neighbors(u).iter().enumerate() {
            let w = weights.map_or(1.0, |w| w[row.start + e] as f64);
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                pred[v as usize] = u;
                heap.push(Reverse((nd.to_bits(), v)));
            }
        }
    }
    if dist[dst as usize].is_infinite() {
        return QueryResponse::NoPath;
    }
    let mut vertices = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = pred[cur as usize];
        vertices.push(cur);
    }
    vertices.reverse();
    QueryResponse::Path {
        cost: dist[dst as usize],
        vertices,
    }
}

/// [`jaccard::for_vertex`] on the frozen CSR: all vertices with
/// J(u, v) ≥ tau, descending coefficient, ties by id; a vertex outside
/// the graph has none. One query costs O(Σ_{w∈N(u)} deg(w)) — the
/// "10s of microseconds" E5/E7 workload.
fn similar_vertices(csr: &CsrGraph, u: VertexId, tau: f64) -> Vec<(VertexId, f64)> {
    if (u as usize) >= csr.num_vertices() {
        return Vec::new();
    }
    jaccard::for_vertex(csr, u, tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::{gen, DynamicGraph, Parallelism, SnapshotCache};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The legacy fixture: 6 vertices, 0-1, 0-2, 3 shares both with 0,
    /// plus the "risk" column.
    fn fixture() -> EpochSnapshot {
        let mut p = PropertyStore::new(6);
        p.set_column_f64("risk", &[0.1, 0.2, 0.3, 0.95, 0.0, 0.0]);
        undirected_epoch(6, [(0, 1), (0, 2), (3, 1), (3, 2)], p)
    }

    /// One epoch of the undirected graph on `n` vertices with `edges`.
    fn undirected_epoch(
        n: usize,
        edges: impl IntoIterator<Item = (VertexId, VertexId)>,
        p: PropertyStore,
    ) -> EpochSnapshot {
        let mut g = DynamicGraph::new(n);
        for (u, v) in edges {
            g.insert_edge(u, v, 1.0, 1);
            g.insert_edge(v, u, 1.0, 1);
        }
        let mut cache = SnapshotCache::new();
        let (csr, stamp) = cache.snapshot_stamped(&g, Parallelism::Serial);
        EpochSnapshot {
            stamp,
            props_version: p.version(),
            time: 1,
            csr,
            compressed: None,
            props: Arc::new(p),
        }
    }

    #[test]
    fn scalar_queries() {
        let snap = fixture();
        assert_eq!(
            Query::Degree { vertex: 0 }.run(&snap),
            QueryResponse::Scalar(2.0)
        );
        assert_eq!(
            Query::get_property(3, "risk").run(&snap),
            QueryResponse::Scalar(0.95)
        );
        assert_eq!(
            Query::get_property(5, "absent").run(&snap),
            QueryResponse::Missing
        );
        assert_eq!(
            Query::Degree { vertex: 99 }.run(&snap),
            QueryResponse::Missing
        );
    }

    #[test]
    fn neighbor_and_similarity_queries() {
        let snap = fixture();
        assert_eq!(
            Query::Neighbors {
                vertex: 0,
                limit: 10
            }
            .run(&snap),
            QueryResponse::Vertices(vec![1, 2])
        );
        // Vertex 3 has identical neighborhood {1,2}: J = 1.0.
        assert_eq!(
            Query::SimilarVertices {
                vertex: 0,
                tau: 0.9
            }
            .run(&snap),
            QueryResponse::Scored(vec![(3, 1.0)])
        );
        // On an R-MAT graph it is `jaccard::for_vertex` bit for bit, and
        // the vertex one past the last answers empty.
        let n = 1 << 7;
        let edges = gen::rmat(7, 1 << 10, gen::RmatParams::GRAPH500, 4);
        let loops_dropped = edges.into_iter().filter(|(u, v)| u != v);
        let snap = undirected_epoch(n, loops_dropped, PropertyStore::new(n));
        let bits = |r: &[(VertexId, f64)]| -> Vec<(VertexId, u64)> {
            r.iter().map(|&(v, j)| (v, j.to_bits())).collect()
        };
        for vertex in 0..=n as VertexId {
            for tau in [0.05, 0.3] {
                let QueryResponse::Scored(got) =
                    (Query::SimilarVertices { vertex, tau }).run(&snap)
                else {
                    panic!("SimilarVertices must answer Scored");
                };
                let want = if (vertex as usize) < n {
                    jaccard::for_vertex(&snap.csr, vertex, tau)
                } else {
                    Vec::new()
                };
                assert_eq!(bits(&got), bits(&want), "vertex {vertex}, tau {tau}");
            }
        }
    }

    #[test]
    fn neighbor_limit_respected() {
        let snap = fixture();
        match (Query::Neighbors {
            vertex: 0,
            limit: 1,
        })
        .run(&snap)
        {
            QueryResponse::Vertices(v) => assert_eq!(v.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn k_hop_and_filtered_traversal() {
        let snap = fixture();
        // 1 hop from 0: {1, 2}; 2 hops adds 3 (through 1 or 2).
        assert_eq!(
            Query::KHop {
                vertex: 0,
                hops: 1,
                limit: 10
            }
            .run(&snap),
            QueryResponse::Vertices(vec![1, 2])
        );
        assert_eq!(
            Query::KHop {
                vertex: 0,
                hops: 2,
                limit: 10
            }
            .run(&snap),
            QueryResponse::Vertices(vec![1, 2, 3])
        );
        // The limit truncates the ascending list.
        assert_eq!(
            Query::KHop {
                vertex: 0,
                hops: 2,
                limit: 2
            }
            .run(&snap),
            QueryResponse::Vertices(vec![1, 2])
        );
        // Filtered: risk >= 0.2 keeps {1 (0.2), 2 (0.3), 3 (0.95)} but
        // origin 0 (0.1) fails → empty.
        assert_eq!(
            Query::filtered_traversal(0, 2, "risk", 0.2, 10).run(&snap),
            QueryResponse::Vertices(vec![])
        );
        // From 3 (passes): reaches 1, 2 (both pass); 0 fails the filter.
        assert_eq!(
            Query::filtered_traversal(3, 2, "risk", 0.2, 10).run(&snap),
            QueryResponse::Vertices(vec![1, 2, 3])
        );
    }

    #[test]
    fn shortest_path_and_top_k() {
        let snap = fixture();
        // 0 → 3 via either middle vertex: 2 hops of weight 1.0.
        match (Query::ShortestPath { src: 0, dst: 3 }).run(&snap) {
            QueryResponse::Path { cost, vertices } => {
                assert_eq!(cost, 2.0);
                assert_eq!(vertices.len(), 3);
                assert_eq!(vertices[0], 0);
                assert_eq!(vertices[2], 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            Query::ShortestPath { src: 0, dst: 5 }.run(&snap),
            QueryResponse::NoPath
        );
        assert_eq!(
            Query::ShortestPath { src: 4, dst: 4 }.run(&snap),
            QueryResponse::Path {
                cost: 0.0,
                vertices: vec![4]
            }
        );
        assert_eq!(
            Query::top_k_by_property("risk", 2).run(&snap),
            QueryResponse::Scored(vec![(3, 0.95), (2, 0.3)])
        );
    }

    #[test]
    fn responses_are_pure_functions_of_the_epoch() {
        let snap = fixture();
        let queries = [
            Query::Degree { vertex: 0 },
            Query::get_property(3, "risk"),
            Query::KHop {
                vertex: 0,
                hops: 2,
                limit: 10,
            },
            Query::ShortestPath { src: 0, dst: 3 },
            Query::SimilarVertices {
                vertex: 0,
                tau: 0.5,
            },
            Query::top_k_by_property("risk", 3),
        ];
        for q in &queries {
            assert_eq!(q.run(&snap), q.run(&snap), "{q:?} not deterministic");
        }
    }

    #[test]
    fn owned_property_names_and_point_queries() {
        let snap = fixture();
        let q = Query::get_property(3, "risk".to_string());
        assert_eq!(q.run(&snap), QueryResponse::Scalar(0.95));
        let q = Query::Degree { vertex: 0 };
        assert_eq!(q.run(&snap), QueryResponse::Scalar(2.0));
        let q = Query::SimilarVertices {
            vertex: 0,
            tau: 0.9,
        };
        assert_eq!(q.run(&snap), QueryResponse::Scored(vec![(3, 1.0)]));
    }

    #[test]
    fn dijkstra_uses_weights() {
        // 0 →(5.0) 1; 0 →(1.0) 2 →(1.0) 1: the 2-hop route wins.
        let mut g = DynamicGraph::new(3);
        g.insert_edge(0, 1, 5.0, 1);
        g.insert_edge(0, 2, 1.0, 1);
        g.insert_edge(2, 1, 1.0, 1);
        let mut cache = SnapshotCache::new();
        let (csr, stamp) = cache.snapshot_stamped(&g, Parallelism::Serial);
        let snap = EpochSnapshot {
            stamp,
            props_version: 0,
            time: 1,
            csr,
            compressed: None,
            props: Arc::new(PropertyStore::new(3)),
        };
        assert_eq!(
            Query::ShortestPath { src: 0, dst: 1 }.run(&snap),
            QueryResponse::Path {
                cost: 2.0,
                vertices: vec![0, 2, 1]
            }
        );
    }

    /// The k-hop the bitset walk replaced: a `VecDeque` BFS over a
    /// `Vec<bool>`, every visit collected, sorted and cut to `limit`.
    fn k_hop_oracle(
        csr: &CsrGraph,
        origin: VertexId,
        hops: usize,
        limit: usize,
        filter: Option<(&PropertyStore, &str, f64)>,
    ) -> QueryResponse {
        use std::collections::VecDeque;
        let n = csr.num_vertices();
        if (origin as usize) >= n {
            return QueryResponse::Missing;
        }
        let passes = |v: VertexId| match filter {
            None => true,
            Some((props, name, min)) => props.get_f64(name, v).is_some_and(|x| x >= min),
        };
        if filter.is_some() && !passes(origin) {
            return QueryResponse::Vertices(Vec::new());
        }
        let mut seen = vec![false; n];
        seen[origin as usize] = true;
        let mut frontier = VecDeque::from([origin]);
        let mut out: Vec<VertexId> = Vec::new();
        for _ in 0..hops {
            if frontier.is_empty() {
                break;
            }
            for _ in 0..frontier.len() {
                let u = frontier.pop_front().unwrap();
                for &v in csr.neighbors(u) {
                    let i = v as usize;
                    if i < n && !seen[i] && passes(v) {
                        seen[i] = true;
                        out.push(v);
                        frontier.push_back(v);
                    }
                }
            }
        }
        if filter.is_some() {
            out.push(origin);
        }
        out.sort_unstable();
        out.truncate(limit);
        QueryResponse::Vertices(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn k_hop_and_filtered_traversal_match_the_sorting_bfs(
            (n, edges, marks) in (1usize..150).prop_flat_map(|n| {
                let v = 0..n as VertexId;
                (
                    Just(n),
                    prop::collection::vec((v.clone(), v), 0..4 * n),
                    prop::collection::vec(0u32..12, n..n + 1),
                )
            })
        ) {
            // A directed graph; "w" is absent on a quarter of the
            // vertices, "deg" is a u64 column, "tag" a string column.
            let mut g = DynamicGraph::new(n);
            for &(u, v) in &edges {
                g.insert_edge(u, v, 1.0, 1);
            }
            let mut p = PropertyStore::new(n);
            for (v, &m) in marks.iter().enumerate() {
                if m < 9 {
                    p.set("w", v as VertexId, m as f64 / 8.0);
                }
                p.set("deg", v as VertexId, m as u64);
            }
            p.set("tag", 0, "x");
            let csr = g.snapshot();
            for origin in [0, n as VertexId / 2, n as VertexId - 1, n as VertexId] {
                for hops in 0..4 {
                    let ball = match k_hop_oracle(&csr, origin, hops, usize::MAX, None) {
                        QueryResponse::Vertices(all) => all.len(),
                        _ => 0,
                    };
                    for limit in [0, 1, ball / 2, ball, ball + 1, 64] {
                        let q = Query::KHop { vertex: origin, hops, limit };
                        prop_assert_eq!(
                            run_on(&csr, &p, &q),
                            k_hop_oracle(&csr, origin, hops, limit, None),
                            "{:?}", q
                        );
                        for (name, min) in [("w", 0.0), ("w", 0.5), ("deg", 4.0), ("tag", 0.0), ("none", 0.0)] {
                            let q = Query::filtered_traversal(origin, hops, name, min, limit);
                            prop_assert_eq!(
                                run_on(&csr, &p, &q),
                                k_hop_oracle(&csr, origin, hops, limit, Some((&p, name, min))),
                                "{:?}", q
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hub-dominated graphs, where the last level's cap engages on
        /// most queries: up to three hubs whose rows cover most
        /// vertices, and origins — the lowest ids among them — whose
        /// rows point into every hub. The filters reject scattered ids
        /// ("w") or every id below a cut ("id"), so ids below the cap
        /// are skipped too.
        #[test]
        fn k_hop_through_hubs_matches_the_sorting_bfs(
            (n, (hubs, cut), cover, edges, marks) in (70usize..260).prop_flat_map(|n| {
                let v = 0..n as VertexId;
                (
                    Just(n),
                    (prop::collection::vec(v.clone(), 1..4), v.clone()),
                    prop::collection::vec(0u32..100, 3 * n..3 * n + 1),
                    prop::collection::vec((v.clone(), v), 0..n),
                    prop::collection::vec(0u32..12, n..n + 1),
                )
            })
        ) {
            let origins = [0, 1, 2, hubs[0], n as VertexId / 2, n as VertexId - 1];
            let mut g = DynamicGraph::new(n);
            for (i, &h) in hubs.iter().enumerate() {
                for v in (0..n).filter(|&v| cover[i * n + v] < 85) {
                    g.insert_edge(h, v as VertexId, 1.0, 1);
                }
                for &o in &origins {
                    g.insert_edge(o, h, 1.0, 1);
                }
            }
            for &(u, v) in &edges {
                g.insert_edge(u, v, 1.0, 1);
            }
            let mut p = PropertyStore::new(n);
            for (v, &m) in marks.iter().enumerate() {
                p.set("w", v as VertexId, m as f64 / 8.0);
                p.set("id", v as VertexId, v as f64);
            }
            let csr = g.snapshot();
            let filters = [None, Some(("w", 0.5)), Some(("id", cut as f64))];
            for origin in origins {
                for hops in 1..4 {
                    for filter in filters {
                        let filter = filter.map(|(name, min)| (&p, name, min));
                        let ball = match k_hop_oracle(&csr, origin, hops, usize::MAX, filter) {
                            QueryResponse::Vertices(all) => all.len(),
                            _ => 0,
                        };
                        for limit in [0, 1, 63, 64, 65, ball.saturating_sub(1), ball] {
                            let q = match filter {
                                None => Query::KHop { vertex: origin, hops, limit },
                                Some((_, name, min)) => {
                                    Query::filtered_traversal(origin, hops, name, min, limit)
                                }
                            };
                            prop_assert_eq!(
                                run_on(&csr, &p, &q),
                                k_hop_oracle(&csr, origin, hops, limit, filter),
                                "{:?}", q
                            );
                        }
                    }
                }
            }
        }
    }
}
