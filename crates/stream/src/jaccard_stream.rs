//! Streaming Jaccard coefficients — both forms from §II of the paper.
//!
//! **Form 1 (update-driven):** "On addition of an edge, a Jaccard kernel
//! may ask what the graph modification does to the maximum Jaccard
//! coefficient the two vertices may have with any other" —
//! [`JaccardMonitor`] recomputes the endpoints' coefficients after each
//! structural update and emits a [`EventKind::PairThreshold`] event
//! when a pair crosses the configured threshold.
//!
//! **Form 2 (query-driven):** "a sequence of vertices, where for each
//! provided vertex the kernel should return what other vertices have a
//! non-zero Jaccard coefficient (perhaps greater than some threshold)" —
//! [`JaccardQueryEngine`] answers such queries against the live graph;
//! its per-query latency is experiment E7 (the paper projects "10s of
//! microseconds" on Emu-class hardware).

use crate::engine::Monitor;
use crate::events::{Event, EventKind};
use crate::update::Update;
use ga_graph::dynamic::ApplyResult;
use ga_graph::{DynamicGraph, Timestamp, VertexId};
use std::collections::{HashMap, HashSet};

/// Jaccard coefficient of two vertices on the live graph.
pub fn pair_dynamic(g: &DynamicGraph, u: VertexId, v: VertexId) -> f64 {
    let nu: HashSet<VertexId> = g.neighbor_ids(u).collect();
    let nv: HashSet<VertexId> = g.neighbor_ids(v).collect();
    if nu.is_empty() && nv.is_empty() {
        return 0.0;
    }
    let inter = nu.intersection(&nv).count();
    let union = nu.len() + nv.len() - inter;
    inter as f64 / union as f64
}

/// All vertices with Jaccard >= tau against `u` on the live graph,
/// sorted by descending coefficient (ties by id). The 2-hop candidate
/// walk makes one query O(Σ_{w∈N(u)} deg(w)).
pub fn for_vertex_dynamic(g: &DynamicGraph, u: VertexId, tau: f64) -> Vec<(VertexId, f64)> {
    let nu: Vec<VertexId> = g.neighbor_ids(u).collect();
    let deg_u = nu.len();
    let mut shared: HashMap<VertexId, usize> = HashMap::new();
    for &w in &nu {
        for x in g.neighbor_ids(w) {
            if x != u {
                *shared.entry(x).or_default() += 1;
            }
        }
    }
    let mut out: Vec<(VertexId, f64)> = shared
        .into_iter()
        .filter_map(|(v, inter)| {
            let union = deg_u + g.degree(v) - inter;
            let j = inter as f64 / union as f64;
            (j >= tau && j > 0.0).then_some((v, j))
        })
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    out
}

/// Form 1: update-driven threshold monitoring.
pub struct JaccardMonitor {
    /// Pairs report when their coefficient reaches this value.
    pub tau: f64,
    /// Endpoints with degree above this are not rescanned (hubs cannot
    /// reach a high coefficient — their union term is huge — and their
    /// 2-hop scans are quadratic; every production streaming-Jaccard
    /// system applies such a cap).
    pub degree_cap: usize,
    /// Pairs already reported (suppress duplicate events).
    reported: HashSet<(VertexId, VertexId)>,
}

impl JaccardMonitor {
    /// Monitor with threshold `tau`.
    pub fn new(tau: f64) -> Self {
        JaccardMonitor {
            tau,
            degree_cap: 128,
            reported: HashSet::new(),
        }
    }

    fn scan_endpoint(
        &mut self,
        g: &DynamicGraph,
        v: VertexId,
        time: Timestamp,
        out: &mut Vec<Event>,
    ) {
        if g.degree(v) > self.degree_cap {
            return;
        }
        for (other, j) in for_vertex_dynamic(g, v, self.tau) {
            let key = (v.min(other), v.max(other));
            if self.reported.insert(key) {
                out.push(Event {
                    time,
                    source: "jaccard_stream",
                    kind: EventKind::PairThreshold {
                        metric: "jaccard",
                        a: key.0,
                        b: key.1,
                        value: j,
                    },
                });
            }
        }
    }
}

impl Monitor for JaccardMonitor {
    fn name(&self) -> &'static str {
        "jaccard_stream"
    }

    fn on_update(
        &mut self,
        g: &DynamicGraph,
        update: &Update,
        result: ApplyResult,
        time: Timestamp,
        out: &mut Vec<Event>,
    ) {
        let (u, v) = match *update {
            Update::EdgeInsert { src, dst, .. } if result == ApplyResult::Inserted => (src, dst),
            Update::EdgeDelete { src, dst } if result == ApplyResult::Deleted => (src, dst),
            _ => return,
        };
        // The modification can only change coefficients involving the
        // endpoints' neighborhoods; rescanning both endpoints covers the
        // "max J of the two vertices" question.
        self.scan_endpoint(g, u, time, out);
        self.scan_endpoint(g, v, time, out);
    }
}

/// Form 2: the independent-query stream engine.
pub struct JaccardQueryEngine {
    /// Threshold applied to query answers.
    pub tau: f64,
    /// Queries served (instrumentation).
    pub queries: usize,
}

impl JaccardQueryEngine {
    /// Engine answering queries at threshold `tau`.
    pub fn new(tau: f64) -> Self {
        JaccardQueryEngine { tau, queries: 0 }
    }

    /// Answer one query: all vertices with J(u, ·) >= tau right now.
    pub fn query(&mut self, g: &DynamicGraph, u: VertexId) -> Vec<(VertexId, f64)> {
        self.queries += 1;
        for_vertex_dynamic(g, u, self.tau)
    }

    /// Serve a query stream, returning per-query answer sizes (the
    /// latency benchmark wraps this).
    pub fn serve(&mut self, g: &DynamicGraph, queries: &[VertexId]) -> Vec<usize> {
        queries.iter().map(|&q| self.query(g, q).len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamEngine;
    use crate::update::{into_batches, rmat_edge_stream, UpdateBatch};
    use ga_kernels::jaccard;

    fn insert(src: VertexId, dst: VertexId) -> Update {
        Update::EdgeInsert {
            src,
            dst,
            weight: 1.0,
        }
    }

    #[test]
    fn dynamic_pair_matches_batch() {
        let mut e = StreamEngine::new(1 << 6);
        for b in into_batches(rmat_edge_stream(6, 500, 0.1, 2), 100, 0) {
            e.apply_batch(&b);
        }
        let snap = e.graph().snapshot();
        for u in 0..20u32 {
            for v in 20..40u32 {
                let a = pair_dynamic(e.graph(), u, v);
                let b = jaccard::pair(&snap, u, v);
                assert!((a - b).abs() < 1e-12, "({u},{v}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn dynamic_for_vertex_matches_batch() {
        let mut e = StreamEngine::new(1 << 6);
        for b in into_batches(rmat_edge_stream(6, 400, 0.0, 5), 100, 0) {
            e.apply_batch(&b);
        }
        let snap = e.graph().snapshot();
        for u in [0u32, 3, 17, 40] {
            let a = for_vertex_dynamic(e.graph(), u, 0.2);
            let b = jaccard::for_vertex(&snap, u, 0.2);
            assert_eq!(a.len(), b.len(), "u={u}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0);
                assert!((x.1 - y.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn monitor_fires_on_threshold_crossing() {
        let mut e = StreamEngine::new(5);
        e.register(Box::new(JaccardMonitor::new(0.99)));
        // Make 0 and 1 share both neighbors 2, 3 and nothing else:
        // J(0,1) = 1.0 crosses 0.99.
        e.apply_batch(&UpdateBatch {
            time: 0,
            updates: vec![insert(0, 2), insert(0, 3), insert(1, 2), insert(1, 3)],
        });
        let hits: Vec<_> = e
            .events()
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::PairThreshold { a, b, value, .. } => Some((a, b, value)),
                _ => None,
            })
            .collect();
        assert!(hits.contains(&(0, 1, 1.0)), "events: {hits:?}");
        // No duplicate report for the same pair.
        assert_eq!(
            hits.iter().filter(|&&(a, b, _)| (a, b) == (0, 1)).count(),
            1
        );
    }

    #[test]
    fn monitor_quiet_below_threshold() {
        let mut e = StreamEngine::new(6);
        e.register(Box::new(JaccardMonitor::new(0.95)));
        // 0 and 1 end up sharing one of several neighbors: J(0,1) = 1/3
        // never crosses 0.95. (Other pairs — e.g. (2,3) while both have
        // only vertex 0 as a neighbor — legitimately cross during the
        // stream; the monitor is *supposed* to report those transients.)
        e.apply_batch(&UpdateBatch {
            time: 0,
            updates: vec![insert(0, 2), insert(0, 3), insert(1, 2), insert(1, 4)],
        });
        assert!(e
            .events()
            .iter()
            .all(|ev| !matches!(ev.kind, EventKind::PairThreshold { a: 0, b: 1, .. })));
    }

    #[test]
    fn query_engine_counts_and_answers() {
        let mut e = StreamEngine::new(1 << 6);
        for b in into_batches(rmat_edge_stream(6, 500, 0.0, 8), 100, 0) {
            e.apply_batch(&b);
        }
        let mut q = JaccardQueryEngine::new(0.1);
        let answers = q.serve(e.graph(), &[0, 1, 2, 3, 4]);
        assert_eq!(q.queries, 5);
        assert_eq!(answers.len(), 5);
        // Answers agree with the direct function.
        let direct = for_vertex_dynamic(e.graph(), 0, 0.1);
        assert_eq!(answers[0], direct.len());
    }
}
