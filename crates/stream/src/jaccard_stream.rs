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
//! [`ga_kernels::jaccard::two_hop`] over [`DynamicGraph::neighbor_ids`]
//! answers one such query against the live graph, the same count
//! `jaccard::for_vertex` runs on a snapshot; its per-query latency is
//! experiment E7 (the paper projects "10s of microseconds" on Emu-class
//! hardware).

use crate::engine::Monitor;
use crate::events::{Event, EventKind};
use crate::update::Update;
use ga_graph::dynamic::ApplyResult;
use ga_graph::{DynamicGraph, Timestamp, VertexId};
use ga_kernels::jaccard;
use std::collections::HashSet;

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
        for (other, _, j) in jaccard::two_hop(v, |x| g.neighbor_ids(x), |_, j| j >= self.tau) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamEngine;
    use crate::update::{into_batches, rmat_edge_stream, UpdateBatch};
    use ga_kernels::KernelCtx;
    use std::collections::HashMap;

    fn insert(src: VertexId, dst: VertexId) -> Update {
        Update::EdgeInsert {
            src,
            dst,
            weight: 1.0,
        }
    }

    /// Runs the monitor and, after every update it observes, checks it
    /// against `all_pairs_above_with` on that update's post-state.
    struct CheckedAgainstBatch {
        monitor: JaccardMonitor,
        /// Every pair the monitor has emitted so far.
        emitted: HashSet<(VertexId, VertexId)>,
    }

    impl Monitor for CheckedAgainstBatch {
        fn name(&self) -> &'static str {
            self.monitor.name()
        }

        fn on_update(
            &mut self,
            g: &DynamicGraph,
            update: &Update,
            result: ApplyResult,
            time: Timestamp,
            out: &mut Vec<Event>,
        ) {
            let first = out.len();
            self.monitor.on_update(g, update, result, time, out);
            let tau = self.monitor.tau;
            let batch: HashMap<(VertexId, VertexId), f64> =
                jaccard::all_pairs_above_with(&g.snapshot(), tau, &KernelCtx::serial())
                    .into_iter()
                    .map(|(a, b, j)| ((a, b), j))
                    .collect();
            // Every emitted pair is above tau now, with the batch bits.
            for ev in &out[first..] {
                let EventKind::PairThreshold { a, b, value, .. } = ev.kind else {
                    panic!("unexpected event {ev:?}");
                };
                assert_eq!(
                    batch.get(&(a, b)).map(|j| j.to_bits()),
                    Some(value.to_bits()),
                    "emitted ({a},{b}) = {value} after {update:?}"
                );
                self.emitted.insert((a, b));
            }
            // Every pair above tau at an endpoint the update touched and
            // the cap admits has been emitted, now or earlier.
            let touched = match *update {
                Update::EdgeInsert { src, dst, .. } if result == ApplyResult::Inserted => {
                    [src, dst]
                }
                Update::EdgeDelete { src, dst } if result == ApplyResult::Deleted => [src, dst],
                _ => return,
            };
            let cap = self.monitor.degree_cap;
            for (&(a, b), j) in &batch {
                let scanned = touched
                    .iter()
                    .any(|&x| (x == a || x == b) && g.degree(x) <= cap);
                assert!(
                    !scanned || self.emitted.contains(&(a, b)),
                    "({a},{b}) has J = {j} >= {tau} after {update:?} but was never emitted"
                );
            }
        }
    }

    #[test]
    fn monitor_agrees_with_all_pairs_after_every_update() {
        // The default cap (no vertex of a scale-6 graph reaches it) and
        // a cap that skips the R-MAT hubs.
        for (tau, cap, seed) in [(0.5, 128, 2), (0.3, 6, 7)] {
            let mut monitor = JaccardMonitor::new(tau);
            monitor.degree_cap = cap;
            let mut e = StreamEngine::new(1 << 6);
            e.register(Box::new(CheckedAgainstBatch {
                monitor,
                emitted: HashSet::new(),
            }));
            for b in into_batches(rmat_edge_stream(6, 800, 0.2, seed), 50, 0) {
                e.apply_batch(&b);
            }
            assert!(e.stats().edges_deleted > 0, "no delete exercised");
            assert!(!e.events().is_empty(), "no pair crossed {tau}");
        }
    }

    #[test]
    fn dynamic_for_vertex_matches_batch() {
        let mut e = StreamEngine::new(1 << 6);
        for b in into_batches(rmat_edge_stream(6, 400, 0.0, 5), 100, 0) {
            e.apply_batch(&b);
        }
        let (g, snap) = (e.graph(), e.graph().snapshot());
        for u in [0u32, 3, 17, 40] {
            let live: Vec<_> = jaccard::two_hop(u, |x| g.neighbor_ids(x), |_, j| j >= 0.2)
                .into_iter()
                .map(|(v, _, j)| (v, j.to_bits()))
                .collect();
            let frozen: Vec<_> = jaccard::for_vertex(&snap, u, 0.2)
                .into_iter()
                .map(|(v, j)| (v, j.to_bits()))
                .collect();
            assert!(!live.is_empty(), "u={u}");
            assert_eq!(live, frozen, "u={u}");
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
}
