//! Incremental triangle counting (Fig. 1's streaming GTC).
//!
//! §II: "Streaming forms of triangle counting look to identify the
//! change in either/both the associated vertices triangle count or the
//! overall number of triangles in the graph."
//!
//! Because the engine notifies monitors *after* an update is applied and
//! the graph is symmetrized, the delta for an edge {u, v} is exactly
//! `|N(u) ∩ N(v)|` in the post-state: after an insert those common
//! neighbors are the newly closed triangles; after a delete they are the
//! triangles just destroyed (u and v are already out of each other's
//! adjacency).

use crate::engine::Monitor;
use crate::events::{Event, EventKind};
use crate::update::Update;
use ga_graph::dynamic::ApplyResult;
use ga_graph::{DynamicGraph, Timestamp, VertexId};
use std::collections::HashMap;

/// Incremental global + per-vertex triangle counts.
pub struct IncrementalTriangles {
    global: u64,
    per_vertex: HashMap<VertexId, u64>,
    /// Emit a GlobalValue event whenever the global count crosses a
    /// multiple of this stride (0 = never).
    pub report_stride: u64,
    last_reported: u64,
}

impl IncrementalTriangles {
    /// Fresh counter (graph assumed initially empty or triangle-free).
    pub fn new() -> Self {
        IncrementalTriangles {
            global: 0,
            per_vertex: HashMap::new(),
            report_stride: 0,
            last_reported: 0,
        }
    }

    /// Current global triangle count.
    pub fn global(&self) -> u64 {
        self.global
    }

    /// Current count for one vertex.
    pub fn vertex(&self, v: VertexId) -> u64 {
        self.per_vertex.get(&v).copied().unwrap_or(0)
    }

    /// Live local clustering coefficient of `v`: maintained triangle
    /// count over the current wedge count — the streaming form of the
    /// Fig. 1 "CCO" row, for free on top of the triangle monitor.
    pub fn local_clustering(&self, g: &DynamicGraph, v: VertexId) -> f64 {
        let d = g.degree(v) as u64;
        let wedges = d * d.saturating_sub(1) / 2;
        if wedges == 0 {
            0.0
        } else {
            self.vertex(v) as f64 / wedges as f64
        }
    }

    fn common_neighbors(g: &DynamicGraph, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let nu: std::collections::HashSet<VertexId> = g.neighbor_ids(u).collect();
        g.neighbor_ids(v).filter(|w| nu.contains(w)).collect()
    }

    fn bump(&mut self, v: VertexId, delta: i64) {
        let e = self.per_vertex.entry(v).or_insert(0);
        *e = (*e as i64 + delta) as u64;
    }
}

impl Default for IncrementalTriangles {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor for IncrementalTriangles {
    fn name(&self) -> &'static str {
        "tri_inc"
    }

    fn on_update(
        &mut self,
        g: &DynamicGraph,
        update: &Update,
        result: ApplyResult,
        time: Timestamp,
        out: &mut Vec<Event>,
    ) {
        let (u, v, sign) = match *update {
            Update::EdgeInsert { src, dst, .. } if result == ApplyResult::Inserted => {
                (src, dst, 1i64)
            }
            Update::EdgeDelete { src, dst } if result == ApplyResult::Deleted => (src, dst, -1i64),
            _ => return,
        };
        let common = Self::common_neighbors(g, u, v);
        let delta = common.len() as i64 * sign;
        if delta == 0 {
            return;
        }
        self.global = (self.global as i64 + delta) as u64;
        self.bump(u, sign * common.len() as i64);
        self.bump(v, sign * common.len() as i64);
        for w in common {
            self.bump(w, sign);
        }
        if self.report_stride > 0 && self.global / self.report_stride != self.last_reported {
            self.last_reported = self.global / self.report_stride;
            out.push(Event {
                time,
                source: self.name(),
                kind: EventKind::GlobalValue {
                    metric: "triangles",
                    value: self.global as f64,
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamEngine;
    use crate::update::{into_batches, rmat_edge_stream, UpdateBatch};
    use ga_kernels::triangles::count_global;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn insert(src: VertexId, dst: VertexId) -> Update {
        Update::EdgeInsert {
            src,
            dst,
            weight: 1.0,
        }
    }

    /// Wrapper exposing the counter to the test after registration.
    struct Shared(Rc<RefCell<IncrementalTriangles>>);
    impl Monitor for Shared {
        fn name(&self) -> &'static str {
            "tri_inc"
        }
        fn on_update(
            &mut self,
            g: &DynamicGraph,
            u: &Update,
            r: ApplyResult,
            t: Timestamp,
            out: &mut Vec<Event>,
        ) {
            self.0.borrow_mut().on_update(g, u, r, t, out);
        }
    }

    #[test]
    fn counts_forming_triangle() {
        let counter = Rc::new(RefCell::new(IncrementalTriangles::new()));
        let mut e = StreamEngine::new(4);
        e.register(Box::new(Shared(counter.clone())));
        e.apply_batch(&UpdateBatch {
            time: 0,
            updates: vec![insert(0, 1), insert(1, 2), insert(0, 2)],
        });
        assert_eq!(counter.borrow().global(), 1);
        assert_eq!(counter.borrow().vertex(0), 1);
        assert_eq!(counter.borrow().vertex(3), 0);
    }

    #[test]
    fn delete_removes_triangle() {
        let counter = Rc::new(RefCell::new(IncrementalTriangles::new()));
        let mut e = StreamEngine::new(4);
        e.register(Box::new(Shared(counter.clone())));
        e.apply_batch(&UpdateBatch {
            time: 0,
            updates: vec![
                insert(0, 1),
                insert(1, 2),
                insert(0, 2),
                Update::EdgeDelete { src: 0, dst: 1 },
            ],
        });
        assert_eq!(counter.borrow().global(), 0);
        assert_eq!(counter.borrow().vertex(2), 0);
    }

    #[test]
    fn duplicate_insert_no_double_count() {
        let counter = Rc::new(RefCell::new(IncrementalTriangles::new()));
        let mut e = StreamEngine::new(3);
        e.register(Box::new(Shared(counter.clone())));
        e.apply_batch(&UpdateBatch {
            time: 0,
            updates: vec![insert(0, 1), insert(1, 2), insert(0, 2), insert(0, 2)],
        });
        assert_eq!(counter.borrow().global(), 1);
    }

    #[test]
    fn matches_batch_count_on_rmat_stream() {
        let counter = Rc::new(RefCell::new(IncrementalTriangles::new()));
        let mut e = StreamEngine::new(1 << 7);
        e.register(Box::new(Shared(counter.clone())));
        let stream = rmat_edge_stream(7, 3000, 0.15, 11);
        for b in into_batches(stream, 64, 0) {
            e.apply_batch(&b);
        }
        let snapshot = e.graph().snapshot();
        let batch_count = count_global(&snapshot);
        assert_eq!(counter.borrow().global(), batch_count);
        // Per-vertex totals must also sum to 3x global.
        let sum: u64 = (0..snapshot.num_vertices() as u32)
            .map(|v| counter.borrow().vertex(v))
            .sum();
        assert_eq!(sum, 3 * batch_count);
    }

    #[test]
    fn live_clustering_matches_batch() {
        let counter = Rc::new(RefCell::new(IncrementalTriangles::new()));
        let mut e = StreamEngine::new(1 << 6);
        e.register(Box::new(Shared(counter.clone())));
        for b in into_batches(rmat_edge_stream(6, 1_500, 0.1, 3), 128, 0) {
            e.apply_batch(&b);
        }
        let snap = e.graph().snapshot();
        let batch = ga_kernels::cluster::clustering_coefficients(&snap, &Default::default());
        for v in 0..snap.num_vertices() as u32 {
            let live = counter.borrow().local_clustering(e.graph(), v);
            assert!(
                (live - batch.local[v as usize]).abs() < 1e-12,
                "v={v}: {live} vs {}",
                batch.local[v as usize]
            );
        }
    }

    #[test]
    fn stride_reporting_emits_global_values() {
        let mut tri = IncrementalTriangles::new();
        tri.report_stride = 1;
        let mut e = StreamEngine::new(4);
        e.register(Box::new(tri));
        e.apply_batch(&UpdateBatch {
            time: 0,
            updates: vec![insert(0, 1), insert(1, 2), insert(0, 2)],
        });
        let globals = e
            .events()
            .iter()
            .filter(|ev| matches!(ev.kind, EventKind::GlobalValue { .. }))
            .count();
        assert_eq!(globals, 1);
    }
}
