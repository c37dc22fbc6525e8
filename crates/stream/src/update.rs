//! Update streams and their generators.

use ga_graph::{gen::RmatParams, Timestamp, VertexId, Weight};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One streamed graph modification (the paper's "individually
/// small-scale updates").
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// Insert (or refresh) a directed edge.
    EdgeInsert {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Edge weight.
        weight: Weight,
    },
    /// Delete a directed edge.
    EdgeDelete {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Set a named numeric property of a vertex (the Firehose-style
    /// "inputs may specify specific vertices and some update to one or
    /// more of the vertex's properties").
    PropertySet {
        /// Target vertex.
        vertex: VertexId,
        /// Property column name. Owned so updates can round-trip
        /// through the write-ahead log.
        name: String,
        /// New value.
        value: f64,
    },
}

/// A timestamped batch of updates.
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch {
    /// Timestamp applied to every update in the batch.
    pub time: Timestamp,
    /// The updates, in arrival order.
    pub updates: Vec<Update>,
}

/// Deterministic R-MAT edge-update stream: `total` updates over `2^scale`
/// vertices, of which a `delete_fraction` delete a previously inserted
/// edge (Graph500-style insert-heavy streams use 0.0–0.1).
pub fn rmat_edge_stream(scale: u32, total: usize, delete_fraction: f64, seed: u64) -> Vec<Update> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let p = RmatParams::GRAPH500;
    // `inserted` tracks currently-live edges (no duplicates) so every
    // emitted delete targets a live edge; R-MAT naturally re-draws
    // popular edges, which become weight-refreshing re-inserts.
    let mut inserted: Vec<(VertexId, VertexId)> = Vec::new();
    let mut live: std::collections::HashSet<(VertexId, VertexId)> = Default::default();
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let do_delete = !inserted.is_empty() && rng.gen::<f64>() < delete_fraction;
        if do_delete {
            let i = rng.gen_range(0..inserted.len());
            let (src, dst) = inserted.swap_remove(i);
            live.remove(&(src, dst));
            out.push(Update::EdgeDelete { src, dst });
        } else {
            // Draw one R-MAT edge (rejecting self-loops).
            let (src, dst) = loop {
                let e = rmat_one(scale, p, &mut rng);
                if e.0 != e.1 {
                    break e;
                }
            };
            if live.insert((src, dst)) {
                inserted.push((src, dst));
            }
            out.push(Update::EdgeInsert {
                src,
                dst,
                weight: 1.0,
            });
        }
    }
    out
}

/// Deterministic uniform (Erdős–Rényi-style) edge-update stream: like
/// [`rmat_edge_stream`] but endpoints are drawn uniformly from
/// `0..2^scale`, giving a flat degree distribution — the
/// low-skew counterpart used to separate partition-balance effects from
/// hub-replication effects in sharding experiments.
pub fn uniform_edge_stream(
    scale: u32,
    total: usize,
    delete_fraction: f64,
    seed: u64,
) -> Vec<Update> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = 1u64 << scale;
    let mut inserted: Vec<(VertexId, VertexId)> = Vec::new();
    let mut live: std::collections::HashSet<(VertexId, VertexId)> = Default::default();
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let do_delete = !inserted.is_empty() && rng.gen::<f64>() < delete_fraction;
        if do_delete {
            let i = rng.gen_range(0..inserted.len());
            let (src, dst) = inserted.swap_remove(i);
            live.remove(&(src, dst));
            out.push(Update::EdgeDelete { src, dst });
        } else {
            let (src, dst) = loop {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v {
                    break (u, v);
                }
            };
            if live.insert((src, dst)) {
                inserted.push((src, dst));
            }
            out.push(Update::EdgeInsert {
                src,
                dst,
                weight: 1.0,
            });
        }
    }
    out
}

fn rmat_one(scale: u32, p: RmatParams, rng: &mut impl Rng) -> (VertexId, VertexId) {
    let (mut u, mut v) = (0u64, 0u64);
    for _ in 0..scale {
        u <<= 1;
        v <<= 1;
        let r: f64 = rng.gen();
        if r < p.a {
        } else if r < p.a + p.b {
            v |= 1;
        } else if r < p.a + p.b + p.c {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u as VertexId, v as VertexId)
}

/// Group a flat update stream into fixed-size timestamped batches.
pub fn into_batches(updates: Vec<Update>, batch_size: usize, t0: Timestamp) -> Vec<UpdateBatch> {
    assert!(batch_size > 0);
    updates
        .chunks(batch_size)
        .enumerate()
        .map(|(i, chunk)| UpdateBatch {
            time: t0 + i as Timestamp,
            updates: chunk.to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_stream_deterministic_and_balanced() {
        let a = rmat_edge_stream(8, 1000, 0.2, 1);
        let b = rmat_edge_stream(8, 1000, 0.2, 1);
        assert_eq!(a, b);
        let deletes = a
            .iter()
            .filter(|u| matches!(u, Update::EdgeDelete { .. }))
            .count();
        assert!(deletes > 100 && deletes < 320, "deletes {deletes}");
    }

    #[test]
    fn deletes_only_touch_inserted_edges() {
        let stream = rmat_edge_stream(6, 500, 0.3, 7);
        let mut live: std::collections::HashSet<(u32, u32)> = Default::default();
        for u in &stream {
            match *u {
                Update::EdgeInsert { src, dst, .. } => {
                    live.insert((src, dst));
                }
                Update::EdgeDelete { src, dst } => {
                    assert!(live.remove(&(src, dst)), "delete of non-live edge");
                }
                Update::PropertySet { .. } => {}
            }
        }
    }

    #[test]
    fn batching_shapes() {
        let stream = rmat_edge_stream(5, 10, 0.0, 2);
        let batches = into_batches(stream, 4, 100);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].updates.len(), 4);
        assert_eq!(batches[2].updates.len(), 2);
        assert_eq!(batches[1].time, 101);
    }
}
