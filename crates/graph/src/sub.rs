//! Subgraph extraction with property projection (Fig. 2 centerpiece).
//!
//! The canonical flow identifies *seeds*, performs *subgraph extraction*
//! ("a breadth-first search from individual seed vertices out to some
//! depth, or perhaps out some distance from some path between two or more
//! seeds"), then *physically copies* the subgraph — with a projection of
//! a small subset of the properties — into a smaller, faster memory for
//! the heavy batch analytics. [`Subgraph`] is that copy: a renumbered
//! [`CsrGraph`] plus a `back_map` to translate results back to the
//! persistent graph's ids. It is copied once, row by row, with no sort.

use crate::{Adjacency, CsrGraph, PropertyStore, VertexId};
use std::collections::VecDeque;

/// Extraction parameters.
#[derive(Clone, Debug)]
pub struct ExtractOptions {
    /// BFS radius around each seed.
    pub depth: usize,
    /// Hard cap on extracted vertices (0 = unlimited). Frontier expansion
    /// stops once the cap is hit, so hub-heavy seeds can't explode the
    /// working set.
    pub max_vertices: usize,
    /// Treat edges as undirected during expansion (follow in-edges too
    /// when the source graph has a reverse index).
    pub undirected_expand: bool,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            depth: 2,
            max_vertices: 0,
            undirected_expand: false,
        }
    }
}

/// A renumbered copy of a region of a larger graph.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The extracted graph over ids `0..back_map.len()`.
    pub graph: CsrGraph,
    /// `back_map[new_id] = old_id` into the source graph.
    pub back_map: Vec<VertexId>,
    /// Projected properties (empty store when no columns requested).
    pub props: PropertyStore,
}

impl Subgraph {
    /// Translate a subgraph vertex id back to the source graph.
    pub fn to_source(&self, v: VertexId) -> VertexId {
        self.back_map[v as usize]
    }

    /// Number of vertices in the extracted region.
    pub fn num_vertices(&self) -> usize {
        self.back_map.len()
    }
}

/// BFS ball extraction around `seeds` from any [`Adjacency`] source —
/// a plain CSR snapshot, a compressed mirror, or a [`crate::TieredCsr`]
/// whose cold rows page in from disk as the ball expands.
pub fn extract_ball<A: Adjacency + ?Sized>(
    g: &A,
    seeds: &[VertexId],
    opts: &ExtractOptions,
    props: Option<(&PropertyStore, &[&str])>,
) -> Subgraph {
    let members = bfs_ball_members(
        |v, out: &mut Vec<VertexId>| {
            out.extend(g.neighbors(v));
            if opts.undirected_expand && g.has_reverse() {
                out.extend(g.in_neighbors(v));
            }
        },
        g.num_vertices(),
        seeds,
        opts,
    );
    induce(g, &members, props)
}

fn bfs_ball_members(
    mut expand: impl FnMut(VertexId, &mut Vec<VertexId>),
    n: usize,
    seeds: &[VertexId],
    opts: &ExtractOptions,
) -> Vec<VertexId> {
    let mut depth: Vec<u32> = vec![u32::MAX; n];
    let mut order: Vec<VertexId> = Vec::new();
    let mut q = VecDeque::new();
    for &s in seeds {
        if depth[s as usize] == u32::MAX {
            depth[s as usize] = 0;
            order.push(s);
            q.push_back(s);
        }
    }
    let cap = if opts.max_vertices == 0 {
        usize::MAX
    } else {
        opts.max_vertices
    };
    let mut scratch = Vec::new();
    while let Some(u) = q.pop_front() {
        if order.len() >= cap {
            break;
        }
        let d = depth[u as usize];
        if d as usize >= opts.depth {
            continue;
        }
        scratch.clear();
        expand(u, &mut scratch);
        for &v in &scratch {
            if depth[v as usize] == u32::MAX {
                depth[v as usize] = d + 1;
                order.push(v);
                q.push_back(v);
                if order.len() >= cap {
                    break;
                }
            }
        }
    }
    order.sort_unstable();
    order
}

/// The one copy of the ball: each member's row is renumbered into `row`
/// and appended to the new `targets`. Sorted `members` keep every row
/// sorted. Each entry is written, and kept by moving the cursor, only if
/// it is a member and not a repeat of the entry before (which dedups a
/// source row that repeats a target) — no branch on whether it is kept.
fn induce<A: Adjacency + ?Sized>(
    g: &A,
    members: &[VertexId],
    props: Option<(&PropertyStore, &[&str])>,
) -> Subgraph {
    // Dense old->new map; members are few relative to n in the intended
    // use, but a dense array keeps the inner loop branch-cheap.
    let mut renumber: Vec<VertexId> = vec![VertexId::MAX; g.num_vertices()];
    for (new_id, &old) in members.iter().enumerate() {
        renumber[old as usize] = new_id as VertexId;
    }
    let mut offsets = Vec::with_capacity(members.len() + 1);
    offsets.push(0);
    let mut targets = Vec::new();
    let mut row = Vec::new();
    for &old_u in members {
        row.resize(row.len().max(g.degree(old_u)), 0);
        let (mut kept, mut prev) = (0, VertexId::MAX);
        for old_v in g.neighbors(old_u) {
            let new_v = renumber[old_v as usize];
            row[kept] = new_v;
            kept += (new_v != VertexId::MAX && old_v != prev) as usize;
            prev = old_v;
        }
        targets.extend_from_slice(&row[..kept]);
        offsets.push(targets.len() as u64);
    }
    let graph = CsrGraph::from_sorted_rows(offsets, targets);
    let props = match props {
        Some((store, cols)) => store.project(members, cols),
        None => PropertyStore::new(members.len()),
    };
    Subgraph {
        graph,
        back_map: members.to_vec(),
        props,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, CompressedCsr, CsrBuilder, TierConfig, TieredCsr};
    use std::sync::Arc;

    /// The extraction `induce` replaced, kept as its oracle: every kept
    /// edge through `CsrBuilder`'s global sort and dedup.
    fn extract_reference<A: Adjacency + ?Sized>(
        g: &A,
        seeds: &[VertexId],
        opts: &ExtractOptions,
    ) -> (CsrGraph, Vec<VertexId>) {
        let expand = |v, out: &mut Vec<VertexId>| {
            out.extend(g.neighbors(v));
            if opts.undirected_expand && g.has_reverse() {
                out.extend(g.in_neighbors(v));
            }
        };
        let members = bfs_ball_members(expand, g.num_vertices(), seeds, opts);
        let mut renumber = vec![VertexId::MAX; g.num_vertices()];
        for (new_id, &old) in members.iter().enumerate() {
            renumber[old as usize] = new_id as VertexId;
        }
        let mut edges = Vec::new();
        for (new_u, &old_u) in members.iter().enumerate() {
            for old_v in g.neighbors(old_u) {
                let new_v = renumber[old_v as usize];
                if new_v != VertexId::MAX {
                    edges.push((new_u as VertexId, new_v));
                }
            }
        }
        let b = CsrBuilder::new(members.len()).edges(edges).dedup(true);
        (b.build(), members)
    }

    /// Every ball of `g` this oracle test extracts equals the
    /// builder-based reference: same `offsets`, `targets`, `back_map`.
    fn assert_matches_reference<A: Adjacency + ?Sized>(g: &A, what: &str) {
        for cap in [0, 3, 7, 20, 50] {
            for (depth, undirected_expand) in [(1, false), (2, false), (2, true), (3, true)] {
                let opts = ExtractOptions {
                    depth,
                    max_vertices: cap,
                    undirected_expand,
                };
                let seeds = [0, 5, 77];
                let sub = extract_ball(g, &seeds, &opts, None);
                let (want, members) = extract_reference(g, &seeds, &opts);
                let case =
                    format!("{what}: cap {cap} depth {depth} undirected {undirected_expand}");
                assert_eq!(sub.back_map, members, "{case}");
                assert_eq!(sub.graph.raw_offsets(), want.raw_offsets(), "{case}");
                assert_eq!(sub.graph.raw_targets(), want.raw_targets(), "{case}");
                assert!(!sub.graph.is_weighted() && !sub.graph.has_reverse());
                if cap == 7 {
                    // Hub 0's row alone holds more than 7 distinct ids.
                    assert_eq!(sub.num_vertices(), cap, "{case}: cap hit mid-row");
                }
            }
        }
    }

    /// Directed R-MAT multigraphs (repeated targets, self-loops kept)
    /// over plain, compressed and tiered sources, with vertex caps that
    /// stop the ball in the middle of a row: the one-copy extraction
    /// equals the builder-based oracle.
    #[test]
    fn induce_matches_builder_oracle() {
        let dir = std::env::temp_dir().join(format!("ga-sub-oracle-{}", std::process::id()));
        for seed in 0..4 {
            let edges = gen::rmat(7, 1500, gen::RmatParams::GRAPH500, seed);
            let b = CsrBuilder::new(128).edges(edges).dedup(false);
            let g = Arc::new(b.reverse(true).build());
            let repeats = |v| g.neighbors(v).windows(2).any(|p| p[0] == p[1]);
            assert!(g.vertices().any(repeats), "seed {seed}: no repeated target");
            assert!(
                g.vertices().any(|v| g.has_edge(v, v)),
                "seed {seed}: no self-loop"
            );
            assert_matches_reference(&*g, "plain");
            assert_matches_reference(&CompressedCsr::from_csr(&g), "compressed");
            let cfg = TierConfig::new(&dir).segment_rows(16).ram_budget(1 << 10);
            let _g = crate::tier::tests::LOCK.lock().unwrap();
            assert_matches_reference(&TieredCsr::spill(&g, cfg).unwrap(), "tiered");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn line_graph(n: usize) -> CsrGraph {
        CsrGraph::from_edges_undirected(n, &gen::path(n))
    }

    #[test]
    fn ball_depth_limits() {
        let g = line_graph(10);
        let opts = ExtractOptions {
            depth: 2,
            ..Default::default()
        };
        let sub = extract_ball(&g, &[5], &opts, None);
        // vertices 3..=7
        assert_eq!(sub.back_map, vec![3, 4, 5, 6, 7]);
        assert_eq!(sub.graph.num_vertices(), 5);
        // path structure preserved (undirected: 4 segments * 2)
        assert_eq!(sub.graph.num_edges(), 8);
    }

    #[test]
    fn ball_respects_vertex_cap() {
        let g = CsrGraph::from_edges_undirected(100, &gen::star(100));
        let opts = ExtractOptions {
            depth: 1,
            max_vertices: 10,
            ..Default::default()
        };
        let sub = extract_ball(&g, &[0], &opts, None);
        assert!(sub.num_vertices() <= 10);
        assert!(sub.back_map.contains(&0));
    }

    #[test]
    fn multiple_seeds_union() {
        let g = line_graph(20);
        let opts = ExtractOptions {
            depth: 1,
            ..Default::default()
        };
        let sub = extract_ball(&g, &[0, 19], &opts, None);
        assert_eq!(sub.back_map, vec![0, 1, 18, 19]);
        // The two balls are disconnected in the extraction.
        assert!(!sub.graph.has_edge(1, 2));
    }

    #[test]
    fn extraction_translates_ids() {
        let g = line_graph(10);
        let sub = extract_ball(
            &g,
            &[4],
            &ExtractOptions {
                depth: 1,
                ..Default::default()
            },
            None,
        );
        for v in 0..sub.num_vertices() as VertexId {
            let old = sub.to_source(v);
            assert!([3, 4, 5].contains(&old));
        }
    }

    #[test]
    fn property_projection_travels() {
        let g = line_graph(6);
        let mut props = PropertyStore::new(6);
        props.set_column_f64("score", &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
        props.set_column_u64("junk", &[1, 1, 1, 1, 1, 1]);
        let sub = extract_ball(
            &g,
            &[2],
            &ExtractOptions {
                depth: 1,
                ..Default::default()
            },
            Some((&props, &["score"])),
        );
        assert_eq!(sub.back_map, vec![1, 2, 3]);
        assert_eq!(sub.props.get_f64("score", 0), Some(0.1));
        assert!(!sub.props.has_column("junk"));
    }
}
