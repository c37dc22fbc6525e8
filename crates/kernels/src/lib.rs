//! # ga-kernels — batch graph-analytics kernels
//!
//! The kernels this workspace *runs* for rows of the paper's Fig. 1
//! ("The Spectrum of Existing kernels"). Fig. 1 is a survey: rows whose
//! kernel nothing in the flow, fleet or benchmarks calls are kept in the
//! table as survey-only rows, not as modules (see `ga_core::taxonomy`).
//!
//! | Fig. 1 row | module |
//! |---|---|
//! | BFS: Breadth First Search | [`bfs`] (direction-optimizing; queue BFS as reference) |
//! | SSSP: Single Source Shortest Path | [`sssp`] (delta-stepping in Jacobi phases; Dijkstra and Bellman–Ford as references) |
//! | APSP: All Pairs Shortest Path | survey-only (see `ga_core::taxonomy`) |
//! | CCW: Weakly Connected Components | [`cc`] (union-find with Afforest sampling; plain union-find as reference) |
//! | CCS: Strongly Connected Components | survey-only (see `ga_core::taxonomy`) |
//! | PR: PageRank | [`pagerank`] |
//! | BC: Betweenness Centrality | survey-only (see `ga_core::taxonomy`) |
//! | CCO: Clustering Coefficients | [`cluster`] |
//! | GTC: Global Triangle Counting | [`triangles`] |
//! | TL: Triangle Listing | survey-only (see `ga_core::taxonomy`) |
//! | Jaccard | [`jaccard`] |
//! | CD: Community Detection | survey-only (see `ga_core::taxonomy`) |
//! | GC: Graph Contraction | survey-only (see `ga_core::taxonomy`) |
//! | GP: Graph Partitioning | survey-only (see `ga_core::taxonomy`) |
//! | MIS: Maximally Independent Set | survey-only (see `ga_core::taxonomy`) |
//! | SI: Subgraph Isomorphism | survey-only (see `ga_core::taxonomy`) |
//! | Search for "Largest" | [`topk`] |
//!
//! A sharded fleet (`ga_core::sharded`) runs these same engines on its
//! merged graph. The streaming (S-column) forms live in the `ga-stream`
//! crate; the linear-algebra formulations (Kepner–Gilbert) live in
//! `ga-linalg` and are cross-checked against these implementations in
//! tests.
//!
//! The five GAP kernels (BFS, SSSP, WCC, PageRank, triangle counting)
//! are generic over [`ga_graph::Adjacency`], so they run on plain,
//! compressed and tiered snapshots alike; the rest take a
//! [`ga_graph::CsrGraph`]. Kernels whose mathematical definition assumes
//! an undirected graph (triangles, clustering, Jaccard) expect a
//! symmetrized snapshot (`CsrGraph::from_edges_undirected` or a
//! symmetric stream's `DynamicGraph::snapshot`) and say so in their
//! docs.

#![warn(missing_docs)]

pub mod bfs;
pub mod cc;
pub mod cluster;
pub mod ctx;
pub mod jaccard;
pub mod pagerank;
pub mod sssp;
pub mod topk;
pub mod triangles;
pub mod union_find;

pub use ctx::{Budget, Completion, KernelCtx, Parallelism};
pub use union_find::UnionFind;

/// Distance value used by SSSP results; `f32::INFINITY` marks unreachable.
pub const INF: f32 = f32::INFINITY;

/// Depth marker for unreached vertices in BFS results.
pub const UNREACHED: u32 = u32::MAX;
