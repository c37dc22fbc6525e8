//! # ga-graph — graph substrate
//!
//! The storage layer underneath the whole reproduction of Kogge's
//! *"Graph Analytics: Complexity, Scalability, and Architectures"*
//! (IPDPSW 2017).
//!
//! The paper's canonical processing flow (its Fig. 2) needs two kinds of
//! graph storage:
//!
//! * a **persistent, mutable property graph** that absorbs streaming
//!   updates — [`DynamicGraph`] (a STINGER-inspired adjacency structure
//!   whose sorted rows hold only live, timestamped edges) together with a
//!   [`PropertyStore`] holding arbitrarily many named, typed vertex
//!   property columns ("thousands of properties per vertex" in the
//!   paper's words), and
//! * **frozen, compact snapshots** that batch analytics run against —
//!   [`CsrGraph`], an immutable compressed-sparse-row graph with O(1)
//!   neighbor slices, optional weights and optional reverse (in-edge)
//!   index.
//!
//! On top of those sit deterministic workload generators ([`gen`]),
//! subgraph extraction with property projection ([`sub`]), and the
//! binary checkpoint codecs ([`io`]).
//!
//! ```
//! use ga_graph::{gen, CsrGraph};
//!
//! // A Graph500-style RMAT graph: 2^10 vertices, 16 edges per vertex.
//! let edges = gen::rmat(10, 16 << 10, gen::RmatParams::GRAPH500, 42);
//! let g = CsrGraph::from_edges(1 << 10, &edges);
//! assert_eq!(g.num_vertices(), 1 << 10);
//! assert!(g.num_edges() > 0);
//! ```

#![warn(missing_docs)]

pub mod adjacency;
pub mod compress;
pub mod counters;
pub mod csr;
pub mod dynamic;
pub mod faults;
pub mod gen;
pub mod io;
pub mod par;
pub mod props;
pub mod retry;
pub mod snapshot;
pub mod sub;
pub mod tier;

pub use adjacency::Adjacency;
pub use compress::CompressedCsr;
pub use counters::{OpCounters, OpSnapshot};
pub use csr::{CsrBuilder, CsrGraph};
pub use dynamic::{DynamicGraph, EdgeRecord};
pub use par::Parallelism;
pub use props::{PropValue, PropertyStore};
pub use snapshot::{SnapshotCache, SnapshotEpoch, SnapshotStats};
pub use sub::{ExtractOptions, Subgraph};
pub use tier::{SegmentStore, TierConfig, TierStats, TieredCsr};

/// Dense vertex identifier.
///
/// Vertices are numbered `0..num_vertices`. A `u32` keeps adjacency
/// arrays half the size of `usize` on 64-bit targets, which matters for
/// the memory-bandwidth-bound kernels this workspace is about; graphs of
/// more than 2^32 vertices are out of scope for a laptop-scale
/// reproduction.
pub type VertexId = u32;

/// Edge weight type used by the weighted kernels (SSSP, APSP, ...).
pub type Weight = f32;

/// Timestamp attached to streamed edges (paper §II: "edges may have
/// time-stamps in addition to properties").
pub type Timestamp = u64;

/// A directed edge `(src, dst)`.
pub type Edge = (VertexId, VertexId);

/// A directed weighted edge `(src, dst, weight)`.
pub type WeightedEdge = (VertexId, VertexId, Weight);
