//! # ga-linalg — GraphBLAS-style sparse linear algebra
//!
//! The substrate for the paper's §V-A architecture (the Lincoln Labs
//! sparse graph processor, Fig. 4) and for the Kepner–Gilbert
//! matrix-language kernels it accelerates ("graphs expressed as boolean
//! adjacency matrices").
//!
//! * [`csr::CsrMatrix`] — the one sparse layout: a square matrix whose
//!   pattern is a `ga_graph::CsrGraph` (the row layout the Fig. 4
//!   hardware "hardwires") plus one value per stored edge. Matrices are
//!   built from graphs with [`CsrMatrix::from_graph`], and any matrix's
//!   [`pattern`](CsrMatrix::pattern) is a graph every kernel runs on.
//! * [`semiring`] — the algebraic structures GraphBLAS substitutes for
//!   (+, ×): plus-times, min-plus (shortest paths) and or-and
//!   (reachability).
//! * [`ops`] — SpMV, sparse-vector SpMSpV, masked variants, element-wise
//!   union/intersection, and Gustavson SpGEMM (the exact dataflow the
//!   Fig. 4 pipeline implements in hardware).
//! * [`algos`] — graph algorithms *in the language of linear algebra*:
//!   BFS as masked SpMSpV, PageRank as SpMV iteration, triangle counting
//!   as `L·L ⊙ L`, Bellman–Ford as min-plus SpMV. Each is cross-checked
//!   against the direct implementations in `ga-kernels` by the
//!   integration tests.
//! * [`kron`] — exact Kronecker products, whose patterns are graphs
//!   with closed-form triangle counts, degrees and components.

#![warn(missing_docs)]

pub mod algos;
pub mod csr;
pub mod kron;
pub mod ops;
pub mod semiring;

pub use csr::CsrMatrix;
pub use semiring::Semiring;

/// Sparse vector: sorted `(index, value)` pairs, no explicit zeros.
pub type SparseVec<T> = Vec<(u32, T)>;
