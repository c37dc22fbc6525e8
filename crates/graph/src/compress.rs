//! Delta-varint compressed adjacency (the bandwidth-lean CSR).
//!
//! The paper's E3 calibration names memory bandwidth as the binding
//! resource for graph kernels, and GAP-style systems respond by
//! shrinking the bytes the hot loops stream: each sorted neighbor row
//! is stored as a first-target varint followed by LEB128-encoded gaps.
//! RMAT/social rows have small gaps (heavy-tailed degree, clustered
//! ids), so rows that cost 4 bytes per entry in [`CsrGraph`] typically
//! compress 2-4x.
//!
//! [`CompressedCsr`] mirrors the `CsrGraph` read API — `degree`,
//! `neighbors`, `weighted_neighbors`, `in_neighbors` — but neighbor
//! reads go through a streaming per-row decoder ([`RowDecoder`]) instead
//! of a slice, and every row knows its exact encoded byte length so
//! kernels can book the bytes they actually moved (see
//! [`crate::adjacency::Adjacency::row_bytes`]). Weights stay
//! uncompressed (f32 deltas don't varint), parallel to edge order.
//!
//! Construction is a two-pass row-wise build on the PR 3 freeze
//! pattern: a parallel per-row size pass, a prefix sum, then a parallel
//! fill over disjoint byte slices. `to_csr()` round-trips exactly.

use crate::csr::CsrGraph;
use crate::par::Parallelism;
use crate::{VertexId, Weight};
use rayon::prelude::*;

/// Byte spans up to this long are encoded by one task of the fill pass.
const PAR_LEAF_EDGES: usize = 8192;

/// Bytes needed to LEB128-encode `x`.
#[inline]
fn varint_len(x: u32) -> usize {
    // ceil(bits/7) with a 1-byte floor for x == 0.
    ((32 - x.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Append the LEB128 encoding of `x` to `out`; returns bytes written.
#[inline]
fn write_varint(out: &mut [u8], mut x: u32) -> usize {
    let mut i = 0;
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out[i] = byte;
            return i + 1;
        }
        out[i] = byte | 0x80;
        i += 1;
    }
}

/// Decode one LEB128 value from `bytes[*pos..]`, advancing `pos`.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut x = 0u32;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        x |= ((b & 0x7f) as u32) << shift;
        if b & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// One direction's compressed rows: CSR-shaped edge offsets for O(1)
/// degree, byte offsets into the shared varint buffer.
#[derive(Clone, Debug, Default)]
struct CompressedRows {
    edge_offsets: Vec<u64>,
    byte_offsets: Vec<u64>,
    bytes: Vec<u8>,
}

impl CompressedRows {
    /// Compress `rows(v)` (sorted target lists) for vertices `0..n`.
    fn build<'g>(
        n: usize,
        num_edges: usize,
        row: impl Fn(VertexId) -> &'g [VertexId] + Sync,
    ) -> Self {
        // Pass 1: exact encoded byte length per row.
        let sizes: Vec<u64> = (0..n as VertexId)
            .into_par_iter()
            .map(|v| row_encoded_len(row(v)))
            .collect();

        let mut edge_offsets = vec![0u64; n + 1];
        let mut byte_offsets = vec![0u64; n + 1];
        for v in 0..n {
            edge_offsets[v + 1] = edge_offsets[v] + row(v as VertexId).len() as u64;
            byte_offsets[v + 1] = byte_offsets[v] + sizes[v];
        }

        // Pass 2: encode rows into disjoint slices of one buffer. Its joins
        // wake a worker at once: not worth it below the `Auto` cutoff (E20).
        let parallel = Parallelism::Auto.use_parallel(num_edges);
        let total = byte_offsets[n] as usize;
        let mut bytes = vec![0u8; total];
        fill_rows(&mut bytes, 0, n, &byte_offsets, parallel, &row);
        CompressedRows {
            edge_offsets,
            byte_offsets,
            bytes,
        }
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.edge_offsets[v + 1] - self.edge_offsets[v]) as usize
    }

    #[inline]
    fn row_bytes(&self, v: VertexId) -> u64 {
        let v = v as usize;
        self.byte_offsets[v + 1] - self.byte_offsets[v]
    }

    #[inline]
    fn decode(&self, v: VertexId) -> RowDecoder<'_> {
        let vi = v as usize;
        RowDecoder {
            bytes: &self.bytes[self.byte_offsets[vi] as usize..self.byte_offsets[vi + 1] as usize],
            pos: 0,
            remaining: self.degree(v),
            prev: 0,
        }
    }
}

/// Exact LEB128 byte length of one sorted row (first absolute, rest gaps).
fn row_encoded_len(row: &[VertexId]) -> u64 {
    let mut len = 0usize;
    let mut prev = 0u32;
    for (i, &t) in row.iter().enumerate() {
        len += varint_len(if i == 0 { t } else { t - prev });
        prev = t;
    }
    len as u64
}

/// Encode vertices `lo..hi` into the byte slice covering
/// `byte_offsets[lo]..byte_offsets[hi]`, splitting recursively so rayon
/// fills disjoint halves in parallel (same shape as the snapshot
/// freeze's `fill_rows`).
fn fill_rows<'g>(
    out: &mut [u8],
    lo: usize,
    hi: usize,
    byte_offsets: &[u64],
    parallel: bool,
    row: &(impl Fn(VertexId) -> &'g [VertexId] + Sync),
) {
    let span = (byte_offsets[hi] - byte_offsets[lo]) as usize;
    if !parallel || hi - lo <= 1 || span <= PAR_LEAF_EDGES {
        let base = byte_offsets[lo] as usize;
        for (v, &off) in byte_offsets.iter().enumerate().take(hi).skip(lo) {
            let mut pos = off as usize - base;
            let mut prev = 0u32;
            for (i, &t) in row(v as VertexId).iter().enumerate() {
                let delta = if i == 0 { t } else { t - prev };
                pos += write_varint(&mut out[pos..], delta);
                prev = t;
            }
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let cut = (byte_offsets[mid] - byte_offsets[lo]) as usize;
    let (left, right) = out.split_at_mut(cut);
    rayon::join(
        || fill_rows(left, lo, mid, byte_offsets, true, row),
        || fill_rows(right, mid, hi, byte_offsets, true, row),
    );
}

/// Streaming decoder over one compressed row; yields the row's sorted
/// targets without materializing them.
#[derive(Clone, Debug)]
pub struct RowDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    prev: u32,
}

impl Iterator for RowDecoder<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.remaining == 0 {
            return None;
        }
        let delta = read_varint(self.bytes, &mut self.pos);
        // First value is absolute; prev starts at 0 so `prev + delta`
        // covers both cases only if the first target were a gap from 0 —
        // which is exactly how rows are encoded.
        self.prev += delta;
        self.remaining -= 1;
        Some(self.prev)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowDecoder<'_> {}

/// A [`CsrGraph`]-compatible graph whose adjacency rows are stored as
/// delta-varint byte streams. Same vertices, same sorted rows, same
/// optional weights and reverse index — a fraction of the adjacency
/// bytes.
#[derive(Clone, Debug, Default)]
pub struct CompressedCsr {
    fwd: CompressedRows,
    pub(crate) weights: Option<Vec<Weight>>,
    rev: Option<Box<CompressedRows>>,
}

impl CompressedCsr {
    /// Compress a CSR snapshot. Rows (and the reverse index, if built)
    /// are encoded in parallel for large graphs; weights are carried
    /// uncompressed.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let m = g.num_edges();
        let fwd = CompressedRows::build(n, m, |v| g.neighbors(v));
        let rev = g
            .has_reverse()
            .then(|| Box::new(CompressedRows::build(n, m, |v| g.in_neighbors(v))));
        CompressedCsr {
            fwd,
            weights: g.raw_weights().map(<[Weight]>::to_vec),
            rev,
        }
    }

    /// Decompress back to a plain [`CsrGraph`]. Exact round-trip: the
    /// resulting offsets/targets/weights (and reverse index, if one was
    /// compressed) are bit-identical to the source graph's.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut targets = Vec::with_capacity(self.num_edges());
        for v in 0..n as VertexId {
            targets.extend(self.neighbors(v));
        }
        let mut g =
            CsrGraph::from_parts(self.fwd.edge_offsets.clone(), targets, self.weights.clone());
        if let Some(rev) = &self.rev {
            let mut sources = Vec::with_capacity(self.num_edges());
            for v in 0..n as VertexId {
                sources.extend(rev.decode(v));
            }
            g.attach_reverse(rev.edge_offsets.clone(), sources);
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.fwd.edge_offsets.len() - 1
    }

    /// Number of directed edges stored.
    #[inline]
    pub fn num_edges(&self) -> usize {
        *self.fwd.edge_offsets.last().unwrap_or(&0) as usize
    }

    /// Out-degree of `v` (O(1) — edge offsets are kept CSR-shaped).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.fwd.degree(v)
    }

    /// Streaming decoder over `v`'s sorted out-neighbors.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> RowDecoder<'_> {
        self.fwd.decode(v)
    }

    /// `(neighbor, weight)` pairs for `v`; weight defaults to 1.0 on
    /// unweighted graphs (same contract as `CsrGraph`).
    pub fn weighted_neighbors(&self, v: VertexId) -> WeightedRowDecoder<'_> {
        let vi = v as usize;
        let ws = self.weights.as_ref().map(|w| {
            &w[self.fwd.edge_offsets[vi] as usize..self.fwd.edge_offsets[vi + 1] as usize]
        });
        WeightedRowDecoder {
            targets: self.fwd.decode(v),
            weights: ws,
            idx: 0,
        }
    }

    /// Whether the graph carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Whether a reverse (in-edge) index was compressed.
    #[inline]
    pub fn has_reverse(&self) -> bool {
        self.rev.is_some()
    }

    /// In-degree of `v`. Requires the reverse index.
    ///
    /// # Panics
    /// Panics if the source graph had no reverse index.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.rev
            .as_ref()
            .expect("reverse index not built")
            .degree(v)
    }

    /// Streaming decoder over `v`'s sorted in-neighbors. Requires the
    /// reverse index.
    ///
    /// # Panics
    /// Panics if the source graph had no reverse index.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> RowDecoder<'_> {
        self.rev
            .as_ref()
            .expect("reverse index not built")
            .decode(v)
    }

    /// Encoded bytes of `v`'s out-row — the bytes a kernel actually
    /// streams scanning it.
    #[inline]
    pub fn row_bytes(&self, v: VertexId) -> u64 {
        self.fwd.row_bytes(v)
    }

    /// Encoded bytes of `v`'s in-row.
    #[inline]
    pub fn in_row_bytes(&self, v: VertexId) -> u64 {
        self.rev.as_ref().map_or(0, |r| r.row_bytes(v))
    }

    /// Total encoded adjacency bytes (forward + reverse rows).
    #[inline]
    pub fn adjacency_bytes(&self) -> u64 {
        self.fwd.bytes.len() as u64 + self.rev.as_ref().map_or(0, |r| r.bytes.len() as u64)
    }

    /// What the same adjacency costs in plain CSR form: 4 bytes per
    /// stored target (and per reverse source). The compression-ratio
    /// denominator.
    #[inline]
    pub fn plain_adjacency_bytes(&self) -> u64 {
        let m = self.num_edges() as u64;
        4 * if self.rev.is_some() { 2 * m } else { m }
    }

    /// Heap bytes held by this structure (adjacency, offsets, weights) —
    /// the snapshot cache's accounting hook.
    pub fn mem_bytes(&self) -> u64 {
        let offs = |r: &CompressedRows| 8 * (r.edge_offsets.len() + r.byte_offsets.len()) as u64;
        self.adjacency_bytes()
            + offs(&self.fwd)
            + self.rev.as_ref().map_or(0, |r| offs(r))
            + self.weights.as_ref().map_or(0, |w| 4 * w.len() as u64)
    }
}

/// Streaming `(target, weight)` decoder; weight defaults to 1.0 on
/// unweighted graphs.
#[derive(Clone, Debug)]
pub struct WeightedRowDecoder<'a> {
    targets: RowDecoder<'a>,
    weights: Option<&'a [Weight]>,
    idx: usize,
}

impl Iterator for WeightedRowDecoder<'_> {
    type Item = (VertexId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, Weight)> {
        let t = self.targets.next()?;
        let w = self.weights.map_or(1.0, |w| w[self.idx]);
        self.idx += 1;
        Some((t, w))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.targets.size_hint()
    }
}

impl ExactSizeIterator for WeightedRowDecoder<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;
    use crate::gen;

    fn assert_round_trip(g: &CsrGraph) {
        let c = CompressedCsr::from_csr(g);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.is_weighted(), g.is_weighted());
        assert_eq!(c.has_reverse(), g.has_reverse());
        for v in g.vertices() {
            assert_eq!(c.degree(v), g.degree(v));
            let row: Vec<VertexId> = c.neighbors(v).collect();
            assert_eq!(row, g.neighbors(v), "row {v}");
            let wrow: Vec<(VertexId, Weight)> = c.weighted_neighbors(v).collect();
            let want: Vec<(VertexId, Weight)> = g.weighted_neighbors(v).collect();
            assert_eq!(wrow, want, "weighted row {v}");
            if g.has_reverse() {
                let irow: Vec<VertexId> = c.in_neighbors(v).collect();
                assert_eq!(irow, g.in_neighbors(v), "in-row {v}");
            }
        }
        let back = c.to_csr();
        assert_eq!(back.raw_offsets(), g.raw_offsets());
        assert_eq!(back.raw_targets(), g.raw_targets());
        assert_eq!(back.raw_weights(), g.raw_weights());
        if g.has_reverse() {
            for v in g.vertices() {
                assert_eq!(back.in_neighbors(v), g.in_neighbors(v));
            }
        }
    }

    #[test]
    fn varint_boundaries() {
        let mut buf = [0u8; 5];
        for x in [0u32, 1, 127, 128, 16383, 16384, u32::MAX] {
            let n = write_varint(&mut buf, x);
            assert_eq!(n, varint_len(x), "len for {x}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), x);
            assert_eq!(pos, n);
        }
    }

    #[test]
    fn round_trips_simple_graphs() {
        assert_round_trip(&CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]));
        assert_round_trip(&CsrGraph::from_edges(0, &[]));
        assert_round_trip(&CsrGraph::from_edges(10, &[(0, 9)]));
    }

    #[test]
    fn round_trips_weighted_multigraph_with_self_loops() {
        // Parallel edges (gap 0 in the varint stream) and self-loops.
        let g = CsrBuilder::new(5)
            .weighted_edges([
                (0, 1, 2.0),
                (0, 1, 3.0),
                (1, 1, 0.5),
                (2, 4, 1.0),
                (4, 0, 9.0),
            ])
            .reverse(true)
            .build();
        assert_round_trip(&g);
    }

    #[test]
    fn round_trips_rmat_with_reverse() {
        let edges = gen::rmat(10, 12 << 10, gen::RmatParams::GRAPH500, 7);
        let g = CsrBuilder::new(1 << 10)
            .edges(edges.iter().copied())
            .symmetrize(true)
            .dedup(true)
            .drop_self_loops(true)
            .reverse(true)
            .build();
        assert_round_trip(&g);
    }

    #[test]
    fn rmat_rows_compress_at_least_2x() {
        let edges = gen::rmat(12, 12 << 12, gen::RmatParams::GRAPH500, 42);
        let g = CsrBuilder::new(1 << 12)
            .edges(edges.iter().copied())
            .symmetrize(true)
            .dedup(true)
            .drop_self_loops(true)
            .reverse(true)
            .build();
        let c = CompressedCsr::from_csr(&g);
        let ratio = c.plain_adjacency_bytes() as f64 / c.adjacency_bytes() as f64;
        assert!(ratio >= 2.0, "compression ratio only {ratio:.2}");
    }

    #[test]
    fn row_bytes_sum_to_total() {
        let edges = gen::rmat(9, 12 << 9, gen::RmatParams::GRAPH500, 3);
        let g = CsrBuilder::new(1 << 9)
            .edges(edges.iter().copied())
            .dedup(true)
            .reverse(true)
            .build();
        let c = CompressedCsr::from_csr(&g);
        let fwd: u64 = g.vertices().map(|v| c.row_bytes(v)).sum();
        let rev: u64 = g.vertices().map(|v| c.in_row_bytes(v)).sum();
        assert_eq!(fwd + rev, c.adjacency_bytes());
        assert!(fwd > 0);
    }
}
