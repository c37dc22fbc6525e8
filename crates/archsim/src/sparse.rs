//! Fig. 4: the sparse linear-algebra pipeline processor.
//!
//! "The dotted and dashed lines ... represent two streams of matrix
//! component references that start with address generation of multiple
//! sparse vectors, proceed through a memory designed to support
//! irregular accesses, then through a sorter to align the individual
//! components from pairs of sparse vectors that are both non-zero, go
//! through an ALU to perform multiply-accumulates, and then go back into
//! memory."
//!
//! The simulator extracts the *exact element traffic* of a Gustavson
//! SpGEMM from real `ga-linalg` matrices, then prices it on two cost
//! models:
//!
//! * [`PipelineNode`] — every streamed element costs one 8-byte word of
//!   memory traffic (the irregular-access memory delivers full
//!   utilization on sparse streams); the sorter and MAC array consume
//!   elements at fixed rates; node time = the slowest stage (a balanced
//!   pipeline overlaps stages).
//! * [`CacheNode`] — a conventional core fetching B-rows through a
//!   cache hierarchy: each *random* sparse access pays a full cache
//!   line, so at high sparsity the useful fraction of each line
//!   collapses — the exact effect the Fig. 4 machine removes.
//!
//! Multi-node scaling follows the prototype: rows of A are partitioned
//! round-robin; every node streams its share and the result shuffle
//! crosses the 3-D mesh bisection.

use crate::counters::TrafficReport;
use ga_linalg::CsrMatrix;

/// Element traffic of one SpGEMM, independent of the machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpgemmWork {
    /// Multiply-accumulate operations (Σ over rows r and entries k of
    /// A's row r of nnz(B\[k\])).
    pub macs: u64,
    /// Elements streamed from memory (nnz(A) + fetched B elements).
    pub elements_in: u64,
    /// Elements written back (nnz(C)).
    pub elements_out: u64,
    /// Distinct random row fetches into B.
    pub row_fetches: u64,
}

/// Count the work of C = A·B without materializing C (plus an exact
/// nnz(C) pass, which is cheap at these scales).
pub fn spgemm_work<T: Copy>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> SpgemmWork {
    assert_eq!(a.dim(), b.dim());
    let mut macs = 0u64;
    let mut fetched = 0u64;
    let mut row_fetches = 0u64;
    let mut out = 0u64;
    let mut marker = vec![u32::MAX; b.dim()];
    for r in 0..a.dim() {
        let mut row_nnz = 0u64;
        for &k in a.row_indices(r) {
            let bl = b.row_indices(k as usize).len() as u64;
            macs += bl;
            fetched += bl;
            row_fetches += 1;
            for &c in b.row_indices(k as usize) {
                if marker[c as usize] != r as u32 {
                    marker[c as usize] = r as u32;
                    row_nnz += 1;
                }
            }
        }
        out += row_nnz;
    }
    SpgemmWork {
        macs,
        elements_in: a.nnz() as u64 + fetched,
        elements_out: out,
        row_fetches,
    }
}

/// One Fig. 4 accelerator node.
#[derive(Clone, Copy, Debug)]
pub struct PipelineNode {
    /// Clock (Hz). The FPGA prototype ran ~100 MHz; an ASIC ~1 GHz.
    pub clock_hz: f64,
    /// Sparse elements the address generators issue per cycle.
    pub addr_gen_per_cycle: f64,
    /// Random 8-byte words the irregular-access memory sustains per cycle.
    pub mem_words_per_cycle: f64,
    /// Element pairs the sorter aligns per cycle.
    pub sorter_elems_per_cycle: f64,
    /// Multiply-accumulates per cycle.
    pub macs_per_cycle: f64,
    /// Watts per node (for the perf/W shape claim).
    pub watts: f64,
}

impl PipelineNode {
    /// The 8-node FPGA prototype's per-node parameters: ~100 MHz but
    /// with 16 parallel lanes per stage (multi-bank irregular-access
    /// memory + systolic sorter — the whole point of Fig. 4's design).
    pub fn fpga_prototype() -> Self {
        PipelineNode {
            clock_hz: 100e6,
            addr_gen_per_cycle: 16.0,
            mem_words_per_cycle: 16.0,
            sorter_elems_per_cycle: 16.0,
            macs_per_cycle: 16.0,
            watts: 25.0,
        }
    }

    /// Projected ASIC: ~1 GHz and double the lanes ("another order of
    /// magnitude advantage in both metrics").
    pub fn asic_projection() -> Self {
        PipelineNode {
            clock_hz: 1e9,
            addr_gen_per_cycle: 32.0,
            mem_words_per_cycle: 32.0,
            sorter_elems_per_cycle: 32.0,
            macs_per_cycle: 32.0,
            watts: 40.0,
        }
    }
}

/// Conventional cache-hierarchy node (Cray-XT4-class core complex).
#[derive(Clone, Copy, Debug)]
pub struct CacheNode {
    /// Clock (Hz).
    pub clock_hz: f64,
    /// Scalar MACs per cycle when data is resident.
    pub macs_per_cycle: f64,
    /// Cache line size in bytes.
    pub line_bytes: f64,
    /// Effective memory bandwidth on *random* line-granularity access
    /// (latency × limited miss-level parallelism, not the streaming
    /// peak — ~100 ns misses × 8 outstanding × 64 B ≈ 5 GB/s).
    pub mem_bw: f64,
    /// Fraction of B-row accesses that hit in cache (small for matrices
    /// that dwarf the LLC; the knob the sparsity sweep turns).
    pub hit_rate: f64,
    /// Watts per node.
    pub watts: f64,
}

impl CacheNode {
    /// A 2.4 GHz quad-core XT4-era node.
    pub fn xt4() -> Self {
        CacheNode {
            clock_hz: 2.4e9,
            macs_per_cycle: 4.0,
            line_bytes: 64.0,
            mem_bw: 5e9,
            hit_rate: 0.1,
            watts: 100.0,
        }
    }
}

/// Report for one SpGEMM on one machine.
#[derive(Clone, Copy, Debug)]
pub struct SpgemmReport {
    /// Seconds for the operation.
    pub seconds: f64,
    /// Achieved MACs/second.
    pub macs_per_sec: f64,
    /// Bytes moved from memory.
    pub bytes_moved: f64,
    /// Fraction of moved bytes that were useful matrix elements.
    pub useful_byte_fraction: f64,
    /// MACs per joule (perf/W proxy).
    pub macs_per_joule: f64,
}

const ELEM_BYTES: f64 = 8.0;

/// Price `work` on a pipeline node. Stage times overlap; the slowest
/// stage bounds the run (the classic bottleneck pipeline model).
pub fn simulate_pipeline(work: &SpgemmWork, node: &PipelineNode) -> SpgemmReport {
    let elems = (work.elements_in + work.elements_out) as f64;
    let t_addr = work.elements_in as f64 / node.addr_gen_per_cycle;
    let t_mem = elems / node.mem_words_per_cycle;
    let t_sort = work.elements_in as f64 / node.sorter_elems_per_cycle;
    let t_mac = work.macs as f64 / node.macs_per_cycle;
    let cycles = t_addr.max(t_mem).max(t_sort).max(t_mac);
    let seconds = cycles / node.clock_hz;
    let bytes = elems * ELEM_BYTES;
    SpgemmReport {
        seconds,
        macs_per_sec: work.macs as f64 / seconds,
        bytes_moved: bytes,
        useful_byte_fraction: 1.0, // streams move only non-zeros
        macs_per_joule: work.macs as f64 / (seconds * node.watts),
    }
}

/// Price `work` on a cache node: every missed element drags a full
/// line; compute and memory overlap imperfectly (max model).
pub fn simulate_cache(work: &SpgemmWork, node: &CacheNode) -> SpgemmReport {
    let elems = (work.elements_in + work.elements_out) as f64;
    let missed = elems * (1.0 - node.hit_rate);
    let bytes = missed * node.line_bytes + (elems - missed) * ELEM_BYTES;
    let t_mem = bytes / node.mem_bw;
    let t_mac = work.macs as f64 / (node.macs_per_cycle * node.clock_hz);
    let seconds = t_mem.max(t_mac);
    SpgemmReport {
        seconds,
        macs_per_sec: work.macs as f64 / seconds,
        bytes_moved: bytes,
        useful_byte_fraction: elems * ELEM_BYTES / bytes,
        macs_per_joule: work.macs as f64 / (seconds * node.watts),
    }
}

/// Multi-node pipeline run: rows of A are partitioned evenly; each node
/// runs its shard; the C shuffle crosses the mesh. Returns the combined
/// report plus the network traffic.
pub fn simulate_pipeline_multinode(
    work: &SpgemmWork,
    node: &PipelineNode,
    nodes: usize,
    link_bw: f64,
) -> (SpgemmReport, TrafficReport) {
    assert!(nodes >= 1);
    let shard = SpgemmWork {
        macs: work.macs / nodes as u64,
        elements_in: work.elements_in / nodes as u64,
        elements_out: work.elements_out / nodes as u64,
        row_fetches: work.row_fetches / nodes as u64,
    };
    let local = simulate_pipeline(&shard, node);
    // Result shuffle: each node exchanges its C shard once; bisection of
    // a 3-D mesh of n nodes carries ~half the traffic.
    let shuffle_bytes = work.elements_out as f64 * ELEM_BYTES;
    let bisection_links = (nodes as f64).powf(2.0 / 3.0).max(1.0);
    let t_net = shuffle_bytes / (link_bw * bisection_links);
    let seconds = local.seconds + t_net;
    let report = SpgemmReport {
        seconds,
        macs_per_sec: work.macs as f64 / seconds,
        bytes_moved: local.bytes_moved * nodes as f64,
        useful_byte_fraction: 1.0,
        macs_per_joule: work.macs as f64 / (seconds * node.watts * nodes as f64),
    };
    let traffic = TrafficReport {
        messages: work.elements_out,
        bytes: shuffle_bytes as u64,
        total_latency_ns: t_net * 1e9,
        ops: work.macs,
        wall_ns: seconds * 1e9,
    };
    (report, traffic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_linalg::ops::spgemm;
    use ga_linalg::semiring::PlusTimes;

    use ga_graph::CsrBuilder;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// `nnz_per_row` uniform columns per row; repeated columns sum.
    fn random_sparse(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(n * nnz_per_row);
        for r in 0..n as u32 {
            for _ in 0..nnz_per_row {
                edges.push((r, rng.gen_range(0..n) as u32));
            }
        }
        let g = CsrBuilder::new(n).edges(edges).build();
        CsrMatrix::from_graph(&g, |_, _, _| 1.0, |x, y| x + y)
    }

    #[test]
    fn work_counts_match_actual_spgemm() {
        let a = random_sparse(200, 8, 1);
        let b = random_sparse(200, 8, 2);
        let w = spgemm_work(&a, &b);
        let c = spgemm(PlusTimes, &a, &b);
        assert_eq!(w.elements_out, c.nnz() as u64);
        // MACs >= output nnz; each output needed at least one MAC.
        assert!(w.macs >= w.elements_out);
        assert_eq!(w.row_fetches, a.nnz() as u64);
    }

    #[test]
    fn pipeline_beats_cache_on_sparse() {
        let a = random_sparse(1000, 8, 3);
        let b = random_sparse(1000, 8, 4);
        let w = spgemm_work(&a, &b);
        let p = simulate_pipeline(&w, &PipelineNode::fpga_prototype());
        let c = simulate_cache(&w, &CacheNode::xt4());
        let speedup = p.macs_per_sec / c.macs_per_sec;
        // The paper: "perhaps more than an order of magnitude performance
        // advantage over a node for a Cray XT4" — even an FPGA node
        // should land well above 1; the clock deficit caps it below ~40.
        assert!(speedup > 1.0, "speedup {speedup}");
        assert!(p.useful_byte_fraction > c.useful_byte_fraction);
    }

    #[test]
    fn asic_an_order_of_magnitude_over_fpga() {
        let a = random_sparse(500, 8, 5);
        let b = random_sparse(500, 8, 6);
        let w = spgemm_work(&a, &b);
        let f = simulate_pipeline(&w, &PipelineNode::fpga_prototype());
        let asic = simulate_pipeline(&w, &PipelineNode::asic_projection());
        let ratio = asic.macs_per_sec / f.macs_per_sec;
        assert!((10.0..=40.0).contains(&ratio), "ratio {ratio}");
        assert!(asic.macs_per_joule > f.macs_per_joule);
    }

    #[test]
    fn advantage_shrinks_with_cache_hits() {
        // As the working set fits (hit rate -> 1), the cache node stops
        // wasting line bandwidth and the gap narrows.
        let a = random_sparse(400, 8, 7);
        let b = random_sparse(400, 8, 8);
        let w = spgemm_work(&a, &b);
        let p = simulate_pipeline(&w, &PipelineNode::fpga_prototype());
        let mut cold = CacheNode::xt4();
        cold.hit_rate = 0.0;
        let mut warm = CacheNode::xt4();
        warm.hit_rate = 0.95;
        let s_cold = p.macs_per_sec / simulate_cache(&w, &cold).macs_per_sec;
        let s_warm = p.macs_per_sec / simulate_cache(&w, &warm).macs_per_sec;
        assert!(s_cold > s_warm, "cold {s_cold} vs warm {s_warm}");
    }

    #[test]
    fn multinode_scales_until_network_binds() {
        let a = random_sparse(2000, 8, 9);
        let b = random_sparse(2000, 8, 10);
        let w = spgemm_work(&a, &b);
        let node = PipelineNode::fpga_prototype();
        let (r1, _) = simulate_pipeline_multinode(&w, &node, 1, 1e9);
        let (r8, t8) = simulate_pipeline_multinode(&w, &node, 8, 1e9);
        assert!(r8.macs_per_sec > 3.0 * r1.macs_per_sec);
        assert!(t8.bytes > 0);
    }

    #[test]
    fn empty_work_is_free() {
        let w = SpgemmWork::default();
        let p = simulate_pipeline(&w, &PipelineNode::fpga_prototype());
        assert_eq!(p.seconds, 0.0);
    }
}
