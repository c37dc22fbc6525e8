//! # ga-bench — the reproduction harness
//!
//! One binary per figure of the paper (see DESIGN.md §4 for the
//! experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig1_taxonomy` | Fig. 1, the kernel/benchmark spectrum table |
//! | `fig2_flow` | Fig. 2, the combined batch+streaming reference run with instrumentation |
//! | `fig3_nora_model` | Fig. 3, per-step resource bars for every configuration |
//! | `fig4_sparse` | Fig. 4 / §V-A, sparse pipeline vs cache node SpGEMM sweep |
//! | `fig5_emu` | Fig. 5 / §V-B, migrating threads vs remote access |
//! | `fig6_size_perf` | Fig. 6, size (racks) vs performance for all systems |
//! | `ablation_emu` | §V-B ablation, Fig. 5 vs packet size, hop latency and references per element |
//! | `calibrated_model` | §VI, measured counters priced through the cost model |
//!
//! Sweeps no other harness takes yet, each writing one `BENCH_*.json`
//! and failing the run when its gate does not hold:
//!
//! | binary | sweeps | gate |
//! |---|---|---|
//! | `bench_tiered` | RAM budgets 100/50/25 % (E18) | zero loss after repair, tier IO priced as disk |
//! | `bench_serve` | offered QPS, frozen and under ingest (E19) | monotone epochs, served = replay |
//! | `bench_obs` | recorder off vs on (E14) | overhead < 5 % with `--assert-overhead` |
//!
//! Criterion benches time single operations; end-to-end and per-layer
//! numbers, the GAP kernel cells included, come from `bench_e2e`:
//!
//! | bench | groups |
//! |---|---|
//! | `kernels` | `bfs`, `sssp`, `connected_components`, `pagerank`, `triangles`, `jaccard`, `ball`, `nora` (E40), `serial_vs_parallel` |
//! | `streaming` | `stream_ingest`, `jaccard_query_rmat16`, `queries` (E32, E33), `fleet` (E15) |
//! | `linalg` | `spmv`, `spgemm`, `matrix_vs_direct` |
//! | `archsim` | `emu_pointer_chase_100k`, `emu_gups_100k`, `sparse_spgemm_work_4k`, `nora_model_all_configs` |
//! | `snapshot` | `snapshot_full`, `snapshot_delta` (E12) |

#![warn(missing_docs)]

/// Smoke mode (`GA_BENCH_SMOKE=1` or `--smoke`): a CI-sized run.
pub fn smoke() -> bool {
    std::env::var("GA_BENCH_SMOKE").is_ok_and(|v| v == "1")
        || std::env::args().any(|a| a == "--smoke")
}

/// The R-MAT scale of a run: `GA_BENCH_SCALE` when it parses, else
/// `smoke` in smoke mode and `full` otherwise.
pub fn scale(full: u32, smoke: u32) -> u32 {
    std::env::var("GA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if self::smoke() { smoke } else { full })
}

/// Format a floating value with engineering-style suffixes.
pub fn eng(x: f64) -> String {
    let ax = x.abs();
    if ax >= 1e12 {
        format!("{:.2}T", x / 1e12)
    } else if ax >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if ax >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if ax >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else {
        format!("{x:.3}")
    }
}

/// Render a simple ASCII bar of `value` against `max` (width 40).
pub fn bar(value: f64, max: f64) -> String {
    let width = 40.0;
    let n = if max > 0.0 {
        ((value / max) * width).round() as usize
    } else {
        0
    };
    "#".repeat(n.min(60))
}

/// Print a header line.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// The tuple-materializing, globally-sorting `CsrBuilder` freeze the
/// row-wise snapshot path replaced — the baseline the snapshot benches
/// time `ga_graph::snapshot::freeze` against.
pub fn global_sort_freeze(g: &ga_graph::DynamicGraph) -> ga_graph::CsrGraph {
    ga_graph::CsrBuilder::new(g.num_vertices())
        .weighted_edges(g.edges().map(|(u, v, w, _)| (u, v, w)))
        .build()
}

/// The random square operand of the Fig. 4 sweeps and the sparse
/// benches: `nnz_per_row` uniform columns per row (ChaCha8, `seed`),
/// every entry 1.0, repeated columns summed.
pub fn random_sparse(n: usize, nnz_per_row: usize, seed: u64) -> ga_linalg::CsrMatrix<f64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n * nnz_per_row);
    for r in 0..n as u32 {
        for _ in 0..nnz_per_row {
            edges.push((r, rng.gen_range(0..n) as u32));
        }
    }
    let g = ga_graph::CsrBuilder::new(n).edges(edges).build();
    ga_linalg::CsrMatrix::from_graph(&g, |_, _, _| 1.0, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_suffixes() {
        assert_eq!(eng(1234.0), "1.23k");
        assert_eq!(eng(2.5e9), "2.50G");
        assert_eq!(eng(0.5), "0.500");
        assert_eq!(eng(3.7e12), "3.70T");
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(1.0, 1.0).len(), 40);
        assert_eq!(bar(0.5, 1.0).len(), 20);
        assert_eq!(bar(0.0, 1.0).len(), 0);
        assert_eq!(bar(1.0, 0.0).len(), 0);
    }
}
