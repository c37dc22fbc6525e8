//! A Graph500-style BFS benchmark run: Kronecker/R-MAT graph
//! construction, 64 random search keys, validated BFS trees, and the
//! harmonic-mean TEPS metric — the benchmark whose twice-yearly results
//! the paper (§IV) cites as the most exhaustive published data on graph
//! kernels.
//!
//! ```sh
//! cargo run --release --example graph500_bfs [scale]
//! ```

use graph_analytics::graph::gen;
use graph_analytics::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let edge_factor = 16usize;

    // --- kernel 1: graph construction ---------------------------------
    let t = Instant::now();
    let edges = gen::rmat(scale, edge_factor << scale, gen::RmatParams::GRAPH500, 2);
    let g = CsrBuilder::new(1 << scale)
        .edges(edges.iter().copied())
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true)
        .reverse(true)
        .build();
    let construction = t.elapsed();
    println!(
        "scale {scale}, edgefactor {edge_factor}: {} vertices, {} directed edges, construction {construction:?}",
        g.num_vertices(),
        g.num_edges()
    );

    // --- kernel 2: 64 BFS runs from random keys ------------------------
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut teps: Vec<f64> = Vec::new();
    let mut validated = 0;
    let ctx = KernelCtx::default();
    for _ in 0..64 {
        // Search keys must touch the connected part (degree > 0).
        let key = loop {
            let k = rng.gen_range(0..g.num_vertices()) as u32;
            if g.degree(k) > 0 {
                break k;
            }
        };
        let t = Instant::now();
        let r = bfs::bfs_with(&g, key, &ctx);
        let dt = t.elapsed().as_secs_f64();
        // Traversed edges ≈ edges incident to the reached component.
        let traversed: usize = (0..g.num_vertices() as u32)
            .filter(|&v| r.depth[v as usize] != u32::MAX)
            .map(|v| g.degree(v))
            .sum();
        teps.push(traversed as f64 / dt);
        r.validate(&g, key)
            .expect("BFS tree failed Graph500 validation");
        validated += 1;
    }
    let harmonic: f64 = teps.len() as f64 / teps.iter().map(|t| 1.0 / t).sum::<f64>();
    println!("{validated}/64 BFS trees validated");
    println!(
        "harmonic-mean TEPS: {:.3e} (min {:.3e}, max {:.3e})",
        harmonic,
        teps.iter().cloned().fold(f64::INFINITY, f64::min),
        teps.iter().cloned().fold(0.0, f64::max)
    );
}
