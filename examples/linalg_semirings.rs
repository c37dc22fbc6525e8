//! A tour of "graph algorithms in the language of linear algebra"
//! (Kepner–Gilbert, the algorithm family the paper's Fig. 4 machine
//! accelerates): the same graph, four semirings, four algorithms —
//! each cross-checked against the direct kernel implementation.
//!
//! ```sh
//! cargo run --release --example linalg_semirings
//! ```

use graph_analytics::graph::gen;
use graph_analytics::linalg::algos;
use graph_analytics::linalg::kron::kron_power;
use graph_analytics::linalg::semiring::OrAnd;
use graph_analytics::linalg::CsrMatrix;
use graph_analytics::prelude::*;

fn main() {
    let scale = 10u32;
    let edges = gen::rmat(scale, 12 << scale, gen::RmatParams::GRAPH500, 3);
    let g = CsrBuilder::new(1 << scale)
        .edges(edges.iter().copied())
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true)
        .reverse(true)
        .build();
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // (or, and): BFS as masked boolean frontier products.
    let lv = algos::bfs_levels(&g, 0);
    let direct = bfs::bfs(&g, 0);
    let agree = lv
        .iter()
        .zip(&direct.depth)
        .all(|(&a, &b)| (a == u32::MAX) == (b == u32::MAX) && (a == u32::MAX || a == b));
    println!("(∨,∧)   BFS levels        == queue BFS: {agree}");

    // (min, +): Bellman–Ford as SpMV against Dijkstra.
    let w = gen::with_random_weights(&edges, 0.1, 2.0, 5);
    let wg = graph_analytics::graph::CsrGraph::from_weighted_edges(1 << scale, &w);
    let bf = algos::bellman_ford(&wg, 0);
    let dj = sssp::dijkstra(&wg, 0);
    let agree = bf
        .iter()
        .zip(&dj.dist)
        .all(|(&a, &b)| (a - b as f64).abs() < 1e-3 || (a.is_infinite() && b.is_infinite()));
    println!("(min,+) Bellman–Ford SpMV == Dijkstra:  {agree}");

    // (+, ×): PageRank as power iteration.
    let pr_m = algos::pagerank(&g, 0.85, 1e-10, 200);
    let pr_d = pagerank::pagerank(&g, 0.85, 1e-10, 200);
    let max_diff = pr_m
        .iter()
        .zip(&pr_d.rank)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("(+,×)   PageRank SpMV     ~= pull PR:   max diff {max_diff:.2e}");

    // (+, ×) on L·L ⊙ L: triangle counting.
    let t_m = algos::triangle_count(&g);
    let t_d = triangles::count_global(&g);
    println!(
        "(+,×)   tri = Σ(L·L)⊙L    == merge-intersect: {t_m} == {t_d}: {}",
        t_m == t_d
    );

    // Kronecker powers: the Graph500 generator, exactly.
    let init = CsrBuilder::new(2).edges([(0, 0), (0, 1), (1, 0)]).build();
    let initiator = CsrMatrix::from_graph(&init, |_, _, _| true, |x, _| x);
    let k6 = kron_power(OrAnd, &initiator, 6);
    println!(
        "Kronecker power 6 of the Graph500 initiator: {0}x{0}, {1} nnz (3^6 = 729)",
        k6.dim(),
        k6.nnz()
    );
}
