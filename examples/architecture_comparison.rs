//! The two §V emerging architectures side by side on the same kernels,
//! plus where they land on the NORA model — a condensed tour of
//! Figs. 4, 5 and 6.
//!
//! ```sh
//! cargo run --release --example architecture_comparison
//! ```

use graph_analytics::archsim::emu::{
    bfs_expand, jaccard_query, pointer_chase, EmuConfig, ExecModel,
};
use graph_analytics::archsim::sparse::{
    simulate_cache, simulate_pipeline, spgemm_work, CacheNode, PipelineNode,
};
use graph_analytics::core::model::{
    all_upgrades, baseline2012, emu3, evaluate, nora_steps, stack_only_3d,
};
use graph_analytics::graph::gen;
use graph_analytics::linalg::CsrMatrix;
use graph_analytics::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    // --- the sparse pipeline machine (Fig. 4) -------------------------
    let n = 1 << 17;
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut edges = Vec::with_capacity(n * 8);
    for r in 0..n as u32 {
        for _ in 0..8 {
            edges.push((r, rng.gen_range(0..n) as u32));
        }
    }
    let g = CsrBuilder::new(n).edges(edges).build();
    let a = CsrMatrix::from_graph(&g, |_, _, _| 1.0, |x, y| x + y);
    let w = spgemm_work(&a, &a);
    let pipe = simulate_pipeline(&w, &PipelineNode::fpga_prototype());
    let mut xt4 = CacheNode::xt4();
    xt4.hit_rate = (2e6 / (a.nnz() as f64 * 8.0)).min(0.95);
    let cache = simulate_cache(&w, &xt4);
    println!(
        "SpGEMM ({}x{}, 8 nnz/row): pipeline {:.0} MMACs/s vs XT4 {:.0} MMACs/s  -> {:.1}x",
        n,
        n,
        pipe.macs_per_sec / 1e6,
        cache.macs_per_sec / 1e6,
        pipe.macs_per_sec / cache.macs_per_sec
    );

    // --- the migrating-thread machine (Fig. 5) ------------------------
    let cfg = EmuConfig::chick();
    let mig = pointer_chase(&cfg, ExecModel::Migrating, 1 << 18, 3);
    let rem = pointer_chase(&cfg, ExecModel::RemoteAccess, 1 << 18, 3);
    println!(
        "pointer-chase: migration uses {:.0}% of the bytes and {:.0}% of the latency of remote access",
        100.0 * mig.bytes as f64 / rem.bytes as f64,
        100.0 * mig.total_latency_ns / rem.total_latency_ns
    );

    let edges = gen::rmat(13, 16 << 13, gen::RmatParams::GRAPH500, 4);
    let g = CsrGraph::from_edges_undirected(1 << 13, &edges);
    let mig_bfs = bfs_expand(&cfg, ExecModel::Migrating, &g, 0);
    let rem_bfs = bfs_expand(&cfg, ExecModel::RemoteAccess, &g, 0);
    println!(
        "BFS: {:.2}x the traffic, {:.2}x the wall time of remote access",
        mig_bfs.bytes as f64 / rem_bfs.bytes as f64,
        mig_bfs.wall_ns / rem_bfs.wall_ns
    );

    let v = (0..g.num_vertices() as u32)
        .find(|&v| (8..=32).contains(&g.degree(v)))
        .unwrap();
    let q = jaccard_query(&cfg, ExecModel::Migrating, &g, v);
    println!(
        "one streaming Jaccard query (deg {}): {:.1} µs on the simulated Chick",
        g.degree(v),
        q.wall_ns / 1e3
    );

    // --- where they land on the NORA model (Figs. 3 & 6) --------------
    let steps = nora_steps();
    let base = evaluate(&baseline2012(), &steps);
    for cfg in [all_upgrades(), stack_only_3d(), emu3()] {
        let e = evaluate(&cfg, &steps);
        println!(
            "{:<36} {:>5.0} racks: {:>7.1}x the 2012 baseline",
            cfg.name,
            cfg.racks,
            e.speedup_over(&base)
        );
    }
}
