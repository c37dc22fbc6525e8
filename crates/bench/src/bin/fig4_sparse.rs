//! Regenerate Fig. 4 / §V-A: the sparse linear-algebra pipeline
//! processor vs a conventional cache-hierarchy node on SpGEMM, swept
//! over matrix size and density, plus multi-node scaling.
//!
//! Shape claims checked: the pipeline node holds "perhaps more than an
//! order of magnitude performance advantage over a node for a Cray
//! XT4" on very sparse operands; the advantage shrinks as density (and
//! cache hit rate) rises; ASIC projections add another order of
//! magnitude; perf/W is even more lopsided.
//!
//! ```sh
//! cargo run --release -p ga-bench --bin fig4_sparse
//! ```

use ga_archsim::sparse::{
    simulate_cache, simulate_pipeline, simulate_pipeline_multinode, spgemm_work, CacheNode,
    PipelineNode,
};
use ga_bench::{eng, header, random_sparse};

fn main() {
    header("Fig. 4 / §V-A — sparse pipeline processor vs cache node (SpGEMM)");
    let fpga = PipelineNode::fpga_prototype();
    let asic = PipelineNode::asic_projection();

    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>12} {:>9} {:>9} {:>10}",
        "n",
        "nnz/row",
        "FPGA MACs/s",
        "XT4 MACs/s",
        "ASIC MACs/s",
        "FPGA/XT4",
        "ASIC/XT4",
        "useful-B%"
    );
    for &(n, nnz) in &[
        (4096usize, 8usize),
        (16384, 8),
        (65536, 8),
        (262144, 8),
        (262144, 4),
        (262144, 16),
        (524288, 8),
    ] {
        let a = random_sparse(n, nnz, 1);
        let b = random_sparse(n, nnz, 2);
        let w = spgemm_work(&a, &b);
        // The cache node's hit rate collapses once B no longer fits in
        // the 2 MB last-level cache: random row gathers touch all of B.
        let b_bytes = b.nnz() as f64 * 8.0;
        let mut cache = CacheNode::xt4();
        cache.hit_rate = (2e6 / b_bytes).min(0.95);
        let p = simulate_pipeline(&w, &fpga);
        let c = simulate_cache(&w, &cache);
        let s = simulate_pipeline(&w, &asic);
        println!(
            "{:<8} {:>8} {:>12} {:>12} {:>12} {:>8.1}x {:>8.1}x {:>9.1}%",
            n,
            nnz,
            eng(p.macs_per_sec),
            eng(c.macs_per_sec),
            eng(s.macs_per_sec),
            p.macs_per_sec / c.macs_per_sec,
            s.macs_per_sec / c.macs_per_sec,
            c.useful_byte_fraction * 100.0
        );
    }

    header("Performance per watt (MACs/J)");
    let a = random_sparse(16384, 8, 3);
    let b = random_sparse(16384, 8, 4);
    let w = spgemm_work(&a, &b);
    let mut cache = CacheNode::xt4();
    cache.hit_rate = 0.05;
    let p = simulate_pipeline(&w, &fpga);
    let c = simulate_cache(&w, &cache);
    let s = simulate_pipeline(&w, &asic);
    println!("FPGA pipeline: {}/J", eng(p.macs_per_joule));
    println!("XT4 node:      {}/J", eng(c.macs_per_joule));
    println!("ASIC proj.:    {}/J", eng(s.macs_per_joule));
    println!(
        "FPGA/XT4 perf/W = {:.1}x, ASIC/XT4 = {:.1}x  (paper: 'even more striking')",
        p.macs_per_joule / c.macs_per_joule,
        s.macs_per_joule / c.macs_per_joule
    );

    header("Multi-node scaling (3-D mesh, 1 GB/s links)");
    println!("{:>6} {:>14} {:>10}", "nodes", "agg MACs/s", "efficiency");
    let (r1, _) = simulate_pipeline_multinode(&w, &fpga, 1, 1e9);
    for &nodes in &[1usize, 2, 4, 8, 16, 32, 64] {
        let (r, _) = simulate_pipeline_multinode(&w, &fpga, nodes, 1e9);
        println!(
            "{:>6} {:>14} {:>9.0}%",
            nodes,
            eng(r.macs_per_sec),
            r.macs_per_sec / (r1.macs_per_sec * nodes as f64) * 100.0
        );
    }
}
