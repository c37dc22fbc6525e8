//! The GAP suite on the parallel engines — bottom-up BFS blocks, SSSP
//! bucket phases, nested joins, per-vertex ranges, from the plain and
//! the compressed adjacency — runs on the pool's
//! `current_num_threads() - 1` workers and no other thread. A test binary of its own with this single test,
//! so nothing else moves the process's thread count.

use ga_graph::gen::{self, RmatParams};
use ga_kernels::{bfs, cc, pagerank, sssp, triangles, KernelCtx};

/// OS threads in this process (`None` where there is no procfs).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

#[test]
fn parallel_kernel_suite_runs_on_the_fixed_pool() {
    // Before anything parallel: building the graph already sorts on the pool.
    let before = os_threads();
    let with_pool = before.map(|t| t + rayon::current_num_threads() - 1);
    assert_eq!(os_threads(), with_pool);
    let edges = gen::rmat(11, 16 << 11, RmatParams::GRAPH500, 5);
    let weighted = gen::with_random_weights(&edges, 0.05, 1.0, 6);
    let g = ga_graph::CsrBuilder::new(1 << 11)
        .weighted_edges(weighted)
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true)
        .reverse(true)
        .build();
    let c = ga_graph::CompressedCsr::from_csr(&g);
    let ctx = KernelCtx::parallel();
    for _ in 0..3 {
        for src in [0, 7, 1023] {
            let want = bfs::bfs(&g, src);
            for r in [bfs::bfs_with(&g, src, &ctx), bfs::bfs_with(&c, src, &ctx)] {
                assert_eq!(r.depth, want.depth);
                assert_eq!(r.parent, want.parent);
            }
            let want = sssp::dijkstra(&g, src);
            for r in [
                sssp::sssp_auto_with(&g, src, &ctx),
                sssp::sssp_auto_with(&c, src, &ctx),
            ] {
                assert_eq!(r, want);
            }
        }
        pagerank::pagerank_with(&g, 0.85, 0.0, 5, &ctx);
        assert_eq!(cc::wcc_with(&g, &ctx), cc::wcc_with(&c, &ctx));
        triangles::count_global_with(&g, &ctx);
        assert_eq!(os_threads(), with_pool);
    }
}
