//! Quickstart: generate a graph, run a handful of Fig. 1 kernels, and
//! take a first look at the streaming side.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use graph_analytics::graph::gen;
use graph_analytics::prelude::*;

fn main() {
    // --- batch: a Graph500-style R-MAT graph --------------------------
    let scale = 14u32;
    let edges = gen::rmat(scale, 16 << scale, gen::RmatParams::GRAPH500, 42);
    let g = CsrBuilder::new(1 << scale)
        .edges(edges.iter().copied())
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true)
        .reverse(true)
        .build();
    println!(
        "graph: 2^{scale} vertices, {} directed edges",
        g.num_edges()
    );

    let b = bfs::bfs_with(&g, 0, &KernelCtx::default());
    println!("BFS from 0: reached {} vertices", b.reached);

    let comps = cc::wcc_union_find(&g);
    println!(
        "components: {} (largest has {} vertices)",
        comps.count,
        comps.largest().unwrap().1
    );

    let tri = triangles::count_global(&g);
    println!("triangles: {tri}");

    let pr = pagerank::pagerank(&g, 0.85, 1e-9, 100);
    let top = pr.top_k(3);
    println!("pagerank top-3: {top:?} (after {} sweeps)", pr.work);

    // --- streaming: replay an update stream over a dynamic graph ------
    let mut engine = StreamEngine::new(1 << 12);
    for batch in into_batches(rmat_edge_stream(12, 20_000, 0.1, 7), 1_000, 0) {
        engine.apply_batch(&batch);
    }
    let s = engine.stats();
    println!(
        "streamed {} inserts / {} deletes -> {} live edges",
        s.edges_inserted,
        s.edges_deleted,
        engine.graph().num_live_edges()
    );
    // Freeze a snapshot and confirm batch kernels run on it too.
    let snap = engine.graph().snapshot();
    println!("snapshot components: {}", cc::wcc_union_find(&snap).count);

    // --- serving: point queries over published epoch snapshots --------
    let mut flow = FlowEngine::new(1 << 12);
    for batch in into_batches(rmat_edge_stream(12, 20_000, 0.1, 7), 1_000, 0) {
        flow.process_stream(&batch, |_| None, None);
    }
    let service = QueryService::new(flow.serve_handle(), ServeConfig::default());
    let tenant = service.tenant(TenantConfig::new("quickstart", Priority::High));
    let mut client = service.client(&tenant);
    if let Some(QueryResponse::Scalar(d)) = client.run(&Query::Degree { vertex: 0 }).response() {
        println!("served degree(0) = {d}");
    }
    println!(
        "serving stats: {} answered, {} shed",
        service.stats().total_answered(),
        service.stats().total_shed()
    );
}
