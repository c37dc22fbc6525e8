//! E17 driver: the GAP-parity kernel pass.
//!
//! For the five GAP Benchmark Suite kernels (BFS, PageRank, SSSP,
//! connected components, triangle counting) over two graph shapes
//! (skewed R-MAT and flat uniform), the driver runs each kernel on the
//! plain `CsrGraph` and on the delta-varint [`CompressedCsr`]
//! (PageRank at a forced iteration count), and records:
//!
//! * **agreement** — every kernel must return *bit-identical* results
//!   on both adjacency representations (any divergence aborts with a
//!   non-zero exit, at every scale — the gate CI relies on);
//! * **compression** — encoded adjacency bytes vs the plain 4 B/edge
//!   layout; at scale ≥ 13 the R-MAT ratio is gated at ≥ 2×;
//! * **wall clock** — best-of-N trials per kernel per representation.
//!
//! Results land in `BENCH_gap.json`.
//!
//! ```sh
//! cargo run --release -p ga-bench --bin bench_gap
//! # smoke (CI): GA_BENCH_SMOKE=1 GA_BENCH_SCALE=12 cargo run ... --bin bench_gap
//! ```

use ga_bench::{eng, header};
use ga_graph::gen::{self, RmatParams};
use ga_graph::{CompressedCsr, CsrBuilder, CsrGraph, VertexId};
use ga_kernels::{bfs, cc, pagerank, sssp, triangles, KernelCtx};
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("GA_BENCH_SMOKE").is_ok_and(|v| v == "1")
        || std::env::args().any(|a| a == "--smoke")
}

const DAMPING: f64 = 0.85;
/// Fixed-iteration PageRank: tol 0 forces every sweep.
const PR_ITERS: usize = 20;

struct KernelPoint {
    kernel: &'static str,
    plain_ms: f64,
    compressed_ms: f64,
    agrees: bool,
}

struct ShapePoint {
    shape: &'static str,
    plain_adj_bytes: u64,
    compressed_adj_bytes: u64,
    ratio: f64,
    kernels: Vec<KernelPoint>,
}

/// Best-of-`trials` wall time for `f`, keeping the last result.
fn time_best<T>(trials: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..trials {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.unwrap())
}

fn run_shape(
    shape: &'static str,
    edges: &[(VertexId, VertexId)],
    num_vertices: usize,
    trials: usize,
) -> ShapePoint {
    // One graph serves all five kernels: undirected simple weighted
    // CSR with a reverse index (triangles need simple+undirected, pull
    // PageRank needs reverse, SSSP needs weights).
    let weighted = gen::with_random_weights(edges, 0.05, 1.0, 7);
    let g: CsrGraph = CsrBuilder::new(num_vertices)
        .weighted_edges(weighted)
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true)
        .reverse(true)
        .build();
    let c = CompressedCsr::from_csr(&g);
    let src: VertexId = (0..num_vertices as VertexId)
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0);
    let ctx = KernelCtx::parallel();

    header(&format!(
        "{shape}: {} vertices, {} directed edges, src {src}",
        g.num_vertices(),
        g.num_edges()
    ));

    let mut kernels = Vec::new();
    let mut push = |kernel: &'static str, plain_ms: f64, compressed_ms: f64, agrees: bool| {
        println!(
            "{kernel:>4}: plain {plain_ms:8.2} ms, compressed {compressed_ms:8.2} ms ({:+5.1}%) | {}",
            (compressed_ms / plain_ms - 1.0) * 100.0,
            if agrees { "bit-identical" } else { "DIVERGED" },
        );
        kernels.push(KernelPoint {
            kernel,
            plain_ms,
            compressed_ms,
            agrees,
        });
    };

    let (bp_ms, bp) = time_best(trials, || bfs::bfs_with(&g, src, &ctx));
    let (bc_ms, bc) = time_best(trials, || bfs::bfs_with(&c, src, &ctx));
    push("bfs", bp_ms, bc_ms, bp.depth == bc.depth);

    let (pp_ms, pp) = time_best(trials, || {
        pagerank::pagerank_with(&g, DAMPING, 0.0, PR_ITERS, &ctx)
    });
    let (pc_ms, pc) = time_best(trials, || {
        pagerank::pagerank_with(&c, DAMPING, 0.0, PR_ITERS, &ctx)
    });
    push("pr", pp_ms, pc_ms, pp.rank == pc.rank);

    let (sp_ms, sp) = time_best(trials, || sssp::sssp_auto_with(&g, src, &ctx));
    let (sc_ms, sc) = time_best(trials, || sssp::sssp_auto_with(&c, src, &ctx));
    push(
        "sssp",
        sp_ms,
        sc_ms,
        sp.dist == sc.dist && sp.parent == sc.parent,
    );

    let (cp_ms, cp) = time_best(trials, || cc::wcc_with(&g, &ctx));
    let (ccm_ms, ccm) = time_best(trials, || cc::wcc_with(&c, &ctx));
    push(
        "cc",
        cp_ms,
        ccm_ms,
        cp.label == ccm.label && cp.count == ccm.count,
    );

    let (tp_ms, tp) = time_best(trials, || triangles::count_global_with(&g, &ctx));
    let (tc_ms, tc) = time_best(trials, || triangles::count_global_with(&c, &ctx));
    push("tc", tp_ms, tc_ms, tp == tc);

    let plain_adj_bytes = c.plain_adjacency_bytes();
    let compressed_adj_bytes = c.adjacency_bytes();
    let ratio = plain_adj_bytes as f64 / compressed_adj_bytes as f64;
    println!(
        "adjacency: plain {} B, compressed {} B — {ratio:.2}x smaller",
        eng(plain_adj_bytes as f64),
        eng(compressed_adj_bytes as f64),
    );

    ShapePoint {
        shape,
        plain_adj_bytes,
        compressed_adj_bytes,
        ratio,
        kernels,
    }
}

fn json_shape(p: &ShapePoint) -> String {
    let mut j = String::new();
    j.push_str(&format!("    \"{}\": {{\n", p.shape));
    j.push_str(&format!(
        "      \"plain_adj_bytes\": {}, \"compressed_adj_bytes\": {}, \"compression_ratio\": {:.3},\n",
        p.plain_adj_bytes, p.compressed_adj_bytes, p.ratio
    ));
    j.push_str("      \"kernels\": [\n");
    for (i, k) in p.kernels.iter().enumerate() {
        j.push_str(&format!(
            "        {{\"kernel\": \"{}\", \"plain_ms\": {:.2}, \"compressed_ms\": {:.2}, \"agrees\": {}}}{}\n",
            k.kernel,
            k.plain_ms,
            k.compressed_ms,
            k.agrees,
            if i + 1 == p.kernels.len() { "" } else { "," },
        ));
    }
    j.push_str("      ]\n");
    j.push_str("    }");
    j
}

fn main() {
    let smoke = smoke();
    // Full runs default to scale 18: the f64 contribution array (2 MiB)
    // plus rank vectors decisively outgrow this host's 2 MiB L2, the
    // regime PageRank's cache blocking exists for.
    let scale: u32 = std::env::var("GA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 12 } else { 18 });
    let trials: usize = std::env::var("GA_BENCH_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 1 } else { 3 });
    let num_vertices = 1usize << scale;
    let num_edges = 16 * num_vertices;

    header(&format!(
        "E17 — GAP-parity kernel pass, scale {scale} ({num_vertices} vertices, \
         {num_edges} generated edges), best of {trials} trial(s)"
    ));

    let rmat = run_shape(
        "rmat",
        &gen::rmat(scale, num_edges, RmatParams::GRAPH500, 42),
        num_vertices,
        trials,
    );
    let uniform = run_shape(
        "uniform",
        &gen::erdos_renyi(num_vertices, num_edges, 42),
        num_vertices,
        trials,
    );

    // Hand-rolled JSON (no serde in the dependency budget).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"scale\": {scale},\n"));
    j.push_str(&format!("  \"num_vertices\": {num_vertices},\n"));
    j.push_str(&format!("  \"generated_edges\": {num_edges},\n"));
    j.push_str(&format!("  \"trials\": {trials},\n"));
    j.push_str(&format!("  \"smoke\": {smoke},\n"));
    j.push_str(&format!(
        "  \"pagerank\": {{\"damping\": {DAMPING}, \"iterations\": {PR_ITERS}}},\n"
    ));
    j.push_str("  \"graphs\": {\n");
    j.push_str(&json_shape(&rmat));
    j.push_str(",\n");
    j.push_str(&json_shape(&uniform));
    j.push_str("\n  }\n");
    j.push_str("}\n");
    std::fs::write("BENCH_gap.json", &j).expect("write BENCH_gap.json");
    println!("\nwrote BENCH_gap.json");

    // Agreement is the whole point of the representation swap:
    // divergence is always fatal, at every scale.
    let mut diverged: Vec<String> = Vec::new();
    for p in [&rmat, &uniform] {
        for k in &p.kernels {
            if !k.agrees {
                diverged.push(format!("{}/{}", p.shape, k.kernel));
            }
        }
    }
    if !diverged.is_empty() {
        eprintln!("DIVERGENCE between adjacency representations: {diverged:?}");
        std::process::exit(1);
    }
    println!("all kernels bit-identical across plain and compressed adjacency");

    // The compression gate only binds at GAP-meaningful sizes; the CI
    // smoke at scale 12 checks agreement alone.
    if scale >= 13 {
        if rmat.ratio < 2.0 {
            eprintln!(
                "compression gate: R-MAT adjacency ratio {:.2}x < 2.0x",
                rmat.ratio
            );
            std::process::exit(1);
        }
        println!("gate passed: R-MAT compression {:.2}x >= 2x", rmat.ratio);
    }
}
