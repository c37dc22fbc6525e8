//! `kernels.gap`: the GAP protocol — fixed sources, repeated trials,
//! validated outputs, kernel time apart from build time — on two
//! scale-16, edge-factor-16 graphs. Kernels do all the work here; ingest,
//! the log and serving do none. Two degree shapes because blocked
//! PageRank and BFS frontier switching dispatch on skew.

use super::{ms, rounds, Config, Invalid, Tracers};
use crate::inputs::splitmix;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{LayerTimes, Tracer};
use ga_graph::gen::{self, RmatParams};
use ga_graph::{Adjacency, CompressedCsr, CsrBuilder, CsrGraph, OpSnapshot, VertexId};
use ga_kernels::bfs::{self, BfsResult};
use ga_kernels::cc::{self, Components};
use ga_kernels::sssp::{self, SsspResult};
use ga_kernels::{pagerank, triangles, KernelCtx};
use std::hint::black_box;
use std::time::Instant;

/// Kernel names: span names, and the `<kernel>` of `kernel_ms.<kernel>…`.
const KERNELS: [&str; 5] = ["bfs", "pagerank", "sssp", "cc", "tc"];

const DAMPING: f64 = 0.85;
/// Tolerance 0 forces every sweep, so trials do equal work.
const PAGERANK_ITERS: usize = 20;

#[derive(Clone, Copy)]
struct Sizes {
    scale: u32,
    edge_factor: usize,
    bfs_sources: usize,
    sssp_sources: usize,
}

const FULL: Sizes = Sizes {
    scale: 16,
    edge_factor: 16,
    bfs_sources: 16,
    sssp_sources: 4,
};

const SMOKE: Sizes = Sizes {
    scale: 10,
    edge_factor: 16,
    bfs_sources: 4,
    sssp_sources: 2,
};

struct Shape {
    name: &'static str,
    graph: CsrGraph,
    /// Built only for the traced run, which times both representations.
    compressed: Option<CompressedCsr>,
    bfs_sources: Vec<VertexId>,
    sssp_sources: Vec<VertexId>,
}

/// One graph serves all five kernels: undirected, simple, weighted, with
/// a reverse index (triangles need simple + undirected, pull PageRank the
/// reverse index, SSSP the weights).
fn build(cfg: &Config, sz: Sizes, with_compressed: bool) -> Vec<Shape> {
    let n = 1usize << sz.scale;
    let m = sz.edge_factor * n;
    let edge_lists = [
        (
            "rmat",
            gen::rmat(sz.scale, m, RmatParams::GRAPH500, cfg.seed),
        ),
        ("uniform", gen::erdos_renyi(n, m, cfg.seed)),
    ];
    edge_lists
        .into_iter()
        .map(|(name, edges)| {
            let weighted = gen::with_random_weights(&edges, 0.05, 1.0, cfg.seed ^ 7);
            let graph = CsrBuilder::new(n)
                .weighted_edges(weighted)
                .symmetrize(true)
                .dedup(true)
                .drop_self_loops(true)
                .reverse(true)
                .build();
            // Fixed sources: seeded draws, skipping isolated vertices.
            let mut rng = cfg.seed ^ 0x50_0c_e5;
            let mut sources = Vec::new();
            while sources.len() < sz.bfs_sources {
                let v = (splitmix(&mut rng) % n as u64) as VertexId;
                if graph.degree(v) > 0 {
                    sources.push(v);
                }
            }
            Shape {
                name,
                compressed: with_compressed.then(|| CompressedCsr::from_csr(&graph)),
                sssp_sources: sources[..sz.sssp_sources].to_vec(),
                bfs_sources: sources,
                graph,
            }
        })
        .collect()
}

/// Outputs of one pass over one graph.
struct Outputs {
    bfs: Vec<BfsResult>,
    rank: Vec<f64>,
    sssp: Vec<SsspResult>,
    components: Components,
    triangles: u64,
}

/// Run the five kernels on `g`; milliseconds per kernel in [`KERNELS`]
/// order, with a span per kernel when traced.
fn pass<G: Adjacency>(
    g: &G,
    shape: &Shape,
    ctx: &KernelCtx,
    tr: &mut Tracer,
    op: u64,
) -> ([f64; 5], Outputs) {
    let mut times = [0.0; 5];
    let mut timed = |k: usize, tr: &mut Tracer, f: &mut dyn FnMut()| {
        let span = tr.begin(KERNELS[k], op);
        let t = Instant::now();
        f();
        times[k] = ms(t.elapsed().as_secs_f64());
        tr.end(span);
    };
    let (mut bfs_out, mut sssp_out) = (Vec::new(), Vec::new());
    let (mut rank, mut components, mut tri) = (Vec::new(), None, 0);
    timed(0, tr, &mut || {
        bfs_out = shape
            .bfs_sources
            .iter()
            .map(|&s| bfs::bfs_with(g, s, ctx))
            .collect();
    });
    timed(1, tr, &mut || {
        rank = pagerank::pagerank_with(g, DAMPING, 0.0, PAGERANK_ITERS, ctx).rank;
    });
    timed(2, tr, &mut || {
        sssp_out = shape
            .sssp_sources
            .iter()
            .map(|&s| sssp::sssp_auto_with(g, s, ctx))
            .collect();
    });
    timed(3, tr, &mut || components = Some(cc::wcc_with(g, ctx)));
    timed(4, tr, &mut || tri = triangles::count_global_with(g, ctx));
    let outputs = Outputs {
        bfs: bfs_out,
        rank,
        sssp: sssp_out,
        components: components.expect("wcc ran"),
        triangles: tri,
    };
    (times, black_box(outputs))
}

/// The traced run's four variants, in `kernel_ms.<kernel>.<mode>.<repr>`
/// order; parallel-plain is the one the untraced run times.
const VARIANTS: [(&str, &str); 4] = [
    ("parallel", "plain"),
    ("parallel", "compressed"),
    ("serial", "plain"),
    ("serial", "compressed"),
];

struct State {
    shapes: Vec<Shape>,
    /// Parallel-plain outputs per graph, for validation. Kept with the
    /// state, not the round, so that only the last round's stay resident.
    outputs: Vec<Outputs>,
    tracer: Tracer,
    traced: bool,
}

struct Round {
    traced: bool,
    /// Per variant (untraced: parallel-plain only): ms per kernel, summed
    /// over the two graphs.
    variant_ms: Vec<[f64; 5]>,
    /// Exact operation counts of the serial-plain variant.
    serial_ops: OpSnapshot,
}

fn drive(st: &mut State) -> Round {
    let variants: &[(&str, &str)] = if st.traced { &VARIANTS } else { &VARIANTS[..1] };
    let mut round = Round {
        traced: st.traced,
        variant_ms: Vec::new(),
        serial_ops: OpSnapshot::default(),
    };
    for (v, (mode, repr)) in variants.iter().enumerate() {
        let ctx = if *mode == "parallel" {
            KernelCtx::parallel()
        } else {
            KernelCtx::serial()
        };
        let mut sum = [0.0; 5];
        for (gi, shape) in st.shapes.iter().enumerate() {
            let op = (v * st.shapes.len() + gi) as u64;
            let suite = st.tracer.begin("suite", op);
            let (times, outputs) = if *repr == "plain" {
                pass(&shape.graph, shape, &ctx, &mut st.tracer, op)
            } else {
                let c = shape.compressed.as_ref().expect("traced set-up compresses");
                pass(c, shape, &ctx, &mut st.tracer, op)
            };
            st.tracer.end(suite);
            for k in 0..5 {
                sum[k] += times[k];
            }
            if v == 0 {
                st.outputs.push(outputs);
            }
        }
        if (*mode, *repr) == ("serial", "plain") {
            round.serial_ops = ctx.take();
        }
        round.variant_ms.push(sum);
    }
    round
}

pub fn run(cfg: &Config) -> Result<(Outcome, Tracers), Invalid> {
    let sz = if cfg.smoke { SMOKE } else { FULL };
    let origin = Instant::now();
    let (setup_s, results, mut last) = rounds(
        cfg,
        |round| {
            let traced = cfg.trace && round > 0;
            State {
                shapes: build(cfg, sz, traced),
                outputs: Vec::new(),
                tracer: Tracer::new(origin),
                traced,
            }
        },
        drive,
    );

    // GAP/Graphalytics: an unvalidated run has no timing.
    let serial = KernelCtx::serial();
    for (shape, got) in last.shapes.iter().zip(&last.outputs) {
        let g = &shape.graph;
        for (r, &src) in got.bfs.iter().zip(&shape.bfs_sources) {
            r.validate(g, src)
                .map_err(|e| format!("kernels.gap: {} BFS from {src}: {e}", shape.name))?;
        }
        for (r, &src) in got.sssp.iter().zip(&shape.sssp_sources) {
            r.validate(g, src)
                .map_err(|e| format!("kernels.gap: {} SSSP from {src}: {e}", shape.name))?;
        }
        let rank = pagerank::pagerank_with(g, DAMPING, 0.0, PAGERANK_ITERS, &serial).rank;
        if let Some(v) = (0..rank.len()).find(|&v| rank[v] != got.rank[v]) {
            return Err(format!(
                "kernels.gap: {} PageRank differs from Serial at vertex {v}: {:e} vs {:e}",
                shape.name, got.rank[v], rank[v]
            ));
        }
        let components = cc::wcc_with(g, &serial);
        if components != got.components {
            return Err(format!(
                "kernels.gap: {} WCC differs from Serial: {} vs {} components",
                shape.name, got.components.count, components.count
            ));
        }
        let tri = triangles::count_global_with(g, &serial);
        if tri != got.triangles {
            return Err(format!(
                "kernels.gap: {} triangle count {} differs from Serial {tri}",
                shape.name, got.triangles
            ));
        }
    }

    let runs_per_round = last.shapes.len() * (sz.bfs_sources + sz.sssp_sources + 3);
    let mut out = Outcome {
        setup_s,
        attempted: (results.len() * runs_per_round) as u64,
        counts: vec![
            ("scale", sz.scale as u64),
            ("edge_factor", sz.edge_factor as u64),
            ("bfs_sources", sz.bfs_sources as u64),
            ("sssp_sources", sz.sssp_sources as u64),
            ("pagerank_iters", PAGERANK_ITERS as u64),
        ],
        ..Outcome::default()
    };
    let untraced: Vec<&Round> = results.iter().filter(|r| !r.traced).collect();
    for r in &untraced {
        // One operation = one trial of the whole suite on both graphs.
        let suite_ms: f64 = r.variant_ms[0].iter().sum();
        out.op_ms.push(suite_ms);
        out.ops_per_s.push(runs_per_round as f64 / (suite_ms / 1e3));
    }
    for (k, kernel) in KERNELS.iter().enumerate() {
        let trials: Vec<f64> = untraced.iter().map(|r| r.variant_ms[0][k]).collect();
        out.name(format!("{kernel}_ms"), median(&trials), "ms");
    }
    out.name("trials", untraced.len() as f64, "count");

    if cfg.trace {
        let round = results.iter().rfind(|r| r.traced).expect("a traced round");
        for ((mode, repr), times) in VARIANTS.iter().zip(&round.variant_ms) {
            for (kernel, &t) in KERNELS.iter().zip(times) {
                out.layer(format!("kernel_ms.{kernel}.{mode}.{repr}"), t);
            }
        }
        let ops = round.serial_ops;
        out.layer("kernel_cpu_ops", ops.cpu_ops as f64);
        out.layer("kernel_mem_bytes", ops.mem_bytes as f64);
        out.layer("kernel_edges_touched", ops.edges_touched as f64);
        if ops.edges_touched > 0 {
            let serial_plain_ns: f64 = round.variant_ms[2].iter().sum::<f64>() * 1e6;
            out.layer(
                "kernel_ns_per_edge",
                serial_plain_ns / ops.edges_touched as f64,
            );
            out.layer(
                "kernel_bytes_per_edge",
                ops.mem_bytes as f64 / ops.edges_touched as f64,
            );
        }
        // The suite span's self time is the bench's own loop around the
        // kernels: all that is left unattributed when there is no engine.
        let mut layers = LayerTimes::default();
        layers.absorb(&last.tracer);
        let kernels_s: f64 = KERNELS.iter().map(|k| layers.total_s(k)).sum();
        let suite_s = layers.total_s("suite");
        out.layer("unattributed_fraction", suite_s / (suite_s + kernels_s));
        let real = median(
            &untraced
                .iter()
                .map(|r| r.variant_ms[0].iter().sum())
                .collect::<Vec<f64>>(),
        );
        out.layer(
            "trace_overhead",
            round.variant_ms[0].iter().sum::<f64>() / real,
        );
    }
    Ok((out, vec![("main", last.tracer.take())]))
}
