//! `analytics.batch`: the second end-to-end path — delta freeze, ball
//! extraction, a kernel on the subgraph, property write-back — driven by
//! `FlowEngine::run_batch` after each small update batch. It uses the
//! snapshot layer *without* publishing and the property store for writes,
//! where the `serve.*` workloads use both for reads.

use super::{fill_trace_ratios, fill_write_layers, ms, preload, rounds, Config, Invalid, Tracers};
use crate::inputs::{seed_vertices, update_batches, BATCH};
use crate::report::Outcome;
use crate::shadow::{Shadow, PAR};
use crate::stats::median;
use crate::trace::{LayerTimes, Tracer, SETUP_OP};
use ga_core::flow::{
    BatchAnalytic, ComponentsAnalytic, FlowEngine, JaccardAnalytic, PageRankAnalytic,
    SelectionCriteria, TriangleAnalytic,
};
use ga_graph::sub::extract_ball;
use ga_graph::{ExtractOptions, OpSnapshot, Parallelism, PropertyStore, VertexId};
use ga_kernels::KernelCtx;
use ga_stream::update::UpdateBatch;
use std::time::Instant;

/// Round-robin order; also the suffix of `batch_run_ms_p50.<analytic>`.
const ANALYTICS: [&str; 4] = ["pagerank", "components", "triangles", "jaccard"];

/// Seeds per run.
const SEEDS: usize = 8;

/// Seeds are drawn from this many highest-degree vertices. A ball around
/// a hub always fills the extraction cap, so the work of a run is set by
/// the cap and not by the luck of the draw: with uniformly drawn seeds
/// the batch-run rate varied fourfold from one `--seed` to the next.
const HUBS: usize = 64;

#[derive(Clone, Copy)]
struct Sizes {
    scale: u32,
    preload_batches: usize,
    /// Round-robin cycles of the four analytics per timed round.
    cycles: usize,
}

const FULL: Sizes = Sizes {
    scale: 16,
    preload_batches: 977, // ~500 k updates, symmetrized by the engine
    cycles: 1,
};

const SMOKE: Sizes = Sizes {
    scale: 10,
    preload_batches: 8,
    cycles: 1,
};

fn analytics() -> [Box<dyn BatchAnalytic>; 4] {
    [
        Box::new(PageRankAnalytic { damping: 0.85 }),
        Box::new(ComponentsAnalytic),
        Box::new(TriangleAnalytic {
            alert_transitivity: 0.9,
        }),
        Box::new(JaccardAnalytic {
            tau: 0.5,
            alert_tau: 0.95,
        }),
    ]
}

/// `FlowEngine`'s default extraction: depth 2, at most 4096 vertices.
fn extract_options() -> ExtractOptions {
    ExtractOptions {
        depth: 2,
        max_vertices: 4096,
        undirected_expand: false,
    }
}

/// What one batch run produced, for comparison with the reference.
#[derive(Debug, PartialEq)]
struct RunResult {
    subgraph: (usize, usize),
    globals: Vec<(String, f64)>,
}

enum Engine {
    Real(Box<FlowEngine>),
    /// The same steps through the layers' public functions, with spans:
    /// `batch_run` > `apply`, `freeze`, `extract`, `kernel`, `writeback`.
    Shadow {
        shadow: Box<Shadow>,
        analytics: [Box<dyn BatchAnalytic>; 4],
        ctx: KernelCtx,
        ops: OpSnapshot,
        extracted: (usize, usize),
        written: usize,
    },
}

impl Engine {
    fn real(graph: ga_graph::DynamicGraph, props: PropertyStore, par: Parallelism) -> Engine {
        let mut engine = FlowEngine::builder()
            .parallelism(par)
            .build_with_graph(graph, props)
            .expect("in-memory engine");
        for a in analytics() {
            engine.register_analytic(a);
        }
        Engine::Real(Box::new(engine))
    }

    fn props(&self) -> &PropertyStore {
        match self {
            Engine::Real(e) => e.props(),
            Engine::Shadow { shadow, .. } => shadow.stream.props(),
        }
    }

    /// Apply one update batch, then run analytic `which` around `seeds`.
    fn run(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        batch: &UpdateBatch,
        seeds: &[VertexId],
        which: usize,
    ) -> RunResult {
        match self {
            Engine::Real(engine) => {
                engine.process_stream(batch, |_| None, None);
                let report = engine.run_batch(&SelectionCriteria::Explicit(seeds.to_vec()), which);
                RunResult {
                    subgraph: report.subgraph_size,
                    globals: report.globals,
                }
            }
            Engine::Shadow {
                shadow,
                analytics,
                ctx,
                ops,
                extracted,
                written,
            } => {
                let root = tr.begin("batch_run", op);
                shadow.apply(tr, op, batch);
                let span = tr.begin("freeze", op);
                let snap = shadow.stream.csr_snapshot(PAR);
                tr.end(span);
                let span = tr.begin("extract", op);
                let sub = extract_ball(&*snap, seeds, &extract_options(), None);
                tr.end(span);
                extracted.0 += sub.num_vertices();
                extracted.1 += sub.graph.num_edges();
                let span = tr.begin("kernel", op);
                let result = analytics[which].run(&sub, ctx);
                tr.end(span);
                *ops = ops.merge(&ctx.take());
                let span = tr.begin("writeback", op);
                for (name, values) in &result.vertex_props {
                    for (local, &value) in values.iter().enumerate() {
                        shadow
                            .stream
                            .props_mut()
                            .set(name, sub.back_map[local], value);
                        *written += 1;
                    }
                }
                tr.end(span);
                tr.end(root);
                RunResult {
                    subgraph: (sub.num_vertices(), sub.graph.num_edges()),
                    globals: result.globals,
                }
            }
        }
    }
}

struct State {
    engine: Engine,
    /// The [`HUBS`] highest-degree vertices of the preloaded graph.
    hubs: Vec<VertexId>,
    timed: Vec<UpdateBatch>,
    tracer: Tracer,
    traced: bool,
}

struct Round {
    traced: bool,
    wall_s: f64,
    /// Milliseconds of every run (apply + batch run), in order.
    run_ms: Vec<f64>,
    results: Vec<RunResult>,
}

fn setup(cfg: &Config, sz: Sizes, origin: Instant, traced: bool, par: Parallelism) -> State {
    let n = 1usize << sz.scale;
    let runs = sz.cycles * ANALYTICS.len();
    let batches = update_batches(sz.scale, (sz.preload_batches + runs) * BATCH, cfg.seed);
    let (graph, props) = preload(n, &batches[..sz.preload_batches]);
    let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    by_degree.truncate(HUBS);
    let mut engine = if traced {
        Engine::Shadow {
            shadow: Box::new(Shadow::new(graph, props, None).expect("in-memory shadow")),
            analytics: analytics(),
            ctx: KernelCtx::new(PAR),
            ops: OpSnapshot::default(),
            extracted: (0, 0),
            written: 0,
        }
    } else {
        Engine::real(graph, props, par)
    };
    // The first freeze is a full rebuild; pay it here so that every timed
    // run sees the delta path, as a long-running engine would.
    let warm = UpdateBatch {
        time: batches[sz.preload_batches].time,
        updates: Vec::new(),
    };
    engine.run(&mut Tracer::new(origin), SETUP_OP, &warm, &[0], 1);
    if let Engine::Shadow {
        shadow,
        ops,
        extracted,
        written,
        ..
    } = &mut engine
    {
        (*ops, *extracted, *written) = (OpSnapshot::default(), (0, 0), 0);
        shadow.stream.take_snapshot_stats();
    }
    State {
        engine,
        hubs: by_degree,
        timed: batches[sz.preload_batches..].to_vec(),
        tracer: Tracer::new(origin),
        traced,
    }
}

fn drive(st: &mut State, seed: u64) -> Round {
    let mut rng = seed ^ 0x5eed_5eed;
    let mut run_ms = Vec::with_capacity(st.timed.len());
    let mut results = Vec::with_capacity(st.timed.len());
    let start = Instant::now();
    for (i, batch) in st.timed.iter().enumerate() {
        let seeds = seed_vertices(&mut rng, SEEDS, &st.hubs);
        let t = Instant::now();
        let r = st
            .engine
            .run(&mut st.tracer, i as u64, batch, &seeds, i % ANALYTICS.len());
        run_ms.push(ms(t.elapsed().as_secs_f64()));
        results.push(r);
    }
    Round {
        traced: st.traced,
        wall_s: start.elapsed().as_secs_f64(),
        run_ms,
        results,
    }
}

pub fn run(cfg: &Config) -> Result<(Outcome, Tracers), Invalid> {
    let sz = if cfg.smoke { SMOKE } else { FULL };
    let origin = Instant::now();
    let (setup_s, results, mut last) = rounds(
        cfg,
        |round| setup(cfg, sz, origin, cfg.trace && round > 0, PAR),
        |st| drive(st, cfg.seed),
    );

    // Reference: the same sequence on a serial engine. Write-backs and
    // globals must match it exactly.
    let mut reference = setup(cfg, sz, origin, false, Parallelism::Serial);
    let expected = drive(&mut reference, cfg.seed);
    for round in &results {
        if let Some(i) =
            (0..expected.results.len()).find(|&i| round.results[i] != expected.results[i])
        {
            return Err(format!(
                "analytics.batch: run {i} ({}) differs from the serial reference:\n  got      {:?}\n  expected {:?}",
                ANALYTICS[i % ANALYTICS.len()],
                round.results[i],
                expected.results[i]
            ));
        }
    }
    if last.engine.props() != reference.engine.props() {
        return Err(format!(
            "analytics.batch: written-back columns differ from the serial reference (columns {:?})",
            last.engine.props().column_names()
        ));
    }

    let runs = sz.cycles * ANALYTICS.len();
    let mut out = Outcome {
        setup_s,
        attempted: (results.len() * runs) as u64,
        counts: vec![
            ("scale", sz.scale as u64),
            ("preload_batches", sz.preload_batches as u64),
            ("runs_per_round", runs as u64),
            ("seeds_per_run", SEEDS as u64),
            ("batch_updates", BATCH as u64),
        ],
        ..Outcome::default()
    };
    let untraced: Vec<&Round> = results.iter().filter(|r| !r.traced).collect();
    for r in &untraced {
        out.ops_per_s.push(runs as f64 / r.wall_s);
        // One operation = one batch run, averaged over a round-robin cycle
        // so the four analytics' very different costs do not make the
        // median jump between them.
        for cycle in r.run_ms.chunks(ANALYTICS.len()) {
            out.op_ms
                .push(cycle.iter().sum::<f64>() / cycle.len() as f64);
        }
    }
    out.name("batch_runs_per_s", median(&out.ops_per_s), "1/s");
    for (a, name) in ANALYTICS.iter().enumerate() {
        let samples: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.run_ms.iter().skip(a).step_by(ANALYTICS.len()).copied())
            .collect();
        out.name(format!("batch_run_ms_p50.{name}"), median(&samples), "ms");
    }

    if cfg.trace {
        let mut layers = LayerTimes::default();
        layers.absorb(&last.tracer);
        let traced_round = results.iter().rfind(|r| r.traced).expect("a traced round");
        let Engine::Shadow {
            ops,
            extracted,
            written,
            shadow,
            ..
        } = &mut last.engine
        else {
            unreachable!("the last round of a traced run is traced");
        };
        let runs_f = runs as f64;
        let snapshots = shadow.stream.take_snapshot_stats();
        fill_write_layers(&mut out, &layers, runs * BATCH, snapshots);
        out.layer("extract_ms", ms(layers.mean_s("extract")));
        out.layer("extract_vertices", extracted.0 as f64 / runs_f);
        out.layer("extract_edges", extracted.1 as f64 / runs_f);
        out.layer("kernel_cpu_ops", ops.cpu_ops as f64);
        out.layer("kernel_mem_bytes", ops.mem_bytes as f64);
        out.layer("kernel_edges_touched", ops.edges_touched as f64);
        if ops.edges_touched > 0 {
            out.layer(
                "kernel_ns_per_edge",
                layers.total_s("kernel") * 1e9 / ops.edges_touched as f64,
            );
            out.layer(
                "kernel_bytes_per_edge",
                ops.mem_bytes as f64 / ops.edges_touched as f64,
            );
        }
        out.layer("writeback_ms", ms(layers.mean_s("writeback")));
        out.layer("props_written", *written as f64);
        for (a, name) in [
            "batch_run_ms_p50.pagerank",
            "batch_run_ms_p50.components",
            "batch_run_ms_p50.triangles",
            "batch_run_ms_p50.jaccard",
        ]
        .into_iter()
        .enumerate()
        {
            let samples: Vec<f64> = traced_round
                .run_ms
                .iter()
                .skip(a)
                .step_by(ANALYTICS.len())
                .copied()
                .collect();
            out.layer(name, median(&samples));
        }
        let attributed = layers.total_of(&["apply", "freeze", "extract", "kernel", "writeback"]);
        let real_wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let traced_wall: Vec<f64> = results
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.wall_s)
            .collect();
        fill_trace_ratios(&mut out, real_wall, attributed, median(&traced_wall));
    }
    Ok((out, vec![("main", last.tracer.take())]))
}
