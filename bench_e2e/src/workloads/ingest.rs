//! `ingest.durable` and `ingest.memory`.
//!
//! `ingest.durable` is the full freshness path — offered, admitted,
//! logged, applied, frozen, published, visible — in a closed loop on a
//! durable, serving engine. `ingest.memory` bypasses the log, the freeze
//! and the publish entirely: only `ga_stream::engine` and
//! `ga_graph::dynamic` apply work runs, so a WAL, freeze or publish
//! change must not move it and an apply change shows only here.

use super::{
    check_state, fill_trace_ratios, fill_write_layers, ms, preload, replay, rounds, same_csr,
    Config, Invalid, Pipeline, Tracers,
};
use crate::inputs::{count_updates, update_batches, BATCH};
use crate::report::Outcome;
use crate::shadow::Shadow;
use crate::stats::median;
use crate::trace::{LayerTimes, Tracer, SETUP_OP};
use ga_core::flow::FlowEngine;
use ga_graph::SnapshotStats;
use ga_stream::epoch::SnapshotHandle;
use ga_stream::update::UpdateBatch;
use ga_stream::wal::encode_batch;
use std::path::PathBuf;
use std::time::Instant;

struct DurableSizes {
    scale: u32,
    /// Batches applied before the clock starts, so the freeze works on a
    /// graph of realistic size from the first timed batch.
    preload_batches: usize,
    /// Batches per timed round; one checkpoint is taken half-way.
    timed_batches: usize,
}

const DURABLE: DurableSizes = DurableSizes {
    scale: 16,
    preload_batches: 586, // ~300 k updates
    timed_batches: 64,    // 32 768 updates
};

const DURABLE_SMOKE: DurableSizes = DurableSizes {
    scale: 10,
    preload_batches: 8,
    timed_batches: 8,
};

struct State {
    pipe: Box<dyn Pipeline>,
    handle: Option<SnapshotHandle>,
    batches: Vec<UpdateBatch>,
    /// How many of `batches` were preloaded; the rest are timed.
    preloaded: usize,
    tracer: Tracer,
    traced: bool,
    dir: Option<PathBuf>,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

struct Round {
    traced: bool,
    wall_s: f64,
    /// Per batch: offer to visible (durable) or `process_stream` (memory).
    batch_ms: Vec<f64>,
    updates: usize,
    shed: usize,
    invisible: usize,
    quarantined: usize,
    checkpoint_bytes: u64,
    snapshots: SnapshotStats,
}

impl Round {
    fn failed(&self) -> usize {
        self.shed + self.invisible + self.quarantined
    }
}

pub fn durable(cfg: &Config) -> Result<(Outcome, Tracers), Invalid> {
    let sz = if cfg.smoke { DURABLE_SMOKE } else { DURABLE };
    let n = 1usize << sz.scale;
    let origin = Instant::now();
    let (setup_s, results, mut last) = rounds(
        cfg,
        |round| {
            let total = (sz.preload_batches + sz.timed_batches) * BATCH;
            let batches = update_batches(sz.scale, total, cfg.seed);
            let (graph, props) = preload(n, &batches[..sz.preload_batches]);
            let dir = cfg.scratch.join(format!("durable-{round}"));
            let mut tracer = Tracer::new(origin);
            let traced = cfg.trace && round > 0;
            let (pipe, handle): (Box<dyn Pipeline>, _) = if traced {
                let mut shadow = Shadow::new(graph, props, Some(&dir)).expect("durable shadow");
                let handle = shadow.serve_handle(&mut tracer, SETUP_OP);
                (Box::new(shadow), handle)
            } else {
                let mut engine = FlowEngine::builder()
                    .durability_dir(&dir)
                    .build_with_graph(graph, props)
                    .expect("durable engine");
                let handle = engine.serve_handle();
                (Box::new(engine), handle)
            };
            State {
                pipe,
                handle: Some(handle),
                batches,
                preloaded: sz.preload_batches,
                tracer,
                traced,
                dir: Some(dir),
            }
        },
        |st| drive_durable(st, sz.timed_batches / 2),
    );

    let reference = replay(n, &last.batches);
    check_state(
        "ingest.durable",
        last.pipe.graph(),
        last.pipe.props(),
        &reference,
    )?;
    let served = last.handle.as_ref().unwrap().load().expect("published");
    if !same_csr(&served.csr, &reference.graph().snapshot()) {
        return Err("ingest.durable: served CSR differs from a fresh freeze of the replay".into());
    }
    if *served.props != *reference.props() {
        return Err("ingest.durable: served columns differ from the replay".into());
    }

    let mut out = Outcome {
        setup_s,
        counts: vec![
            ("scale", sz.scale as u64),
            ("preload_batches", sz.preload_batches as u64),
            ("timed_batches_per_round", sz.timed_batches as u64),
            ("batch_updates", BATCH as u64),
            ("checkpoints_per_round", 1),
        ],
        ..Outcome::default()
    };
    fill_end_to_end(&mut out, &results);
    let lag: Vec<f64> = untraced(&results)
        .flat_map(|r| r.batch_ms.clone())
        .collect();
    out.name("updates_per_s", median(&out.ops_per_s), "1/s");
    out.name_timing("visible_lag_ms", "ms", &lag);
    out.name_percentile("visible_lag_ms", "ms", &lag, 0.99);
    if cfg.trace {
        let timed = &last.batches[last.preloaded..];
        fill_layers(&mut out, &results, &last.tracer, timed);
    }
    Ok((out, vec![("main", last.tracer.take())]))
}

/// Closed loop: the next batch is offered the moment the previous one is
/// visible, so the half-way checkpoint delays — and is counted in the
/// lag of — the batch that follows it.
fn drive_durable(st: &mut State, checkpoint_after: usize) -> Round {
    // Cloned before the clock starts: `offer` takes the batch by value.
    let timed: Vec<UpdateBatch> = st.batches[st.preloaded..].to_vec();
    let handle = st.handle.as_ref().expect("serving");
    let updates = count_updates(&timed);
    let mut batch_ms = Vec::with_capacity(timed.len());
    let (mut shed, mut invisible, mut checkpoint_bytes) = (0, 0, 0);
    st.pipe.take_snapshot_stats();
    let start = Instant::now();
    let mut offered_at = start;
    for (i, batch) in timed.into_iter().enumerate() {
        let len = batch.updates.len();
        let admitted = st
            .pipe
            .ingest(&mut st.tracer, i as u64, batch)
            .expect("durable ingest");
        if !admitted {
            shed += len;
        }
        // Visible: a load returns a generation frozen at or after the
        // graph version this batch produced.
        let snap = handle.load().expect("published");
        if snap.stamp.graph_version < st.pipe.graph().version() {
            invisible += len;
        }
        let visible_at = Instant::now();
        batch_ms.push(ms((visible_at - offered_at).as_secs_f64()));
        offered_at = visible_at;
        if i + 1 == checkpoint_after {
            checkpoint_bytes = st
                .pipe
                .checkpoint(&mut st.tracer, i as u64)
                .expect("checkpoint");
        }
    }
    Round {
        traced: st.traced,
        wall_s: start.elapsed().as_secs_f64(),
        batch_ms,
        updates,
        shed,
        invisible,
        quarantined: st.pipe.quarantined(),
        checkpoint_bytes,
        snapshots: st.pipe.take_snapshot_stats(),
    }
}

struct MemorySizes {
    scale: u32,
    updates: usize,
}

const MEMORY: MemorySizes = MemorySizes {
    scale: 18,
    updates: 1_000_000,
};

const MEMORY_SMOKE: MemorySizes = MemorySizes {
    scale: 10,
    updates: 8 * BATCH,
};

pub fn memory(cfg: &Config) -> Result<(Outcome, Tracers), Invalid> {
    let sz = if cfg.smoke { MEMORY_SMOKE } else { MEMORY };
    let n = 1usize << sz.scale;
    let origin = Instant::now();
    let (setup_s, results, mut last) = rounds(
        cfg,
        |round| {
            let batches = update_batches(sz.scale, sz.updates, cfg.seed);
            let traced = cfg.trace && round > 0;
            let pipe: Box<dyn Pipeline> = if traced {
                let (graph, props) = preload(n, &[]);
                Box::new(Shadow::new(graph, props, None).expect("in-memory shadow"))
            } else {
                Box::new(FlowEngine::new(n))
            };
            State {
                pipe,
                handle: None,
                batches,
                preloaded: 0,
                tracer: Tracer::new(origin),
                traced,
                dir: None,
            }
        },
        |st| {
            let mut batch_ms = Vec::with_capacity(st.batches.len());
            let start = Instant::now();
            for (i, batch) in st.batches.iter().enumerate() {
                let t = Instant::now();
                st.pipe.apply(&mut st.tracer, i as u64, batch);
                batch_ms.push(ms(t.elapsed().as_secs_f64()));
            }
            Round {
                traced: st.traced,
                wall_s: start.elapsed().as_secs_f64(),
                batch_ms,
                updates: count_updates(&st.batches),
                shed: 0,
                invisible: 0,
                quarantined: st.pipe.quarantined(),
                checkpoint_bytes: 0,
                snapshots: st.pipe.take_snapshot_stats(),
            }
        },
    );

    let reference = replay(n, &last.batches);
    check_state(
        "ingest.memory",
        last.pipe.graph(),
        last.pipe.props(),
        &reference,
    )?;

    let mut out = Outcome {
        setup_s,
        counts: vec![
            ("scale", sz.scale as u64),
            ("updates_per_round", sz.updates as u64),
            ("batch_updates", BATCH as u64),
        ],
        ..Outcome::default()
    };
    fill_end_to_end(&mut out, &results);
    let per_batch: Vec<f64> = untraced(&results)
        .flat_map(|r| r.batch_ms.clone())
        .collect();
    out.name("updates_per_s", median(&out.ops_per_s), "1/s");
    out.name_timing("apply_batch_ms", "ms", &per_batch);
    if cfg.trace {
        fill_layers(&mut out, &results, &last.tracer, &last.batches);
    }
    Ok((out, vec![("main", last.tracer.take())]))
}

fn untraced(results: &[Round]) -> impl Iterator<Item = &Round> {
    results.iter().filter(|r| !r.traced)
}

/// Attempted/failed over every round; throughput and latency from the
/// untraced rounds only.
fn fill_end_to_end(out: &mut Outcome, results: &[Round]) {
    out.attempted = results.iter().map(|r| r.updates as u64).sum();
    out.failed = results.iter().map(|r| r.failed() as u64).sum();
    for r in untraced(results) {
        out.ops_per_s
            .push((r.updates - r.failed()) as f64 / r.wall_s);
        out.op_ms.extend(&r.batch_ms);
    }
}

/// Layer metrics from the traced rounds. `tracer` holds the last round's
/// spans — one round's worth, which is what the per-span means need.
fn fill_layers(out: &mut Outcome, results: &[Round], tracer: &Tracer, timed: &[UpdateBatch]) {
    let mut layers = LayerTimes::default();
    layers.absorb(tracer);
    let traced: Vec<&Round> = results.iter().filter(|r| r.traced).collect();
    let round = *traced.last().expect("a traced run has a traced round");

    fill_write_layers(out, &layers, round.updates, round.snapshots);
    if layers.count("admission") > 0 {
        out.layer("admitted_updates", (round.updates - round.shed) as f64);
        out.layer("shed_updates", round.shed as f64);
    }
    if layers.count("wal") > 0 {
        let bytes: usize = timed.iter().map(|b| encode_batch(b).len()).sum();
        out.layer("wal_bytes_per_update", bytes as f64 / round.updates as f64);
    }
    out.layer("checkpoint_ms", ms(layers.mean_s("checkpoint")));
    out.layer("checkpoint_bytes", round.checkpoint_bytes as f64);
    out.layer("quarantined_updates", round.quarantined as f64);

    let attributed = layers.total_of(&[
        "admission",
        "wal",
        "apply",
        "freeze",
        "publish",
        "props_clone",
        "checkpoint",
    ]);
    let real: Vec<f64> = untraced(results).map(|r| r.wall_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    fill_trace_ratios(out, median(&real), attributed, median(&traced_wall));
}
