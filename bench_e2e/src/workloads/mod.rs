//! The seven workloads and what they share: the round loop, preloading,
//! the reference replay every validation compares against, and the one
//! ingest interface the real engine and the traced shadow both implement.

pub mod analytics;
pub mod ingest;
pub mod kernels;
pub mod recover;
pub mod serve;

use crate::report::Outcome;
use crate::shadow::Shadow;
use crate::trace::{LayerTimes, Tracer};
use ga_core::flow::FlowEngine;
use ga_graph::{CsrGraph, DynamicGraph, PropertyStore, SnapshotStats};
use ga_stream::admission::Priority;
use ga_stream::update::UpdateBatch;
use ga_stream::StreamEngine;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 7] = [
    "ingest.durable",
    "ingest.memory",
    "analytics.batch",
    "kernels.gap",
    "serve.frozen",
    "serve.mixed",
    "recover.replay",
];

/// Arguments of one run.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the measuring window: rounds repeat until it is used up.
    pub seconds: f64,
    pub trace: bool,
    /// Scale 10 and tiny counts: exercises every path in well under a
    /// second per workload; the numbers mean nothing.
    pub smoke: bool,
    /// A directory of this run's own, inside the checkout, removed on exit.
    pub scratch: PathBuf,
}

/// A validation failure: the diff to print before exiting non-zero.
pub type Invalid = String;

/// Spans of a traced run, one log per thread.
pub type Tracers = Vec<(&'static str, Tracer)>;

pub fn run(cfg: &Config) -> Result<(Outcome, Tracers), Invalid> {
    match cfg.workload.as_str() {
        "ingest.durable" => ingest::durable(cfg),
        "ingest.memory" => ingest::memory(cfg),
        "analytics.batch" => analytics::run(cfg),
        "kernels.gap" => kernels::run(cfg),
        "serve.frozen" => serve::frozen(cfg),
        "serve.mixed" => serve::mixed(cfg),
        "recover.replay" => recover::run(cfg),
        other => Err(format!("unknown workload {other:?}; known: {NAMES:?}")),
    }
}

/// Repeat `setup` then `work` until the window is used up, at least
/// `min_rounds` times. Every round sets up afresh from the same inputs,
/// so each is the same fixed amount of work and `setup_s` gets one sample
/// per round. Returns the set-up seconds, the rounds' results, and the
/// last round's state for validation.
pub fn rounds<S, R>(
    cfg: &Config,
    mut setup: impl FnMut(usize) -> S,
    mut work: impl FnMut(&mut S) -> R,
) -> (Vec<f64>, Vec<R>, S) {
    // A traced run needs one untraced round beside a traced one.
    let min_rounds = match (cfg.smoke, cfg.trace) {
        (true, false) => 1,
        (_, true) => 2,
        (false, false) => 3,
    };
    let window = Instant::now();
    let (mut setup_s, mut results) = (Vec::new(), Vec::new());
    let mut last = None;
    while results.len() < min_rounds || window.elapsed().as_secs_f64() < cfg.seconds {
        // Free the previous round's state first: peak RSS is one round's.
        drop(last.take());
        let t = Instant::now();
        let mut state = setup(results.len());
        setup_s.push(t.elapsed().as_secs_f64());
        results.push(work(&mut state));
        last = Some(state);
    }
    (setup_s, results, last.expect("at least one round ran"))
}

/// The graph and columns after applying `batches` to an empty store.
pub fn preload(num_vertices: usize, batches: &[UpdateBatch]) -> (DynamicGraph, PropertyStore) {
    let reference = replay(num_vertices, batches);
    (reference.graph().clone(), reference.props().clone())
}

/// Single-threaded, non-durable replay straight into the stream layer:
/// the state every workload's final graph and columns must equal.
pub fn replay(num_vertices: usize, batches: &[UpdateBatch]) -> StreamEngine {
    let mut reference = StreamEngine::new(num_vertices);
    for b in batches {
        reference.apply_batch_unmonitored(b);
    }
    reference
}

/// Compare a pipeline's final state with the reference replay.
pub fn check_state(
    what: &str,
    graph: &DynamicGraph,
    props: &PropertyStore,
    reference: &StreamEngine,
) -> Result<(), Invalid> {
    if graph != reference.graph() {
        return Err(format!(
            "{what}: graph differs from single-threaded replay: {} live edges / version {} vs {} / {}",
            graph.num_live_edges(),
            graph.version(),
            reference.graph().num_live_edges(),
            reference.graph().version()
        ));
    }
    if props != reference.props() {
        return Err(format!(
            "{what}: property columns differ from single-threaded replay: columns {:?} vs {:?}",
            props.column_names(),
            reference.props().column_names()
        ));
    }
    Ok(())
}

/// Structural equality of two CSR graphs (`CsrGraph` has no `PartialEq`).
pub fn same_csr(a: &CsrGraph, b: &CsrGraph) -> bool {
    a.raw_offsets() == b.raw_offsets()
        && a.raw_targets() == b.raw_targets()
        && a.raw_weights() == b.raw_weights()
}

/// The freshness path as the real engine and the shadow both offer it,
/// so one driving loop feeds either exactly the same operations.
pub trait Pipeline {
    /// `offer(Normal)` + `pump(1)`; `false` when admission shed the batch.
    fn ingest(&mut self, tr: &mut Tracer, op: u64, batch: UpdateBatch) -> io::Result<bool>;
    /// `process_stream` with no trigger: apply, then publish if serving.
    fn apply(&mut self, tr: &mut Tracer, op: u64, batch: &UpdateBatch);
    /// Write a checkpoint; returns its size in bytes.
    fn checkpoint(&mut self, tr: &mut Tracer, op: u64) -> io::Result<u64>;
    fn graph(&self) -> &DynamicGraph;
    fn props(&self) -> &PropertyStore;
    fn quarantined(&self) -> usize;
    /// Drain the snapshot cache's counters. The engine keeps its cache
    /// private, so only the shadow has any to give.
    fn take_snapshot_stats(&mut self) -> SnapshotStats;
}

impl Pipeline for FlowEngine {
    fn ingest(&mut self, _: &mut Tracer, _: u64, batch: UpdateBatch) -> io::Result<bool> {
        let admitted = self.offer(Priority::Normal, batch).admitted();
        self.pump(1, |_| None, None)?;
        Ok(admitted)
    }
    fn apply(&mut self, _: &mut Tracer, _: u64, batch: &UpdateBatch) {
        self.process_stream(batch, |_| None, None);
    }
    fn checkpoint(&mut self, _: &mut Tracer, _: u64) -> io::Result<u64> {
        let path = FlowEngine::checkpoint(self)?;
        Ok(std::fs::metadata(path)?.len())
    }
    fn graph(&self) -> &DynamicGraph {
        FlowEngine::graph(self)
    }
    fn props(&self) -> &PropertyStore {
        FlowEngine::props(self)
    }
    fn quarantined(&self) -> usize {
        self.stats().ingest.updates_quarantined
    }
    fn take_snapshot_stats(&mut self) -> SnapshotStats {
        SnapshotStats::default()
    }
}

impl Pipeline for Shadow {
    fn ingest(&mut self, tr: &mut Tracer, op: u64, batch: UpdateBatch) -> io::Result<bool> {
        Shadow::ingest(self, tr, op, batch)
    }
    fn apply(&mut self, tr: &mut Tracer, op: u64, batch: &UpdateBatch) {
        Shadow::apply(self, tr, op, batch);
        self.publish(tr, op);
    }
    fn checkpoint(&mut self, tr: &mut Tracer, op: u64) -> io::Result<u64> {
        Shadow::checkpoint(self, tr, op)
    }
    fn graph(&self) -> &DynamicGraph {
        self.stream.graph()
    }
    fn props(&self) -> &PropertyStore {
        self.stream.props()
    }
    fn quarantined(&self) -> usize {
        self.stream.stats().updates_quarantined
    }
    fn take_snapshot_stats(&mut self) -> SnapshotStats {
        self.stream.take_snapshot_stats()
    }
}

/// Seconds as milliseconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Layer metrics of the write path — admission, WAL, apply, freeze,
/// publish — from one traced round's spans. A layer that recorded no
/// span (no WAL in memory, no publish when not serving) reports 0.
pub fn fill_write_layers(
    out: &mut Outcome,
    layers: &LayerTimes,
    applied_updates: usize,
    snapshots: SnapshotStats,
) {
    out.layer("admit_us", layers.mean_s("admission") * 1e6);
    out.layer("wal_append_ms", ms(layers.mean_s("wal")));
    out.layer("wal_appends", layers.count("wal") as f64);
    out.layer("apply_ms", ms(layers.mean_s("apply")));
    out.layer(
        "apply_ns_per_update",
        layers.total_s("apply") * 1e9 / applied_updates as f64,
    );
    out.layer("freeze_ms", ms(layers.mean_s("freeze")));
    let rows = snapshots.rows_reused + snapshots.rows_rebuilt;
    if rows > 0 {
        out.layer(
            "rows_reused_fraction",
            snapshots.rows_reused as f64 / rows as f64,
        );
        out.layer(
            "snapshot_mem_bytes",
            snapshots.mem_bytes as f64 / snapshots.rebuilds().max(1) as f64,
        );
    }
    // A publish is the column clone plus the slot install.
    let publishes = layers.count("publish");
    if publishes > 0 {
        let total = layers.total_of(&["publish", "props_clone"]);
        out.layer("publish_ms", ms(total / publishes as f64));
    }
    out.layer("publishes", publishes as f64);
    out.layer("props_clone_ms", ms(layers.mean_s("props_clone")));
}

/// `unattributed_fraction`: the share of the untraced engine's time that
/// the layers' self times (`attributed`, from one traced round) do not
/// account for — its own orchestration. `trace_overhead`: traced ÷
/// untraced. All three in the same unit.
pub fn fill_trace_ratios(out: &mut Outcome, untraced: f64, attributed: f64, traced: f64) {
    out.layer("unattributed_fraction", (untraced - attributed) / untraced);
    out.layer("trace_overhead", traced / untraced);
}
