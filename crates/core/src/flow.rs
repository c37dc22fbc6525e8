//! Fig. 2: the canonical graph-processing flow, with instrumentation.
//!
//! The paper's conclusion asks for exactly this artifact: "a reference
//! implementation, with explicit instrumentation, of a combined
//! benchmark would allow calibration of the model."
//!
//! [`FlowEngine`] wires the stages of Fig. 2 together around a
//! persistent property graph:
//!
//! ```text
//!   update stream ─▶ StreamEngine ─ monitors ─ events ─┐
//!                         │                            ▼ (threshold)
//!   bulk records ─▶ dedup ┴▶ persistent graph ◀─ property write-back
//!                              │        ▲
//!              selection criteria       │
//!                seeds ─▶ subgraph extraction (+projection)
//!                              │
//!                       batch analytics ─▶ global metrics / alerts
//! ```
//!
//! Every stage increments [`FlowStats`] — the calibration counters the
//! NORA model (`crate::model`) prices.
//!
//! # One write path
//!
//! Every update batch, whatever front it arrives through, runs the same
//! private staged function (`FlowEngine::ingest`). A feature is a stage
//! that [`FlowConfig`] (or the rung in force) switches on, never a
//! second path:
//!
//! | # | stage | on when |
//! |---|-------|---------|
//! | 1 | WAL append, with retry and repair-before-retry, feeding the breaker | the front logs, [`FlowConfig::durability_dir`] / [`FlowConfig::recover`] attached a log, and the breaker has not suspended it |
//! | 2 | apply to the graph; malformed updates quarantined | always ([`FlowConfig::vertex_limit`], [`FlowConfig::symmetrize`] shape it) |
//! | 3 | monitor events drained and counted | always (at `Shed` the apply is unmonitored, so there are none) |
//! | 4 | triggers → seeds → extraction → analytic → write-back | the caller passed a trigger and an analytic; budgeted at `PartialBudget`, skipped at `SeedsOnly` ([`FlowConfig::overload`]) |
//! | 5 | freeze the CSR and publish the epoch | [`FlowEngine::serve_handle`] was called; per batch at `Full` and `PartialBudget`, once per [`FlowEngine::pump`] call for its `SeedsOnly` and `Shed` batches |
//!
//! The fronts only choose *(log?, rung)*: [`FlowEngine::process_stream`]
//! is the un-logged front; [`FlowEngine::process_stream_durable`],
//! [`FlowEngine::pump`] (rung from the admission-queue depth),
//! [`FlowEngine::replay_dead_letters`] and sharded delivery are the
//! logged ones; recovery replays the WAL suffix through the un-logged
//! front. The one exception: `replay_dead_letters` also asks stage 1 to
//! drain the dead-letter queue once its batch is logged, which keeps
//! append-before-drain inside the pipeline. [`FlowEngine::checkpoint`]
//! is out of band.

use crate::durability::{CheckpointRef, Durability};
use crate::retry::{CircuitBreaker, RetryPolicy};
use ga_graph::sub::{extract_ball, Subgraph};
use ga_graph::{DynamicGraph, ExtractOptions, PropertyStore, SnapshotEpoch, VertexId};
use ga_kernels::{topk, Budget, KernelCtx, Parallelism};
use ga_obs::{MetricsSnapshot, Recorder, Step};
use ga_stream::admission::{
    AdmissionConfig, AdmissionDecision, AdmissionQueue, AdmissionStats, Priority,
};
use ga_stream::engine::QuarantinedUpdate;
use ga_stream::epoch::{EpochSnapshot, SnapshotHandle};
use ga_stream::update::UpdateBatch;
use ga_stream::{Event, EventKind, StreamEngine};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How the batch path picks its seed vertices (Fig. 2's "selection
/// criteria" box).
#[derive(Clone, Debug)]
pub enum SelectionCriteria {
    /// Explicit vertex list ("as simple as specifying some particular
    /// vertex").
    Explicit(Vec<VertexId>),
    /// Scan for the top-k vertices of a property column ("scanning for
    /// the top-k vertices with the highest values of some properties").
    TopKProperty {
        /// Property column name.
        name: String,
        /// Seed count.
        k: usize,
    },
    /// Top-k by current out-degree.
    TopKDegree {
        /// Seed count.
        k: usize,
    },
    /// All vertices whose property exceeds a threshold.
    PropertyAbove {
        /// Property column name.
        name: String,
        /// Threshold.
        tau: f64,
    },
}

/// What a batch analytic produced.
#[derive(Clone, Debug, Default)]
pub struct AnalyticOutput {
    /// Global scalar metrics (name, value).
    pub globals: Vec<(String, f64)>,
    /// Per-vertex properties in *subgraph* ids, to be written back
    /// through the back-map.
    pub vertex_props: Vec<(String, Vec<f64>)>,
    /// Human-readable alerts for the external system.
    pub alerts: Vec<String>,
}

/// A batch analytic runnable on an extracted subgraph.
pub trait BatchAnalytic {
    /// Stable name (used in stats and write-back provenance).
    fn name(&self) -> &'static str;
    /// Run on the extracted subgraph. The context selects serial vs
    /// parallel kernel engines and collects the kernels' operation
    /// counters, which the engine drains into [`FlowStats`] after each
    /// run.
    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> AnalyticOutput;
}

/// Ingest-side counters: bulk dedup plus the streaming path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Raw records deduped into the graph.
    pub records_ingested: usize,
    /// Entities created by dedup.
    pub entities_created: usize,
    /// Streaming updates applied.
    pub updates_applied: usize,
    /// Malformed streaming updates quarantined to the dead-letter queue
    /// instead of applied.
    pub updates_quarantined: usize,
    /// Streaming events observed.
    pub events_observed: usize,
    /// Streaming events that triggered a batch analytic.
    pub triggers_fired: usize,
}

/// Batch-path counters: selection → extraction → analytic → write-back,
/// plus the kernels' own operation tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalyticsStats {
    /// Batch runs executed.
    pub batch_runs: usize,
    /// Seeds selected across runs.
    pub seeds_selected: usize,
    /// Subgraphs extracted.
    pub subgraphs_extracted: usize,
    /// Vertices copied into extracted subgraphs.
    pub vertices_extracted: usize,
    /// Edges copied into extracted subgraphs.
    pub edges_extracted: usize,
    /// Property values written back to the persistent graph.
    pub props_written_back: usize,
    /// Global metrics produced.
    pub globals_produced: usize,
    /// Alerts raised.
    pub alerts_raised: usize,
    /// CPU operations the batch kernels reported ([`ga_graph::OpCounters`]).
    pub kernel_cpu_ops: usize,
    /// Memory traffic (bytes) the batch kernels reported.
    pub kernel_mem_bytes: usize,
    /// Edges the batch kernels touched.
    pub kernel_edges_touched: usize,
}

/// CSR snapshot-pipeline counters (the "copy subgraph into faster
/// memory" step of Fig. 2 the model prices).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// CSR snapshot rebuilds (full + delta) the batch path performed.
    pub rebuilds: usize,
    /// Rows whose CSR slices were reused from the previous snapshot
    /// instead of re-gathered (the delta path's savings).
    pub rows_reused: usize,
    /// Bytes written into snapshot arrays.
    pub mem_bytes: usize,
}

/// Durability counters (WAL + checkpoint retry machinery).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Durable-write attempts that failed transiently and were retried
    /// (WAL appends + checkpoint writes).
    pub retries: usize,
    /// Times the durability circuit breaker tripped open (each trip also
    /// raises an alert).
    pub breaker_trips: usize,
}

/// Overload counters (admission control + degradation ladder).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Updates refused or evicted by admission control under overload
    /// (they never reached the graph).
    pub updates_shed: usize,
    /// Analytic runs that hit their op budget and returned a
    /// typed partial result instead of a complete one.
    pub budget_partials: usize,
    /// Triggered analytic runs skipped outright at the `SeedsOnly`
    /// degradation level (seeds were still selected).
    pub analytics_skipped: usize,
}

/// The instrumentation record (the paper's "explicit instrumentation"),
/// grouped by pipeline concern. The GAC1 checkpoint codec serialises
/// one length-prefixed section per group.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Bulk + streaming ingest.
    pub ingest: IngestStats,
    /// The batch analytic path.
    pub analytics: AnalyticsStats,
    /// CSR snapshot pipeline.
    pub snapshots: SnapshotStats,
    /// WAL/checkpoint retry machinery.
    pub durability: DurabilityStats,
    /// Admission control + degradation ladder.
    pub overload: OverloadStats,
    /// Tiered segment-store IO (spill, page cache, scrub, repair).
    pub tier: ga_graph::tier::TierStats,
}

/// Rung of the overload degradation ladder, least to most degraded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradationLevel {
    /// Normal operation: full analytics on every trigger.
    #[default]
    Full,
    /// Analytics run under a reduced op budget and may return
    /// typed partial results.
    PartialBudget,
    /// Seeds are still selected (cheap) but triggered analytics are
    /// skipped entirely.
    SeedsOnly,
    /// Updates are applied unmonitored — no events, no triggers, no
    /// analytics — keeping the graph current at minimal cost.
    Shed,
}

impl DegradationLevel {
    /// Stable name (event payloads, JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::PartialBudget => "partial-budget",
            DegradationLevel::SeedsOnly => "seeds-only",
            DegradationLevel::Shed => "shed",
        }
    }
}

/// Thresholds driving the degradation ladder, in queued *updates* (the
/// [`AdmissionQueue::depth`] quantity) — a deterministic signal, so a
/// fixed offered sequence always walks the same rungs.
#[derive(Clone, Copy, Debug)]
pub struct OverloadConfig {
    /// Queue depth at or above which analytics run under the degraded
    /// budget.
    pub partial_at: usize,
    /// Queue depth at or above which triggered analytics are skipped.
    pub seeds_only_at: usize,
    /// Queue depth at or above which updates are applied unmonitored.
    pub shed_at: usize,
    /// Op budget for analytic runs at `PartialBudget` (see
    /// [`ga_kernels::Budget::ops`]).
    pub degraded_budget_ops: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        let adm = AdmissionConfig::default();
        OverloadConfig {
            partial_at: adm.bulk_watermark / 2,
            seeds_only_at: adm.normal_watermark,
            shed_at: adm.capacity,
            degraded_budget_ops: 1 << 20,
        }
    }
}

/// Report of one batch run.
#[derive(Clone, Debug)]
pub struct BatchRunReport {
    /// The analytic that ran.
    pub analytic: &'static str,
    /// Seeds used.
    pub seeds: Vec<VertexId>,
    /// Extracted subgraph size (vertices, edges).
    pub subgraph_size: (usize, usize),
    /// Global metrics produced.
    pub globals: Vec<(String, f64)>,
    /// Alerts raised.
    pub alerts: Vec<String>,
}

/// Construction-time configuration for a [`FlowEngine`] — the only
/// configuration surface: parallelism, retry/breaker, admission,
/// overload thresholds, extraction, durability, tiering and
/// observability are all set here and the engine's fields are private.
/// Each setting switches one stage of the ingest pipeline (see the
/// [module docs](self)) on or tunes it; none adds a second path.
///
/// ```
/// # use ga_core::flow::FlowEngine;
/// # use ga_core::retry::RetryPolicy;
/// # use ga_kernels::Parallelism;
/// let engine = FlowEngine::builder()
///     .parallelism(Parallelism::Serial)
///     .retry(RetryPolicy::retries(3, 42))
///     .build(1 << 10)
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct FlowConfig {
    parallelism: Parallelism,
    retry: RetryPolicy,
    breaker_threshold: u32,
    admission: AdmissionConfig,
    overload: OverloadConfig,
    extract: ExtractOptions,
    project_columns: Vec<String>,
    vertex_limit: Option<usize>,
    symmetrize: bool,
    durability_dir: Option<PathBuf>,
    recorder: Recorder,
    tier: Option<ga_graph::tier::TierConfig>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            parallelism: Parallelism::Auto,
            retry: RetryPolicy::none(),
            breaker_threshold: 3,
            admission: AdmissionConfig::default(),
            overload: OverloadConfig::default(),
            extract: ExtractOptions {
                depth: 2,
                max_vertices: 4096,
                undirected_expand: false,
            },
            project_columns: Vec::new(),
            vertex_limit: None,
            symmetrize: true,
            durability_dir: None,
            recorder: Recorder::disabled(),
            tier: None,
        }
    }
}

impl FlowConfig {
    /// Serial/parallel kernel dispatch policy (default `Auto`).
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Retry policy for durable writes (default
    /// [`RetryPolicy::none`]).
    pub fn retry(mut self, r: RetryPolicy) -> Self {
        self.retry = r;
        self
    }

    /// Consecutive durable-write failures before the circuit breaker
    /// trips (default 3).
    pub fn breaker_threshold(mut self, consecutive_failures: u32) -> Self {
        self.breaker_threshold = consecutive_failures;
        self
    }

    /// Admission-queue watermarks for the overload front door.
    pub fn admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = cfg;
        self
    }

    /// Degradation-ladder thresholds.
    pub fn overload(mut self, cfg: OverloadConfig) -> Self {
        self.overload = cfg;
        self
    }

    /// Subgraph-extraction settings for both paths (default depth 2,
    /// 4096 vertices).
    pub fn extract(mut self, opts: ExtractOptions) -> Self {
        self.extract = opts;
        self
    }

    /// Property columns projected into extracted subgraphs.
    pub fn project_columns(mut self, cols: Vec<String>) -> Self {
        self.project_columns = cols;
        self
    }

    /// Vertex-id bound above which updates are quarantined (default
    /// [`ga_stream::engine::DEFAULT_VERTEX_LIMIT`]).
    pub fn vertex_limit(mut self, limit: usize) -> Self {
        self.vertex_limit = Some(limit);
        self
    }

    /// Mirror edge updates in both directions (default true).
    pub fn symmetrize(mut self, symmetrize: bool) -> Self {
        self.symmetrize = symmetrize;
        self
    }

    /// Enable durability (WAL + checkpoints) under `dir`. The directory
    /// must not already hold engine state; use [`FlowEngine::recover`]
    /// for that. `build` writes the initial checkpoint.
    pub fn durability_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability_dir = Some(dir.into());
        self
    }

    /// Attach an observability recorder; it is threaded through the
    /// kernel context, stream engine, WAL, and checkpoint writer so
    /// [`FlowEngine::metrics`] reports the whole stack.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Serve batch extraction through a tiered larger-than-RAM segment
    /// store (default off): each batch's CSR snapshot spills to
    /// CRC-framed segments under the tier directory and the extraction
    /// BFS pages rows back in through a RAM-budgeted cache, so cold
    /// rows cost real disk IO that shows up as disk demand in the
    /// calibration model. See [`ga_graph::tier::TieredCsr`].
    pub fn tiered(mut self, cfg: ga_graph::tier::TierConfig) -> Self {
        self.tier = Some(cfg);
        self
    }

    /// Build an engine over an empty persistent graph of
    /// `num_vertices`.
    pub fn build(self, num_vertices: usize) -> io::Result<FlowEngine> {
        self.build_with_graph(
            DynamicGraph::new(num_vertices),
            PropertyStore::new(num_vertices),
        )
    }

    /// Build an engine over an existing persistent graph.
    pub fn build_with_graph(
        mut self,
        graph: DynamicGraph,
        props: PropertyStore,
    ) -> io::Result<FlowEngine> {
        let durability_dir = self.durability_dir.take();
        let mut stream = StreamEngine::with_graph(graph, props);
        if let Some(limit) = self.vertex_limit {
            stream.set_vertex_limit(limit);
        }
        stream.symmetrize = self.symmetrize;
        let mut engine = self.into_engine(stream);
        // Durability last: the initial checkpoint must capture the
        // configured symmetrize/vertex-limit state, and any graph
        // content or write-backs that predate the log (those are only
        // durable via checkpoints).
        if let Some(dir) = durability_dir {
            let d = Durability::create(dir, checkpoint_ref(&engine.stream, engine.stats, 1))?;
            engine.attach_durability(d);
        }
        Ok(engine)
    }

    /// Rebuild an engine from a durability directory: load the newest
    /// usable checkpoint, replay the WAL suffix through the ingest
    /// pipeline (quarantine included), and reattach the log for further
    /// appends. This configuration is in force *during* the replay, so
    /// a configured recorder sees one Ingest span per replayed frame.
    ///
    /// The recovered state — graph slots, property columns, stats,
    /// batch-time watermark — is bit-identical to an uninterrupted run
    /// over the same durable batches. The persisted state knobs —
    /// `vertex_limit`, `symmetrize`, and the durability directory itself
    /// — come from the checkpoint, not from the builder, so replay stays
    /// deterministic. Registered analytics and monitors are NOT
    /// persisted; re-register after recovery.
    pub fn recover(self, dir: impl AsRef<Path>) -> io::Result<FlowEngine> {
        let (durability, ckpt, replay) = Durability::recover(dir)?;
        let mut stream = StreamEngine::with_graph(ckpt.graph, ckpt.props);
        stream.set_stats(ckpt.stream);
        stream.symmetrize = ckpt.symmetrize;
        stream.set_vertex_limit(ckpt.vertex_limit as usize);
        stream.set_last_batch_time(ckpt.last_batch_time);
        let mut engine = self.into_engine(stream);
        engine.stats = ckpt.flow;
        engine.attach_durability(durability);
        for (_seq, batch) in &replay {
            // The un-logged front: the frames are already in the log,
            // and re-validation re-quarantines deterministically.
            engine.process_stream(batch, |_| None, None);
        }
        Ok(engine)
    }

    /// The one field-by-field constructor: every engine, fresh or
    /// recovered, starts here.
    fn into_engine(self, mut stream: StreamEngine) -> FlowEngine {
        let mut kernel_ctx = KernelCtx::new(self.parallelism);
        kernel_ctx.recorder = self.recorder.clone();
        stream.set_recorder(self.recorder.clone());
        FlowEngine {
            stream,
            analytics: Vec::new(),
            stats: FlowStats::default(),
            durability: None,
            admission: AdmissionQueue::new(self.admission),
            retry: self.retry,
            breaker: CircuitBreaker::new(self.breaker_threshold),
            durability_suspended: false,
            level: DegradationLevel::Full,
            overload_events: Vec::new(),
            recorder: self.recorder,
            overload: self.overload,
            extract: self.extract,
            project_columns: self.project_columns,
            kernel_ctx,
            tier_config: self.tier,
            tier: None,
            serve: None,
        }
    }
}

/// Publication state for the concurrent query-serving front end: the
/// shared [`SnapshotHandle`] readers load from, plus enough caching to
/// make a no-op republish free.
struct ServePublisher {
    /// The slot reader threads load from ([`FlowEngine::serve_handle`]
    /// hands out clones).
    handle: SnapshotHandle,
    /// Frozen property columns keyed by [`PropertyStore::version`]: the
    /// deep clone is taken only when the columns actually moved.
    props: Option<(u64, Arc<PropertyStore>)>,
    /// `(stamp, props_version)` of the last publish — an unchanged pair
    /// skips publication entirely.
    last: Option<(SnapshotEpoch, u64)>,
}

/// The Fig. 2 engine: a persistent graph with batch and streaming paths.
pub struct FlowEngine {
    stream: StreamEngine,
    analytics: Vec<Box<dyn BatchAnalytic>>,
    stats: FlowStats,
    durability: Option<Durability>,
    /// Bounded priority-classed ingest queue (the overload front door).
    admission: AdmissionQueue,
    /// Retry policy for durable writes (WAL appends, checkpoints).
    retry: RetryPolicy,
    /// Trips after consecutive exhausted-retry durability failures.
    breaker: CircuitBreaker,
    /// True once the breaker tripped: the engine runs non-durably.
    durability_suspended: bool,
    /// Current rung of the degradation ladder (for change events).
    level: DegradationLevel,
    /// Overload events (LoadShed / Degraded / CircuitBreaker) pending
    /// collection via [`Self::take_overload_events`].
    overload_events: Vec<Event>,
    /// Observability sink: span totals, latency histograms, and the
    /// unified event journal. Disabled (free) unless configured through
    /// [`FlowConfig::recorder`].
    recorder: Recorder,
    /// Degradation-ladder thresholds.
    overload: OverloadConfig,
    /// Extraction settings used by both paths.
    extract: ExtractOptions,
    /// Property columns projected into extracted subgraphs.
    project_columns: Vec<String>,
    /// Kernel execution context handed to every analytic run: carries
    /// the serial/parallel dispatch policy and the op budget (unlimited
    /// except while a `PartialBudget` batch is in the pipeline).
    kernel_ctx: KernelCtx,
    /// When set ([`FlowConfig::tiered`]), batch extraction reads
    /// through a spilled segment tier instead of the in-RAM snapshot.
    tier_config: Option<ga_graph::tier::TierConfig>,
    /// The live tier, tagged with the snapshot it was spilled from so
    /// an unchanged graph skips the respill.
    tier: Option<(std::sync::Arc<ga_graph::CsrGraph>, ga_graph::TieredCsr)>,
    /// Epoch publication state, lazily created by
    /// [`Self::serve_handle`]. `None` = not serving (publication hooks
    /// are free).
    serve: Option<ServePublisher>,
}

impl FlowEngine {
    /// Engine over an empty persistent graph of `num_vertices`, with
    /// the default [`FlowConfig`].
    pub fn new(num_vertices: usize) -> Self {
        Self::with_graph(
            DynamicGraph::new(num_vertices),
            PropertyStore::new(num_vertices),
        )
    }

    /// Start a [`FlowConfig`] builder — the only configuration surface.
    pub fn builder() -> FlowConfig {
        FlowConfig::default()
    }

    /// Engine over an existing persistent graph, with the default
    /// [`FlowConfig`].
    pub fn with_graph(graph: DynamicGraph, props: PropertyStore) -> Self {
        FlowConfig::default()
            .build_with_graph(graph, props)
            .expect("the default configuration has no durability directory, so build does no IO")
    }

    /// [`FlowConfig::recover`] with the default configuration.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<FlowEngine> {
        FlowConfig::default().recover(dir)
    }

    // -----------------------------------------------------------------
    // Concurrent query serving: epoch-based snapshot publication.
    // -----------------------------------------------------------------

    /// Start serving: publish the current state and return the
    /// [`SnapshotHandle`] query threads read from. Clone the handle
    /// freely (clones share the slot); each reader thread should take
    /// one [`ga_stream::SnapshotReader`] via `handle.reader()` — its
    /// steady-state load is a single atomic read.
    ///
    /// Once serving, every ingest/batch entry point
    /// ([`Self::process_stream`], [`Self::pump`], [`Self::run_batch`],
    /// durable and recovery paths included) republishes automatically
    /// when the graph or its property columns moved, so readers always
    /// see one consistent frozen generation. Engines that never call
    /// this pay nothing.
    pub fn serve_handle(&mut self) -> SnapshotHandle {
        if self.serve.is_none() {
            self.serve = Some(ServePublisher {
                handle: SnapshotHandle::new(),
                props: None,
                last: None,
            });
        }
        self.publish_epoch();
        self.serve.as_ref().unwrap().handle.clone()
    }

    /// Publish the current graph + property generation to the serving
    /// slot, if serving is on and anything moved since the last publish.
    /// The ingest/batch entry points call this automatically; call it
    /// directly after out-of-band mutation (e.g. [`Self::props_mut`]
    /// write-backs from external code).
    pub fn publish_epoch(&mut self) {
        if self.serve.is_none() {
            return;
        }
        let par = self.kernel_ctx.parallelism;
        let (csr, stamp) = self.stream.csr_snapshot_stamped(par);
        let props_version = self.stream.props().version();
        let serve = self.serve.as_mut().unwrap();
        if serve.last == Some((stamp, props_version)) {
            return;
        }
        self.fold_snapshot_stats();
        let serve = self.serve.as_mut().unwrap();
        let props = match &serve.props {
            Some((v, arc)) if *v == props_version => Arc::clone(arc),
            _ => {
                let arc = Arc::new(self.stream.props().clone());
                serve.props = Some((props_version, Arc::clone(&arc)));
                arc
            }
        };
        serve.handle.publish(EpochSnapshot {
            stamp,
            props_version,
            time: self.stream.last_batch_time(),
            csr,
            compressed: None,
            props,
        });
        serve.last = Some((stamp, props_version));
    }

    /// Drain the snapshot cache's counters into `FlowStats` — after
    /// every freeze, whichever path asked for it (a batch analytic or an
    /// epoch publish), so a serving engine that never runs an analytic
    /// still reports what its freezes cost.
    fn fold_snapshot_stats(&mut self) {
        let s = self.stream.take_snapshot_stats();
        self.stats.snapshots.rebuilds += s.rebuilds() as usize;
        self.stats.snapshots.rows_reused += s.rows_reused as usize;
        self.stats.snapshots.mem_bytes += s.mem_bytes as usize;
    }

    /// The live segment tier, if [`FlowConfig::tiered`] is on and a
    /// batch has spilled one.
    pub fn tier(&self) -> Option<&ga_graph::TieredCsr> {
        self.tier.as_ref().map(|(_, t)| t)
    }

    /// Scrub the segment tier and repair what the scrub (or earlier
    /// reads) quarantined, using the current CSR snapshot — the same
    /// state a checkpoint+WAL recovery reproduces — as the repair
    /// source. Corruption is detected by CRC, quarantined, rewritten
    /// from good data, and journalled; a segment with no source left is
    /// refused and counted lost, never fabricated. Returns `None` when
    /// no tier is live.
    pub fn scrub_tier(
        &mut self,
    ) -> Option<(ga_graph::tier::ScrubReport, ga_graph::tier::RepairReport)> {
        let snap = self.stream.csr_snapshot(self.kernel_ctx.parallelism);
        let time = self.stream.last_batch_time();
        let (_, tier) = self.tier.as_ref()?;
        let scrub = tier.scrub();
        if !scrub.corrupt.is_empty() {
            self.recorder.journal(
                time,
                "tier_quarantine",
                format!("scrub quarantined {} segment(s)", scrub.corrupt.len()),
            );
        }
        let repair = tier.repair_from(Some(&snap));
        self.recorder.journal(
            time,
            "tier_scrub",
            format!(
                "scanned {} clean / {} corrupt / {} missing, repaired {}, unrepairable {}",
                scrub.clean,
                scrub.corrupt.len(),
                scrub.missing.len(),
                repair.repaired.len(),
                repair.unrepairable.len()
            ),
        );
        self.stats.tier.merge(&tier.take_stats());
        Some((scrub, repair))
    }

    /// Register a batch analytic; returns its index.
    pub fn register_analytic(&mut self, a: Box<dyn BatchAnalytic>) -> usize {
        self.analytics.push(a);
        self.analytics.len() - 1
    }

    /// Attach a streaming monitor (incremental kernel).
    pub fn register_monitor(&mut self, m: Box<dyn ga_stream::Monitor>) {
        self.stream.register(m);
    }

    /// The persistent graph.
    pub fn graph(&self) -> &DynamicGraph {
        self.stream.graph()
    }

    /// The persistent property store.
    pub fn props(&self) -> &PropertyStore {
        self.stream.props()
    }

    /// Mutable property access (bulk write-back).
    pub fn props_mut(&mut self) -> &mut PropertyStore {
        self.stream.props_mut()
    }

    /// The instrumentation counters.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// The stream layer's own counters (persisted in checkpoints and
    /// restored by recovery alongside [`FlowStats`]).
    pub fn stream_stats(&self) -> ga_stream::engine::StreamStats {
        self.stream.stats()
    }

    /// The attached recorder (disabled by default). Callers owning flow
    /// stages the engine cannot see — e.g. the dedup pass feeding
    /// [`Self::note_ingest`] — open their own spans on this.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Point-in-time export of everything the recorder has seen: span
    /// totals and wall-time histograms for every [`Step`], plus the
    /// journal of overload events. Empty (but schema-valid) when the
    /// recorder is disabled.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.recorder.snapshot()
    }

    /// Record that `records → entities` dedup ingest happened (the
    /// caller builds graph edges from the deduped entities; see the
    /// NORA example for the full path).
    pub fn note_ingest(&mut self, records: usize, entities: usize) {
        self.stats.ingest.records_ingested += records;
        self.stats.ingest.entities_created += entities;
    }

    /// Resolve selection criteria into seed vertices.
    pub fn select_seeds(&self, criteria: &SelectionCriteria) -> Vec<VertexId> {
        match criteria {
            SelectionCriteria::Explicit(v) => v.clone(),
            SelectionCriteria::TopKProperty { name, k } => self
                .stream
                .props()
                .top_k_f64(name, *k)
                .into_iter()
                .map(|(v, _)| v)
                .collect(),
            SelectionCriteria::TopKDegree { k } => {
                let g = self.stream.graph();
                topk::top_k_by(g.num_vertices(), *k, |v| Some(g.degree(v) as f64))
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect()
            }
            SelectionCriteria::PropertyAbove { name, tau } => {
                let tau = *tau;
                self.stream.props().select_f64(name, |x| x > tau)
            }
        }
    }

    /// The full batch path: select seeds → extract (with projection) →
    /// run the analytic → write back vertex properties → collect
    /// globals and alerts.
    ///
    /// The write-back sets property columns directly, outside the
    /// write-ahead log, on a durable engine too: the written values
    /// survive a crash only through the next [`Self::checkpoint`], and
    /// [`Self::recover`] drops any written after it. Triggered
    /// analytics write back the same way.
    pub fn run_batch(
        &mut self,
        criteria: &SelectionCriteria,
        analytic_idx: usize,
    ) -> BatchRunReport {
        let mut span = self.recorder.span(Step::Selection);
        let seeds = self.select_seeds(criteria);
        if span.is_recording() {
            // Explicit selection touches only its own list; every other
            // criterion scans the full vertex set.
            let scanned = match criteria {
                SelectionCriteria::Explicit(v) => v.len() as u64,
                _ => self.stream.graph().num_vertices() as u64,
            };
            span.add(scanned, scanned * 8, 0, 0);
        }
        drop(span);
        self.stats.analytics.seeds_selected += seeds.len();
        let report = self.run_batch_on_seeds(&seeds, analytic_idx);
        self.publish_epoch();
        report
    }

    fn run_batch_on_seeds(&mut self, seeds: &[VertexId], analytic_idx: usize) -> BatchRunReport {
        // Freeze through the stream engine's snapshot cache: repeat
        // triggers against an unchanged graph reuse the cached CSR, and
        // after an update batch only the dirtied rows are rebuilt.
        let snap = self.stream.csr_snapshot(self.kernel_ctx.parallelism);
        self.fold_snapshot_stats();
        if let Some(cfg) = &self.tier_config {
            // Respill only when the snapshot actually changed; a repeat
            // trigger on an unchanged graph keeps the warm tier. Spill
            // bytes are disk traffic of the Snapshot step.
            let stale = !matches!(&self.tier, Some((s, _)) if std::sync::Arc::ptr_eq(s, &snap));
            if stale {
                let mut span = self.recorder.span(Step::Snapshot);
                match ga_graph::TieredCsr::spill(&snap, cfg.clone()) {
                    Ok(tier) => {
                        if span.is_recording() {
                            span.add_disk_bytes(tier.stats().spilled_bytes);
                        }
                        self.tier = Some((std::sync::Arc::clone(&snap), tier));
                    }
                    Err(e) => {
                        // Spill refused (tier directory unusable):
                        // degrade to in-RAM extraction, on the record.
                        self.recorder.journal(
                            self.stream.last_batch_time(),
                            "tier_spill_failed",
                            format!("{e}"),
                        );
                        self.tier = None;
                    }
                }
                drop(span);
            }
        } else {
            self.tier = None;
        }
        let mut span = self.recorder.span(Step::Extraction);
        let cols: Vec<&str> = self.project_columns.iter().map(|s| s.as_str()).collect();
        let props_ref = (!cols.is_empty()).then(|| (self.stream.props(), cols.as_slice()));
        let sub = match &self.tier {
            // The extraction BFS reads through the tier: cold rows page
            // in from disk and the IO lands on this span's disk axis.
            Some((_, tier)) => {
                let before = tier.stats().read_bytes;
                let sub = extract_ball(tier, seeds, &self.extract, props_ref);
                if span.is_recording() {
                    span.add_disk_bytes(tier.stats().read_bytes - before);
                }
                sub
            }
            None => extract_ball(&*snap, seeds, &self.extract, props_ref),
        };
        if span.is_recording() {
            let (nv, ne) = (sub.num_vertices() as u64, sub.graph.num_edges() as u64);
            // One visit per vertex + edge; ids and CSR copies dominate
            // the memory traffic.
            span.add(nv + ne, nv * 8 + ne * 16, 0, 0);
        }
        drop(span);
        if let Some((_, tier)) = &self.tier {
            self.stats.tier.merge(&tier.take_stats());
        }
        self.stats.analytics.subgraphs_extracted += 1;
        self.stats.analytics.vertices_extracted += sub.num_vertices();
        self.stats.analytics.edges_extracted += sub.graph.num_edges();

        let analytic = &self.analytics[analytic_idx];
        let name = analytic.name();
        let mut span = self.recorder.span(Step::BatchAnalytic);
        let out = analytic.run(&sub, &self.kernel_ctx);
        // Drain the kernels' operation counters into the run stats — the
        // measured inputs model calibration consumes — and attribute the
        // same work to the analytic's span.
        let ops = self.kernel_ctx.take();
        span.add(ops.cpu_ops, ops.mem_bytes, 0, 0);
        drop(span);
        self.stats.analytics.kernel_cpu_ops += ops.cpu_ops as usize;
        self.stats.analytics.kernel_mem_bytes += ops.mem_bytes as usize;
        self.stats.analytics.kernel_edges_touched += ops.edges_touched as usize;
        // A budgeted run that tripped its op bound produced a
        // typed partial result (see the Completion fields on kernel
        // results) — count it.
        if self.kernel_ctx.budget.take_hits() > 0 {
            self.stats.overload.budget_partials += 1;
        }
        self.stats.analytics.batch_runs += 1;
        self.stats.analytics.globals_produced += out.globals.len();
        self.stats.analytics.alerts_raised += out.alerts.len();

        // Write back per-vertex results through the back-map ("use of
        // the analytic to compute/update properties of vertices ... sent
        // back to update the original persistent graph").
        let mut span = self.recorder.span(Step::WriteBack);
        let mut written = 0usize;
        for (prop_name, values) in &out.vertex_props {
            assert_eq!(values.len(), sub.num_vertices());
            for (local, &value) in values.iter().enumerate() {
                let global = sub.back_map[local];
                self.stream.props_mut().set(prop_name, global, value);
                written += 1;
            }
        }
        if span.is_recording() {
            // Each write-back is a property-store update shipped to the
            // persistent side: name lookup + one f64 slot, modeled as a
            // network transfer in the distributed configurations.
            let w = written as u64;
            span.add(w, w * 8, 0, w * 8);
        }
        drop(span);
        self.stats.analytics.props_written_back += written;
        BatchRunReport {
            analytic: name,
            seeds: seeds.to_vec(),
            subgraph_size: (sub.num_vertices(), sub.graph.num_edges()),
            globals: out.globals,
            alerts: out.alerts,
        }
    }

    // -----------------------------------------------------------------
    // The write path: one staged pipeline behind every front.
    // -----------------------------------------------------------------

    /// The ingest pipeline — the only code that appends to the WAL or
    /// applies a batch to the stream engine; its last stage,
    /// [`Self::publish_epoch`], is the only code that freezes and
    /// publishes an epoch. Stages run in the order of the
    /// [module docs'](self) table — WAL, apply, monitor events, triggers
    /// and analytics, freeze and publish — each a plain `if` on engine
    /// state; the fronts only pick a [`Front`].
    ///
    /// Returns the reports of analytic runs that executed and the number
    /// of updates quarantined. It can only fail in the WAL stage, so an
    /// `Err` means the batch was neither logged nor applied.
    fn ingest(
        &mut self,
        batch: &UpdateBatch,
        front: Front,
        trigger: impl Fn(&Event) -> Option<Vec<VertexId>>,
        analytic_idx: Option<usize>,
    ) -> io::Result<(Vec<BatchRunReport>, usize)> {
        if front.log && self.durability.is_some() && !self.durability_suspended {
            let logged = self.durable_write(|d, _| d.append(batch), Durability::repair_wal);
            // A failure that tripped the breaker suspended durability:
            // the batch proceeds un-logged (degradation, not an error
            // stream). Any other failure stops here.
            if let (Err(e), false) = (logged, self.durability_suspended) {
                return Err(e);
            }
        }
        if front.drain_dead_letters {
            // After the append, so a failed append leaves the
            // quarantined updates retained instead of destroyed.
            self.stream.drain_dead_letters();
        }

        let level = front.level;
        let quarantined = if level == DegradationLevel::Shed {
            self.stream.apply_batch_unmonitored(batch)
        } else {
            self.stream.apply_batch(batch)
        };
        self.stats.ingest.updates_applied += batch.updates.len() - quarantined;
        self.stats.ingest.updates_quarantined += quarantined;

        let events = self.stream.take_events();
        self.stats.ingest.events_observed += events.len();

        // At `PartialBudget` analytics run under the degraded budget
        // and may return typed partial results; at `SeedsOnly` triggers
        // still fire and seeds are counted, but the run is skipped.
        let standing_budget = (level == DegradationLevel::PartialBudget).then(|| {
            std::mem::replace(
                &mut self.kernel_ctx.budget,
                Budget::ops(self.overload.degraded_budget_ops),
            )
        });
        let mut reports = Vec::new();
        for ev in &events {
            let Some(seeds) = trigger(ev) else { continue };
            self.stats.ingest.triggers_fired += 1;
            let Some(idx) = analytic_idx else { continue };
            self.stats.analytics.seeds_selected += seeds.len();
            if level == DegradationLevel::SeedsOnly {
                self.stats.overload.analytics_skipped += 1;
            } else {
                reports.push(self.run_batch_on_seeds(&seeds, idx));
            }
        }
        if let Some(budget) = standing_budget {
            self.kernel_ctx.budget = budget;
        }

        // `SeedsOnly` and `Shed` exist to make a batch cheap, and the
        // freeze rewrites the whole CSR: those rungs leave it to `pump`,
        // which publishes once after its loop.
        if matches!(
            level,
            DegradationLevel::Full | DegradationLevel::PartialBudget
        ) {
            self.publish_epoch();
        }
        Ok((reports, quarantined))
    }

    /// The streaming path, un-logged: apply a batch of updates, observe
    /// monitor events, and for each event the `trigger` turns into
    /// seeds, run the chosen analytic on the extracted neighborhood
    /// ("use the modified vertices/edges as seeds into a subgraph
    /// extraction process similar to that described for the batch
    /// process"). Never touches the WAL, even on a durable engine — use
    /// [`Self::process_stream_durable`] or [`Self::pump`] for batches
    /// that must survive a crash.
    pub fn process_stream(
        &mut self,
        batch: &UpdateBatch,
        trigger: impl Fn(&Event) -> Option<Vec<VertexId>>,
        analytic_idx: Option<usize>,
    ) -> Vec<BatchRunReport> {
        self.ingest(batch, Front::UNLOGGED, trigger, analytic_idx)
            .expect("only the WAL stage can fail, and the un-logged front skips it")
            .0
    }

    /// Whether [`FlowConfig::durability_dir`] / [`FlowConfig::recover`]
    /// attached a durability directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Sequence number the next WAL append will carry (1-based; frame
    /// `i` holds the `i`-th durable batch). Recovery drivers use this to
    /// know where to resume an input stream.
    pub fn next_wal_seq(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.next_wal_seq())
    }

    /// Logged form of [`Self::process_stream`]: the batch is appended
    /// to the write-ahead log (fsynced) *before* it touches the engine,
    /// so a crash at any later point replays it on recovery. Errors on
    /// an engine without durability.
    ///
    /// Transient append failures are retried per the configured
    /// [`FlowConfig::retry`] policy (the torn tail is repaired between
    /// attempts). With the default no-retry policy this is the PR 2
    /// fail-fast contract: on a WAL error the engine state is untouched
    /// and the batch is NOT applied. Once the circuit breaker trips, the
    /// engine degrades to non-durable operation — the batch IS applied
    /// and `Ok` is returned, with the trip surfaced as an alert, a
    /// `CircuitBreaker` event, and the `breaker_trips` counter.
    pub fn process_stream_durable(
        &mut self,
        batch: &UpdateBatch,
        trigger: impl Fn(&Event) -> Option<Vec<VertexId>>,
        analytic_idx: Option<usize>,
    ) -> io::Result<Vec<BatchRunReport>> {
        if !self.is_durable() {
            return Err(not_durable());
        }
        let front = Front::logged(DegradationLevel::Full);
        Ok(self.ingest(batch, front, trigger, analytic_idx)?.0)
    }

    /// Shard delivery ([`crate::sharded::ShardedFlow`]): log iff this
    /// engine is durable, no triggers; returns the quarantined count.
    pub(crate) fn deliver(&mut self, batch: &UpdateBatch) -> io::Result<usize> {
        let front = Front::logged(DegradationLevel::Full);
        Ok(self.ingest(batch, front, |_| None, None)?.1)
    }

    fn attach_durability(&mut self, mut d: Durability) {
        d.set_recorder(self.recorder.clone());
        self.durability = Some(d);
    }

    /// Every durable write (WAL append, checkpoint) goes through here:
    /// [`RetryPolicy::run`] retries it, the retries are counted, and the
    /// outcome feeds the circuit breaker — an exhausted write that trips
    /// it suspends durability (see [`Self::durability_suspended`]).
    /// `write` also gets the stream engine, borrowed, so a checkpoint
    /// encodes the live graph and columns without copying them.
    fn durable_write<T>(
        &mut self,
        mut write: impl FnMut(&mut Durability, &StreamEngine) -> io::Result<T>,
        repair: impl FnMut(&mut Durability) -> io::Result<()>,
    ) -> io::Result<T> {
        let d = self.durability.as_mut().ok_or_else(not_durable)?;
        let stream = &self.stream;
        let (result, retries) = self.retry.run(d, |d| write(d, stream), repair);
        self.stats.durability.retries += retries as usize;
        match &result {
            Ok(_) => self.breaker.record_success(),
            Err(_) => {
                if self.breaker.record_failure() {
                    self.trip_breaker();
                }
            }
        }
        result
    }

    /// Record a breaker trip: suspend durable writes, raise an alert,
    /// and emit a `CircuitBreaker` event.
    fn trip_breaker(&mut self) {
        self.durability_suspended = true;
        self.stats.durability.breaker_trips += 1;
        self.stats.analytics.alerts_raised += 1;
        self.note_breaker(true);
    }

    /// Journal and queue a `CircuitBreaker` open/close event.
    fn note_breaker(&mut self, open: bool) {
        let time = self.stream.last_batch_time();
        let state = if open { "open" } else { "closed" };
        self.recorder
            .journal(time, "circuit_breaker", format!("durability {state}"));
        self.overload_events.push(Event {
            time,
            source: "flow",
            kind: EventKind::CircuitBreaker {
                site: "durability",
                open,
            },
        });
    }

    /// Write a checkpoint of the current state, rotate the WAL, and
    /// prune old files — out of band, never inside the ingest pipeline.
    /// Returns the checkpoint's path.
    ///
    /// Transient write failures are retried like WAL appends (the
    /// tmp-file + rename protocol makes a retried write safe), feeding
    /// the same circuit breaker. Fails fast when durability is already
    /// suspended — a checkpoint is an explicit durability request the
    /// engine cannot silently skip.
    pub fn checkpoint(&mut self) -> io::Result<PathBuf> {
        let seq = self.next_wal_seq().ok_or_else(not_durable)?;
        if self.durability_suspended {
            return Err(io::Error::other(
                "durability suspended by the circuit breaker; call resume_durability",
            ));
        }
        // Retries of this very write cannot be part of the image being
        // written: recovered counters lag the live one by exactly those
        // retries, which the equivalence suite normalizes.
        let flow = self.stats;
        self.durable_write(
            |d, stream| d.checkpoint(checkpoint_ref(stream, flow, seq)),
            |_| Ok(()),
        )
    }

    /// Quarantined updates, oldest first (bounded dead-letter queue).
    pub fn dead_letters(&self) -> impl Iterator<Item = &QuarantinedUpdate> {
        self.stream.dead_letters()
    }

    /// Remove and return every quarantined update (oldest first),
    /// leaving the dead-letter queue empty. For re-admission through
    /// the ingest pipeline use [`Self::replay_dead_letters`], which
    /// WAL-logs the replay on durable engines.
    pub fn drain_dead_letters(&mut self) -> Vec<QuarantinedUpdate> {
        self.stream.drain_dead_letters()
    }

    /// Align the batch-time watermark without ingesting (used when a
    /// shard engine is rebuilt from replica rows: the copied rows carry
    /// the fleet's timestamps, so the clock must match the fleet's).
    pub(crate) fn set_last_batch_time(&mut self, t: ga_graph::Timestamp) {
        self.stream.set_last_batch_time(t);
    }

    /// Set the vertex-id bound above which updates are quarantined —
    /// the operator's fix before [`Self::replay_dead_letters`].
    pub fn set_vertex_limit(&mut self, limit: usize) {
        self.stream.set_vertex_limit(limit);
    }

    /// Whether edge updates are mirrored in both directions (persisted
    /// in checkpoints, so valid right after recovery too).
    pub fn symmetrize(&self) -> bool {
        self.stream.symmetrize
    }

    // -----------------------------------------------------------------
    // Overload resilience: admission control, degradation ladder,
    // retry/backoff + circuit breaker, dead-letter replay.
    // -----------------------------------------------------------------

    /// The configured retry policy (set via [`FlowConfig::retry`]).
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// True once the circuit breaker has suspended durable writes.
    pub fn durability_suspended(&self) -> bool {
        self.durability_suspended
    }

    /// Operator action after the storage fault is fixed: close the
    /// breaker, repair the WAL tail, and resume durable operation.
    /// Batches applied while suspended were never logged — take a
    /// [`Self::checkpoint`] right after resuming to re-base recovery.
    pub fn resume_durability(&mut self) -> io::Result<()> {
        if let Some(d) = self.durability.as_mut() {
            d.repair_wal()?;
        }
        self.breaker.reset();
        if self.durability_suspended {
            self.durability_suspended = false;
            self.note_breaker(false);
        }
        Ok(())
    }

    /// Offer a batch to the admission queue under `class`. Refused or
    /// evicted updates are counted in `updates_shed` and surfaced as
    /// [`EventKind::LoadShed`] events; nothing here touches the graph —
    /// call [`Self::pump`] to drain admitted work.
    pub fn offer(&mut self, class: Priority, batch: UpdateBatch) -> AdmissionDecision {
        let lost_before = self.admission.stats().total_lost();
        let decision = self.admission.offer(class, batch);
        self.stats.overload.updates_shed += self.admission.stats().total_lost() - lost_before;
        let events = self.admission.take_events();
        if self.recorder.is_enabled() {
            for ev in &events {
                if let EventKind::LoadShed {
                    class,
                    updates,
                    queue_depth,
                } = ev.kind
                {
                    self.recorder.journal(
                        ev.time,
                        "load_shed",
                        format!("{class}: {updates} updates at depth {queue_depth}"),
                    );
                }
            }
        }
        self.overload_events.extend(events);
        decision
    }

    /// Queued updates awaiting [`Self::pump`].
    pub fn queue_depth(&self) -> usize {
        self.admission.depth()
    }

    /// Admission counters (offered/admitted/shed/evicted per class).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Overload events (load shedding, ladder moves, breaker trips)
    /// accumulated since the last take.
    pub fn take_overload_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.overload_events)
    }

    /// The rung of the degradation ladder the next pumped batch will be
    /// processed at, from the admission-queue depth.
    pub fn degradation_level(&self) -> DegradationLevel {
        let depth = self.admission.depth();
        let o = &self.overload;
        if depth >= o.shed_at {
            DegradationLevel::Shed
        } else if depth >= o.seeds_only_at {
            DegradationLevel::SeedsOnly
        } else if depth >= o.partial_at {
            DegradationLevel::PartialBudget
        } else {
            DegradationLevel::Full
        }
    }

    /// Emit a `Degraded` event when the ladder rung changed since the
    /// last pump (recovery back toward `Full` is reported the same way).
    fn note_level(&mut self, level: DegradationLevel) {
        if level != self.level {
            let time = self.stream.last_batch_time();
            if self.recorder.is_enabled() {
                self.recorder.journal(
                    time,
                    "degraded",
                    format!(
                        "{} -> {} at depth {}",
                        self.level.name(),
                        level.name(),
                        self.admission.depth()
                    ),
                );
            }
            self.overload_events.push(Event {
                time,
                source: "flow",
                kind: EventKind::Degraded {
                    from: self.level.name(),
                    to: level.name(),
                    queue_depth: self.admission.depth(),
                },
            });
            self.level = level;
        }
    }

    /// Drain up to `max_batches` admitted batches through the ingest
    /// pipeline, each at the degradation level in force when it is
    /// popped (high-priority batches first):
    ///
    /// * `Full` — every stage, as [`Self::process_stream_durable`].
    /// * `PartialBudget` — analytics run under
    ///   [`OverloadConfig::degraded_budget_ops`] and may return typed
    ///   partial results (`budget_partials`).
    /// * `SeedsOnly` — triggers still fire and seeds are selected, but
    ///   analytic runs are skipped (`analytics_skipped`).
    /// * `Shed` — updates are applied unmonitored: no events, no
    ///   triggers, minimal cost.
    ///
    /// Durable engines append every pumped batch (with retry) before it
    /// touches the graph, at every level, and serving engines publish
    /// everything pumped before `pump` returns — per batch at `Full` and
    /// `PartialBudget`, once after the loop for `SeedsOnly` and `Shed`
    /// batches. Degradation sacrifices analytics, never durability or
    /// freshness. If an append fails without tripping the breaker, the
    /// popped batch is re-queued at the front of its class before the
    /// error is returned, so a durability error never silently loses an
    /// admitted batch. Returns the reports of analytic runs that did
    /// execute.
    pub fn pump(
        &mut self,
        max_batches: usize,
        trigger: impl Fn(&Event) -> Option<Vec<VertexId>>,
        analytic_idx: Option<usize>,
    ) -> io::Result<Vec<BatchRunReport>> {
        let mut reports = Vec::new();
        for _ in 0..max_batches {
            let level = self.degradation_level();
            self.note_level(level);
            let Some((class, batch)) = self.admission.pop() else {
                break;
            };
            match self.ingest(&batch, Front::logged(level), &trigger, analytic_idx) {
                Ok((ran, _)) => reports.extend(ran),
                Err(e) => {
                    // The batch never touched the graph; put it back at
                    // the front of its class so nothing admitted is lost
                    // to a durability error.
                    self.admission.requeue_front(class, batch);
                    return Err(e);
                }
            }
        }
        // Re-evaluate after draining so recovery back to Full is visible
        // without waiting for the next pump.
        let level = self.degradation_level();
        self.note_level(level);
        // One freeze for everything the `SeedsOnly`/`Shed` rungs applied
        // (a no-op when the last batch already published).
        self.publish_epoch();
        Ok(reports)
    }

    /// Re-admit every quarantined update through the ingest pipeline
    /// (after the operator fixed the cause — e.g.
    /// [`Self::set_vertex_limit`]). On durable engines the replay batch
    /// is WAL-logged *before* the dead-letter queue is drained, so
    /// recovery reproduces it and a failed append leaves the quarantined
    /// updates retained. Still-invalid updates are re-quarantined.
    ///
    /// Returns `(applied, requarantined)`.
    pub fn replay_dead_letters(&mut self) -> io::Result<(usize, usize)> {
        let updates: Vec<_> = self
            .stream
            .dead_letters()
            .map(|l| l.update.clone())
            .collect();
        if updates.is_empty() {
            return Ok((0, 0));
        }
        let batch = UpdateBatch {
            time: self.stream.last_batch_time(),
            updates,
        };
        let front = Front {
            drain_dead_letters: true,
            ..Front::logged(DegradationLevel::Full)
        };
        let (_, requarantined) = self.ingest(&batch, front, |_| None, None)?;
        Ok((batch.updates.len() - requarantined, requarantined))
    }
}

/// The checkpoint image of `stream`'s state with flow counters `flow`
/// and recovery cursor `next_wal_seq`, borrowing the graph and columns.
fn checkpoint_ref(stream: &StreamEngine, flow: FlowStats, next_wal_seq: u64) -> CheckpointRef<'_> {
    CheckpointRef {
        graph: stream.graph(),
        props: stream.props(),
        flow,
        stream: stream.stats(),
        symmetrize: stream.symmetrize,
        vertex_limit: stream.vertex_limit() as u64,
        last_batch_time: stream.last_batch_time(),
        next_wal_seq,
    }
}

fn not_durable() -> io::Error {
    io::Error::other("durability not enabled; build with durability_dir or recover first")
}

/// What a front asks of [`FlowEngine::ingest`]: whether to log, the
/// degradation rung, and whether the batch is the dead-letter queue's
/// own contents (drained once the batch is safely logged).
#[derive(Clone, Copy)]
struct Front {
    /// Append to the WAL first — iff durability is attached and not
    /// suspended, so logged fronts also serve in-memory engines.
    log: bool,
    level: DegradationLevel,
    drain_dead_letters: bool,
}

impl Front {
    const UNLOGGED: Front = Front {
        log: false,
        level: DegradationLevel::Full,
        drain_dead_letters: false,
    };
    const fn logged(level: DegradationLevel) -> Front {
        Front {
            log: true,
            level,
            drain_dead_letters: false,
        }
    }
}

// ---------------------------------------------------------------------
// Built-in analytics wrapping the kernel crate.
// ---------------------------------------------------------------------

/// PageRank over the extracted subgraph; writes `pagerank` back and
/// reports the sweeps run as `pagerank_iters`. Runs the one PageRank
/// engine, `pagerank_with`, with GAP's stopping rule (L1 change below
/// 1e-4, at most 20 sweeps).
pub struct PageRankAnalytic {
    /// Damping factor (0.85 typical).
    pub damping: f64,
}

impl BatchAnalytic for PageRankAnalytic {
    fn name(&self) -> &'static str {
        "pagerank"
    }
    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> AnalyticOutput {
        // Pull PageRank reads in-neighbors: give the ball a reverse index.
        let g = sub.graph.with_reverse();
        let r = ga_kernels::pagerank::pagerank_with(&g, self.damping, 1e-4, 20, ctx);
        AnalyticOutput {
            globals: vec![("pagerank_iters".into(), r.work as f64)],
            vertex_props: vec![("pagerank".into(), r.rank)],
            alerts: vec![],
        }
    }
}

/// Connected components; writes `component` back and reports the count.
pub struct ComponentsAnalytic;

impl BatchAnalytic for ComponentsAnalytic {
    fn name(&self) -> &'static str {
        "components"
    }
    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> AnalyticOutput {
        let c = ga_kernels::cc::wcc_with(&sub.graph, ctx);
        AnalyticOutput {
            globals: vec![("num_components".into(), c.count as f64)],
            vertex_props: vec![(
                "component".into(),
                c.label.iter().map(|&l| l as f64).collect(),
            )],
            alerts: vec![],
        }
    }
}

/// Triangle count + clustering; alerts when transitivity exceeds a
/// threshold (a toy "dense neighborhood" detector).
pub struct TriangleAnalytic {
    /// Transitivity above which to raise an alert.
    pub alert_transitivity: f64,
}

impl BatchAnalytic for TriangleAnalytic {
    fn name(&self) -> &'static str {
        "triangles"
    }
    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> AnalyticOutput {
        let c = ga_kernels::cluster::clustering_coefficients(&sub.graph, ctx);
        let mut alerts = vec![];
        if c.transitivity > self.alert_transitivity {
            alerts.push(format!(
                "dense neighborhood: transitivity {:.3} over {} vertices",
                c.transitivity,
                sub.num_vertices()
            ));
        }
        AnalyticOutput {
            globals: vec![
                ("triangles".into(), c.triangles as f64),
                ("transitivity".into(), c.transitivity),
            ],
            vertex_props: vec![("clustering".into(), c.local)],
            alerts,
        }
    }
}

/// All-pairs Jaccard over the extracted subgraph — the NORA-class
/// analytic (§III: "close to the Jaccard coefficient kernel"). Writes
/// each vertex's best coefficient back as `jaccard_max` and alerts on
/// pairs at or above `alert_tau`.
pub struct JaccardAnalytic {
    /// Pairs with J >= this threshold are reported.
    pub tau: f64,
    /// Pairs with J >= this (higher) threshold raise alerts.
    pub alert_tau: f64,
}

impl BatchAnalytic for JaccardAnalytic {
    fn name(&self) -> &'static str {
        "jaccard"
    }
    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> AnalyticOutput {
        let pairs = ga_kernels::jaccard::all_pairs_above_with(&sub.graph, self.tau, ctx);
        let mut best = vec![0.0f64; sub.num_vertices()];
        let mut alerts = Vec::new();
        for &(a, b, j) in &pairs {
            best[a as usize] = best[a as usize].max(j);
            best[b as usize] = best[b as usize].max(j);
            if j >= self.alert_tau {
                alerts.push(format!(
                    "near-duplicate neighborhoods: {} and {} (J = {j:.3})",
                    sub.to_source(a),
                    sub.to_source(b)
                ));
            }
        }
        AnalyticOutput {
            globals: vec![("jaccard_pairs".into(), pairs.len() as f64)],
            vertex_props: vec![("jaccard_max".into(), best)],
            alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;
    use ga_stream::update::{into_batches, Update};
    use ga_stream::EventKind;

    fn engine_with_ring(n: usize) -> FlowEngine {
        let mut g = DynamicGraph::new(n);
        g.insert_undirected(&gen::ring(n), 1);
        FlowEngine::with_graph(g, PropertyStore::new(n))
    }

    fn depth_one() -> ExtractOptions {
        ExtractOptions {
            depth: 1,
            max_vertices: 4096,
            undirected_expand: false,
        }
    }

    #[test]
    fn batch_path_writes_back_properties() {
        let mut e = engine_with_ring(20);
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        let report = e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        assert_eq!(report.analytic, "components");
        // depth-2 ball around 0 on a ring: {18,19,0,1,2}
        assert_eq!(report.subgraph_size.0, 5);
        assert_eq!(report.globals[0].1, 1.0); // one component
                                              // Write-back landed on persistent (global) vertex ids.
        assert!(e.props().get_f64("component", 0).is_some());
        assert!(e.props().get_f64("component", 19).is_some());
        assert!(e.props().get_f64("component", 10).is_none());
        let s = e.stats();
        assert_eq!(s.analytics.batch_runs, 1);
        assert_eq!(s.analytics.props_written_back, 5);
    }

    #[test]
    fn top_k_degree_selection() {
        let mut g = DynamicGraph::new(10);
        g.insert_undirected(&gen::star(10), 1);
        let e = FlowEngine::with_graph(g, PropertyStore::new(10));
        let seeds = e.select_seeds(&SelectionCriteria::TopKDegree { k: 1 });
        assert_eq!(seeds, vec![0]);
    }

    #[test]
    fn property_selection_paths() {
        let mut e = engine_with_ring(6);
        e.props_mut()
            .set_column_f64("risk", &[0.1, 0.9, 0.2, 0.8, 0.0, 0.5]);
        let top = e.select_seeds(&SelectionCriteria::TopKProperty {
            name: "risk".into(),
            k: 2,
        });
        assert_eq!(top, vec![1, 3]);
        let above = e.select_seeds(&SelectionCriteria::PropertyAbove {
            name: "risk".into(),
            tau: 0.45,
        });
        assert_eq!(above, vec![1, 3, 5]);
    }

    #[test]
    fn projection_carries_columns_into_subgraph() {
        let mut g = DynamicGraph::new(8);
        g.insert_undirected(&gen::ring(8), 1);
        let mut e = FlowEngine::builder()
            .project_columns(vec!["score".into()])
            .build_with_graph(g, PropertyStore::new(8))
            .unwrap();
        e.props_mut().set_column_f64("score", &[0.0; 8]);
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        // Smoke: run succeeds with projection enabled.
        let r = e.run_batch(&SelectionCriteria::Explicit(vec![3]), idx);
        assert_eq!(r.subgraph_size.0, 5);
    }

    #[test]
    fn pagerank_analytic_writes_ranks() {
        let mut g = DynamicGraph::new(12);
        g.insert_undirected(&gen::ring(12), 1);
        let mut e = FlowEngine::builder()
            .extract(ExtractOptions {
                depth: 6,
                max_vertices: 4096,
                undirected_expand: false,
            })
            .build_with_graph(g, PropertyStore::new(12))
            .unwrap();
        let idx = e.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        let total: f64 = (0..12)
            .filter_map(|v| e.props().get_f64("pagerank", v))
            .sum();
        assert!((total - 1.0).abs() < 1e-3, "ranks sum to {total}");
    }

    #[test]
    fn triangle_analytic_alerts_on_dense_region() {
        let mut g = DynamicGraph::new(5);
        g.insert_undirected(&gen::complete(5), 1);
        let mut e = FlowEngine::with_graph(g, PropertyStore::new(5));
        let idx = e.register_analytic(Box::new(TriangleAnalytic {
            alert_transitivity: 0.5,
        }));
        let r = e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        assert_eq!(r.alerts.len(), 1);
        assert_eq!(r.globals[0].1, 10.0); // C(5,3)
        assert_eq!(e.stats().analytics.alerts_raised, 1);
        // The one per-vertex pass still books its wedge comparisons.
        assert!(e.stats().analytics.kernel_cpu_ops > 0);

        // On a ball cut out of a larger graph, the global derived from
        // the per-vertex pass equals an independent global count.
        let g = ga_graph::CsrGraph::from_edges_undirected(200, &gen::erdos_renyi(200, 1_600, 7));
        let sub = extract_ball(&g, &[0, 1], &ExtractOptions::default(), None);
        assert!(sub.num_vertices() < 200);
        let ctx = KernelCtx::serial();
        let out = TriangleAnalytic {
            alert_transitivity: 1.0,
        }
        .run(&sub, &ctx);
        assert_eq!(out.globals[0].0, "triangles");
        let expect = ga_kernels::triangles::count_global(&sub.graph);
        assert!(expect > 0);
        assert_eq!(out.globals[0].1, expect as f64);
        assert!(ctx.snapshot().cpu_ops > 0);
    }

    #[test]
    fn streaming_trigger_runs_analytic() {
        let mut e = FlowEngine::builder()
            .extract(depth_one())
            .build(16)
            .unwrap();
        e.register_monitor(Box::new(ga_stream::jaccard_stream::JaccardMonitor::new(
            0.99,
        )));
        let idx = e.register_analytic(Box::new(TriangleAnalytic {
            alert_transitivity: 0.0,
        }));
        // Build two vertices with identical neighborhoods -> J = 1.0.
        let ups = vec![
            Update::EdgeInsert {
                src: 0,
                dst: 2,
                weight: 1.0,
            },
            Update::EdgeInsert {
                src: 0,
                dst: 3,
                weight: 1.0,
            },
            Update::EdgeInsert {
                src: 1,
                dst: 2,
                weight: 1.0,
            },
            Update::EdgeInsert {
                src: 1,
                dst: 3,
                weight: 1.0,
            },
        ];
        let mut reports = Vec::new();
        for b in into_batches(ups, 1, 0) {
            reports.extend(e.process_stream(
                &b,
                |ev| match ev.kind {
                    EventKind::PairThreshold { a, b, .. } => Some(vec![a, b]),
                    _ => None,
                },
                Some(idx),
            ));
        }
        assert!(!reports.is_empty(), "no triggered analytic runs");
        let s = e.stats();
        assert!(s.ingest.triggers_fired >= 1);
        assert_eq!(s.ingest.updates_applied, 4);
        assert!(s.ingest.events_observed >= 1);
        // Triggered run extracted the pair's neighborhood.
        assert!(reports[0].subgraph_size.0 >= 3);
    }

    #[test]
    fn jaccard_analytic_reports_twin_neighborhoods() {
        // Vertices 0 and 1 share exactly the same two neighbors.
        let mut g = DynamicGraph::new(5);
        for (u, v) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
            g.insert_edge(u, v, 1.0, 1);
            g.insert_edge(v, u, 1.0, 1);
        }
        let mut e = FlowEngine::with_graph(g, PropertyStore::new(5));
        let idx = e.register_analytic(Box::new(JaccardAnalytic {
            tau: 0.3,
            alert_tau: 0.99,
        }));
        let r = e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        // Two perfect twins: (0,1) share {2,3} and (2,3) share {0,1}.
        assert_eq!(r.alerts.len(), 2, "alerts: {:?}", r.alerts);
        assert!(r.alerts.iter().all(|a| a.contains("J = 1.000")));
        // Write-back landed in persistent ids.
        assert_eq!(e.props().get_f64("jaccard_max", 0), Some(1.0));
        assert_eq!(e.props().get_f64("jaccard_max", 1), Some(1.0));
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let mut e = engine_with_ring(30);
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        e.run_batch(&SelectionCriteria::Explicit(vec![15]), idx);
        let s = e.stats();
        assert_eq!(s.analytics.batch_runs, 2);
        assert_eq!(s.analytics.subgraphs_extracted, 2);
        assert_eq!(s.analytics.seeds_selected, 2);
        assert_eq!(s.analytics.vertices_extracted, 10);
    }

    #[test]
    fn batch_runs_drain_kernel_counters_into_stats() {
        let mut e = engine_with_ring(40);
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        let s = e.stats();
        assert!(s.analytics.kernel_cpu_ops > 0);
        assert!(s.analytics.kernel_mem_bytes > 0);
        assert!(s.analytics.kernel_edges_touched > 0);
        // The engine-held counters were drained, not left accumulating.
        assert!(e.kernel_ctx.snapshot().is_zero());
        // A second run accumulates further.
        e.run_batch(&SelectionCriteria::Explicit(vec![20]), idx);
        assert!(e.stats().analytics.kernel_edges_touched > s.analytics.kernel_edges_touched);
    }

    #[test]
    fn note_ingest_counts() {
        let mut e = FlowEngine::new(4);
        e.note_ingest(100, 37);
        assert_eq!(e.stats().ingest.records_ingested, 100);
        assert_eq!(e.stats().ingest.entities_created, 37);
    }

    /// Emits one O(1) event per batch end — a deterministic trigger
    /// source for ladder tests.
    struct PulseMonitor;

    impl ga_stream::Monitor for PulseMonitor {
        fn name(&self) -> &'static str {
            "pulse"
        }
        fn on_update(
            &mut self,
            _g: &DynamicGraph,
            _u: &ga_stream::Update,
            _r: ga_graph::dynamic::ApplyResult,
            _t: u64,
            _out: &mut Vec<Event>,
        ) {
        }
        fn on_batch_end(&mut self, _g: &DynamicGraph, time: u64, out: &mut Vec<Event>) {
            out.push(Event {
                time,
                source: "pulse",
                kind: EventKind::GlobalValue {
                    metric: "pulse",
                    value: 1.0,
                },
            });
        }
    }

    fn ring_batch(n: usize, time: u64, len: usize) -> UpdateBatch {
        UpdateBatch {
            time,
            updates: (0..len)
                .map(|i| Update::EdgeInsert {
                    src: (i % n) as u32,
                    dst: ((i + 1) % n) as u32,
                    weight: 1.0,
                })
                .collect(),
        }
    }

    #[test]
    fn zero_budget_run_counts_a_budget_partial() {
        let analytics: [Box<dyn BatchAnalytic>; 2] = [
            Box::new(ComponentsAnalytic),
            Box::new(TriangleAnalytic {
                alert_transitivity: 1.0,
            }),
        ];
        for analytic in analytics {
            let name = analytic.name();
            let mut e = engine_with_ring(20);
            let idx = e.register_analytic(analytic);
            e.kernel_ctx.budget = Budget::ops(0);
            e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
            assert_eq!(e.stats().overload.budget_partials, 1, "{name}");
            // An unlimited run does not count one.
            e.kernel_ctx.budget = Budget::unlimited();
            e.run_batch(&SelectionCriteria::Explicit(vec![5]), idx);
            assert_eq!(e.stats().overload.budget_partials, 1, "{name}");
        }
    }

    #[test]
    fn offer_sheds_over_watermark_and_counts() {
        let mut e = FlowEngine::builder()
            .admission(AdmissionConfig {
                capacity: 100,
                normal_watermark: 80,
                bulk_watermark: 40,
            })
            .build(8)
            .unwrap();
        assert!(e.offer(Priority::Bulk, ring_batch(8, 1, 40)).admitted());
        let d = e.offer(Priority::Bulk, ring_batch(8, 2, 10));
        assert!(!d.admitted());
        assert_eq!(e.stats().overload.updates_shed, 10);
        assert_eq!(e.queue_depth(), 40);
        let evs = e.take_overload_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(
            evs[0].kind,
            EventKind::LoadShed {
                class: "bulk",
                updates: 10,
                ..
            }
        ));
    }

    #[test]
    fn pump_walks_the_degradation_ladder() {
        let mut e = FlowEngine::builder()
            .admission(AdmissionConfig {
                capacity: 1000,
                normal_watermark: 800,
                bulk_watermark: 500,
            })
            .extract(depth_one())
            .overload(OverloadConfig {
                partial_at: 100,
                seeds_only_at: 200,
                shed_at: 300,
                degraded_budget_ops: 0, // any analytic run is partial
            })
            .build(16)
            .unwrap();
        e.register_monitor(Box::new(PulseMonitor));
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        let trigger = |ev: &Event| match ev.kind {
            EventKind::GlobalValue { .. } => Some(vec![0]),
            _ => None,
        };

        // Depth 50 → Full: the analytic runs to completion.
        e.offer(Priority::Normal, ring_batch(16, 1, 50));
        assert_eq!(e.degradation_level(), DegradationLevel::Full);
        let r = e.pump(1, trigger, Some(idx)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(e.stats().overload.budget_partials, 0);

        // Depth 150 → PartialBudget: runs happen but trip the budget.
        for t in 2..5 {
            e.offer(Priority::Normal, ring_batch(16, t, 50));
        }
        assert_eq!(e.degradation_level(), DegradationLevel::PartialBudget);
        e.pump(1, trigger, Some(idx)).unwrap();
        assert_eq!(e.stats().overload.budget_partials, 1);
        assert_eq!(e.stats().analytics.batch_runs, 2);
        // The standing budget was restored afterwards.
        assert!(!e.kernel_ctx.budget.is_limited());

        // Depth 250 → SeedsOnly: trigger fires, analytic skipped.
        for t in 5..8 {
            e.offer(Priority::Normal, ring_batch(16, t, 50));
        }
        assert_eq!(e.degradation_level(), DegradationLevel::SeedsOnly);
        e.pump(1, trigger, Some(idx)).unwrap();
        assert_eq!(e.stats().overload.analytics_skipped, 1);
        assert_eq!(e.stats().analytics.batch_runs, 2, "no analytic ran");

        // Depth 300 → Shed: updates applied, no events observed.
        for t in 8..10 {
            e.offer(Priority::Normal, ring_batch(16, t, 50));
        }
        assert_eq!(e.degradation_level(), DegradationLevel::Shed);
        let observed = e.stats().ingest.events_observed;
        e.pump(1, trigger, Some(idx)).unwrap();
        assert_eq!(
            e.stats().ingest.events_observed,
            observed,
            "shed batch is silent"
        );

        // Drain the rest: the ladder recovers to Full and said so.
        e.pump(100, trigger, Some(idx)).unwrap();
        assert_eq!(e.queue_depth(), 0);
        assert_eq!(e.degradation_level(), DegradationLevel::Full);
        let evs = e.take_overload_events();
        let moves: Vec<(&str, &str)> = evs
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Degraded { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert!(moves.contains(&("full", "partial-budget")), "{moves:?}");
        // Recovery is stepwise as the queue drains, but it ends at full
        // and the shed level was both entered and left.
        assert_eq!(moves.last().map(|m| m.1), Some("full"), "{moves:?}");
        assert!(moves.iter().any(|m| m.0 == "shed"), "{moves:?}");
        // Every update was accounted: applied, nothing lost.
        assert_eq!(e.stats().ingest.updates_applied, 450);
        assert_eq!(e.stats().overload.updates_shed, 0);
    }

    #[test]
    fn flow_replay_dead_letters_after_raising_limit() {
        let mut e = FlowEngine::new(4);
        e.set_vertex_limit(10);
        e.process_stream(
            &UpdateBatch {
                time: 1,
                updates: vec![
                    Update::EdgeInsert {
                        src: 0,
                        dst: 50,
                        weight: 1.0,
                    },
                    Update::EdgeInsert {
                        src: 0,
                        dst: 1,
                        weight: 1.0,
                    },
                ],
            },
            |_| None,
            None,
        );
        assert_eq!(e.stats().ingest.updates_quarantined, 1);
        e.set_vertex_limit(100);
        let (applied, requarantined) = e.replay_dead_letters().unwrap();
        assert_eq!((applied, requarantined), (1, 0));
        assert!(e.graph().has_edge(0, 50));
        assert_eq!(e.stats().ingest.updates_applied, 2);
        // Queue is empty now; a second replay is a no-op.
        assert_eq!(e.replay_dead_letters().unwrap(), (0, 0));
    }

    #[test]
    fn batch_runs_account_snapshot_cost_and_hit_cache() {
        let mut e = engine_with_ring(40);
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        let s1 = e.stats();
        assert_eq!(s1.snapshots.rebuilds, 1, "first run freezes the graph");
        assert!(s1.snapshots.mem_bytes > 0);
        // Second run against the unchanged graph: cache hit, no rebuild.
        e.run_batch(&SelectionCriteria::Explicit(vec![20]), idx);
        let s2 = e.stats();
        assert_eq!(s2.snapshots.rebuilds, 1, "unchanged graph must not rebuild");
        assert_eq!(s2.snapshots.mem_bytes, s1.snapshots.mem_bytes);
        // An update dirties two rows (symmetrized insert); the next run
        // takes the delta path and reuses every clean row.
        e.process_stream(
            &UpdateBatch {
                time: 9,
                updates: vec![Update::EdgeInsert {
                    src: 0,
                    dst: 20,
                    weight: 1.0,
                }],
            },
            |_| None,
            None,
        );
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        let s3 = e.stats();
        assert_eq!(s3.snapshots.rebuilds, 2);
        assert_eq!(s3.snapshots.rows_reused, 38, "40 rows - 2 dirty");
    }
}
