//! Sharded multi-engine scale-out: N shard-local [`FlowEngine`]s
//! behind one hash-partition router, with batch analytics whose
//! results are **bit-identical** for every shard count — now
//! self-healing under shard failure.
//!
//! This is the flow-level half of the sharded architecture; update
//! routing and the partition itself live in `ga_stream::sharded`
//! ([`ShardPlan`]). The division of labor per concern:
//!
//! * **Ingest** — [`ShardedFlow::process_batch`] routes each update to
//!   its endpoints' owner shards. A cross-shard edge is delivered to
//!   both owners; the second delivery materializes a *ghost* (halo)
//!   entry and is priced at [`UPDATE_WIRE_BYTES`] in the cross-shard
//!   traffic model. Every delivery enters its shard engine through the
//!   one ingest pipeline (`FlowEngine::deliver`: log iff the shard is
//!   durable) — the fleet has no apply code of its own, and every shard
//!   engine's configuration comes from one `shard_config`.
//! * **Batch analytics** — PageRank, BFS and components run the one
//!   engine per kernel (`pagerank_with`, `bfs_with`, `wcc_with`) on
//!   one freeze that reads each vertex's row from the shard serving
//!   it — [`ShardedFlow::merged_graph`]'s freeze, without building that
//!   graph — so each answer is the unsharded kernel's on the merged
//!   graph by construction. The fleet's job is the network demand a
//!   distributed run would place on Kogge's fourth resource: each
//!   kernel prices the bytes its partitioned protocol would exchange
//!   (rank pulls, frontier candidates, spanning-forest pairs) from the
//!   serving partition, under [`CrossShardTraffic`].
//! * **Durability** — each shard owns its WAL + checkpoint directory
//!   (`base/shard-00`, `base/shard-01`, …), so recovery is
//!   shard-local and a shard's recovery failure names the shard (its
//!   errors are prefixed `[shard-NN]`).
//! * **Replication** — with [`ShardedConfig::replicate`], every row
//!   also lives on its owner's ring successor (K=2 chain replication
//!   over the same router), which therefore receives *every* update
//!   that touches the row, making replica rows exact copies of owner
//!   rows. The mirror copies are priced at [`UPDATE_WIRE_BYTES`] under
//!   [`CrossShardTraffic::replication_bytes`]. Which shards hold a row
//!   is decided in one place, [`ShardPlan`]: routing, failover
//!   ([`ShardedFlow::row_source`], [`ShardedFlow::coverage`]), loss
//!   accounting and the replica rebuild all read it.
//! * **Health supervision** — a [`ShardSupervisor`] classifies each
//!   shard's delivery/checkpoint errors into a health state machine
//!   (Healthy → Suspect → Dead → Rebuilding → Healthy). A shard dies
//!   after [`DEFAULT_SUSPECT_STRIKES`] consecutive failures (or an
//!   injected/announced crash); a success while Suspect heals it.
//!   Every transition is journaled through the router recorder. Every
//!   fleet call into a shard engine runs inside that shard's fault
//!   scope, so an armed `shard-0i/<site>` fault reaches one member.
//! * **Failover** — while a shard is down, merged views and batch
//!   analytics serve that shard's vertices from the
//!   replica holder: values stay exact, and results carry a
//!   typed [`Completion::Degraded`] instead of panicking or silently
//!   dropping rows. Without replication the down shard's rows are
//!   simply missing — still `Degraded`, with the gap reported in
//!   [`ShardedRun::uncovered`].
//! * **Online rebuild** — [`ShardedFlow::rebuild_shard`] restores a
//!   dead shard while the fleet keeps ingesting: durable fleets
//!   recover checkpoint + WAL and then redeliver the backlog queued
//!   while the shard was down; replicated fleets reconstruct the
//!   shard's rows exactly from its ring neighbors. No acknowledged
//!   update is lost in either mode ([`ShardedFlow::lost_updates`]
//!   counts the only loss channel: a dead shard with neither
//!   durability nor a serving replica holder — including a 1-shard
//!   fleet, which has no ring to replicate on).
//! * **Observability** — one labeled [`Recorder`] per shard plus a
//!   `"router"` recorder that books cross-shard network bytes and
//!   journals Failover/Rebuild events, so a merged metrics export
//!   stays attributable per shard.
//!
//! The paper's scale-out argument (§V: network injection bandwidth
//! bounds sharded graph analytics long before per-node compute does)
//! is what the traffic model makes measurable. `tests/shard_equivalence.rs`
//! pins the bytes and the agreement of every shard count with the
//! 1-shard run; `tests/failover.rs` holds the fleet to zero loss and
//! exact state through the shard fault matrix.

use crate::faults::{check, with_scope};
use crate::flow::{FlowConfig, FlowEngine, FlowStats};
use ga_graph::snapshot::freeze;
use ga_graph::{CsrGraph, DynamicGraph, Parallelism, PropertyStore, Timestamp, VertexId};
use ga_kernels::bfs::bfs_with;
use ga_kernels::cc::{wcc_with, Components};
use ga_kernels::pagerank::{pagerank_with, PageRankResult};
use ga_kernels::union_find::UnionFind;
use ga_kernels::{Completion, KernelCtx, UNREACHED};
use ga_obs::{MetricsSnapshot, Recorder, Step};
use ga_stream::engine::QuarantinedUpdate;
use ga_stream::sharded::{ShardPlan, UPDATE_WIRE_BYTES};
use ga_stream::update::UpdateBatch;
use ga_stream::{Query, QueryResponse};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};

/// Bytes per exchanged PageRank rank value (one `f64`).
const RANK_WIRE_BYTES: u64 = 8;
/// Bytes per exchanged BFS frontier candidate (one `u32` vertex id).
const FRONTIER_WIRE_BYTES: u64 = 4;
/// Bytes per exchanged components forest pair (two `u32` vertex ids).
const FOREST_PAIR_WIRE_BYTES: u64 = 8;

/// Consecutive delivery/checkpoint failures before the supervisor
/// declares a shard Dead (the Suspect → Dead edge). One failure marks
/// the shard Suspect; a success while Suspect heals it back.
pub const DEFAULT_SUSPECT_STRIKES: u32 = 3;

/// Cap on retained [`HealthEvent`]s; the oldest are dropped beyond it.
const HEALTH_EVENT_CAP: usize = 1024;

/// A shard's durability directory under `base`.
pub fn shard_dir(base: &Path, shard: usize) -> PathBuf {
    base.join(shard_label(shard))
}

/// The canonical shard label (`"shard-03"`), used for durability
/// subdirectories, recorder labels, scoped fault sites, and error
/// prefixes alike.
pub fn shard_label(shard: usize) -> String {
    format!("shard-{shard:02}")
}

/// Run `f` inside shard `i`'s fault scope. Every fleet call into a
/// shard engine — delivery, checkpoint, tier scrub, dead-letter replay,
/// recovery — goes through here, so an armed `shard-0i/<site>` fault
/// reaches exactly that shard.
fn in_shard_scope<T>(i: usize, f: impl FnOnce() -> T) -> T {
    with_scope(&shard_label(i), f)
}

/// Copy into `out` every property cell of `store` whose vertex `keep`
/// accepts, growing `out` to `store`'s width.
fn copy_props(out: &mut PropertyStore, store: &PropertyStore, keep: impl Fn(VertexId) -> bool) {
    out.grow(store.num_vertices());
    for name in store.column_names() {
        for v in (0..store.num_vertices() as VertexId).filter(|&v| keep(v)) {
            if let Some(val) = store.get(name, v) {
                out.set(name, v, val);
            }
        }
    }
}

/// Edges in a spanning forest of `g`'s live edges, taken as undirected:
/// the unions a [`UnionFind`] over them performs.
fn forest_pairs(g: &DynamicGraph) -> usize {
    let mut uf = UnionFind::new(g.num_vertices());
    g.edges().filter(|&(u, v, ..)| uf.union(u, v)).count()
}

/// Out-edges of the vertices `from` keeps in `g` whose target is served
/// by a different shard than their source (`serve[x]`: the shard serving
/// `x`'s row, if any). Zero without a pass when one shard, or none,
/// serves every row: there is no boundary to cross.
fn cross_edges(g: &CsrGraph, serve: &[Option<usize>], from: impl Fn(VertexId) -> bool) -> u64 {
    if serve.windows(2).all(|p| p[0] == p[1]) {
        return 0;
    }
    let mut cross = 0;
    for v in g.vertices().filter(|&v| from(v)) {
        let sv = serve[v as usize];
        cross += g
            .neighbors(v)
            .iter()
            .filter(|&&c| serve[c as usize] != sv)
            .count();
    }
    cross as u64
}

/// Cross-shard network bytes, per protocol, under the wire model the
/// module docs describe. All zero in a 1-shard deployment — traffic
/// only counts bytes that actually cross a shard boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrossShardTraffic {
    /// Ghost (second-copy) update deliveries during ingest.
    pub ingest_bytes: u64,
    /// Replica (ring-successor) update deliveries during ingest; zero
    /// unless the fleet was built with [`ShardedConfig::replicate`].
    pub replication_bytes: u64,
    /// Rank values pulled across a serving-shard boundary (one per
    /// crossing merged edge), summed over PageRank iterations.
    pub pagerank_bytes: u64,
    /// Frontier candidates handed to a different serving shard during
    /// BFS level exchanges (one per crossing out-edge of a reached
    /// vertex).
    pub bfs_bytes: u64,
    /// Spanning-forest pairs each serving shard would ship to the
    /// router for the components merge (one per local non-root vertex).
    pub components_bytes: u64,
}

/// Health of one shard, as judged by the [`ShardSupervisor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// At least one recent failure; still serving, one success heals.
    Suspect,
    /// Crashed or struck out; not serving, awaiting rebuild.
    Dead,
    /// A rebuild is in flight; not serving yet.
    Rebuilding,
}

impl ShardHealth {
    /// Lower-case display name (`"healthy"`, `"suspect"`, …).
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Suspect => "suspect",
            ShardHealth::Dead => "dead",
            ShardHealth::Rebuilding => "rebuilding",
        }
    }

    /// Whether a shard in this state serves reads and accepts
    /// deliveries (Healthy or Suspect).
    fn is_serving(self) -> bool {
        matches!(self, ShardHealth::Healthy | ShardHealth::Suspect)
    }
}

/// One health transition, recorded by the supervisor and journaled
/// through the router recorder.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthEvent {
    /// Fleet clock (last routed batch time) when the transition fired.
    pub time: Timestamp,
    /// The shard that changed state.
    pub shard: usize,
    /// State before.
    pub from: ShardHealth,
    /// State after.
    pub to: ShardHealth,
    /// Why (the classified error, or the administrative action).
    pub reason: String,
}

/// Per-shard health state machine: Healthy → Suspect → Dead →
/// Rebuilding → Healthy, driven by classified delivery and checkpoint
/// errors. See [`DEFAULT_SUSPECT_STRIKES`] for the death threshold.
#[derive(Clone, Debug)]
pub struct ShardSupervisor {
    health: Vec<ShardHealth>,
    strikes: Vec<u32>,
    events: VecDeque<HealthEvent>,
}

impl ShardSupervisor {
    /// A supervisor over `num_shards` initially-healthy shards that
    /// declares death after [`DEFAULT_SUSPECT_STRIKES`] consecutive
    /// failures.
    pub fn new(num_shards: usize) -> ShardSupervisor {
        ShardSupervisor {
            health: vec![ShardHealth::Healthy; num_shards],
            strikes: vec![0; num_shards],
            events: VecDeque::new(),
        }
    }

    /// Current health of `shard`.
    pub fn health(&self, shard: usize) -> ShardHealth {
        self.health[shard]
    }

    /// Whether `shard` currently serves reads and deliveries.
    fn is_serving(&self, shard: usize) -> bool {
        self.health[shard].is_serving()
    }

    /// Whether every shard is Healthy.
    pub fn all_healthy(&self) -> bool {
        self.health.iter().all(|&h| h == ShardHealth::Healthy)
    }

    /// Drain the recorded transitions (oldest first, capped at 1024;
    /// oldest entries are dropped past the cap).
    pub fn take_events(&mut self) -> Vec<HealthEvent> {
        std::mem::take(&mut self.events).into()
    }

    fn transition(
        &mut self,
        time: Timestamp,
        shard: usize,
        to: ShardHealth,
        reason: &str,
    ) -> Option<(ShardHealth, ShardHealth)> {
        let from = self.health[shard];
        if from == to {
            return None;
        }
        self.health[shard] = to;
        if self.events.len() == HEALTH_EVENT_CAP {
            self.events.pop_front();
        }
        self.events.push_back(HealthEvent {
            time,
            shard,
            from,
            to,
            reason: reason.to_string(),
        });
        Some((from, to))
    }

    /// Classify one failure against `shard`: Healthy/Suspect shards
    /// take a strike and become Suspect, then Dead at the threshold.
    /// Errors against Dead/Rebuilding shards are not strikes (the
    /// shard is already down). Returns the transition, if any.
    fn record_error(
        &mut self,
        time: Timestamp,
        shard: usize,
        reason: &str,
    ) -> Option<(ShardHealth, ShardHealth)> {
        if !self.health[shard].is_serving() {
            return None;
        }
        self.strikes[shard] += 1;
        let to = if self.strikes[shard] >= DEFAULT_SUSPECT_STRIKES {
            ShardHealth::Dead
        } else {
            ShardHealth::Suspect
        };
        self.transition(time, shard, to, reason)
    }

    /// Record one success: clears strikes and heals a Suspect shard.
    fn record_success(
        &mut self,
        time: Timestamp,
        shard: usize,
    ) -> Option<(ShardHealth, ShardHealth)> {
        if !self.health[shard].is_serving() {
            return None;
        }
        self.strikes[shard] = 0;
        self.transition(time, shard, ShardHealth::Healthy, "recovered")
    }

    /// Declare `shard` Dead unconditionally (crash announcement or
    /// administrative kill).
    fn mark_dead(
        &mut self,
        time: Timestamp,
        shard: usize,
        reason: &str,
    ) -> Option<(ShardHealth, ShardHealth)> {
        self.transition(time, shard, ShardHealth::Dead, reason)
    }

    /// Dead → Rebuilding. No-op unless the shard is Dead.
    fn begin_rebuild(
        &mut self,
        time: Timestamp,
        shard: usize,
    ) -> Option<(ShardHealth, ShardHealth)> {
        if self.health[shard] != ShardHealth::Dead {
            return None;
        }
        self.transition(time, shard, ShardHealth::Rebuilding, "rebuild started")
    }

    /// Rebuilding → Healthy; clears strikes.
    fn complete_rebuild(
        &mut self,
        time: Timestamp,
        shard: usize,
    ) -> Option<(ShardHealth, ShardHealth)> {
        if self.health[shard] != ShardHealth::Rebuilding {
            return None;
        }
        self.strikes[shard] = 0;
        self.transition(time, shard, ShardHealth::Healthy, "rebuild complete")
    }
}

/// Where [`ShardedFlow::rebuild_shard`] sourced the restored state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildSource {
    /// Checkpoint + WAL replay from the shard's durability directory,
    /// followed by redelivery of the backlog queued while dead.
    WalReplay,
    /// Exact row/property reconstruction from the ring neighbors'
    /// replica state (non-durable replicated fleets).
    Replica,
}

impl RebuildSource {
    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            RebuildSource::WalReplay => "wal-replay",
            RebuildSource::Replica => "replica-copy",
        }
    }
}

/// Outcome of one [`ShardedFlow::rebuild_shard`] call.
#[derive(Clone, Debug)]
pub struct RebuildReport {
    /// The rebuilt shard.
    pub shard: usize,
    /// Where the state came from.
    pub source: RebuildSource,
    /// Backlog batches redelivered after recovery (WAL mode only).
    pub redelivered_batches: usize,
}

/// Outcome of one fleet-wide [`ShardedFlow::checkpoint`] sweep.
/// Partial failure is a first-class, per-shard signal: a caller that
/// prunes old checkpoints after a sweep must consult [`Self::failed`]
/// (and [`Self::skipped`]) before discarding what may be a failed
/// shard's only good recovery source.
#[derive(Clone, Debug)]
pub struct CheckpointReport {
    /// `(shard id, checkpoint path)` per shard that checkpointed.
    pub paths: Vec<(usize, PathBuf)>,
    /// `(shard id, error)` per serving shard whose checkpoint failed;
    /// each failure was absorbed as a health strike.
    pub failed: Vec<(usize, String)>,
    /// Shards skipped because they were not serving (Dead/Rebuilding).
    pub skipped: Vec<usize>,
}

impl CheckpointReport {
    /// True when every shard in the fleet wrote a fresh checkpoint.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.skipped.is_empty()
    }
}

/// A fleet kernel result plus the fleet-coverage verdict it was
/// computed under. `completion` is [`Completion::Complete`] only when
/// every shard was serving; otherwise [`Completion::Degraded`], with
/// the gap itemized: `failed_over` shards were served exactly from
/// their replica holders, `uncovered` shards had no serving
/// copy at all (their rows were absent from the computation).
#[derive(Clone, Debug)]
pub struct ShardedRun<T> {
    /// The merged analytic result.
    pub value: T,
    /// [`Completion::Complete`] or [`Completion::Degraded`].
    pub completion: Completion,
    /// Down shards whose rows were served from replicas (exact).
    pub failed_over: Vec<usize>,
    /// Down shards with no serving copy (partial result).
    pub uncovered: Vec<usize>,
}

/// Builder for a [`ShardedFlow`]. Mirrors the knobs of
/// [`crate::flow::FlowConfig`] that make sense across a fleet of
/// engines, plus the fleet-only replication knob.
#[derive(Debug)]
pub struct ShardedConfig {
    num_shards: usize,
    symmetrize: bool,
    vertex_limit: Option<usize>,
    durability_base: Option<PathBuf>,
    record_metrics: bool,
    replicate: bool,
    tier: Option<ga_graph::tier::TierConfig>,
}

impl ShardedConfig {
    /// A config for `num_shards` shards (must be ≥ 1). Defaults match
    /// `FlowConfig`: symmetrize on, no durability, metrics off,
    /// replication off.
    pub fn new(num_shards: usize) -> ShardedConfig {
        ShardedConfig {
            num_shards,
            symmetrize: true,
            vertex_limit: None,
            durability_base: None,
            record_metrics: false,
            replicate: false,
            tier: None,
        }
    }

    /// Mirror edge updates in both directions on every shard (default
    /// true). Must be uniform across shards — a mixed fleet would break
    /// the owned-row invariant.
    pub fn symmetrize(mut self, symmetrize: bool) -> Self {
        self.symmetrize = symmetrize;
        self
    }

    /// Vertex-id quarantine bound applied to every shard.
    pub fn vertex_limit(mut self, limit: usize) -> Self {
        self.vertex_limit = Some(limit);
        self
    }

    /// Enable per-shard durability under `base`: shard `i` logs and
    /// checkpoints in `base/shard-0i`, so recovery stays shard-local.
    pub fn durability_base(mut self, base: impl Into<PathBuf>) -> Self {
        self.durability_base = Some(base.into());
        self
    }

    /// Attach labeled recorders: one per shard (`"shard-00"`, …) plus
    /// a `"router"` recorder for cross-shard traffic and the
    /// failover/rebuild journal.
    pub fn record_metrics(mut self, on: bool) -> Self {
        self.record_metrics = on;
        self
    }

    /// Mirror every delivery to the owner's ring successor (K=2 chain
    /// replication, default off). Replica rows are exact copies
    /// of owner rows, so merged views and analytics can fail over to
    /// them when a shard dies; the mirror copies are priced under
    /// [`CrossShardTraffic::replication_bytes`]. A no-op with one
    /// shard.
    pub fn replicate(mut self, on: bool) -> Self {
        self.replicate = on;
        self
    }

    /// Give every shard a tiered segment store (see
    /// [`crate::flow::FlowConfig::tiered`]): shard `i` spills under
    /// `cfg.dir/shard-0i`, and its segment IO runs inside the shard's
    /// fault scope, so arming `shard-0i/segment.read` faults exactly
    /// one member's tier. [`ShardedFlow::scrub_tiers`] sweeps the
    /// fleet.
    pub fn tiered(mut self, cfg: ga_graph::tier::TierConfig) -> Self {
        self.tier = Some(cfg);
        self
    }

    /// Shard `i`'s engine configuration — the only place one is
    /// assembled, so a fresh build, a fleet recovery, a WAL rebuild and
    /// a replica rebuild cannot drift apart. (Recovery takes the
    /// persisted knobs — symmetrize, vertex limit, durability directory
    /// — from the checkpoint and ignores them here.)
    fn shard_config(&self, i: usize) -> FlowConfig {
        let label = shard_label(i);
        let mut cfg = FlowEngine::builder()
            .symmetrize(self.symmetrize)
            // The supervisor owns shard-failure policy: it must
            // classify a shard Dead before the engine-level breaker
            // suspends durability underneath it.
            .breaker_threshold(DEFAULT_SUSPECT_STRIKES + 1);
        if let Some(limit) = self.vertex_limit {
            cfg = cfg.vertex_limit(limit);
        }
        if self.record_metrics {
            cfg = cfg.recorder(Recorder::labeled(label.clone()));
        }
        if let Some(base) = &self.durability_base {
            cfg = cfg.durability_dir(shard_dir(base, i));
        }
        if let Some(t) = &self.tier {
            // Same knobs, shard-private segment directory.
            let mut t = t.clone();
            t.dir = t.dir.join(&label);
            cfg = cfg.tiered(t);
        }
        cfg
    }

    /// Build the fleet over an empty global graph of `num_vertices`.
    pub fn build(self, num_vertices: usize) -> io::Result<ShardedFlow> {
        let shards = (0..self.num_shards)
            .map(|i| self.shard_config(i).build(num_vertices))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(self.assemble(shards))
    }

    /// Recover the whole fleet from per-shard durability directories
    /// under `base` (see [`ShardedConfig::durability_base`]). Every
    /// shard recovers independently from `base/shard-0i`, and **all**
    /// failures are collected before reporting: one bad fleet restart
    /// names every corrupted shard (its `[shard-0i]` prefix and
    /// offending file path) in a single error instead of stopping at
    /// the first. The persisted state knobs (symmetrize, vertex
    /// limit) come from each shard's checkpoint.
    pub fn recover(mut self, base: impl AsRef<Path>) -> io::Result<ShardedFlow> {
        let base = base.as_ref();
        // Recovery implies durability: the recovered fleet keeps
        // logging under the same base — otherwise post-recovery ingest
        // would silently bypass the WAL.
        self.durability_base = Some(base.to_path_buf());
        let mut shards = Vec::with_capacity(self.num_shards);
        let mut failures: Vec<String> = Vec::new();
        for i in 0..self.num_shards {
            match self.recover_shard(i) {
                Ok(engine) => shards.push(engine),
                Err(e) => failures.push(e.to_string()),
            }
        }
        if !failures.is_empty() {
            return Err(io::Error::other(format!(
                "fleet recovery failed on {}/{} shards: {}",
                failures.len(),
                self.num_shards,
                failures.join("; ")
            )));
        }
        if let Some(first) = shards.first() {
            self.symmetrize = first.symmetrize();
        }
        Ok(self.assemble(shards))
    }

    /// Recover shard `i` from its directory under the durability base,
    /// inside the shard's fault scope. Errors are prefixed
    /// `[shard-0i] `, so a failed recovery read from a log names the
    /// shard as well as the file.
    fn recover_shard(&self, i: usize) -> io::Result<FlowEngine> {
        let base = self
            .durability_base
            .as_ref()
            .ok_or_else(|| io::Error::other("durable fleet missing its base directory"))?;
        in_shard_scope(i, || self.shard_config(i).recover(shard_dir(base, i)))
            .map_err(|e| io::Error::new(e.kind(), format!("[{}] {e}", shard_label(i))))
    }

    fn assemble(self, shards: Vec<FlowEngine>) -> ShardedFlow {
        let n = shards.len();
        ShardedFlow {
            plan: ShardPlan::new(self.num_shards),
            supervisor: ShardSupervisor::new(n),
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            shards,
            clock: 0,
            lost_updates: 0,
            dropped_deliveries: 0,
            traffic: CrossShardTraffic::default(),
            recorder: if self.record_metrics {
                Recorder::labeled("router")
            } else {
                Recorder::disabled()
            },
            config: self,
        }
    }
}

/// N shard-local [`FlowEngine`]s behind one hash-partition router.
/// See the module docs for the architecture and invariants.
pub struct ShardedFlow {
    plan: ShardPlan,
    shards: Vec<FlowEngine>,
    supervisor: ShardSupervisor,
    /// Per-shard redelivery queues: failed deliveries awaiting retry,
    /// dropped router deliveries, and (durable fleets) the backlog of
    /// a dead shard awaiting its rebuild.
    pending: Vec<VecDeque<UpdateBatch>>,
    /// The fleet configuration every shard engine was built from, and
    /// every rebuilt one will be (`ShardedConfig::shard_config`).
    config: ShardedConfig,
    /// Fleet clock: the time of the last routed batch, used to stamp
    /// health events and journal lines.
    clock: Timestamp,
    lost_updates: u64,
    dropped_deliveries: u64,
    traffic: CrossShardTraffic,
    recorder: Recorder,
}

impl ShardedFlow {
    /// Start a [`ShardedConfig`] builder.
    pub fn builder(num_shards: usize) -> ShardedConfig {
        ShardedConfig::new(num_shards)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard-local engines (index = shard id). A dead shard's
    /// slot holds an empty placeholder engine until it is rebuilt.
    pub fn shards(&self) -> &[FlowEngine] {
        &self.shards
    }

    /// Mutable access to one shard's engine.
    pub fn shard_mut(&mut self, i: usize) -> &mut FlowEngine {
        &mut self.shards[i]
    }

    /// The health supervisor (per-shard state and transition log).
    pub fn supervisor(&self) -> &ShardSupervisor {
        &self.supervisor
    }

    /// Current health of shard `i`.
    pub fn health(&self, i: usize) -> ShardHealth {
        self.supervisor.health(i)
    }

    /// Drain the supervisor's recorded health transitions.
    pub fn take_health_events(&mut self) -> Vec<HealthEvent> {
        self.supervisor.take_events()
    }

    /// Whether every shard logs to its own WAL + checkpoint directory.
    fn durable(&self) -> bool {
        self.config.durability_base.is_some()
    }

    /// Updates irrecoverably lost to dead shards. Stays zero whenever
    /// the fleet has durability (the backlog queues for redelivery)
    /// or the dead shard has a serving replica holder (a replicated
    /// fleet of ≥ 2 shards whose holder is up: it already has a copy).
    pub fn lost_updates(&self) -> u64 {
        self.lost_updates
    }

    /// Router deliveries dropped by an injected `route.drop` fault and
    /// queued for redelivery.
    pub fn dropped_deliveries(&self) -> u64 {
        self.dropped_deliveries
    }

    /// Per-shard redelivery backlog lengths (index = shard id).
    pub fn pending_backlog(&self) -> Vec<usize> {
        self.pending.iter().map(|q| q.len()).collect()
    }

    /// Cross-shard bytes per protocol so far.
    pub fn traffic(&self) -> CrossShardTraffic {
        self.traffic
    }

    /// Global vertex width: the widest shard graph (shards grow
    /// independently as updates arrive, so widths can differ).
    fn global_width(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.graph().num_vertices())
            .max()
            .unwrap_or(0)
    }

    /// [`Completion::Complete`] when every shard is serving, else
    /// [`Completion::Degraded`].
    pub fn fleet_completion(&self) -> Completion {
        if (0..self.shards.len()).all(|i| self.supervisor.is_serving(i)) {
            Completion::Complete
        } else {
            Completion::Degraded
        }
    }

    /// Down shards currently served exactly from their replica holder,
    /// and down shards with no serving copy at all.
    pub fn coverage(&self) -> (Vec<usize>, Vec<usize>) {
        let down = (0..self.shards.len()).filter(|&i| !self.supervisor.is_serving(i));
        down.partition(|&i| self.replica_serves(i))
    }

    /// Whether shard `i`'s rows have a serving copy on its replica
    /// holder: what decides between failover and loss.
    fn replica_serves(&self, i: usize) -> bool {
        self.plan
            .replica_holder(i, self.config.replicate)
            .is_some_and(|r| self.supervisor.is_serving(r))
    }

    /// The shard that serves vertex `v`'s row right now: the first
    /// serving shard among its [holders](ShardPlan::holders) — the
    /// owner, then (replicated fleets) the replica holder — else
    /// `None`: the row is unreachable until a rebuild.
    pub fn row_source(&self, v: VertexId) -> Option<usize> {
        self.plan
            .holders(v, self.config.replicate)
            .find(|&s| self.supervisor.is_serving(s))
    }

    /// Pair a fleet kernel result with the coverage it ran under.
    fn run_verdict<T>(&self, value: T) -> ShardedRun<T> {
        let (failed_over, uncovered) = self.coverage();
        ShardedRun {
            value,
            completion: self.fleet_completion(),
            failed_over,
            uncovered,
        }
    }

    fn journal_transition(
        &self,
        shard: usize,
        tr: Option<(ShardHealth, ShardHealth)>,
        reason: &str,
    ) {
        let Some((from, to)) = tr else { return };
        let category: &'static str = if to == ShardHealth::Dead {
            "failover"
        } else if to == ShardHealth::Rebuilding || from == ShardHealth::Rebuilding {
            "rebuild"
        } else {
            "health"
        };
        self.recorder.journal(
            self.clock,
            category,
            format!(
                "{}: {} -> {} ({reason})",
                shard_label(shard),
                from.name(),
                to.name()
            ),
        );
    }

    /// Replace a dead shard's engine with an empty placeholder. The
    /// in-memory state is gone (that is what "dead" means); on-disk
    /// durability state survives for [`ShardedFlow::rebuild_shard`].
    fn decommission(&mut self, i: usize) {
        self.shards[i] = FlowEngine::new(0);
    }

    /// Declare shard `i` dead (crash announcement or administrative
    /// kill): its in-memory state is discarded, reads fail over to the
    /// replica (when available), and deliveries queue (durable) or
    /// rely on the replica copy until [`ShardedFlow::rebuild_shard`].
    pub fn kill_shard(&mut self, i: usize, reason: &str) {
        if self.supervisor.health(i) == ShardHealth::Dead {
            return;
        }
        let tr = self.supervisor.mark_dead(self.clock, i, reason);
        self.journal_transition(i, tr, reason);
        self.decommission(i);
    }

    /// Route one batch to every shard and apply it (durably when the
    /// fleet was built with a durability base). Every shard sees a
    /// batch with the same `time`, so watermarks advance uniformly.
    ///
    /// Shard failures are absorbed, not propagated: a failed delivery
    /// stays queued for redelivery and takes a health strike against
    /// the shard (see [`ShardSupervisor`]); deliveries to a dead shard
    /// queue for its rebuild (durable fleets) or rely on the replica
    /// copy (replicated fleets). Returns the total updates quarantined
    /// across shards.
    pub fn process_batch(&mut self, batch: &UpdateBatch) -> io::Result<usize> {
        self.clock = batch.time;
        let (sub, ghosts, replicas) = self
            .plan
            .route_batch_replicated(batch, self.config.replicate);
        let ghost_bytes = ghosts * UPDATE_WIRE_BYTES;
        let replica_bytes = replicas * UPDATE_WIRE_BYTES;
        self.traffic.ingest_bytes += ghost_bytes;
        self.traffic.replication_bytes += replica_bytes;
        self.recorder
            .span(Step::Ingest)
            .add_net_bytes(ghost_bytes + replica_bytes);
        let mut quarantined = 0;
        for (i, b) in sub.into_iter().enumerate() {
            quarantined += self.offer_shard(i, b);
        }
        Ok(quarantined)
    }

    /// Hand one routed sub-batch to shard `i`, honoring its health and
    /// the injected crash/drop sites. Returns updates quarantined.
    fn offer_shard(&mut self, i: usize, b: UpdateBatch) -> usize {
        // In-band crash announcement: the shard process dies the
        // moment this delivery reaches it. A Dead/Rebuilding shard
        // takes no delivery, so the site is not evaluated then — an
        // armed FailOnce crash stays armed for the rebuilt shard
        // instead of being consumed by a no-op kill.
        let label = shard_label(i);
        if self.supervisor.is_serving(i) && check(&format!("{label}/crash")).is_err() {
            self.kill_shard(i, "injected crash");
        }
        if !self.supervisor.is_serving(i) {
            if self.durable() {
                // The rebuild will recover the WAL and then drain this
                // backlog, so nothing is lost.
                self.pending[i].push_back(b);
            } else if !self.replica_serves(i) {
                // No durability and no serving replica: this is the one
                // genuine loss channel, and it is counted.
                self.lost_updates += b.updates.len() as u64;
            }
            // Otherwise the copy is dropped: the serving replica holder
            // received its own delivery of every update in `b` that
            // shard `i` will need, and the rebuild copies it back.
            return 0;
        }
        // Router delivery drop (reliable-delivery model: the router
        // notices the lost delivery and requeues it).
        if check(&format!("{label}/route.drop")).is_err() {
            self.dropped_deliveries += 1;
            self.recorder.journal(
                self.clock,
                "route",
                format!("{label}: delivery dropped, queued for redelivery"),
            );
            self.pending[i].push_back(b);
            return 0;
        }
        self.pending[i].push_back(b);
        let (_, quarantined, failure) = self.drain_pending(i);
        if let Some(e) = failure {
            self.strike(i, &e.to_string());
        }
        quarantined
    }

    /// Deliver shard `i`'s queued sub-batches in order, stopping at the
    /// first failure, which stays queued for the next attempt. Returns
    /// the batches delivered, the updates they quarantined, and the
    /// failure that stopped the drain, if any.
    fn drain_pending(&mut self, i: usize) -> (usize, usize, Option<io::Error>) {
        let (mut batches, mut quarantined) = (0, 0);
        while let Some(batch) = self.pending[i].pop_front() {
            let engine = &mut self.shards[i];
            match in_shard_scope(i, || engine.deliver(&batch)) {
                Ok(q) => {
                    batches += 1;
                    quarantined += q;
                    let tr = self.supervisor.record_success(self.clock, i);
                    self.journal_transition(i, tr, "delivery succeeded");
                }
                Err(e) => {
                    // The engine applies nothing on a failed durable
                    // append, so requeuing the whole batch is exact.
                    self.pending[i].push_front(batch);
                    return (batches, quarantined, Some(e));
                }
            }
        }
        (batches, quarantined, None)
    }

    /// Take a health strike against shard `i`; a shard that struck out
    /// is decommissioned.
    fn strike(&mut self, i: usize, reason: &str) {
        let tr = self.supervisor.record_error(self.clock, i, reason);
        self.journal_transition(i, tr, reason);
        if self.supervisor.health(i) == ShardHealth::Dead {
            self.decommission(i);
        }
    }

    /// Checkpoint every serving shard. A shard's checkpoint failure is
    /// absorbed as a health strike (the fleet keeps running on the
    /// other shards' checkpoints) and reported per-shard in the
    /// returned [`CheckpointReport`]; the call errors only if every
    /// serving shard fails.
    pub fn checkpoint(&mut self) -> io::Result<CheckpointReport> {
        let mut report = CheckpointReport {
            paths: Vec::new(),
            failed: Vec::new(),
            skipped: Vec::new(),
        };
        for i in 0..self.shards.len() {
            if !self.supervisor.is_serving(i) {
                report.skipped.push(i);
                continue;
            }
            let engine = &mut self.shards[i];
            match in_shard_scope(i, || engine.checkpoint()) {
                Ok(p) => {
                    let tr = self.supervisor.record_success(self.clock, i);
                    self.journal_transition(i, tr, "checkpoint succeeded");
                    report.paths.push((i, p));
                }
                Err(e) => {
                    let msg = e.to_string();
                    self.strike(i, &msg);
                    report.failed.push((i, msg));
                }
            }
        }
        if report.paths.is_empty() && !report.failed.is_empty() {
            return Err(io::Error::other(format!(
                "every serving shard failed to checkpoint: {}",
                report
                    .failed
                    .iter()
                    .map(|(i, msg)| format!("[{}] {msg}", shard_label(*i)))
                    .collect::<Vec<_>>()
                    .join("; ")
            )));
        }
        Ok(report)
    }

    /// Scrub every serving shard's segment tier under its fault scope
    /// (so an armed `shard-0i/segment.scrub` faults exactly that
    /// member) and repair what was quarantined from the shard's own
    /// recovered state — for a replicated fleet that state is itself
    /// reconstructible from ring neighbors via
    /// [`ShardedFlow::rebuild_shard`], closing the replica-sourced
    /// repair path. Returns one `(shard, scrub, repair)` row per shard
    /// that has a live tier.
    pub fn scrub_tiers(
        &mut self,
    ) -> Vec<(
        usize,
        ga_graph::tier::ScrubReport,
        ga_graph::tier::RepairReport,
    )> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            if !self.supervisor.is_serving(i) {
                continue;
            }
            let shard = &mut self.shards[i];
            if let Some((scrub, repair)) = in_shard_scope(i, || shard.scrub_tier()) {
                if !scrub.corrupt.is_empty() || !repair.unrepairable.is_empty() {
                    self.recorder.journal(
                        self.clock,
                        "tier_scrub",
                        format!(
                            "{}: {} corrupt, {} repaired, {} unrepairable",
                            shard_label(i),
                            scrub.corrupt.len(),
                            repair.repaired.len(),
                            repair.unrepairable.len()
                        ),
                    );
                }
                out.push((i, scrub, repair));
            }
        }
        out
    }

    /// Rebuild a Dead shard online — the fleet keeps ingesting and
    /// serving throughout. Durable fleets recover checkpoint + WAL
    /// from the shard's directory and then redeliver the backlog that
    /// queued while it was down; non-durable replicated fleets
    /// reconstruct the shard's rows and properties exactly from its
    /// ring neighbors. Errors if the shard is not Dead or the fleet
    /// has neither durability nor replication.
    pub fn rebuild_shard(&mut self, i: usize) -> io::Result<RebuildReport> {
        if self.supervisor.health(i) != ShardHealth::Dead {
            return Err(io::Error::other(format!(
                "{} is {}, not dead; only dead shards can be rebuilt",
                shard_label(i),
                self.supervisor.health(i).name()
            )));
        }
        let tr = self.supervisor.begin_rebuild(self.clock, i);
        self.journal_transition(i, tr, "rebuild started");
        let result = if self.durable() {
            self.rebuild_from_wal(i)
        } else if self.plan.replica_holder(i, self.config.replicate).is_some() {
            self.rebuild_from_replica(i)
        } else {
            Err(io::Error::other(format!(
                "{}: no rebuild source — fleet has neither durability nor replication",
                shard_label(i)
            )))
        };
        match result {
            Ok((source, redelivered_batches)) => {
                let tr = self.supervisor.complete_rebuild(self.clock, i);
                self.journal_transition(i, tr, source.name());
                Ok(RebuildReport {
                    shard: i,
                    source,
                    redelivered_batches,
                })
            }
            Err(e) => {
                let tr = self.supervisor.mark_dead(self.clock, i, "rebuild failed");
                self.journal_transition(i, tr, &e.to_string());
                self.decommission(i);
                Err(e)
            }
        }
    }

    fn rebuild_from_wal(&mut self, i: usize) -> io::Result<(RebuildSource, usize)> {
        self.shards[i] = self.config.recover_shard(i)?;
        // Redeliver the backlog that queued while the shard was dead.
        match self.drain_pending(i) {
            (batches, _, None) => Ok((RebuildSource::WalReplay, batches)),
            (_, _, Some(e)) => Err(e),
        }
    }

    /// Exact reconstruction from the other holders of shard `i`'s rows.
    /// Shard `i` holds two kinds of rows: those whose row it
    /// [holds](ShardPlan::holders) in full (it owns them, or is their
    /// replica holder), and ghost rows. A delivery reaches `i` iff
    /// `i` holds the row of one of the update's endpoints, so a ghost
    /// row holds exactly the slots whose destination row `i` holds.
    /// Each row and property is copied from the shard serving it
    /// ([`Self::row_source`]), filtered by that rule.
    fn rebuild_from_replica(&mut self, i: usize) -> io::Result<(RebuildSource, usize)> {
        let width = self.global_width();
        let held = |x: VertexId| self.plan.holders(x, self.config.replicate).any(|s| s == i);
        let mut rows = Vec::with_capacity(width);
        for v in 0..width as VertexId {
            let Some(src) = self.row_source(v) else {
                return Err(io::Error::other(format!(
                    "cannot rebuild {} from replicas: no serving copy of vertex {v}'s row",
                    shard_label(i)
                )));
            };
            let (whole, slots) = (held(v), self.shards[src].graph().row_slots(v));
            rows.push(
                slots
                    .iter()
                    .filter(|r| whole || held(r.dst))
                    .copied()
                    .collect(),
            );
        }
        let graph = DynamicGraph::from_rows(rows, self.last_update());
        // Properties live with their vertex's row.
        let mut props = PropertyStore::new(0);
        for (shard, engine) in self.shards.iter().enumerate() {
            copy_props(&mut props, engine.props(), |v| {
                held(v) && self.row_source(v) == Some(shard)
            });
        }
        let mut engine = self.config.shard_config(i).build_with_graph(graph, props)?;
        engine.set_last_batch_time(self.clock);
        self.shards[i] = engine;
        self.pending[i].clear();
        Ok((RebuildSource::Replica, 0))
    }

    /// Resolve ghosts into one global graph: each vertex's row comes
    /// verbatim from the shard serving it ([`Self::row_source`]) — its
    /// owner, or (while the owner is down, on replicated fleets) the
    /// replica holder, whose rows are exact copies. With every shard
    /// serving, the result is bit-identical to an unsharded engine's
    /// graph after the same batches; under single-shard failure with
    /// replication it still is. Rows with no serving copy are empty.
    /// The fleet's kernels freeze the serving rows without building
    /// this copy; it is the oracle their results are checked against.
    pub fn merged_graph(&self) -> DynamicGraph {
        let rows = (0..self.global_width() as VertexId)
            .map(|v| match self.row_source(v) {
                Some(s) => self.shards[s].graph().row_slots(v).to_vec(),
                None => Vec::new(),
            })
            .collect();
        DynamicGraph::from_rows(rows, self.last_update())
    }

    /// The newest update timestamp any shard holds.
    fn last_update(&self) -> Timestamp {
        let newest = self.shards.iter().map(|s| s.graph().last_update());
        newest.max().unwrap_or(0)
    }

    /// Merge per-shard property stores by vertex ownership, following
    /// the same failover rule as [`ShardedFlow::merged_graph`].
    pub fn merged_props(&self) -> PropertyStore {
        let mut out = PropertyStore::new(0);
        for (shard, engine) in self.shards.iter().enumerate() {
            copy_props(&mut out, engine.props(), |v| {
                self.row_source(v) == Some(shard)
            });
        }
        out
    }

    /// Per-shard stats records (index = shard id).
    pub fn shard_stats(&self) -> Vec<FlowStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Labeled metrics exports: the router's snapshot (cross-shard
    /// traffic plus the failover/rebuild journal) followed by each
    /// shard's. With metrics off these are empty-but-valid snapshots.
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        let mut out = vec![self.recorder.snapshot()];
        out.extend(self.shards.iter().map(|s| s.metrics()));
        out
    }

    /// Quarantined (dead-letter) updates across the fleet.
    pub fn dead_letter_count(&self) -> usize {
        self.shards.iter().map(|s| s.dead_letters().count()).sum()
    }

    /// Drain every shard's dead-letter queue into one merged list,
    /// tagged with the shard that quarantined each update.
    pub fn drain_dead_letters(&mut self) -> Vec<(usize, QuarantinedUpdate)> {
        let mut out = Vec::new();
        for (i, engine) in self.shards.iter_mut().enumerate() {
            out.extend(engine.drain_dead_letters().into_iter().map(move |q| (i, q)));
        }
        out
    }

    /// Re-validate and re-apply quarantined updates on every serving
    /// shard (see [`FlowEngine::replay_dead_letters`]). Returns the
    /// fleet totals `(replayed, requeued)`.
    pub fn replay_dead_letters(&mut self) -> io::Result<(usize, usize)> {
        let mut replayed = 0;
        let mut requeued = 0;
        for i in 0..self.shards.len() {
            if !self.supervisor.is_serving(i) {
                continue;
            }
            let engine = &mut self.shards[i];
            let (r, q) = in_shard_scope(i, || engine.replay_dead_letters())?;
            replayed += r;
            requeued += q;
        }
        Ok((replayed, requeued))
    }

    /// The merged graph frozen for a kernel run, with the shard that
    /// serves each vertex's row (`None`: no serving copy, empty row).
    /// The one freeze reads each row straight from its serving shard,
    /// so no merged [`DynamicGraph`] is built; the result equals
    /// [`Self::merged_graph`]'s freeze.
    fn frozen_merge(&self) -> (CsrGraph, Vec<Option<usize>>) {
        let serve: Vec<Option<usize>> = (0..self.global_width() as VertexId)
            .map(|v| self.row_source(v))
            .collect();
        let graphs: Vec<&DynamicGraph> = self.shards.iter().map(|s| s.graph()).collect();
        let edges = graphs.iter().map(|g| g.num_live_edges()).sum();
        let snap = freeze(
            serve.len(),
            edges,
            |v| serve[v as usize].map_or(&[][..], |s| graphs[s].row_slots(v)),
            Parallelism::Auto,
        );
        (snap, serve)
    }

    /// PageRank over [`Self::merged_graph`]: the one engine,
    /// `pagerank_with`, on its freeze with a reverse index. Ranks are
    /// bit-identical to an unsharded engine's for any shard count, and
    /// under replica failover. A row with no serving copy is empty, so
    /// its vertex is dangling and the ranks stay a distribution.
    /// `completion` is [`Self::fleet_completion`]. Priced as a pull
    /// across partitions: 8 B (one `f64`) per sweep per merged edge
    /// whose endpoints have different serving shards.
    pub fn pagerank(&mut self, damping: f64, tol: f64, max_iters: usize) -> PageRankResult {
        let mut span = self.recorder.span(Step::BatchAnalytic);
        let (snap, serve) = self.frozen_merge();
        let csr = snap.with_reverse();
        let mut run = pagerank_with(&csr, damping, tol, max_iters, &KernelCtx::default());
        let cross = cross_edges(&snap, &serve, |_| true);
        let bytes = run.work as u64 * RANK_WIRE_BYTES * cross;
        self.traffic.pagerank_bytes += bytes;
        span.add_net_bytes(bytes);
        run.completion = self.fleet_completion();
        run
    }

    /// BFS depths from `src` over [`Self::merged_graph`]: the one
    /// engine, `bfs_with`, on its freeze, so depths equal an unsharded
    /// engine's, including under replica failover. Priced as a
    /// level-synchronous frontier exchange: 4 B (one vertex id) per
    /// out-edge of a reached vertex whose target has a different
    /// serving shard (an unserved target counts as different). The
    /// result carries the fleet-coverage verdict it ran under (see
    /// [`ShardedRun`]).
    pub fn bfs(&mut self, src: VertexId) -> ShardedRun<Vec<u32>> {
        let n = self.global_width();
        if (src as usize) >= n {
            return self.run_verdict(vec![UNREACHED; n]);
        }
        let mut span = self.recorder.span(Step::BatchAnalytic);
        let (snap, serve) = self.frozen_merge();
        let depth = bfs_with(&snap, src, &KernelCtx::default()).depth;
        let cross = cross_edges(&snap, &serve, |v| depth[v as usize] != UNREACHED);
        let bytes = FRONTIER_WIRE_BYTES * cross;
        self.traffic.bfs_bytes += bytes;
        span.add_net_bytes(bytes);
        self.run_verdict(depth)
    }

    /// Weakly connected components of [`Self::merged_graph`]: the one
    /// engine, `wcc_with`, on its freeze, so labels and count equal an
    /// unsharded engine's. Priced, when more than one shard serves, as
    /// each serving shard shipping a spanning forest of its local
    /// edges: 8 B (two vertex ids) per local vertex that is not its
    /// local component's root, i.e. per union a [`UnionFind`] over the
    /// shard's live edges performs; the shards count their forests in
    /// parallel, on the pool, as a distributed run would. The result
    /// carries the fleet-coverage verdict it ran under (see
    /// [`ShardedRun`]).
    pub fn components(&mut self) -> ShardedRun<Components> {
        let mut span = self.recorder.span(Step::BatchAnalytic);
        let serving: Vec<&DynamicGraph> = (0..self.shards.len())
            .filter(|&i| self.supervisor.is_serving(i))
            .map(|i| self.shards[i].graph())
            .collect();
        if serving.len() > 1 {
            let pairs: usize = serving.par_iter().map(|g| forest_pairs(g)).sum();
            let bytes = FOREST_PAIR_WIRE_BYTES * pairs as u64;
            self.traffic.components_bytes += bytes;
            span.add_net_bytes(bytes);
        }
        let components = wcc_with(&self.frozen_merge().0, &KernelCtx::default());
        self.run_verdict(components)
    }

    // -----------------------------------------------------------------
    // Concurrent query serving: per-shard epoch publication + routing.
    // -----------------------------------------------------------------

    /// Republish every shard's current generation (useful after
    /// out-of-band mutation through [`Self::shard_mut`]). A no-op on
    /// shards that never started serving.
    pub fn publish_epochs(&mut self) {
        for engine in &mut self.shards {
            engine.publish_epoch();
        }
    }

    /// A query router over this fleet's published snapshots: point
    /// queries go to the owning shard (exact, thanks to ghost edges),
    /// top-k scans scatter-gather. Starts every shard serving (each
    /// publishes its current state; later [`Self::process_batch`]
    /// ingest republishes through the engines' publication hooks).
    /// Create one per reader thread — the router revalidates each
    /// shard's snapshot with one atomic load and never blocks ingest.
    pub fn query_router(&mut self) -> ShardedQueryRouter {
        ShardedQueryRouter {
            plan: self.plan,
            readers: self
                .shards
                .iter_mut()
                .map(|engine| engine.serve_handle().reader())
                .collect(),
        }
    }
}

/// Why [`ShardedQueryRouter::run`] refused a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// The query's traversal crosses shard boundaries; run it against
    /// a merged (unsharded) serving engine instead. Carries the query
    /// kind's name.
    CrossShard(&'static str),
    /// The named shard has not published a snapshot yet.
    NotReady(usize),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::CrossShard(kind) => {
                write!(f, "{kind} traverses across shards; serve it unsharded")
            }
            RouteError::NotReady(shard) => {
                write!(f, "shard {shard} has not published a snapshot yet")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Routes [`Query`]s over a sharded fleet's published epoch snapshots
/// (see [`ShardedFlow::query_router`]).
///
/// * **Point queries** ([`Query::GetProperty`], [`Query::Degree`],
///   [`Query::Neighbors`]) run on the owning shard only. Because every
///   edge incident to an owned vertex is delivered to its owner (the
///   ghost/halo protocol), owner-local degree and neighbor lists are
///   exact.
/// * **[`Query::TopKByProperty`]** scatter-gathers: each shard reports
///   its own top-k over the rows it *owns* (ghost rows are filtered so
///   a replicated row cannot appear twice), and the router merges.
/// * **Traversals** ([`Query::KHop`], [`Query::FilteredTraversal`],
///   [`Query::ShortestPath`], [`Query::SimilarVertices`]) are honestly
///   refused with [`RouteError::CrossShard`] — a shard-local answer
///   would silently stop at partition edges.
#[derive(Debug)]
pub struct ShardedQueryRouter {
    plan: ShardPlan,
    readers: Vec<ga_stream::SnapshotReader>,
}

impl ShardedQueryRouter {
    /// The shard that owns `v` (where point queries on `v` run).
    pub fn owner(&self, v: VertexId) -> usize {
        self.plan.owner(v)
    }

    /// Run one query against the fleet's published generations.
    pub fn run(&mut self, query: &Query) -> Result<QueryResponse, RouteError> {
        match query {
            Query::GetProperty { vertex, .. }
            | Query::Degree { vertex }
            | Query::Neighbors { vertex, .. } => {
                let shard = self.plan.owner(*vertex);
                let snap = self.readers[shard]
                    .snapshot()
                    .ok_or(RouteError::NotReady(shard))?;
                Ok(query.run(snap))
            }
            Query::TopKByProperty { name, k } => {
                let plan = self.plan;
                let mut merged: Vec<(VertexId, f64)> = Vec::new();
                for (shard, reader) in self.readers.iter_mut().enumerate() {
                    let snap = reader.snapshot().ok_or(RouteError::NotReady(shard))?;
                    let local = Query::top_k_by_property(name.clone(), *k).run(snap);
                    if let QueryResponse::Scored(rows) = local {
                        merged.extend(rows.into_iter().filter(|(v, _)| plan.owner(*v) == shard));
                    }
                }
                merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                merged.truncate(*k);
                Ok(QueryResponse::Scored(merged))
            }
            Query::KHop { .. } => Err(RouteError::CrossShard("k_hop")),
            Query::FilteredTraversal { .. } => Err(RouteError::CrossShard("filtered_traversal")),
            Query::ShortestPath { .. } => Err(RouteError::CrossShard("shortest_path")),
            Query::SimilarVertices { .. } => Err(RouteError::CrossShard("similar_vertices")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::CsrBuilder;
    use ga_kernels::cc::wcc_union_find;
    use ga_stream::update::{into_batches, rmat_edge_stream};

    fn drive(flow: &mut ShardedFlow, scale: u32, total: usize, seed: u64) {
        for batch in into_batches(rmat_edge_stream(scale, total, 0.2, seed), 128, 1) {
            flow.process_batch(&batch).unwrap();
        }
    }

    #[test]
    fn fleet_kernels_match_unsharded_kernels() {
        let mut one = ShardedFlow::builder(1).build(64).unwrap();
        drive(&mut one, 6, 1200, 11);
        let reference_pr = one.pagerank(0.85, 1e-10, 60);

        for shards in [1usize, 2, 4] {
            let mut flow = ShardedFlow::builder(shards).build(64).unwrap();
            drive(&mut flow, 6, 1200, 11);
            let merged = flow.merged_graph();
            assert_eq!(merged, one.merged_graph(), "{shards}-shard merge");

            // PageRank: bit-identical to the unsharded kernel AND to
            // the 1-shard run.
            let snap = merged.snapshot();
            let csr = CsrBuilder::new(merged.num_vertices())
                .edges(snap.edges())
                .reverse(true)
                .build();
            let kernel = pagerank_with(&csr, 0.85, 1e-10, 60, &KernelCtx::serial());
            let pr = flow.pagerank(0.85, 1e-10, 60);
            assert_eq!(pr.work, kernel.work, "{shards}-shard pagerank iters");
            assert_eq!(pr.rank, kernel.rank, "{shards}-shard pagerank ranks");
            assert_eq!(pr.rank, reference_pr.rank, "{shards}-shard vs 1-shard");

            // BFS depths and components labels are exact integers.
            assert_eq!(
                flow.bfs(0).value,
                bfs_with(&snap, 0, &KernelCtx::serial()).depth,
                "{shards}-shard bfs"
            );
            let cc = flow.components().value;
            let direct = wcc_union_find(&snap);
            assert_eq!(cc.label, direct.label, "{shards}-shard cc labels");
            assert_eq!(cc.count, direct.count, "{shards}-shard cc count");
        }
    }

    #[test]
    fn query_router_matches_unsharded_serving() {
        // One unsharded serving engine as ground truth.
        let mut one = ShardedFlow::builder(1).build(64).unwrap();
        drive(&mut one, 6, 1200, 11);
        one.shard_mut(0).props_mut().set_column_f64(
            "score",
            &(0..64).map(|v| (v * 7 % 23) as f64).collect::<Vec<_>>(),
        );
        one.publish_epochs();
        let mut reference = one.query_router();

        for shards in [2usize, 4] {
            let mut flow = ShardedFlow::builder(shards).build(64).unwrap();
            drive(&mut flow, 6, 1200, 11);
            for i in 0..shards {
                // Property rows live on the owner; setting the full
                // column everywhere is fine — TopK filters to owned.
                flow.shard_mut(i).props_mut().set_column_f64(
                    "score",
                    &(0..64).map(|v| (v * 7 % 23) as f64).collect::<Vec<_>>(),
                );
            }
            flow.publish_epochs();
            let mut router = flow.query_router();

            for v in 0..64u32 {
                for q in [
                    Query::Degree { vertex: v },
                    Query::Neighbors {
                        vertex: v,
                        limit: 64,
                    },
                    Query::get_property(v, "score"),
                ] {
                    assert_eq!(
                        router.run(&q).unwrap(),
                        reference.run(&q).unwrap(),
                        "{shards}-shard {q:?}"
                    );
                }
            }
            assert_eq!(
                router.run(&Query::top_k_by_property("score", 10)).unwrap(),
                reference
                    .run(&Query::top_k_by_property("score", 10))
                    .unwrap(),
                "{shards}-shard top-k"
            );
            // Traversals are refused with the typed error, not wrong.
            assert_eq!(
                router.run(&Query::ShortestPath { src: 0, dst: 5 }),
                Err(RouteError::CrossShard("shortest_path"))
            );
            assert_eq!(
                router.run(&Query::KHop {
                    vertex: 0,
                    hops: 2,
                    limit: 64
                }),
                Err(RouteError::CrossShard("k_hop"))
            );
        }
    }

    #[test]
    fn traffic_is_zero_single_shard_and_positive_sharded() {
        let mut one = ShardedFlow::builder(1).build(64).unwrap();
        drive(&mut one, 6, 800, 3);
        one.pagerank(0.85, 1e-9, 30);
        one.bfs(0);
        one.components();
        assert_eq!(one.traffic(), CrossShardTraffic::default());

        let mut four = ShardedFlow::builder(4).build(64).unwrap();
        drive(&mut four, 6, 800, 3);
        four.pagerank(0.85, 1e-9, 30);
        four.bfs(0);
        four.components();
        let t = four.traffic();
        assert!(t.ingest_bytes > 0, "{t:?}");
        assert!(t.pagerank_bytes > 0, "{t:?}");
        assert!(t.bfs_bytes > 0, "{t:?}");
        assert!(t.components_bytes > 0, "{t:?}");
        assert_eq!(t.replication_bytes, 0, "replication off by default");
    }

    /// On a directed fleet a local edge need not have its reverse, so
    /// the union-find pricing is checked against the definition it
    /// replaced: local width minus the local graph's WCC count.
    #[test]
    fn forest_pricing_matches_local_components_on_a_directed_fleet() {
        let mut fleet = ShardedFlow::builder(4).symmetrize(false).build(64).unwrap();
        drive(&mut fleet, 6, 800, 5);
        fleet.components();
        let pairs: usize = fleet
            .shards()
            .iter()
            .map(|s| {
                let local = s.graph().snapshot();
                local.num_vertices() - wcc_with(&local, &KernelCtx::default()).count
            })
            .sum();
        let t = fleet.traffic();
        assert_eq!(t.components_bytes, FOREST_PAIR_WIRE_BYTES * pairs as u64);
    }

    #[test]
    fn router_recorder_books_cross_shard_bytes() {
        let mut flow = ShardedFlow::builder(2)
            .record_metrics(true)
            .build(64)
            .unwrap();
        drive(&mut flow, 6, 600, 5);
        flow.pagerank(0.85, 1e-9, 20);
        let snaps = flow.metrics();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].label, "router");
        assert_eq!(snaps[1].label, "shard-00");
        let t = flow.traffic();
        assert_eq!(
            snaps[0].step(Step::Ingest).net_bytes,
            t.ingest_bytes,
            "router ingest bytes"
        );
        assert_eq!(
            snaps[0].step(Step::BatchAnalytic).net_bytes,
            t.pagerank_bytes,
            "router analytic bytes"
        );
    }

    #[test]
    fn supervisor_walks_the_health_state_machine() {
        let mut sup = ShardSupervisor::new(2);
        assert!(sup.all_healthy());

        // One failure: Suspect. A success heals and clears strikes.
        assert_eq!(
            sup.record_error(1, 0, "boom"),
            Some((ShardHealth::Healthy, ShardHealth::Suspect))
        );
        assert_eq!(sup.strikes[0], 1);
        assert_eq!(
            sup.record_success(2, 0),
            Some((ShardHealth::Suspect, ShardHealth::Healthy))
        );
        assert_eq!(sup.strikes[0], 0);

        // Three consecutive failures: Dead. Further errors are not
        // strikes, and success does not resurrect a dead shard.
        sup.record_error(3, 0, "a");
        assert_eq!(sup.record_error(4, 0, "b"), None, "suspect stays suspect");
        assert_eq!(
            sup.record_error(5, 0, "c"),
            Some((ShardHealth::Suspect, ShardHealth::Dead))
        );
        assert!(!sup.is_serving(0));
        assert_eq!(sup.record_error(6, 0, "d"), None);
        assert_eq!(sup.record_success(6, 0), None);
        assert_eq!(sup.health(0), ShardHealth::Dead);
        assert!(sup.is_serving(1), "only shard 0 is down");

        // Dead -> Rebuilding -> Healthy; rebuild ops gate on state.
        assert_eq!(sup.begin_rebuild(7, 1), None, "healthy shard: no rebuild");
        assert_eq!(
            sup.begin_rebuild(7, 0),
            Some((ShardHealth::Dead, ShardHealth::Rebuilding))
        );
        assert_eq!(
            sup.complete_rebuild(8, 0),
            Some((ShardHealth::Rebuilding, ShardHealth::Healthy))
        );
        assert!(sup.all_healthy());

        let events = sup.take_events();
        assert_eq!(events.len(), 6, "{events:?}");
        assert_eq!(events[0].reason, "boom");
        assert!(sup.take_events().is_empty(), "drained");
    }

    #[test]
    fn replication_books_traffic_and_keeps_analytics_identical() {
        let mut plain = ShardedFlow::builder(3).build(64).unwrap();
        let mut repl = ShardedFlow::builder(3).replicate(true).build(64).unwrap();
        drive(&mut plain, 6, 1000, 7);
        drive(&mut repl, 6, 1000, 7);

        assert_eq!(repl.merged_graph(), plain.merged_graph());
        assert_eq!(repl.traffic().ingest_bytes, plain.traffic().ingest_bytes);
        assert!(repl.traffic().replication_bytes > 0);
        assert_eq!(plain.traffic().replication_bytes, 0);

        let a = plain.pagerank(0.85, 1e-10, 50);
        let b = repl.pagerank(0.85, 1e-10, 50);
        assert_eq!(a.rank, b.rank, "replication must not perturb pagerank");
        assert_eq!(plain.bfs(0).value, repl.bfs(0).value);
        assert_eq!(
            plain.components().value.label,
            repl.components().value.label
        );
    }

    #[test]
    fn killed_shard_fails_over_to_replica_and_rebuilds_exactly() {
        let mut reference = ShardedFlow::builder(1).build(64).unwrap();
        let mut fleet = ShardedFlow::builder(3).replicate(true).build(64).unwrap();
        let batches = into_batches(rmat_edge_stream(6, 1400, 0.2, 13), 120, 1);
        let (head, tail) = batches.split_at(batches.len() / 2);
        for b in head {
            reference.process_batch(b).unwrap();
            fleet.process_batch(b).unwrap();
        }

        fleet.kill_shard(1, "test kill");
        assert_eq!(fleet.health(1), ShardHealth::Dead);
        assert_eq!(fleet.fleet_completion(), Completion::Degraded);

        // The fleet keeps ingesting while shard 1 is down; merged
        // views and analytics fail over to the replica and stay exact.
        for b in tail {
            reference.process_batch(b).unwrap();
            fleet.process_batch(b).unwrap();
        }
        assert_eq!(fleet.lost_updates(), 0, "replica holds every update");
        assert_eq!(fleet.merged_graph(), reference.merged_graph());
        let run = fleet.bfs(0);
        assert_eq!(run.completion, Completion::Degraded);
        assert_eq!(run.failed_over, vec![1]);
        assert!(run.uncovered.is_empty());
        assert_eq!(run.value, reference.bfs(0).value);
        let cc = fleet.components();
        assert_eq!(cc.completion, Completion::Degraded);
        assert_eq!(cc.value.label, reference.components().value.label);
        let pr = fleet.pagerank(0.85, 1e-10, 50);
        assert_eq!(pr.completion, Completion::Degraded);
        assert_eq!(pr.rank, reference.pagerank(0.85, 1e-10, 50).rank);

        // Online rebuild from the ring neighbors, then full health and
        // bit-identical state — including shard 1's replica duty.
        let report = fleet.rebuild_shard(1).unwrap();
        assert_eq!(report.source, RebuildSource::Replica);
        assert!(fleet.supervisor().all_healthy());
        assert_eq!(fleet.fleet_completion(), Completion::Complete);
        assert_eq!(fleet.merged_graph(), reference.merged_graph());
        let events = fleet.take_health_events();
        assert!(events.iter().any(|e| e.to == ShardHealth::Dead));
        assert!(events.iter().any(|e| e.to == ShardHealth::Healthy));

        // The rebuilt shard serves: kill its successor and the fleet
        // must now serve shard 2's vertices from shard 0... and shard
        // 1's own rows from itself.
        fleet.kill_shard(2, "second kill");
        assert_eq!(fleet.merged_graph(), reference.merged_graph());
    }

    #[test]
    fn dead_shard_without_replication_degrades_and_counts_loss() {
        let mut fleet = ShardedFlow::builder(2).build(64).unwrap();
        let batches = into_batches(rmat_edge_stream(6, 600, 0.2, 21), 100, 1);
        let (head, tail) = batches.split_at(3);
        for b in head {
            fleet.process_batch(b).unwrap();
        }
        fleet.kill_shard(0, "no safety net");
        for b in tail {
            fleet.process_batch(b).unwrap();
        }
        assert!(fleet.lost_updates() > 0, "loss is counted, not hidden");
        let run = fleet.bfs(0);
        assert_eq!(run.completion, Completion::Degraded);
        assert_eq!(run.uncovered, vec![0]);
        assert!(run.failed_over.is_empty());
        let err = fleet.rebuild_shard(0).unwrap_err();
        assert!(
            err.to_string().contains("no rebuild source"),
            "unexpected: {err}"
        );
    }

    /// `replicate` is a no-op on one shard: with no ring there is no
    /// replica holder, so a killed 1-shard fleet loses what it is
    /// offered, reports the shard uncovered and has no rebuild source,
    /// exactly as without the knob.
    #[test]
    fn one_shard_replicated_fleet_counts_loss_like_a_plain_one() {
        for replicate in [false, true] {
            let mut fleet = ShardedFlow::builder(1)
                .replicate(replicate)
                .build(64)
                .unwrap();
            fleet.kill_shard(0, "lone shard");
            let batch = UpdateBatch {
                time: 1,
                updates: rmat_edge_stream(6, 200, 0.0, 3),
            };
            fleet.process_batch(&batch).unwrap();
            assert_eq!(fleet.lost_updates(), 200, "replicate={replicate}");
            assert_eq!(fleet.coverage(), (vec![], vec![0]), "replicate={replicate}");
            assert_eq!(fleet.row_source(0), None);
            let err = fleet.rebuild_shard(0).unwrap_err();
            assert!(
                err.to_string().contains("no rebuild source"),
                "replicate={replicate}: {err}"
            );
        }
    }

    /// A replica holder that is down too is no safety net: with shards
    /// 0 and 1 of a replicated 3-shard fleet killed, shard 0's rows
    /// (replicated on 1) have no serving copy, and what shard 0 is
    /// offered is lost and counted.
    #[test]
    fn dead_replica_holder_counts_loss() {
        let mut fleet = ShardedFlow::builder(3).replicate(true).build(64).unwrap();
        fleet.kill_shard(0, "first");
        fleet.kill_shard(1, "second");
        let batch = UpdateBatch {
            time: 1,
            updates: rmat_edge_stream(6, 200, 0.0, 3),
        };
        fleet.process_batch(&batch).unwrap();
        let orphans = (0..64).filter(|&v| fleet.row_source(v).is_none()).count();
        assert!(orphans > 0, "some row has no serving copy");
        assert!(fleet.lost_updates() > 0, "{orphans} orphaned rows, no loss");
        assert_eq!(fleet.coverage(), (vec![1], vec![0]));
    }

    #[test]
    fn uncovered_pagerank_stays_a_distribution() {
        // The loss test's fleet: shard 0 dies with no replica, so its
        // rows are gone while shard 1 still holds ghost edges from them.
        let mut fleet = ShardedFlow::builder(2).build(64).unwrap();
        let batches = into_batches(rmat_edge_stream(6, 600, 0.2, 21), 100, 1);
        let (head, tail) = batches.split_at(3);
        for b in head {
            fleet.process_batch(b).unwrap();
        }
        fleet.kill_shard(0, "no safety net");
        for b in tail {
            fleet.process_batch(b).unwrap();
        }
        let pr = fleet.pagerank(0.85, 1e-10, 50);
        assert_eq!(pr.completion, Completion::Degraded);
        assert_eq!(fleet.coverage(), (vec![], vec![0]));
        assert!(pr.rank.iter().all(|r| r.is_finite()), "{:?}", pr.rank);
        let sum: f64 = pr.rank.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "ranks sum to {sum}");

        let merged = fleet.merged_graph();
        let csr = CsrBuilder::new(merged.num_vertices())
            .edges(merged.snapshot().edges())
            .reverse(true)
            .build();
        let kernel = pagerank_with(&csr, 0.85, 1e-10, 50, &KernelCtx::serial());
        assert_eq!(pr.work, kernel.work);
        assert_eq!(pr.rank, kernel.rank);
    }
}
