//! The streaming engine: updates in, events out.
//!
//! [`StreamEngine`] owns the persistent [`DynamicGraph`] plus a
//! [`PropertyStore`], applies update batches, and drives registered
//! [`Monitor`]s. Monitors see each update *after* it is applied (the
//! post-state), which makes insert/delete deltas computable from local
//! neighborhood intersections alone.

use crate::events::Event;
use crate::update::{Update, UpdateBatch};
use ga_graph::dynamic::ApplyResult;
use ga_graph::{
    CsrGraph, DynamicGraph, Parallelism, PropertyStore, SnapshotCache, SnapshotEpoch,
    SnapshotStats, Timestamp, VertexId,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// An incremental analytic attached to the stream.
pub trait Monitor {
    /// Stable name used as the event source tag.
    fn name(&self) -> &'static str;

    /// Called once per applied update with the post-state graph.
    fn on_update(
        &mut self,
        graph: &DynamicGraph,
        update: &Update,
        result: ApplyResult,
        time: Timestamp,
        out: &mut Vec<Event>,
    );

    /// Called at the end of each batch, for monitors that report at
    /// batch granularity. Default: no-op.
    fn on_batch_end(&mut self, _graph: &DynamicGraph, _time: Timestamp, _out: &mut Vec<Event>) {}
}

/// Running totals the engine keeps — the instrumentation Fig. 2's
/// streaming side feeds into the performance model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Edge inserts that created a new edge.
    pub edges_inserted: usize,
    /// Edge inserts that refreshed an existing edge.
    pub edges_updated: usize,
    /// Edge deletes that removed a live edge.
    pub edges_deleted: usize,
    /// Deletes of absent edges (no-ops).
    pub deletes_missed: usize,
    /// Property updates applied.
    pub props_set: usize,
    /// Batches processed.
    pub batches: usize,
    /// Events emitted by all monitors.
    pub events_emitted: usize,
    /// Malformed updates routed to the dead-letter queue instead of
    /// being applied (out-of-range ids, non-finite weights, property
    /// names too long to log, non-monotonic batch timestamps).
    pub updates_quarantined: usize,
}

/// Why an update was quarantined instead of applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// A vertex id at or beyond the engine's [`StreamEngine::vertex_limit`].
    VertexOutOfRange,
    /// A NaN or infinite edge weight / property value.
    NonFiniteWeight,
    /// The batch timestamp went backwards relative to the last applied
    /// batch.
    NonMonotonicTime,
    /// A property name longer than the write-ahead log can carry whole
    /// (`u16::MAX - 4` bytes; see [`crate::wal::encode_batch`]).
    NameTooLong,
}

/// A quarantined (dead-lettered) update, kept for inspection.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantinedUpdate {
    /// The offending update, verbatim.
    pub update: Update,
    /// Timestamp of the batch it arrived in.
    pub time: Timestamp,
    /// Why it was rejected.
    pub reason: QuarantineReason,
}

/// Dead-letter queue capacity; older entries are dropped first. The
/// `updates_quarantined` counter keeps counting past the cap.
pub const DEAD_LETTER_CAP: usize = 1024;

/// Default [`StreamEngine::vertex_limit`]: ids at or beyond 2^26 are
/// treated as corrupt rather than auto-grown (an accidental 4-billion-id
/// update must not allocate the address space).
pub const DEFAULT_VERTEX_LIMIT: usize = 1 << 26;

/// Applies updates to the persistent graph and fans them out to
/// monitors.
pub struct StreamEngine {
    graph: DynamicGraph,
    props: PropertyStore,
    monitors: Vec<Box<dyn Monitor>>,
    events: Vec<Event>,
    stats: StreamStats,
    dead_letters: VecDeque<QuarantinedUpdate>,
    /// Incremental freeze cache: repeat snapshot requests reuse the
    /// previous CSR's clean rows and rebuild only rows the stream
    /// dirtied since (see [`ga_graph::snapshot`]).
    snapshots: SnapshotCache,
    /// Observability sink: ingest batches and snapshot freezes record
    /// spans here. Disabled (free) by default.
    recorder: ga_obs::Recorder,
    /// Vertex ids at or beyond this bound are quarantined, not grown.
    vertex_limit: usize,
    /// Highest batch timestamp applied so far (0 before any batch).
    last_batch_time: Timestamp,
    /// When true (the default), every edge insert/delete is mirrored in
    /// the reverse direction, maintaining an undirected graph — the
    /// setting the triangle/Jaccard monitors assume.
    pub symmetrize: bool,
}

impl StreamEngine {
    /// Engine over an empty graph of `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self::with_graph(
            DynamicGraph::new(num_vertices),
            PropertyStore::new(num_vertices),
        )
    }

    /// Engine over an existing graph (e.g. a loaded persistent graph).
    pub fn with_graph(graph: DynamicGraph, props: PropertyStore) -> Self {
        StreamEngine {
            graph,
            props,
            monitors: Vec::new(),
            events: Vec::new(),
            stats: StreamStats::default(),
            dead_letters: VecDeque::new(),
            snapshots: SnapshotCache::new(),
            recorder: ga_obs::Recorder::disabled(),
            vertex_limit: DEFAULT_VERTEX_LIMIT,
            last_batch_time: 0,
            symmetrize: true,
        }
    }

    /// Attach a monitor.
    pub fn register(&mut self, m: Box<dyn Monitor>) {
        self.monitors.push(m);
    }

    /// Attach an observability recorder (ingest + snapshot spans).
    pub fn set_recorder(&mut self, recorder: ga_obs::Recorder) {
        self.recorder = recorder;
    }

    /// The live graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The live property store.
    pub fn props(&self) -> &PropertyStore {
        &self.props
    }

    /// Mutable property store access (used by write-back).
    pub fn props_mut(&mut self) -> &mut PropertyStore {
        &mut self.props
    }

    /// A CSR snapshot of the live graph, served through the engine's
    /// [`SnapshotCache`]: unchanged graph → the cached `Arc` back;
    /// changed graph → only dirty rows are rebuilt, clean-row slices
    /// are copied from the previous snapshot. Bit-identical to
    /// `self.graph().snapshot()`.
    pub fn csr_snapshot(&mut self, par: Parallelism) -> Arc<CsrGraph> {
        self.csr_snapshot_stamped(par).0
    }

    /// [`Self::csr_snapshot`] plus the cache's [`SnapshotEpoch`] stamp —
    /// the input to epoch publication (see [`crate::epoch`]).
    pub fn csr_snapshot_stamped(&mut self, par: Parallelism) -> (Arc<CsrGraph>, SnapshotEpoch) {
        let mut span = self.recorder.span(ga_obs::Step::Snapshot);
        let mem_before = self.snapshots.stats().mem_bytes;
        let out = self.snapshots.snapshot_stamped(&self.graph, par);
        span.add_mem_bytes(self.snapshots.stats().mem_bytes - mem_before);
        out
    }

    /// Drain the snapshot-cache counters (the flow engine folds them
    /// into `FlowStats` after each batch run).
    pub fn take_snapshot_stats(&mut self) -> SnapshotStats {
        self.snapshots.take_stats()
    }

    /// Accumulated events (drain with [`Self::take_events`]).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Remove and return all accumulated events.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Overwrite the counters (recovery restores the checkpointed
    /// values so a recovered engine reports uninterrupted totals).
    pub fn set_stats(&mut self, stats: StreamStats) {
        self.stats = stats;
    }

    /// Quarantined updates, oldest first (bounded at [`DEAD_LETTER_CAP`]).
    pub fn dead_letters(&self) -> impl Iterator<Item = &QuarantinedUpdate> {
        self.dead_letters.iter()
    }

    /// The bound above which vertex ids are quarantined.
    pub fn vertex_limit(&self) -> usize {
        self.vertex_limit
    }

    /// Set the quarantine bound for vertex ids.
    pub fn set_vertex_limit(&mut self, limit: usize) {
        self.vertex_limit = limit;
    }

    /// Timestamp of the most recently applied batch.
    pub fn last_batch_time(&self) -> Timestamp {
        self.last_batch_time
    }

    /// Restore the batch-time watermark (recovery only — replayed
    /// batches must face the same monotonicity checks as the original
    /// run).
    pub fn set_last_batch_time(&mut self, t: Timestamp) {
        self.last_batch_time = t;
    }

    /// Apply one batch: every valid update is applied to the graph, then
    /// each monitor observes it; malformed updates are quarantined;
    /// monitors' batch hooks run at the end.
    ///
    /// Returns how many of the batch's updates were quarantined.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> usize {
        self.apply_batch_inner(batch, true)
    }

    /// Apply one batch *without* the monitor fan-out (neither per-update
    /// nor batch-end hooks run, so no events are emitted). The deepest
    /// rung of the degradation ladder short of shedding: the graph stays
    /// current at minimal cost while analytics are suspended. Validation,
    /// quarantine, and all apply counters behave exactly as in
    /// [`Self::apply_batch`].
    pub fn apply_batch_unmonitored(&mut self, batch: &UpdateBatch) -> usize {
        self.apply_batch_inner(batch, false)
    }

    fn apply_batch_inner(&mut self, batch: &UpdateBatch, notify: bool) -> usize {
        // One ingest span per batch (not per update): CPU ≈ one op per
        // update, memory ≈ the touched adjacency entries, network ≈ the
        // wire encoding (~13 bytes/update, cf. `wal::encode_batch`).
        let mut span = self.recorder.span(ga_obs::Step::Ingest);
        if span.is_recording() {
            let n = batch.updates.len() as u64;
            span.add(n, n * std::mem::size_of::<Update>() as u64, 0, 16 + n * 13);
        }
        let before = self.stats.updates_quarantined;
        if batch.time < self.last_batch_time {
            // Time went backwards: the whole batch is suspect.
            for u in &batch.updates {
                self.quarantine(u.clone(), batch.time, QuarantineReason::NonMonotonicTime);
            }
        } else {
            self.last_batch_time = batch.time;
            for u in &batch.updates {
                self.apply_one(u, batch.time, notify);
            }
        }
        if notify {
            let mut out = Vec::new();
            for m in &mut self.monitors {
                m.on_batch_end(&self.graph, batch.time, &mut out);
            }
            self.stats.events_emitted += out.len();
            self.events.extend(out);
        }
        self.stats.batches += 1;
        self.stats.updates_quarantined - before
    }

    /// Remove and return every dead-lettered update, oldest first. The
    /// `updates_quarantined` counter is left untouched — it records
    /// arrivals, not queue occupancy.
    pub fn drain_dead_letters(&mut self) -> Vec<QuarantinedUpdate> {
        self.dead_letters.drain(..).collect()
    }

    fn quarantine(&mut self, update: Update, time: Timestamp, reason: QuarantineReason) {
        self.stats.updates_quarantined += 1;
        if self.dead_letters.len() == DEAD_LETTER_CAP {
            self.dead_letters.pop_front();
        }
        self.dead_letters.push_back(QuarantinedUpdate {
            update,
            time,
            reason,
        });
    }

    /// `Some(reason)` if `u` must not touch the graph.
    fn validate(&self, u: &Update) -> Option<QuarantineReason> {
        let limit = self.vertex_limit as u64;
        match u {
            Update::EdgeInsert { src, dst, weight } => {
                if (*src as u64) >= limit || (*dst as u64) >= limit {
                    Some(QuarantineReason::VertexOutOfRange)
                } else if !weight.is_finite() {
                    Some(QuarantineReason::NonFiniteWeight)
                } else {
                    None
                }
            }
            Update::EdgeDelete { src, dst } => {
                if (*src as u64) >= limit || (*dst as u64) >= limit {
                    Some(QuarantineReason::VertexOutOfRange)
                } else {
                    None
                }
            }
            Update::PropertySet {
                vertex,
                name,
                value,
            } => {
                if (*vertex as u64) >= limit {
                    Some(QuarantineReason::VertexOutOfRange)
                } else if !value.is_finite() {
                    Some(QuarantineReason::NonFiniteWeight)
                } else if name.len() > crate::wal::MAX_NAME_BYTES {
                    Some(QuarantineReason::NameTooLong)
                } else {
                    None
                }
            }
        }
    }

    fn ensure_capacity(&mut self, v: VertexId) {
        if (v as usize) >= self.graph.num_vertices() {
            let need = v as usize + 1 - self.graph.num_vertices();
            self.graph.add_vertices(need);
            self.props.grow(v as usize + 1);
        }
    }

    fn apply_one(&mut self, u: &Update, time: Timestamp, notify: bool) {
        if let Some(reason) = self.validate(u) {
            self.quarantine(u.clone(), time, reason);
            return;
        }
        let result = match u {
            &Update::EdgeInsert { src, dst, weight } => {
                self.ensure_capacity(src.max(dst));
                let r = self.graph.insert_edge(src, dst, weight, time);
                if self.symmetrize {
                    self.graph.insert_edge(dst, src, weight, time);
                }
                match r {
                    ApplyResult::Inserted => self.stats.edges_inserted += 1,
                    ApplyResult::Updated => self.stats.edges_updated += 1,
                    _ => {}
                }
                r
            }
            &Update::EdgeDelete { src, dst } => {
                if (src as usize) >= self.graph.num_vertices()
                    || (dst as usize) >= self.graph.num_vertices()
                {
                    self.stats.deletes_missed += 1;
                    return;
                }
                let r = self.graph.delete_edge(src, dst, time);
                if self.symmetrize {
                    self.graph.delete_edge(dst, src, time);
                }
                match r {
                    ApplyResult::Deleted => self.stats.edges_deleted += 1,
                    ApplyResult::Missing => self.stats.deletes_missed += 1,
                    _ => {}
                }
                r
            }
            Update::PropertySet {
                vertex,
                name,
                value,
            } => {
                self.ensure_capacity(*vertex);
                self.props.set(name, *vertex, *value);
                self.stats.props_set += 1;
                ApplyResult::Updated
            }
        };
        if notify {
            let mut out = Vec::new();
            for m in &mut self.monitors {
                m.on_update(&self.graph, u, result, time, &mut out);
            }
            self.stats.events_emitted += out.len();
            self.events.extend(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
    use crate::update::into_batches;

    /// Counts edge events — a trivial monitor for engine plumbing tests.
    struct CountingMonitor {
        seen: usize,
    }

    impl Monitor for CountingMonitor {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn on_update(
            &mut self,
            g: &DynamicGraph,
            _u: &Update,
            _r: ApplyResult,
            time: Timestamp,
            out: &mut Vec<Event>,
        ) {
            self.seen += 1;
            out.push(Event {
                time,
                source: "counting",
                kind: EventKind::GlobalValue {
                    metric: "live_edges",
                    value: g.num_live_edges() as f64,
                },
            });
        }
    }

    #[test]
    fn applies_and_notifies() {
        let mut e = StreamEngine::new(4);
        e.register(Box::new(CountingMonitor { seen: 0 }));
        let ups = vec![
            Update::EdgeInsert {
                src: 0,
                dst: 1,
                weight: 1.0,
            },
            Update::EdgeInsert {
                src: 1,
                dst: 2,
                weight: 1.0,
            },
            Update::EdgeDelete { src: 0, dst: 1 },
        ];
        for b in into_batches(ups, 2, 0) {
            e.apply_batch(&b);
        }
        assert_eq!(e.stats().edges_inserted, 2);
        assert_eq!(e.stats().edges_deleted, 1);
        assert_eq!(e.stats().batches, 2);
        assert_eq!(e.events().len(), 3);
        // Symmetrized: live edges after = 1 logical edge * 2 directions.
        assert_eq!(e.graph().num_live_edges(), 2);
        assert!(e.graph().has_edge(2, 1));
    }

    #[test]
    fn grows_vertex_space_on_demand() {
        let mut e = StreamEngine::new(2);
        e.apply_batch(&UpdateBatch {
            time: 5,
            updates: vec![Update::EdgeInsert {
                src: 0,
                dst: 9,
                weight: 1.0,
            }],
        });
        assert_eq!(e.graph().num_vertices(), 10);
        assert!(e.graph().has_edge(0, 9));
        assert_eq!(e.props().num_vertices(), 10);
    }

    #[test]
    fn property_updates_land() {
        let mut e = StreamEngine::new(3);
        e.apply_batch(&UpdateBatch {
            time: 1,
            updates: vec![Update::PropertySet {
                vertex: 2,
                name: "score".into(),
                value: 7.5,
            }],
        });
        assert_eq!(e.props().get_f64("score", 2), Some(7.5));
        assert_eq!(e.stats().props_set, 1);
    }

    #[test]
    fn missing_delete_counted() {
        let mut e = StreamEngine::new(3);
        e.apply_batch(&UpdateBatch {
            time: 1,
            updates: vec![Update::EdgeDelete { src: 0, dst: 1 }],
        });
        assert_eq!(e.stats().deletes_missed, 1);
        assert_eq!(e.stats().edges_deleted, 0);
    }

    #[test]
    fn directed_mode() {
        let mut e = StreamEngine::new(3);
        e.symmetrize = false;
        e.apply_batch(&UpdateBatch {
            time: 1,
            updates: vec![Update::EdgeInsert {
                src: 0,
                dst: 1,
                weight: 1.0,
            }],
        });
        assert!(e.graph().has_edge(0, 1));
        assert!(!e.graph().has_edge(1, 0));
    }

    #[test]
    fn poisoned_updates_are_quarantined_not_applied() {
        let mut e = StreamEngine::new(4);
        e.set_vertex_limit(100);
        let quarantined = e.apply_batch(&UpdateBatch {
            time: 1,
            updates: vec![
                Update::EdgeInsert {
                    src: 0,
                    dst: 1,
                    weight: 1.0,
                },
                Update::EdgeInsert {
                    src: 0,
                    dst: 5000, // beyond vertex_limit
                    weight: 1.0,
                },
                Update::EdgeInsert {
                    src: 1,
                    dst: 2,
                    weight: f32::NAN,
                },
                Update::PropertySet {
                    vertex: 0,
                    name: "x".into(),
                    value: f64::INFINITY,
                },
                Update::EdgeDelete { src: 7000, dst: 0 },
            ],
        });
        assert_eq!(quarantined, 4);
        assert_eq!(e.stats().updates_quarantined, 4);
        assert_eq!(e.stats().edges_inserted, 1);
        assert_eq!(e.graph().num_vertices(), 4); // no growth from bad ids
        let reasons: Vec<_> = e.dead_letters().map(|d| d.reason).collect();
        assert_eq!(
            reasons,
            [
                QuarantineReason::VertexOutOfRange,
                QuarantineReason::NonFiniteWeight,
                QuarantineReason::NonFiniteWeight,
                QuarantineReason::VertexOutOfRange,
            ]
        );
    }

    #[test]
    fn time_regression_quarantines_whole_batch() {
        let mut e = StreamEngine::new(3);
        e.apply_batch(&UpdateBatch {
            time: 10,
            updates: vec![Update::EdgeInsert {
                src: 0,
                dst: 1,
                weight: 1.0,
            }],
        });
        let q = e.apply_batch(&UpdateBatch {
            time: 9, // older than the watermark
            updates: vec![Update::EdgeInsert {
                src: 1,
                dst: 2,
                weight: 1.0,
            }],
        });
        assert_eq!(q, 1);
        assert!(!e.graph().has_edge(1, 2));
        assert_eq!(
            e.dead_letters().next().unwrap().reason,
            QuarantineReason::NonMonotonicTime
        );
        // Equal timestamps are fine (several batches may share a tick).
        assert_eq!(
            e.apply_batch(&UpdateBatch {
                time: 10,
                updates: vec![Update::EdgeInsert {
                    src: 1,
                    dst: 2,
                    weight: 1.0,
                }],
            }),
            0
        );
        assert_eq!(e.last_batch_time(), 10);
    }

    #[test]
    fn dead_letter_queue_is_bounded() {
        let mut e = StreamEngine::new(2);
        e.set_vertex_limit(1);
        for t in 0..(DEAD_LETTER_CAP + 10) {
            e.apply_batch(&UpdateBatch {
                time: t as Timestamp,
                updates: vec![Update::EdgeDelete { src: 9, dst: 9 }],
            });
        }
        assert_eq!(e.dead_letters().count(), DEAD_LETTER_CAP);
        assert_eq!(e.stats().updates_quarantined, DEAD_LETTER_CAP + 10);
        // Oldest entries were dropped.
        assert_eq!(e.dead_letters().next().unwrap().time, 10);
    }

    #[test]
    fn unmonitored_apply_skips_fanout_but_keeps_counters() {
        let mut e = StreamEngine::new(4);
        e.register(Box::new(CountingMonitor { seen: 0 }));
        e.apply_batch_unmonitored(&UpdateBatch {
            time: 1,
            updates: vec![
                Update::EdgeInsert {
                    src: 0,
                    dst: 1,
                    weight: 1.0,
                },
                Update::EdgeInsert {
                    src: 1,
                    dst: 2,
                    weight: f32::NAN, // still validated + quarantined
                },
            ],
        });
        assert!(e.events().is_empty());
        assert_eq!(e.stats().events_emitted, 0);
        assert_eq!(e.stats().edges_inserted, 1);
        assert_eq!(e.stats().updates_quarantined, 1);
        assert_eq!(e.stats().batches, 1);
        assert!(e.graph().has_edge(0, 1));
        // Monitored apply afterwards still fans out.
        e.apply_batch(&UpdateBatch {
            time: 2,
            updates: vec![Update::EdgeInsert {
                src: 2,
                dst: 3,
                weight: 1.0,
            }],
        });
        assert_eq!(e.events().len(), 1);
    }

    fn replay_batch(e: &StreamEngine, letters: Vec<QuarantinedUpdate>) -> UpdateBatch {
        UpdateBatch {
            time: e.last_batch_time(),
            updates: letters.into_iter().map(|l| l.update).collect(),
        }
    }

    #[test]
    fn dead_letters_drain_and_replay_after_fix() {
        let mut e = StreamEngine::new(4);
        e.set_vertex_limit(10);
        e.apply_batch(&UpdateBatch {
            time: 5,
            updates: vec![
                Update::EdgeInsert {
                    src: 0,
                    dst: 50, // beyond the (too-low) limit
                    weight: 1.0,
                },
                Update::EdgeInsert {
                    src: 1,
                    dst: 2,
                    weight: f32::NAN, // unfixable
                },
            ],
        });
        assert_eq!(e.stats().updates_quarantined, 2);
        let letters = e.drain_dead_letters();
        assert_eq!(letters.len(), 2);
        assert_eq!(e.dead_letters().count(), 0);
        // Operator fixes the cause, then replays the letters as a
        // batch at the watermark (what `FlowEngine::replay_dead_letters`
        // does, after logging it).
        e.set_vertex_limit(100);
        let requarantined = e.apply_batch(&replay_batch(&e, letters));
        assert_eq!(requarantined, 1);
        assert!(e.graph().has_edge(0, 50));
        // The NaN update is back in the dead-letter queue.
        assert_eq!(e.dead_letters().count(), 1);
        assert_eq!(
            e.dead_letters().next().unwrap().reason,
            QuarantineReason::NonFiniteWeight
        );
        assert_eq!(e.stats().updates_quarantined, 3);
    }

    #[test]
    fn replay_readmits_nonmonotonic_updates_at_watermark() {
        let mut e = StreamEngine::new(4);
        e.apply_batch(&UpdateBatch {
            time: 10,
            updates: vec![Update::EdgeInsert {
                src: 0,
                dst: 1,
                weight: 1.0,
            }],
        });
        // Stale batch: whole thing dead-lettered.
        e.apply_batch(&UpdateBatch {
            time: 3,
            updates: vec![Update::EdgeInsert {
                src: 1,
                dst: 2,
                weight: 1.0,
            }],
        });
        let letters = e.drain_dead_letters();
        let requarantined = e.apply_batch(&replay_batch(&e, letters));
        assert_eq!(requarantined, 0);
        assert!(e.graph().has_edge(1, 2));
        assert_eq!(e.last_batch_time(), 10);
    }

    #[test]
    fn take_events_drains() {
        let mut e = StreamEngine::new(2);
        e.register(Box::new(CountingMonitor { seen: 0 }));
        e.apply_batch(&UpdateBatch {
            time: 0,
            updates: vec![Update::EdgeInsert {
                src: 0,
                dst: 1,
                weight: 1.0,
            }],
        });
        assert_eq!(e.take_events().len(), 1);
        assert!(e.events().is_empty());
        assert_eq!(e.stats().events_emitted, 1);
    }

    #[test]
    fn csr_snapshot_is_cached_and_tracks_updates() {
        let mut e = StreamEngine::new(4);
        e.apply_batch(&UpdateBatch {
            time: 1,
            updates: vec![Update::EdgeInsert {
                src: 0,
                dst: 1,
                weight: 1.0,
            }],
        });
        let a = e.csr_snapshot(Parallelism::Serial);
        let b = e.csr_snapshot(Parallelism::Serial);
        assert!(Arc::ptr_eq(&a, &b), "unchanged graph must hit the cache");
        assert_eq!(e.take_snapshot_stats().cache_hits, 1);
        // A new update invalidates; the next snapshot is a delta rebuild.
        e.apply_batch(&UpdateBatch {
            time: 2,
            updates: vec![Update::EdgeInsert {
                src: 2,
                dst: 3,
                weight: 1.0,
            }],
        });
        let c = e.csr_snapshot(Parallelism::Serial);
        assert!(c.has_edge(2, 3) && c.has_edge(3, 2));
        assert_eq!(e.take_snapshot_stats().delta_rebuilds, 1);
        // Bit-identical to the direct freeze.
        let direct = e.graph().snapshot();
        assert_eq!(c.raw_offsets(), direct.raw_offsets());
        assert_eq!(c.raw_targets(), direct.raw_targets());
        // Drain resets.
        assert_eq!(e.take_snapshot_stats(), SnapshotStats::default());
    }
}
