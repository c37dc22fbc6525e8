//! The traced run's shadow pipeline.
//!
//! `FlowEngine` keeps its layers private, so the time inside one
//! `offer`/`pump` cannot be split from outside. The traced run therefore
//! replays the same inputs through this pipeline, which calls the layers'
//! public functions in `FlowEngine::pump`'s order with a span around
//! each. It does the layers' work but none of the engine's orchestration
//! (stats, degradation ladder, overload events): the difference between
//! the engine's untraced time and the sum of these spans is what the
//! report calls `unattributed_fraction`.
//!
//! Span names: `batch` (root, one per operation) > `admission`, `wal`,
//! `apply`, `freeze`, `publish` > `props_clone`; `checkpoint`.

use crate::trace::Tracer;
use ga_core::durability::{Checkpoint, Durability};
use ga_core::flow::FlowStats;
use ga_graph::{DynamicGraph, Parallelism, PropertyStore, SnapshotEpoch};
use ga_stream::admission::{AdmissionConfig, AdmissionQueue, Priority};
use ga_stream::epoch::{EpochSnapshot, SnapshotHandle};
use ga_stream::update::UpdateBatch;
use ga_stream::StreamEngine;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Product default, as `FlowEngine` uses it.
pub const PAR: Parallelism = Parallelism::Auto;

pub struct Shadow {
    admission: AdmissionQueue,
    durability: Option<Durability>,
    pub stream: StreamEngine,
    /// `Some` once serving: every ingested batch is frozen and published.
    handle: Option<SnapshotHandle>,
    /// Frozen property columns keyed by `PropertyStore::version`, and the
    /// last published pair, exactly as `FlowEngine::publish_epoch` keeps.
    frozen_props: Option<(u64, Arc<PropertyStore>)>,
    last_published: Option<(SnapshotEpoch, u64)>,
}

impl Shadow {
    /// A pipeline over `graph`/`props`; durable when `dir` is given (the
    /// initial checkpoint is written here, as `FlowConfig::build` does).
    pub fn new(graph: DynamicGraph, props: PropertyStore, dir: Option<&Path>) -> io::Result<Self> {
        let mut shadow = Shadow {
            admission: AdmissionQueue::new(AdmissionConfig::default()),
            durability: None,
            stream: StreamEngine::with_graph(graph, props),
            handle: None,
            frozen_props: None,
            last_published: None,
        };
        if let Some(dir) = dir {
            let initial = shadow.checkpoint_image(1);
            shadow.durability = Some(Durability::create(dir, &initial)?);
        }
        Ok(shadow)
    }

    fn checkpoint_image(&self, next_wal_seq: u64) -> Checkpoint {
        Checkpoint {
            graph: self.stream.graph().clone(),
            props: self.stream.props().clone(),
            flow: FlowStats::default(),
            stream: self.stream.stats(),
            symmetrize: self.stream.symmetrize,
            vertex_limit: self.stream.vertex_limit() as u64,
            last_batch_time: self.stream.last_batch_time(),
            next_wal_seq,
        }
    }

    /// Start serving: publish the current state, return the reader slot.
    pub fn serve_handle(&mut self, tr: &mut Tracer, op: u64) -> SnapshotHandle {
        let handle = self.handle.get_or_insert_with(SnapshotHandle::new).clone();
        self.publish(tr, op);
        handle
    }

    /// `offer(Normal)` then `pump(1)`: admission, WAL append, apply,
    /// freeze, publish. Returns `false` when admission shed the batch.
    pub fn ingest(&mut self, tr: &mut Tracer, op: u64, batch: UpdateBatch) -> io::Result<bool> {
        let root = tr.begin("batch", op);
        let span = tr.begin("admission", op);
        let admitted = self.admission.offer(Priority::Normal, batch).admitted();
        let popped = self.admission.pop();
        tr.end(span);
        if let (true, Some((_, batch))) = (admitted, popped) {
            if let Some(d) = self.durability.as_mut() {
                let span = tr.begin("wal", op);
                d.append(&batch)?;
                tr.end(span);
            }
            self.apply(tr, op, &batch);
            self.publish(tr, op);
        }
        tr.end(root);
        Ok(admitted)
    }

    /// `StreamEngine::apply_batch` plus the event drain `process_stream`
    /// does; returns the number of quarantined updates.
    pub fn apply(&mut self, tr: &mut Tracer, op: u64, batch: &UpdateBatch) -> usize {
        let span = tr.begin("apply", op);
        let quarantined = self.stream.apply_batch(batch);
        self.stream.take_events();
        tr.end(span);
        quarantined
    }

    /// `FlowEngine::publish_epoch`: freeze, clone the property columns if
    /// they moved, install the generation. A no-op unless serving.
    pub fn publish(&mut self, tr: &mut Tracer, op: u64) {
        let Some(handle) = self.handle.clone() else {
            return;
        };
        let span = tr.begin("freeze", op);
        let (csr, stamp) = self.stream.csr_snapshot_stamped(PAR);
        tr.end(span);
        let props_version = self.stream.props().version();
        if self.last_published == Some((stamp, props_version)) {
            return;
        }
        let span = tr.begin("publish", op);
        let props = match &self.frozen_props {
            Some((v, arc)) if *v == props_version => Arc::clone(arc),
            _ => {
                let clone = tr.begin("props_clone", op);
                let arc = Arc::new(self.stream.props().clone());
                tr.end(clone);
                self.frozen_props = Some((props_version, Arc::clone(&arc)));
                arc
            }
        };
        handle.publish(EpochSnapshot {
            stamp,
            props_version,
            time: self.stream.last_batch_time(),
            csr,
            compressed: None,
            props,
        });
        tr.end(span);
        self.last_published = Some((stamp, props_version));
    }

    /// `FlowEngine::checkpoint`: image the state, write it, rotate the
    /// WAL. Returns the checkpoint file's size in bytes.
    pub fn checkpoint(&mut self, tr: &mut Tracer, op: u64) -> io::Result<u64> {
        let span = tr.begin("checkpoint", op);
        let seq = self
            .durability
            .as_ref()
            .expect("checkpoint needs a durable shadow")
            .next_wal_seq();
        let image = self.checkpoint_image(seq);
        let path = self.durability.as_mut().unwrap().checkpoint(&image)?;
        tr.end(span);
        Ok(std::fs::metadata(path)?.len())
    }
}
