//! # ga-stream — streaming graph analytics
//!
//! The "S" column of the paper's Fig. 1. The paper distinguishes two
//! streaming forms (§II):
//!
//! 1. **incremental targeted graph updates** — "an incoming stream of
//!    edges and/or vertices that are incrementally added to or deleted
//!    from a large graph", and
//! 2. **a stream of independent local queries** — "for each stream input
//!    a specification of some vertex to search for, and an operation to
//!    perform to some property(ies) of that vertex".
//!
//! Both may trigger staged computation: "first is the basic operation;
//! next is a test of some sort that, if passed, may trigger larger
//! computations."
//!
//! This crate implements that machinery:
//!
//! * [`update`] — the update/query stream types and deterministic stream
//!   generators (R-MAT edge streams, Firehose-style packet streams).
//! * [`engine`] — [`engine::StreamEngine`]: applies updates to a
//!   [`ga_graph::DynamicGraph`], drives registered incremental
//!   [`engine::Monitor`]s, and collects [`events::Event`]s.
//! * [`events`] — typed events with the O(1) / O(|V|) / top-k output
//!   categories of Fig. 1's output columns.
//! * [`cc_inc`] — incremental weakly connected components.
//! * [`tri_inc`] — incremental global/per-edge triangle counting.
//! * [`pr_inc`] — warm-start incremental PageRank.
//! * [`jaccard_stream`] — both streaming Jaccard forms: edge-update
//!   threshold monitoring and the low-latency per-vertex query engine
//!   (the "10s of microseconds" workload of §V-B).
//! * [`epoch`] — epoch-based snapshot handoff: the ingest thread
//!   publishes frozen CSR + property generations to a
//!   [`epoch::SnapshotHandle`] that unbounded reader threads load
//!   wait-free.
//! * [`queries`] — the unified [`queries::Query`] surface: point reads,
//!   k-hop, filtered traversal, shortest path, similarity, and top-k,
//!   each a pure function of one published [`epoch::EpochSnapshot`].
//! * [`bc_topk`] — top-n betweenness membership tracking (the "does the
//!   update change the top-n" question of §II).
//! * [`correlate`] — geo & temporal correlation (the VAST-style last
//!   row of Fig. 1), batch and streaming forms.
//! * [`window`] — temporal sliding-window views and the streaming
//!   "Search for Largest" (top-k degree) tracker.
//! * [`firehose`] — the three Firehose anomaly detectors: fixed key,
//!   unbounded key, two-level key.
//! * [`wal`] — CRC32-framed write-ahead log making the update stream
//!   durable (torn-tail-tolerant replay for crash recovery).
//! * [`admission`] — bounded, priority-classed admission queue: the
//!   overload front door that sheds bulk traffic first and never grows
//!   past its configured capacity.
//! * [`sharded`] — hash-partitioned update routing across N shard-local
//!   engines with ghost (halo) edges, the stream half of the sharded
//!   scale-out architecture (the flow-level driver lives in `ga-core`).

#![warn(missing_docs)]

pub mod admission;
pub mod bc_topk;
pub mod cc_inc;
pub mod correlate;
pub mod engine;
pub mod epoch;
pub mod events;
pub mod firehose;
pub mod jaccard_stream;
pub mod pr_inc;
pub mod queries;
pub mod sharded;
pub mod tri_inc;
pub mod update;
pub mod wal;
pub mod window;

pub use admission::{Admissible, AdmissionConfig, AdmissionDecision, AdmissionQueue, Priority};
pub use engine::{Monitor, StreamEngine};
pub use epoch::{EpochSnapshot, SnapshotHandle, SnapshotReader};
pub use events::{Event, EventKind};
pub use queries::{Query, QueryResponse};
pub use sharded::ShardPlan;
pub use update::Update;
