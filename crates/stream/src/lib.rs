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
//! | module | what it holds | what runs it |
//! |---|---|---|
//! | [`update`] | update/query stream types and deterministic generators (R-MAT and uniform edge streams) | every front |
//! | [`engine`] | [`engine::StreamEngine`]: applies updates to a [`ga_graph::DynamicGraph`], drives registered [`engine::Monitor`]s, collects [`events::Event`]s | `ga_core::flow` |
//! | [`events`] | typed event payloads | every monitor, the flow's overload ladder |
//! | [`tri_inc`] | [`tri_inc::IncrementalTriangles`]: global and per-vertex triangle counts (streaming GTC) | `fig2_flow` |
//! | [`jaccard_stream`] | [`jaccard_stream::JaccardMonitor`] (update-driven threshold pairs) on `ga_kernels::jaccard::two_hop` over the live rows, the per-vertex query E7 times (§V-B's "10s of microseconds") | `FlowEngine` triggers, `fig2_flow`, `calibrated_model`, `bench_obs` |
//! | [`epoch`] | epoch-based snapshot handoff: the ingest thread publishes frozen CSR + property generations that reader threads load wait-free | `ga_core::serve` |
//! | [`queries`] | the unified [`queries::Query`] surface: point reads, k-hop, filtered traversal, shortest path, similarity, top-k, each a pure function of one [`epoch::EpochSnapshot`] | `ga_core::serve` |
//! | [`wal`] | CRC32-framed write-ahead log with torn-tail-tolerant replay | durable fronts |
//! | [`admission`] | bounded, priority-classed admission queue that sheds bulk traffic first | `FlowEngine::offer` |
//! | [`sharded`] | hash-partitioned update routing across shard-local engines with ghost edges (the flow-level driver lives in `ga-core`) | `ga_core::sharded` |
//!
//! A monitor stays in this crate only if something runs it and a test
//! checks it against its batch kernel after every batch of a random
//! stream with deletes (`triangles` for [`tri_inc`], `jaccard` for
//! [`jaccard_stream`]). Fig. 1's streaming marks whose incremental form
//! nothing runs (components, PageRank, betweenness top-n, geo & temporal
//! correlation) live in the rows of `ga_core::taxonomy`, not in code, and
//! so do the three Firehose anomaly rows: their detectors read key/bit
//! packets, not graph updates, so no engine path would run them.

#![warn(missing_docs)]

pub mod admission;
pub mod engine;
pub mod epoch;
pub mod events;
pub mod jaccard_stream;
pub mod queries;
pub mod sharded;
pub mod tri_inc;
pub mod update;
pub mod wal;

pub use admission::{AdmissionConfig, AdmissionDecision, AdmissionQueue, Priority};
pub use engine::{Monitor, StreamEngine};
pub use epoch::{EpochSnapshot, SnapshotHandle, SnapshotReader};
pub use events::{Event, EventKind};
pub use queries::{Query, QueryResponse};
pub use sharded::ShardPlan;
pub use update::Update;
