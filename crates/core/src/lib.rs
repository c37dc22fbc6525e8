//! # ga-core — the paper's primary contribution
//!
//! Four pieces, one per headline artifact of Kogge's *"Graph Analytics:
//! Complexity, Scalability, and Architectures"* (IPDPSW 2017):
//!
//! * [`taxonomy`] — **Fig. 1**: the machine-readable registry of graph
//!   kernels × kernel classes × benchmark suites × output classes, with
//!   batch/streaming annotations, rendered as the paper's table and
//!   cross-linked to the implementing modules in this workspace.
//! * [`flow`] — **Fig. 2**: the canonical batch + streaming processing
//!   flow — persistent property graph, dedup ingest, selection criteria,
//!   seeds, subgraph extraction with projection, batch analytics,
//!   property write-back, alerts, and streaming triggers — with the
//!   explicit instrumentation the paper's conclusion calls for ("a
//!   reference implementation, with explicit instrumentation, of a
//!   combined benchmark").
//! * [`calibrate`] — the conclusion's proposal: turn the flow engine's
//!   measured `FlowStats` into a demand table the model can price.
//! * [`durability`] + [`faults`] — crash-consistency for the flow
//!   engine: write-ahead logging, CRC-checked checkpoints, recovery
//!   with torn-tail tolerance, and the deterministic fault-injection
//!   matrix the crash-recovery suite drives.
//! * [`dedup`] + [`nora`] — the motivating application (§III–IV): a
//!   synthetic stand-in for the LexisNexis insurance NORA pipeline —
//!   record dedup/linkage, the person–address graph, the "shared an
//!   address 2+ times, especially with a shared last name" relationship
//!   search, batch ("weekly boil") and streaming (live quote) forms.
//! * [`serve`] — the concurrent query-serving front end: classed,
//!   quota'd [`serve::QueryClient`]s run [`ga_stream::Query`]s against
//!   the epoch snapshots the flow engine publishes, with per-class
//!   latency digests (the §V-B "tens of microseconds" point-query
//!   workload, made concurrent).
//! * [`sharded`] — scale-out: the property graph hash-partitioned
//!   across N shard-local flow engines with ghost (halo) edges, batch
//!   analytics that run the one engine per kernel on the merged graph
//!   (bit-identical for any shard count), shard-local recovery,
//!   replica failover, and a cross-shard traffic model priced from the
//!   partition (the §V network-bound scale-out argument, made
//!   testable).
//! * [`model`] — **Figs. 3 & 6**: the four-resource (CPU, memory, disk,
//!   network) parameterized performance model of the 9-step NORA
//!   pipeline, with the paper's system configurations (2012 baseline,
//!   per-resource upgrades, Lightweight, X-Caliber two-level memory,
//!   3D-stack-only, Emu 1/2/3) and bounding-resource evaluation.

#![warn(missing_docs)]

pub mod calibrate;
pub mod dedup;
pub mod durability;
pub mod faults;
pub mod flow;
pub mod model;
pub mod nora;
pub use ga_graph::retry;
pub mod serve;
pub mod sharded;
pub mod taxonomy;
