//! # graph-analytics — facade crate
//!
//! A from-scratch Rust reproduction of Peter M. Kogge's *"Graph
//! Analytics: Complexity, Scalability, and Architectures"* (IPDPS
//! Workshops, 2017). This crate re-exports the whole workspace:
//!
//! * [`graph`] — CSR + dynamic property-graph substrate, generators,
//!   checkpoint codecs.
//! * [`kernels`] — batch kernels for every row of the paper's Fig. 1.
//! * [`stream`] — streaming engine, incremental kernels, event sinks,
//!   WAL, admission and the query surface.
//! * [`linalg`] — GraphBLAS-style sparse linear algebra and
//!   matrix-language graph algorithms (Kepner–Gilbert).
//! * [`archsim`] — behavioural simulators for the paper's two emerging
//!   architectures: the sparse pipeline processor (Fig. 4) and the Emu
//!   migrating-thread machine (Fig. 5).
//! * [`core`] — the paper's contribution itself: the Fig. 1 taxonomy,
//!   the Fig. 2 canonical batch+streaming processing flow with
//!   instrumentation, the NORA application, the four-resource
//!   performance model behind Figs. 3 and 6, and the sharded
//!   multi-engine scale-out layer (§V made measurable).
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every figure.

#![warn(missing_docs)]

pub use ga_archsim as archsim;
pub use ga_core as core;
pub use ga_graph as graph;
pub use ga_kernels as kernels;
pub use ga_linalg as linalg;
pub use ga_obs as obs;
pub use ga_stream as stream;

/// The one-true-path import for applications built on this workspace.
///
/// Re-exports the types a Fig. 2-style deployment touches: the flow
/// engine and its builder ([`core::flow::FlowEngine`],
/// [`core::flow::FlowConfig`]), the graph substrate, the streaming
/// front door, the batch kernel entry points, and the `ga-obs`
/// observability surface ([`obs::Recorder`], [`obs::MetricsSnapshot`]).
///
/// ```
/// use graph_analytics::prelude::*;
///
/// let mut flow = FlowEngine::builder()
///     .recorder(Recorder::enabled())
///     .build(1 << 8)
///     .unwrap();
/// let idx = flow.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
/// let _report = flow.run_batch(&SelectionCriteria::TopKDegree { k: 2 }, idx);
/// assert!(flow.metrics().steps_covered() > 0);
/// ```
pub mod prelude {
    pub use ga_core::faults::{FaultPlan, MATRIX_SIZE};
    pub use ga_core::flow::{
        BatchRunReport, ComponentsAnalytic, DegradationLevel, FlowConfig, FlowEngine, FlowStats,
        OverloadConfig, PageRankAnalytic, SelectionCriteria, TriangleAnalytic,
    };
    pub use ga_core::retry::RetryPolicy;
    pub use ga_core::serve::{
        ClassServeStats, QueryClient, QueryOutcome, QueryService, ServeConfig, ServeShed,
        ServeStats, Tenant, TenantConfig,
    };
    pub use ga_core::sharded::{
        CrossShardTraffic, HealthEvent, RebuildReport, RebuildSource, RouteError, ShardHealth,
        ShardSupervisor, ShardedConfig, ShardedFlow, ShardedQueryRouter, ShardedRun,
        DEFAULT_SUSPECT_STRIKES,
    };
    pub use ga_graph::{
        CsrBuilder, CsrGraph, DynamicGraph, ExtractOptions, Parallelism, PropValue, PropertyStore,
        SegmentStore, SnapshotEpoch, Subgraph, TierConfig, TierStats, TieredCsr, VertexId,
    };
    pub use ga_kernels::{bfs, cc, pagerank, sssp, triangles};
    pub use ga_kernels::{Budget, Completion, KernelCtx};
    pub use ga_obs::{MetricsSnapshot, Recorder, Step};
    pub use ga_stream::update::{into_batches, rmat_edge_stream, uniform_edge_stream, UpdateBatch};
    pub use ga_stream::{
        AdmissionConfig, EpochSnapshot, Event, EventKind, Monitor, Priority, Query, QueryResponse,
        ShardPlan, SnapshotHandle, SnapshotReader, StreamEngine, Update,
    };
}
