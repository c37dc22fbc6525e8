//! Concurrent query-serving front end over published epoch snapshots.
//!
//! The paper's second streaming form (§II) is "a stream of independent
//! local queries ... for each stream input a specification of some
//! vertex to search for, and an operation to perform to some
//! property(ies) of that vertex", with §V-B putting the latency target
//! at tens of microseconds per point query. This module is that front
//! end: reader threads run [`ga_stream::Query`]s against the frozen
//! [`ga_stream::EpochSnapshot`] generations a [`crate::flow::FlowEngine`]
//! publishes (see [`crate::flow::FlowEngine::serve_handle`]), while the
//! ingest thread keeps pumping and republishing underneath them.
//!
//! Admission reuses the class semantics of [`ga_stream::admission`],
//! recast from queue depth to *concurrent queries in flight*:
//!
//! * **Bulk** scans run only while total in-flight load is below
//!   `bulk_watermark` — the first traffic refused under load.
//! * **Normal** queries are admitted below `normal_watermark`.
//! * **High** point reads are admitted all the way to `capacity`, so
//!   the `capacity - normal_watermark` gap is reserved headroom no
//!   amount of Bulk/Normal traffic can occupy: Bulk scans cannot starve
//!   High point reads. The soak test in `tests/serve_queries.rs` pins
//!   "zero High-class shed under firehose + Bulk pressure".
//!
//! Per-tenant [`TenantConfig::quota`]s bound any single tenant inside
//! its class. Latency lands in one lock-free [`Log2Histogram`] per
//! class ([`ServeStats`] reports p50/p99/p999 per class via
//! [`ga_obs::QuantileSummary`]).

use ga_graph::SnapshotEpoch;
use ga_obs::{Log2Histogram, QuantileSummary};
use ga_stream::admission::{AdmissionConfig, Priority};
use ga_stream::epoch::SnapshotReader;
use ga_stream::{Query, QueryResponse, SnapshotHandle};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Concurrency watermarks for the serving front door. Same shape and
/// ordering rule as ingest admission ([`AdmissionConfig`]), but counted
/// in *concurrent in-flight queries* instead of queued updates.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// In-flight watermarks: Bulk admitted below `bulk_watermark`,
    /// Normal below `normal_watermark`, High to full `capacity`.
    pub admission: AdmissionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            admission: AdmissionConfig {
                capacity: 64,
                normal_watermark: 48,
                bulk_watermark: 32,
            },
        }
    }
}

/// One tenant of the serving front end: a name for reporting, the
/// admission class its queries run under, and an optional cap on its
/// own concurrent queries (inside whatever its class allows).
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Tenant name (stats and reports).
    pub name: String,
    /// Admission class for every query this tenant runs.
    pub class: Priority,
    /// Max concurrent in-flight queries for this tenant alone
    /// (`None` = bounded only by the class watermark).
    pub quota: Option<usize>,
}

impl TenantConfig {
    /// A tenant with no per-tenant quota.
    pub fn new(name: impl Into<String>, class: Priority) -> Self {
        TenantConfig {
            name: name.into(),
            class,
            quota: None,
        }
    }

    /// Cap this tenant at `quota` concurrent queries.
    pub fn quota(mut self, quota: usize) -> Self {
        self.quota = Some(quota);
        self
    }
}

/// Shared serving state: the in-flight gauge the watermarks gate on,
/// plus per-class outcome counters and latency histograms. Everything
/// is atomic — recording is lock-free on the query path.
#[derive(Debug)]
struct ServeShared {
    cfg: AdmissionConfig,
    /// Total queries currently executing, all classes.
    inflight: AtomicUsize,
    /// Queries answered, per [`Priority::idx`].
    answered: [AtomicU64; 3],
    /// Queries refused at the class watermark, per class.
    shed: [AtomicU64; 3],
    /// Queries refused by a tenant quota, per class.
    shed_quota: [AtomicU64; 3],
    /// End-to-end query latency in microseconds, per class.
    latency_us: [Log2Histogram; 3],
}

/// Per-tenant shared state (all clients of one tenant share it).
#[derive(Debug)]
struct TenantState {
    cfg: TenantConfig,
    inflight: AtomicUsize,
}

/// A registered tenant. Clone freely; clones share the quota gauge.
#[derive(Clone, Debug)]
pub struct Tenant {
    state: Arc<TenantState>,
}

impl Tenant {
    /// The tenant's configuration.
    pub fn config(&self) -> &TenantConfig {
        &self.state.cfg
    }
}

/// The serving front end: one per served engine. Holds the
/// [`SnapshotHandle`] the engine publishes to and the shared admission
/// state; hand each reader thread a [`QueryClient`] via
/// [`Self::client`].
#[derive(Clone, Debug)]
pub struct QueryService {
    handle: SnapshotHandle,
    shared: Arc<ServeShared>,
}

impl QueryService {
    /// Front a published snapshot slot (from
    /// [`crate::flow::FlowEngine::serve_handle`]) with admission
    /// control.
    pub fn new(handle: SnapshotHandle, cfg: ServeConfig) -> Self {
        QueryService {
            handle,
            shared: Arc::new(ServeShared {
                cfg: cfg.admission,
                inflight: AtomicUsize::new(0),
                answered: Default::default(),
                shed: Default::default(),
                shed_quota: Default::default(),
                latency_us: Default::default(),
            }),
        }
    }

    /// Register a tenant. The returned handle is shareable; every
    /// client created from it counts against the same quota.
    pub fn tenant(&self, cfg: TenantConfig) -> Tenant {
        Tenant {
            state: Arc::new(TenantState {
                cfg,
                inflight: AtomicUsize::new(0),
            }),
        }
    }

    /// A per-thread query client for `tenant`. Each client owns its
    /// own [`SnapshotReader`], so its steady-state snapshot access is
    /// one atomic load.
    pub fn client(&self, tenant: &Tenant) -> QueryClient {
        QueryClient {
            reader: self.handle.reader(),
            shared: Arc::clone(&self.shared),
            tenant: Arc::clone(&tenant.state),
        }
    }

    /// Point-in-time serving counters and latency digests.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared;
        let class = |i: usize| ClassServeStats {
            answered: s.answered[i].load(Ordering::Relaxed),
            shed: s.shed[i].load(Ordering::Relaxed),
            shed_quota: s.shed_quota[i].load(Ordering::Relaxed),
            latency_us: s.latency_us[i].snapshot().summary(),
        };
        ServeStats {
            classes: [class(0), class(1), class(2)],
            inflight: s.inflight.load(Ordering::Acquire),
        }
    }
}

/// Why a query was not executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeShed {
    /// Concurrent load at the class watermark.
    ClassLimit,
    /// The tenant is at its own [`TenantConfig::quota`].
    TenantQuota,
    /// Nothing published yet (the engine has not called
    /// `serve_handle`/`publish_epoch`, or no data has been ingested).
    NotReady,
}

/// The outcome of one [`QueryClient::run`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutcome {
    /// The query ran to completion on one frozen generation.
    Answered {
        /// The generation it ran on.
        epoch: SnapshotEpoch,
        /// The result.
        response: QueryResponse,
    },
    /// The query was refused without touching the graph.
    Shed(ServeShed),
}

impl QueryOutcome {
    /// The response, if answered.
    pub fn response(&self) -> Option<&QueryResponse> {
        match self {
            QueryOutcome::Answered { response, .. } => Some(response),
            QueryOutcome::Shed(_) => None,
        }
    }
}

/// A reader-thread handle: admission + snapshot access + latency
/// recording around [`Query::run`]. Create one per thread via
/// [`QueryService::client`].
#[derive(Debug)]
pub struct QueryClient {
    reader: SnapshotReader,
    shared: Arc<ServeShared>,
    tenant: Arc<TenantState>,
}

impl QueryClient {
    /// Run `query` on the current published generation under this
    /// tenant's admission class. Admission, execution, and latency
    /// recording are all lock-free in the steady state; the query sees
    /// exactly one frozen [`ga_stream::EpochSnapshot`] end to end.
    pub fn run(&mut self, query: &Query) -> QueryOutcome {
        let class = self.tenant.cfg.class;
        let ci = class.idx();
        let limit = match class {
            Priority::High => self.shared.cfg.capacity,
            Priority::Normal => self.shared.cfg.normal_watermark,
            Priority::Bulk => self.shared.cfg.bulk_watermark,
        };
        // fetch_add-then-check: concurrent admits observe distinct prior
        // values, so at most `limit` queries of this class's ceiling are
        // ever in flight together — no CAS loop needed.
        let prior = self.shared.inflight.fetch_add(1, Ordering::AcqRel);
        if prior >= limit {
            self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
            self.shared.shed[ci].fetch_add(1, Ordering::Relaxed);
            return QueryOutcome::Shed(ServeShed::ClassLimit);
        }
        if let Some(quota) = self.tenant.cfg.quota {
            let t_prior = self.tenant.inflight.fetch_add(1, Ordering::AcqRel);
            if t_prior >= quota {
                self.tenant.inflight.fetch_sub(1, Ordering::AcqRel);
                self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
                self.shared.shed_quota[ci].fetch_add(1, Ordering::Relaxed);
                return QueryOutcome::Shed(ServeShed::TenantQuota);
            }
        } else {
            self.tenant.inflight.fetch_add(1, Ordering::AcqRel);
        }
        let t0 = Instant::now();
        let outcome = match self.reader.snapshot() {
            Some(snap) => QueryOutcome::Answered {
                epoch: snap.stamp,
                response: query.run(snap),
            },
            None => QueryOutcome::Shed(ServeShed::NotReady),
        };
        if matches!(outcome, QueryOutcome::Answered { .. }) {
            self.shared.latency_us[ci].record(t0.elapsed().as_micros() as u64);
            self.shared.answered[ci].fetch_add(1, Ordering::Relaxed);
        }
        self.tenant.inflight.fetch_sub(1, Ordering::AcqRel);
        self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
        outcome
    }
}

/// Serving counters for one admission class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassServeStats {
    /// Queries answered.
    pub answered: u64,
    /// Queries refused at the class watermark.
    pub shed: u64,
    /// Queries refused by a tenant quota.
    pub shed_quota: u64,
    /// End-to-end latency digest, microseconds (log2-bucket bounds).
    pub latency_us: QuantileSummary,
}

/// Point-in-time serving stats, per class plus the live in-flight
/// gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Per-class counters, indexed by [`Priority::idx`].
    pub classes: [ClassServeStats; 3],
    /// Queries executing right now.
    pub inflight: usize,
}

impl ServeStats {
    /// Counters for one class.
    pub fn class(&self, class: Priority) -> &ClassServeStats {
        &self.classes[class.idx()]
    }

    /// Total queries answered across classes.
    pub fn total_answered(&self) -> u64 {
        self.classes.iter().map(|c| c.answered).sum()
    }

    /// Total queries refused (watermark + quota) across classes.
    pub fn total_shed(&self) -> u64 {
        self.classes.iter().map(|c| c.shed + c.shed_quota).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowEngine;
    use ga_stream::update::{Update, UpdateBatch};

    fn served_engine() -> (FlowEngine, SnapshotHandle) {
        let mut engine = FlowEngine::new(8);
        let batch = UpdateBatch {
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
                    weight: 1.0,
                },
                Update::PropertySet {
                    vertex: 2,
                    name: "risk".into(),
                    value: 0.9,
                },
            ],
        };
        engine.process_stream(&batch, |_| None, None);
        let handle = engine.serve_handle();
        (engine, handle)
    }

    #[test]
    fn answered_queries_carry_the_published_epoch() {
        let (_engine, handle) = served_engine();
        let service = QueryService::new(handle, ServeConfig::default());
        let tenant = service.tenant(TenantConfig::new("ops", Priority::High));
        let mut client = service.client(&tenant);
        let out = client.run(&Query::Degree { vertex: 1 });
        match out {
            QueryOutcome::Answered { epoch, response } => {
                assert!(epoch.epoch >= 1);
                assert_eq!(response, QueryResponse::Scalar(2.0));
            }
            other => panic!("expected answer, got {other:?}"),
        }
        let out = client.run(&Query::get_property(2, "risk"));
        assert_eq!(out.response(), Some(&QueryResponse::Scalar(0.9)));
        let stats = service.stats();
        assert_eq!(stats.class(Priority::High).answered, 2);
        assert_eq!(stats.total_shed(), 0);
        assert!(stats.class(Priority::High).latency_us.count == 2);
    }

    #[test]
    fn unserved_engine_is_not_ready() {
        let handle = SnapshotHandle::new();
        let service = QueryService::new(handle, ServeConfig::default());
        let tenant = service.tenant(TenantConfig::new("t", Priority::Normal));
        let mut client = service.client(&tenant);
        assert_eq!(
            client.run(&Query::Degree { vertex: 0 }),
            QueryOutcome::Shed(ServeShed::NotReady)
        );
        // NotReady is not an answer: nothing recorded.
        assert_eq!(service.stats().total_answered(), 0);
    }

    #[test]
    fn tenant_quota_zero_refuses_everything() {
        let (_engine, handle) = served_engine();
        let service = QueryService::new(handle, ServeConfig::default());
        let tenant = service.tenant(TenantConfig::new("greedy", Priority::Bulk).quota(0));
        let mut client = service.client(&tenant);
        assert_eq!(
            client.run(&Query::Degree { vertex: 0 }),
            QueryOutcome::Shed(ServeShed::TenantQuota)
        );
        let stats = service.stats();
        assert_eq!(stats.class(Priority::Bulk).shed_quota, 1);
        assert_eq!(stats.inflight, 0, "refused query released its slot");
    }

    #[test]
    fn bulk_watermark_zero_sheds_bulk_but_not_high() {
        let (_engine, handle) = served_engine();
        let service = QueryService::new(
            handle,
            ServeConfig {
                admission: AdmissionConfig {
                    capacity: 8,
                    normal_watermark: 4,
                    bulk_watermark: 0,
                },
            },
        );
        let bulk = service.tenant(TenantConfig::new("scan", Priority::Bulk));
        let high = service.tenant(TenantConfig::new("point", Priority::High));
        let mut bc = service.client(&bulk);
        let mut hc = service.client(&high);
        assert_eq!(
            bc.run(&Query::TopKByProperty {
                name: "risk".into(),
                k: 3
            }),
            QueryOutcome::Shed(ServeShed::ClassLimit)
        );
        assert!(matches!(
            hc.run(&Query::Degree { vertex: 0 }),
            QueryOutcome::Answered { .. }
        ));
        let stats = service.stats();
        assert_eq!(stats.class(Priority::Bulk).shed, 1);
        assert_eq!(stats.class(Priority::High).shed, 0);
    }

    #[test]
    fn republish_after_ingest_moves_the_served_epoch() {
        let (mut engine, handle) = served_engine();
        let service = QueryService::new(handle, ServeConfig::default());
        let tenant = service.tenant(TenantConfig::new("t", Priority::Normal));
        let mut client = service.client(&tenant);
        let epoch = |out: &QueryOutcome| match out {
            QueryOutcome::Answered { epoch, .. } => *epoch,
            QueryOutcome::Shed(s) => panic!("shed: {s:?}"),
        };
        let out = client.run(&Query::Degree { vertex: 3 });
        let e0 = epoch(&out);
        assert_eq!(out.response(), Some(&QueryResponse::Scalar(0.0)));
        engine.process_stream(
            &UpdateBatch {
                time: 2,
                updates: vec![Update::EdgeInsert {
                    src: 3,
                    dst: 0,
                    weight: 1.0,
                }],
            },
            |_| None,
            None,
        );
        let out = client.run(&Query::Degree { vertex: 3 });
        assert!(epoch(&out) > e0, "ingest republished a newer epoch");
        // Symmetrized insert: 3->0 and 0->3, degree(3) == 1.
        assert_eq!(out.response(), Some(&QueryResponse::Scalar(1.0)));
    }
}
