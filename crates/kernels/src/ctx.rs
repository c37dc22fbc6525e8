//! Kernel execution context: the parallelism knob plus the operation
//! counters every instrumented kernel flushes into.
//!
//! Every hot batch kernel has a `*_with(g, ..., &KernelCtx)` entry point
//! that (a) dispatches between its serial and rayon-parallel engine
//! according to [`Parallelism`] — BFS, WCC and SSSP run one engine for
//! every mode — and (b) records the work it did in the context's
//! [`OpCounters`]. The plain entry points (`bfs::bfs`,
//! `pagerank::pagerank`, ...) remain unchanged for callers that don't
//! care.
//!
//! Serial and parallel engines of the same kernel are interchangeable:
//! BFS trees and triangle counts are bit-identical, and PageRank ranks
//! agree to well below 1e-9 (the agreement suite in
//! `tests/cross_kernel_agreement.rs` enforces this).

use ga_graph::counters::{OpCounters, OpSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

// The knob now lives in the storage crate so the snapshot pipeline can
// share it; re-exported here so existing `ga_kernels::Parallelism`
// callers keep compiling unchanged.
pub use ga_graph::par::{Parallelism, AUTO_WORK_CUTOFF};

/// How a budgeted kernel run ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Completion {
    /// The kernel ran to its natural fixed point / traversal end.
    #[default]
    Complete,
    /// The kernel stopped cooperatively at the context's op budget and
    /// returned a typed partial result.
    OpBudgetExhausted,
    /// The result was computed with reduced redundancy or reduced
    /// input: in a sharded deployment, at least one shard was dead or
    /// rebuilding, so rows were served from replicas (exact values,
    /// lost redundancy) or were missing entirely (partial values).
    /// Callers distinguish the two via the fleet's coverage report.
    Degraded,
}

impl Completion {
    /// True for every outcome other than [`Completion::Complete`].
    pub fn is_partial(self) -> bool {
        !matches!(self, Completion::Complete)
    }
}

/// A cooperative op budget for batch kernels.
///
/// Budgeted kernels consult [`Budget::check`] at iteration boundaries
/// (per sweep, per level, per block of vertices) with their running op
/// estimate — the same estimate they flush into [`OpCounters`] — and
/// stop early with a typed partial result when the bound is hit. The
/// bound counts work, not wall time, so a budgeted run stops at the same
/// point on every host. Exhaustions are tallied so the flow layer can
/// count partial analytics (`budget_partials`) without threading
/// return values through every analytic trait.
///
/// The default budget is unlimited: `check` is a no-op and kernels run
/// exactly as before.
#[derive(Debug, Default)]
pub struct Budget {
    op_limit: Option<u64>,
    hits: AtomicU64,
}

impl Clone for Budget {
    fn clone(&self) -> Self {
        Budget {
            op_limit: self.op_limit,
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
        }
    }
}

impl Budget {
    /// No limits (the default): kernels run to completion.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Stop once the kernel's op estimate reaches `limit`.
    pub fn ops(limit: u64) -> Self {
        Budget {
            op_limit: Some(limit),
            ..Budget::default()
        }
    }

    /// Whether a bound is set (kernels skip checks entirely if not).
    pub fn is_limited(&self) -> bool {
        self.op_limit.is_some()
    }

    /// Consult the budget with the kernel's running op estimate.
    /// Returns [`Completion::OpBudgetExhausted`] (and tallies a hit)
    /// once the bound is reached.
    pub fn check(&self, ops_spent: u64) -> Completion {
        if let Some(limit) = self.op_limit {
            if ops_spent >= limit {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Completion::OpBudgetExhausted;
            }
        }
        Completion::Complete
    }

    /// Exhaustions recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Drain the exhaustion tally (read then reset).
    pub fn take_hits(&self) -> u64 {
        self.hits.swap(0, Ordering::Relaxed)
    }
}

/// Execution context threaded through instrumented kernel calls.
#[derive(Debug, Default)]
pub struct KernelCtx {
    /// Serial/parallel dispatch policy.
    pub parallelism: Parallelism,
    /// Operation tally the kernels flush into.
    pub counters: OpCounters,
    /// Cooperative cancellation budget; unlimited by default.
    pub budget: Budget,
    /// Observability sink: callers that drain [`OpCounters`] attribute
    /// the drained work to a [`ga_obs::Step`] span here. Disabled (a
    /// no-op) by default.
    pub recorder: ga_obs::Recorder,
}

impl KernelCtx {
    /// Context with the given policy and fresh counters.
    pub fn new(parallelism: Parallelism) -> Self {
        KernelCtx {
            parallelism,
            counters: OpCounters::new(),
            budget: Budget::default(),
            recorder: ga_obs::Recorder::disabled(),
        }
    }

    /// Always-serial context.
    pub fn serial() -> Self {
        Self::new(Parallelism::Serial)
    }

    /// Always-parallel context.
    pub fn parallel() -> Self {
        Self::new(Parallelism::Parallel)
    }

    /// Current counter tally.
    pub fn snapshot(&self) -> OpSnapshot {
        self.counters.snapshot()
    }

    /// Drain the counter tally (copy then reset).
    pub fn take(&self) -> OpSnapshot {
        self.counters.take()
    }
}

/// Bytes of the first `k` of a row's `len` entries, when the whole row
/// takes `row_bytes`: exact on plain rows, pro rata on encoded ones. The
/// kernels that stop a row scan early book what they read with it.
pub(crate) fn prefix_bytes(row_bytes: u64, len: usize, k: usize) -> u64 {
    match len {
        0 => 0,
        len => row_bytes * k as u64 / len as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_are_unconditional() {
        assert!(!Parallelism::Serial.use_parallel(usize::MAX));
        assert!(Parallelism::Parallel.use_parallel(0));
    }

    #[test]
    fn auto_stays_serial_on_tiny_inputs() {
        assert!(!Parallelism::Auto.use_parallel(10));
    }

    #[test]
    fn ctx_counters_drain() {
        let ctx = KernelCtx::serial();
        ctx.counters.flush(1, 2, 3);
        assert_eq!(ctx.take().edges_touched, 3);
        assert!(ctx.snapshot().is_zero());
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        assert_eq!(b.check(u64::MAX), Completion::Complete);
        assert_eq!(b.hits(), 0);
    }

    #[test]
    fn op_budget_trips_at_limit_and_tallies() {
        let b = Budget::ops(100);
        assert!(b.is_limited());
        assert_eq!(b.check(99), Completion::Complete);
        assert_eq!(b.check(100), Completion::OpBudgetExhausted);
        assert_eq!(b.check(500), Completion::OpBudgetExhausted);
        assert_eq!(b.take_hits(), 2);
        assert_eq!(b.hits(), 0);
    }
}
