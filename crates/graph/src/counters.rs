//! Operation counters — the "explicit instrumentation" the paper's
//! conclusion asks a reference implementation to carry (§VI).
//!
//! [`OpCounters`] is a thread-safe tally of the three quantities the
//! NORA-style performance model prices: CPU operations executed, bytes
//! of memory traffic generated, and edges touched. Kernels flush
//! per-call totals (computed analytically from the work they actually
//! did, not per-edge atomics, so instrumentation costs O(1) per call),
//! and the processing-flow engine drains the tally into its run stats,
//! where model calibration picks it up.
//!
//! It generalizes the per-architecture `TrafficReport` accounting in
//! `ga-archsim`: that struct prices *simulated* interconnect traffic;
//! this one records what the *real* kernels did.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe operation tally, cheap to share by reference across a
/// parallel kernel invocation. All updates are relaxed atomics — the
/// counters are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct OpCounters {
    cpu_ops: AtomicU64,
    mem_bytes: AtomicU64,
    edges_touched: AtomicU64,
}

/// A point-in-time copy of an [`OpCounters`] tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// CPU operations executed (arithmetic + compare, order of magnitude).
    pub cpu_ops: u64,
    /// Bytes of memory traffic generated.
    pub mem_bytes: u64,
    /// Edges examined (an edge relaxed or scanned twice counts twice).
    pub edges_touched: u64,
}

impl OpSnapshot {
    /// True iff every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == OpSnapshot::default()
    }

    /// Element-wise sum.
    pub fn merge(&self, other: &OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            cpu_ops: self.cpu_ops + other.cpu_ops,
            mem_bytes: self.mem_bytes + other.mem_bytes,
            edges_touched: self.edges_touched + other.edges_touched,
        }
    }
}

impl OpCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record CPU operations.
    pub fn add_cpu_ops(&self, n: u64) {
        self.cpu_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Record memory traffic.
    pub fn add_mem_bytes(&self, n: u64) {
        self.mem_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record edges examined.
    fn add_edges(&self, n: u64) {
        self.edges_touched.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one kernel call's totals in one shot.
    pub fn flush(&self, cpu_ops: u64, mem_bytes: u64, edges: u64) {
        self.add_cpu_ops(cpu_ops);
        self.add_mem_bytes(mem_bytes);
        self.add_edges(edges);
    }

    /// Copy the current tally.
    pub fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            cpu_ops: self.cpu_ops.load(Ordering::Relaxed),
            mem_bytes: self.mem_bytes.load(Ordering::Relaxed),
            edges_touched: self.edges_touched.load(Ordering::Relaxed),
        }
    }

    /// Copy the current tally and reset it to zero (the drain the flow
    /// engine performs after each batch run).
    pub fn take(&self) -> OpSnapshot {
        OpSnapshot {
            cpu_ops: self.cpu_ops.swap(0, Ordering::Relaxed),
            mem_bytes: self.mem_bytes.swap(0, Ordering::Relaxed),
            edges_touched: self.edges_touched.swap(0, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_and_snapshot() {
        let c = OpCounters::new();
        assert!(c.snapshot().is_zero());
        c.flush(10, 20, 30);
        c.add_edges(5);
        let s = c.snapshot();
        assert_eq!(s.cpu_ops, 10);
        assert_eq!(s.mem_bytes, 20);
        assert_eq!(s.edges_touched, 35);
    }

    #[test]
    fn take_drains() {
        let c = OpCounters::new();
        c.flush(1, 2, 3);
        let s = c.take();
        assert_eq!(s.edges_touched, 3);
        assert!(c.snapshot().is_zero());
    }

    #[test]
    fn merge_adds() {
        let a = OpSnapshot {
            cpu_ops: 1,
            mem_bytes: 2,
            edges_touched: 3,
        };
        let b = a.merge(&a);
        assert_eq!(b.cpu_ops, 2);
        assert_eq!(b.edges_touched, 6);
    }

    #[test]
    fn concurrent_updates_all_land() {
        let c = OpCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add_cpu_ops(1);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().cpu_ops, 4000);
    }
}
