//! Shared traffic and latency accounting.

/// What a simulated workload run cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficReport {
    /// Messages injected into the interconnect.
    pub messages: u64,
    /// Bytes injected into the interconnect.
    pub bytes: u64,
    /// Sum of per-operation latencies in nanoseconds (a serial-chain
    /// workload's critical path; independent ops divide by parallelism).
    pub total_latency_ns: f64,
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock estimate in nanoseconds (max of bandwidth-bound and
    /// latency-bound time).
    pub wall_ns: f64,
}

impl TrafficReport {
    /// Mean latency per operation (ns).
    pub fn latency_per_op_ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total_latency_ns / self.ops as f64
        }
    }

    /// Throughput in operations per second, from the wall estimate.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0.0 {
            0.0
        } else {
            self.ops as f64 / (self.wall_ns * 1e-9)
        }
    }

    /// Accumulate another report (e.g. per-phase totals).
    pub fn merge(&mut self, other: &TrafficReport) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.total_latency_ns += other.total_latency_ns;
        self.ops += other.ops;
        self.wall_ns += other.wall_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let r = TrafficReport {
            messages: 10,
            bytes: 1000,
            total_latency_ns: 500.0,
            ops: 5,
            wall_ns: 1e3,
        };
        assert_eq!(r.latency_per_op_ns(), 100.0);
        assert!((r.ops_per_sec() - 5e6).abs() < 1.0);
    }

    #[test]
    fn zero_ops_safe() {
        let r = TrafficReport::default();
        assert_eq!(r.latency_per_op_ns(), 0.0);
        assert_eq!(r.ops_per_sec(), 0.0);
    }

    #[test]
    fn merge_adds() {
        let mut a = TrafficReport {
            messages: 1,
            bytes: 2,
            total_latency_ns: 3.0,
            ops: 4,
            wall_ns: 5.0,
        };
        a.merge(&a.clone());
        assert_eq!(a.messages, 2);
        assert_eq!(a.ops, 8);
    }
}
