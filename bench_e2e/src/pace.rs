//! Open-loop pacing: operations are due on a fixed schedule whether or
//! not the system keeps up, each is timed from when it was *due*, and how
//! late the generator itself ran is reported (choosing-metrics §5).

use std::time::{Duration, Instant};

/// A fixed-rate schedule: operation `i` is due `i / rate` after start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    pub fn per_second(rate: f64) -> Self {
        assert!(rate > 0.0, "an open loop needs a positive rate");
        Schedule {
            interval_ns: (1e9 / rate).round() as u64,
        }
    }

    /// Nanoseconds after the start at which operation `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.interval_ns
    }
}

/// What one paced thread observed, in nanoseconds since the start.
#[derive(Clone, Debug, Default)]
pub struct OpenLoopLog {
    /// Completion minus due time of every completed operation.
    pub latency_ns: Vec<u64>,
    /// Send minus due time of every operation: the generator's own delay,
    /// which is already inside `latency_ns` and is reported beside it.
    pub lateness_ns: Vec<u64>,
}

impl OpenLoopLog {
    /// Record one operation that was due at `due`, actually sent at
    /// `sent`, and completed at `done` (`None` = never answered).
    pub fn record(&mut self, due: u64, sent: u64, done: Option<u64>) {
        self.lateness_ns.push(sent.saturating_sub(due));
        if let Some(done) = done {
            self.latency_ns.push(done.saturating_sub(due));
        }
    }

    /// Share of operations the generator sent more than `slack_ns` late.
    pub fn late_fraction(&self, slack_ns: u64) -> f64 {
        if self.lateness_ns.is_empty() {
            return 0.0;
        }
        let late = self.lateness_ns.iter().filter(|&&l| l > slack_ns).count();
        late as f64 / self.lateness_ns.len() as f64
    }
}

/// Sleep, then spin, until `deadline`: long waits do not burn a core,
/// short ones do not oversleep.
pub fn pace_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_independent_of_completions() {
        let s = Schedule::per_second(20_000.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 50_000);
        assert_eq!(s.due_ns(20_000), 1_000_000_000);
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_kept_apart() {
        let s = Schedule::per_second(1_000.0); // one per millisecond
        let mut log = OpenLoopLog::default();
        // On time, answered in 100 us.
        log.record(s.due_ns(0), 0, Some(100_000));
        // A 2.5 ms stall: ops 1 and 2 are sent late, and their latency
        // includes the wait the stall imposed on them.
        log.record(s.due_ns(1), 3_500_000, Some(3_600_000));
        log.record(s.due_ns(2), 3_600_000, Some(3_700_000));
        // Never answered: lateness is known, latency is not.
        log.record(s.due_ns(3), 3_700_000, None);

        assert_eq!(log.lateness_ns, vec![0, 2_500_000, 1_600_000, 700_000]);
        assert_eq!(log.latency_ns, vec![100_000, 2_600_000, 1_700_000]);
        assert_eq!(log.late_fraction(1_000_000), 0.5);
        assert_eq!(log.late_fraction(5_000_000), 0.0);
        assert_eq!(OpenLoopLog::default().late_fraction(0), 0.0);
    }

    #[test]
    fn pace_until_never_returns_early() {
        let deadline = Instant::now() + Duration::from_millis(2);
        pace_until(deadline);
        assert!(Instant::now() >= deadline);
    }
}
