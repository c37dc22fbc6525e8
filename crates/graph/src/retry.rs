//! Retry with capped exponential backoff, deterministic seeded jitter,
//! and a circuit breaker — the workspace's one failure policy for IO.
//!
//! The paper's flow (Fig. 2) assumes storage that occasionally hiccups:
//! a WAL append, checkpoint write or segment read can fail transiently
//! without the analytics pipeline being wrong — only *late*. The right
//! response is bounded retry, and when the fault turns out not to be
//! transient, a breaker that converts "fail every IO forever" into one
//! explicit mode change instead of an unbounded error stream.
//!
//! [`RetryPolicy::run`] is the one retry loop and [`CircuitBreaker`] the
//! one consecutive-failure breaker. They live here, beside the fault
//! registry ([`crate::faults`]), so both users can reach them: the flow
//! engine (`ga-core`) wraps WAL appends and checkpoint writes (open =
//! durability suspended, alert raised), and the segment tier
//! ([`crate::tier`]) wraps segment reads and writes (open = serve from
//! the pinned-in-RAM snapshot).
//!
//! Jitter is *seeded*, not sampled from the OS: `delay(attempt)` is a
//! pure function of `(policy, attempt)`, so two runs with the same seed
//! wait exactly as long — the crash-recovery matrix stays reproducible
//! even with retries in the loop.

use std::io;
use std::time::Duration;

/// Capped exponential backoff with deterministic jitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = fail immediately).
    pub max_retries: u32,
    /// Delay floor: every delay is at least this.
    pub base: Duration,
    /// Delay ceiling: every delay is at most this.
    pub cap: Duration,
    /// Jitter seed; same seed → same delay sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            seed: 0,
        }
    }
}

/// SplitMix64 — tiny, seedable, and good enough for jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// A policy that never retries (the PR 2 fail-fast behaviour).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// A policy retrying `max_retries` times with the default 1→50 ms
    /// window and the given jitter seed.
    pub fn retries(max_retries: u32, seed: u64) -> Self {
        RetryPolicy {
            max_retries,
            seed,
            ..RetryPolicy::default()
        }
    }

    /// Deterministic jittered delay before retry number `attempt`
    /// (0-based). Always within `[base, cap]`:
    ///
    /// ```text
    /// exp(attempt)  = min(cap, base * 2^attempt)
    /// delay(attempt) = base + (exp - base) * frac
    /// ```
    ///
    /// where `frac ∈ [0, 1]` comes from `splitmix64(seed ^ attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let base = self.base.min(self.cap);
        let cap = self.cap.max(self.base);
        let exp_nanos = (base.as_nanos() as u64)
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(cap.as_nanos() as u64);
        let span = exp_nanos - base.as_nanos() as u64;
        // 53 random bits → an f64 fraction in [0, 1).
        let frac = (splitmix64(self.seed ^ attempt as u64) >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_nanos(base.as_nanos() as u64 + (span as f64 * frac) as u64)
    }

    /// The retry loop for fallible IO: call `write(target)` until it
    /// succeeds or `max_retries` retries are spent, sleeping
    /// [`Self::delay`] between attempts. After *every* failed attempt
    /// `repair(target)` runs first (a failed WAL append may have torn
    /// the log, and the retried frame must land on a clean boundary); a
    /// repair failure is itself a durability failure — on a hard storage
    /// fault the most likely correlated one — so it ends the loop with
    /// its own error instead of being retried around.
    ///
    /// Returns the outcome and the number of retries spent, for the
    /// caller to count and to feed its [`CircuitBreaker`].
    pub fn run<C, T>(
        &self,
        target: &mut C,
        mut write: impl FnMut(&mut C) -> io::Result<T>,
        mut repair: impl FnMut(&mut C) -> io::Result<()>,
    ) -> (io::Result<T>, u32) {
        let mut retries = 0;
        loop {
            let err = match write(target) {
                Ok(v) => return (Ok(v), retries),
                Err(e) => e,
            };
            if let Err(repair_err) = repair(target) {
                return (Err(repair_err), retries);
            }
            if retries == self.max_retries {
                return (Err(err), retries);
            }
            std::thread::sleep(self.delay(retries));
            retries += 1;
        }
    }
}

/// Consecutive-failure circuit breaker.
///
/// Counts *exhausted-retry* failures (not individual attempts). After
/// `threshold` consecutive failures the breaker trips open; a success
/// while still closed resets the count. The owner decides what "open"
/// means — the flow engine suspends durable writes and raises an alert,
/// the segment tier degrades to pinned-in-RAM operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive_failures: u32,
    open: bool,
}

impl CircuitBreaker {
    /// Closed breaker tripping after `threshold` consecutive failures
    /// (min 1).
    pub fn new(threshold: u32) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            consecutive_failures: 0,
            open: false,
        }
    }

    /// True once tripped.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Record an exhausted-retry failure; returns `true` exactly when
    /// this failure trips the breaker open.
    pub fn record_failure(&mut self) -> bool {
        if self.open {
            return false;
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.threshold {
            self.open = true;
            return true;
        }
        false
    }

    /// Record a success: resets the failure streak (no effect once
    /// open — reopening is an explicit operator action via
    /// [`Self::reset`]).
    pub fn record_success(&mut self) {
        if !self.open {
            self.consecutive_failures = 0;
        }
    }

    /// Close the breaker and clear the streak (operator "the disk is
    /// back" action).
    pub fn reset(&mut self) {
        self.open = false;
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_stay_within_base_and_cap() {
        for seed in 0..50u64 {
            let p = RetryPolicy {
                max_retries: 10,
                base: Duration::from_millis(2),
                cap: Duration::from_millis(40),
                seed,
            };
            for attempt in 0..12 {
                let d = p.delay(attempt);
                assert!(d >= p.base, "seed {seed} attempt {attempt}: {d:?}");
                assert!(d <= p.cap, "seed {seed} attempt {attempt}: {d:?}");
            }
        }
    }

    #[test]
    fn delays_are_deterministic_per_seed() {
        let p = RetryPolicy::retries(5, 42);
        let a: Vec<Duration> = (0..6).map(|i| p.delay(i)).collect();
        let b: Vec<Duration> = (0..6).map(|i| p.delay(i)).collect();
        assert_eq!(a, b);
        let q = RetryPolicy::retries(5, 43);
        assert_ne!(a, (0..6).map(|i| q.delay(i)).collect::<Vec<_>>());
    }

    #[test]
    fn exponential_envelope_grows_until_cap() {
        let p = RetryPolicy {
            max_retries: 10,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(64),
            seed: 0,
        };
        // The envelope upper bound min(cap, base * 2^a) is monotone; at
        // a = 6 and beyond it is pinned at the cap, so huge attempt
        // numbers (and shift overflow) are safe.
        assert!(p.delay(64) <= p.cap);
        assert!(p.delay(u32::MAX) <= p.cap);
    }

    #[test]
    fn degenerate_window_collapses_to_base() {
        let p = RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(5),
            seed: 9,
        };
        for a in 0..5 {
            assert_eq!(p.delay(a), Duration::from_millis(5));
        }
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        b.record_success(); // streak broken
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure()); // third consecutive → trips, once
        assert!(b.is_open());
        assert!(!b.record_failure()); // already open: no re-trip
        b.record_success(); // no effect while open
        assert!(b.is_open());
        b.reset();
        assert!(!b.is_open());
        assert!(!b.record_failure());
    }
}
