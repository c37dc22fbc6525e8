//! Admission-controlled ingest front-end: a bounded update queue with
//! per-priority-class watermarks and explicit shed decisions.
//!
//! The paper's 4-resource model (Figs. 3 & 6) implies that under
//! sustained overload one bounding resource saturates; Fig. 2's flow
//! must then *shed or degrade*, never stall or grow without bound. The
//! [`AdmissionQueue`] is the front door that enforces this: producers
//! [`AdmissionQueue::offer`] tagged batches, the flow engine drains them
//! at whatever rate analytics allow, and everything the queue refuses is
//! an explicit, counted decision surfaced as a
//! [`crate::EventKind::LoadShed`] event rather than silent loss.
//!
//! Class semantics (all thresholds in *updates*, not batches):
//! * **Bulk** is admitted only below `bulk_watermark` — backfill traffic
//!   is the first thing dropped.
//! * **Normal** is admitted below the higher `normal_watermark`.
//! * **High** is admitted up to full `capacity`, and may *evict* queued
//!   bulk/normal updates (newest first) to make room — high-priority
//!   updates are only ever lost if the queue is entirely high-priority
//!   and full.
//!
//! All decisions are pure functions of the offered sequence and the
//! queue state, so shed counts are deterministic for a fixed input —
//! the property `tests/overload.rs` pins.

use crate::events::{Event, EventKind};
use crate::update::UpdateBatch;
use std::collections::VecDeque;

/// Priority class tag for an offered [`UpdateBatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Must-not-lose traffic (e.g. fraud signals): admitted to full
    /// capacity, may evict lower classes.
    High,
    /// Regular stream traffic.
    Normal,
    /// Backfill / best-effort traffic: first to shed.
    Bulk,
}

impl Priority {
    /// All classes, drain order first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Bulk];

    /// Stable lowercase name (event payloads, JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Bulk => "bulk",
        }
    }

    /// Dense index for per-class arrays.
    pub fn idx(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Bulk => 2,
        }
    }
}

/// Watermarks for the bounded queue, all counted in updates.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Hard bound on queued updates; the queue NEVER exceeds this.
    pub capacity: usize,
    /// Normal-class admission stops at this depth.
    pub normal_watermark: usize,
    /// Bulk-class admission stops at this (lower) depth.
    pub bulk_watermark: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: 1 << 16,
            normal_watermark: 3 << 14,
            bulk_watermark: 1 << 15,
        }
    }
}

impl AdmissionConfig {
    /// Panic (configuration error) unless
    /// `bulk_watermark <= normal_watermark <= capacity`.
    fn validate(&self) {
        assert!(
            self.bulk_watermark <= self.normal_watermark && self.normal_watermark <= self.capacity,
            "admission watermarks must be ordered bulk <= normal <= capacity"
        );
    }
}

/// The outcome of one [`AdmissionQueue::offer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The batch was queued (possibly after evicting lower classes).
    Admitted {
        /// Updates evicted from lower classes to make room.
        evicted_updates: usize,
    },
    /// The batch was refused at the door.
    Shed(ShedReason),
}

impl AdmissionDecision {
    /// True when the batch made it into the queue.
    pub fn admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admitted { .. })
    }
}

/// Why a batch was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Bulk offer above `bulk_watermark`.
    BulkWatermark,
    /// Normal offer above `normal_watermark`.
    NormalWatermark,
    /// High offer that could not fit even after evicting every queued
    /// bulk/normal update.
    QueueFull,
}

/// Per-class admission counters (updates, not batches, except where
/// noted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Updates offered per class.
    pub offered: [usize; 3],
    /// Updates admitted per class (may later be evicted).
    pub admitted: [usize; 3],
    /// Updates refused at the door per class.
    pub shed: [usize; 3],
    /// Batches refused at the door per class.
    pub shed_batches: [usize; 3],
    /// Updates admitted then evicted by a higher class.
    pub evicted: [usize; 3],
    /// Highest queue depth observed (bounded-memory witness).
    pub high_water: usize,
}

impl AdmissionStats {
    /// Updates lost in `class` (shed at the door + evicted later).
    pub fn lost(&self, class: Priority) -> usize {
        self.shed[class.idx()] + self.evicted[class.idx()]
    }

    /// Total updates lost across classes.
    pub fn total_lost(&self) -> usize {
        Priority::ALL.iter().map(|&c| self.lost(c)).sum()
    }
}

/// Bounded, priority-classed ingest queue of [`UpdateBatch`]es (see
/// module docs); a batch weighs its update count against the
/// watermarks.
#[derive(Debug, Default)]
pub struct AdmissionQueue {
    queues: [VecDeque<UpdateBatch>; 3],
    depth: usize,
    cfg: AdmissionConfig,
    stats: AdmissionStats,
    events: Vec<Event>,
}

impl AdmissionQueue {
    /// Empty queue with the given watermarks.
    pub fn new(cfg: AdmissionConfig) -> Self {
        cfg.validate();
        AdmissionQueue {
            cfg,
            ..AdmissionQueue::default()
        }
    }

    /// Queued updates across all classes (the watermark quantity).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Queued batches across all classes.
    fn len_batches(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.depth == 0 && self.len_batches() == 0
    }

    /// Admission counters so far.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Drain the shed/eviction events accumulated since the last take.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Offer a batch under `class`. Decisions depend only on the queue
    /// state and the offered sequence (deterministic; no clocks).
    pub fn offer(&mut self, class: Priority, batch: UpdateBatch) -> AdmissionDecision {
        let len = batch.updates.len();
        let time = batch.time;
        self.stats.offered[class.idx()] += len;
        let limit = match class {
            Priority::High => self.cfg.capacity,
            Priority::Normal => self.cfg.normal_watermark,
            Priority::Bulk => self.cfg.bulk_watermark,
        };
        let mut evicted_updates = 0;
        if self.depth + len > limit {
            if class != Priority::High {
                return self.shed(class, len, time);
            }
            // High priority: evict newest bulk, then newest normal,
            // until the batch fits or nothing evictable remains.
            for victim in [Priority::Bulk, Priority::Normal] {
                while self.depth + len > self.cfg.capacity {
                    let Some(b) = self.queues[victim.idx()].pop_back() else {
                        break;
                    };
                    let v = b.updates.len();
                    self.depth -= v;
                    evicted_updates += v;
                    self.stats.evicted[victim.idx()] += v;
                    self.events.push(Event {
                        time: b.time,
                        source: "admission",
                        kind: EventKind::LoadShed {
                            class: victim.name(),
                            updates: v,
                            queue_depth: self.depth,
                        },
                    });
                }
            }
            if self.depth + len > self.cfg.capacity {
                return self.shed(class, len, time);
            }
        }
        self.depth += len;
        self.stats.admitted[class.idx()] += len;
        self.stats.high_water = self.stats.high_water.max(self.depth);
        self.queues[class.idx()].push_back(batch);
        AdmissionDecision::Admitted { evicted_updates }
    }

    fn shed(&mut self, class: Priority, len: usize, time: u64) -> AdmissionDecision {
        self.stats.shed[class.idx()] += len;
        self.stats.shed_batches[class.idx()] += 1;
        self.events.push(Event {
            time,
            source: "admission",
            kind: EventKind::LoadShed {
                class: class.name(),
                updates: len,
                queue_depth: self.depth,
            },
        });
        AdmissionDecision::Shed(match class {
            Priority::High => ShedReason::QueueFull,
            Priority::Normal => ShedReason::NormalWatermark,
            Priority::Bulk => ShedReason::BulkWatermark,
        })
    }

    /// Put a popped batch back at the front of its class — used when
    /// processing aborted after the pop (e.g. a durability error) and
    /// the batch must not be lost. Watermarks are not re-checked: the
    /// batch was already admitted, and restoring it merely returns the
    /// queue to its pre-pop depth. No counters change — the batch was
    /// neither offered again nor shed.
    pub fn requeue_front(&mut self, class: Priority, batch: UpdateBatch) {
        self.depth += batch.updates.len();
        self.stats.high_water = self.stats.high_water.max(self.depth);
        self.queues[class.idx()].push_front(batch);
    }

    /// Pop the next batch to process: high first, then normal, then
    /// bulk; FIFO within a class.
    pub fn pop(&mut self) -> Option<(Priority, UpdateBatch)> {
        for class in Priority::ALL {
            if let Some(b) = self.queues[class.idx()].pop_front() {
                self.depth -= b.updates.len();
                return Some((class, b));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::Update;
    use ga_graph::Timestamp;

    fn batch(time: Timestamp, n: usize) -> UpdateBatch {
        UpdateBatch {
            time,
            updates: (0..n)
                .map(|i| Update::EdgeInsert {
                    src: i as u32,
                    dst: i as u32 + 1,
                    weight: 1.0,
                })
                .collect(),
        }
    }

    fn small_cfg() -> AdmissionConfig {
        AdmissionConfig {
            capacity: 100,
            normal_watermark: 80,
            bulk_watermark: 50,
        }
    }

    #[test]
    fn classes_shed_at_their_watermarks() {
        let mut q = AdmissionQueue::new(small_cfg());
        assert!(q.offer(Priority::Bulk, batch(1, 50)).admitted());
        // Bulk watermark full: next bulk offer is refused...
        assert_eq!(
            q.offer(Priority::Bulk, batch(2, 1)),
            AdmissionDecision::Shed(ShedReason::BulkWatermark)
        );
        // ...but normal still fits up to 80...
        assert!(q.offer(Priority::Normal, batch(3, 30)).admitted());
        assert_eq!(
            q.offer(Priority::Normal, batch(4, 1)),
            AdmissionDecision::Shed(ShedReason::NormalWatermark)
        );
        // ...and high up to 100.
        assert!(q.offer(Priority::High, batch(5, 20)).admitted());
        assert_eq!(q.depth(), 100);
        let s = q.stats();
        assert_eq!(s.shed, [0, 1, 1]);
        assert_eq!(s.high_water, 100);
    }

    #[test]
    fn high_evicts_bulk_then_normal_newest_first() {
        let mut q = AdmissionQueue::new(small_cfg());
        q.offer(Priority::Bulk, batch(1, 20));
        q.offer(Priority::Bulk, batch(2, 20));
        q.offer(Priority::Normal, batch(3, 40));
        assert_eq!(q.depth(), 80);
        // 30 high needs 10 evicted: the *newest* bulk batch (20) goes.
        let d = q.offer(Priority::High, batch(4, 30));
        assert_eq!(
            d,
            AdmissionDecision::Admitted {
                evicted_updates: 20
            }
        );
        assert_eq!(q.depth(), 90);
        assert_eq!(q.stats().evicted, [0, 0, 20]);
        // Another 20 high evicts the remaining bulk (20).
        let d = q.offer(Priority::High, batch(5, 20));
        assert_eq!(
            d,
            AdmissionDecision::Admitted {
                evicted_updates: 20
            }
        );
        // Another 40 high evicts the normal batch.
        let d = q.offer(Priority::High, batch(6, 40));
        assert_eq!(
            d,
            AdmissionDecision::Admitted {
                evicted_updates: 40
            }
        );
        assert_eq!(q.stats().evicted, [0, 40, 40]);
        // Queue now all-high at 90/100: an oversized high offer sheds.
        assert_eq!(
            q.offer(Priority::High, batch(7, 20)),
            AdmissionDecision::Shed(ShedReason::QueueFull)
        );
        assert_eq!(q.stats().lost(Priority::High), 20);
        // Events were recorded for every loss.
        let evs = q.take_events();
        assert_eq!(evs.len(), 4, "{evs:?}");
        assert!(evs
            .iter()
            .all(|e| matches!(e.kind, EventKind::LoadShed { .. })));
    }

    #[test]
    fn pop_order_is_priority_then_fifo() {
        let mut q = AdmissionQueue::new(small_cfg());
        q.offer(Priority::Bulk, batch(1, 5));
        q.offer(Priority::Normal, batch(2, 5));
        q.offer(Priority::Normal, batch(3, 5));
        q.offer(Priority::High, batch(4, 5));
        let order: Vec<(Priority, Timestamp)> = std::iter::from_fn(|| q.pop())
            .map(|(c, b)| (c, b.time))
            .collect();
        assert_eq!(
            order,
            vec![
                (Priority::High, 4),
                (Priority::Normal, 2),
                (Priority::Normal, 3),
                (Priority::Bulk, 1),
            ]
        );
        assert!(q.is_empty());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn depth_never_exceeds_capacity_under_mixed_fire() {
        let mut q = AdmissionQueue::new(small_cfg());
        for i in 0..200u64 {
            let class = match i % 3 {
                0 => Priority::High,
                1 => Priority::Normal,
                _ => Priority::Bulk,
            };
            q.offer(class, batch(i, 7));
            assert!(q.depth() <= 100, "depth {} at offer {i}", q.depth());
            if i % 5 == 0 {
                q.pop();
            }
        }
        assert!(q.stats().high_water <= 100);
        // Nothing high-priority was lost: sheds only below capacity
        // pressure from high itself.
        assert_eq!(q.stats().evicted[Priority::High.idx()], 0);
    }

    #[test]
    fn offers_are_deterministic() {
        let run = || {
            let mut q = AdmissionQueue::new(small_cfg());
            for i in 0..500u64 {
                let class = Priority::ALL[(i % 3) as usize];
                q.offer(class, batch(i, (i % 13) as usize + 1));
                if i % 4 == 0 {
                    q.pop();
                }
            }
            q.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn misordered_watermarks_panic() {
        AdmissionQueue::new(AdmissionConfig {
            capacity: 10,
            normal_watermark: 20,
            bulk_watermark: 5,
        });
    }
}
