//! Overload resilience, end to end: a firehose offered at 1–16× the
//! drain rate, with a per-batch PageRank analytic riding on it, must
//! leave the engine standing — queue bounded by the admission capacity,
//! zero high-priority loss, back to `Full` once drained, deterministic
//! shed counts — while transient durability faults are ridden out on
//! retries and persistent ones trip the breaker into explicit
//! non-durable degradation.

use ga_core::faults::{self, FaultMode};
use ga_core::flow::{DegradationLevel, FlowEngine, FlowStats, OverloadConfig, PageRankAnalytic};
use ga_core::retry::RetryPolicy;
use ga_graph::dynamic::ApplyResult;
use ga_graph::DynamicGraph;
use ga_stream::admission::{AdmissionConfig, AdmissionStats, Priority};
use ga_stream::update::{rmat_edge_stream, Update, UpdateBatch};
use ga_stream::{Event, EventKind, Monitor};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

// The fault registry is process-global: serialize the faulted tests.
static LOCK: Mutex<()> = Mutex::new(());

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ga_overload")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A firehose: `rounds` rounds of 10 batches (2 high, 5 normal, 3 bulk)
/// of `batch_len` updates each. All batches share one timestamp so
/// priority reordering cannot make admitted work stale.
fn firehose(rounds: usize, batch_len: usize, seed: u64) -> Vec<(Priority, UpdateBatch)> {
    let updates = rmat_edge_stream(7, rounds * 10 * batch_len, 0.1, seed);
    updates
        .chunks(batch_len)
        .enumerate()
        .map(|(i, chunk)| {
            let class = match i % 10 {
                0 | 5 => Priority::High,
                1 | 4 | 6 => Priority::Bulk,
                _ => Priority::Normal,
            };
            (
                class,
                UpdateBatch {
                    time: 1,
                    updates: chunk.to_vec(),
                },
            )
        })
        .collect()
}

const CFG: AdmissionConfig = AdmissionConfig {
    capacity: 1500,
    normal_watermark: 1200,
    bulk_watermark: 800,
};

/// One event per batch end, so the analytic triggers once per batch
/// and its cost scales with batches, not updates.
struct Pulse;

impl Monitor for Pulse {
    fn name(&self) -> &'static str {
        "pulse"
    }
    fn on_update(
        &mut self,
        _: &DynamicGraph,
        _: &Update,
        _: ApplyResult,
        _: u64,
        _: &mut Vec<Event>,
    ) {
    }
    fn on_batch_end(&mut self, _: &DynamicGraph, time: u64, out: &mut Vec<Event>) {
        out.push(Event {
            time,
            source: "pulse",
            kind: EventKind::GlobalValue {
                metric: "pulse",
                value: 1.0,
            },
        });
    }
}

/// Offer `rate` batches per single pumped batch — a `rate`× overload —
/// with a pulse-triggered PageRank analytic, then drain. Asserts the
/// overload gates (queue within capacity after every offer, no High
/// loss, back to `Full`) and returns the counters the callers compare.
fn soak(seed: u64, rate: usize) -> (AdmissionStats, FlowStats, usize) {
    let mut e = FlowEngine::builder()
        .admission(CFG)
        .overload(OverloadConfig {
            partial_at: 500,
            seeds_only_at: 1000,
            shed_at: 1400,
            ..OverloadConfig::default()
        })
        .build(128)
        .unwrap();
    e.register_monitor(Box::new(Pulse));
    let pr = e.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
    let trigger = |ev: &Event| {
        matches!(
            ev.kind,
            EventKind::GlobalValue {
                metric: "pulse",
                ..
            }
        )
        .then(|| vec![0])
    };
    let mut max_depth = 0;
    for round in firehose(20, 20, seed).chunks(rate) {
        for (class, batch) in round {
            e.offer(*class, batch.clone());
            assert!(
                e.queue_depth() <= CFG.capacity,
                "{rate}x: queue exceeded its capacity bound"
            );
        }
        max_depth = max_depth.max(e.queue_depth());
        e.pump(1, trigger, Some(pr)).unwrap();
    }
    while e.queue_depth() > 0 {
        e.pump(64, trigger, Some(pr)).unwrap();
    }
    let adm = e.admission_stats();
    assert_eq!(
        adm.lost(Priority::High),
        0,
        "{rate}x: high-priority updates lost"
    );
    assert_eq!(e.degradation_level(), DegradationLevel::Full, "{rate}x");
    (adm, e.stats(), max_depth)
}

#[test]
fn every_offered_rate_keeps_the_overload_gates() {
    for rate in [1, 2, 4, 8, 16] {
        let (adm, flow, _) = soak(3, rate);
        assert!(
            flow.analytics.batch_runs > 0,
            "{rate}x: the analytic never ran"
        );
        if rate == 1 {
            // Offered at the drain rate: nothing queues, nothing is shed.
            assert_eq!(adm.total_lost(), 0);
            assert_eq!(flow.overload.analytics_skipped, 0);
        } else {
            assert!(flow.overload.updates_shed > 0, "{rate}x shed nothing");
        }
    }
}

#[test]
fn firehose_sheds_bulk_first_never_high() {
    let (adm, flow, max_depth) = soak(99, 10);
    let offered_total: usize = adm.offered.iter().sum();
    assert_eq!(offered_total, 20 * 10 * 20);

    // Overload really happened and the queue really filled.
    assert!(
        flow.overload.updates_shed > 0,
        "10× firehose did not shed anything"
    );
    assert!(max_depth >= CFG.normal_watermark, "queue never saturated");

    // High-priority traffic is never lost: not shed, not evicted.
    assert_eq!(adm.lost(Priority::High), 0, "high-priority updates lost");
    assert_eq!(
        adm.admitted[Priority::High.idx()],
        adm.offered[Priority::High.idx()]
    );

    // Bulk pays first: its watermark is lowest, so it loses a larger
    // fraction of its own offers than normal does of its.
    assert!(adm.shed[Priority::Bulk.idx()] > 0);
    let loss_rate = |p: Priority| adm.lost(p) as f64 / adm.offered[p.idx()] as f64;
    assert!(
        loss_rate(Priority::Bulk) >= loss_rate(Priority::Normal),
        "bulk {:.3} vs normal {:.3}",
        loss_rate(Priority::Bulk),
        loss_rate(Priority::Normal)
    );

    // Conservation: every offered update was admitted or shed, and
    // every admitted-minus-evicted update reached the stream engine.
    for p in Priority::ALL {
        let i = p.idx();
        assert_eq!(adm.offered[i], adm.admitted[i] + adm.shed[i], "{p:?}");
    }
    let admitted: usize = adm.admitted.iter().sum();
    let evicted: usize = adm.evicted.iter().sum();
    assert_eq!(
        flow.ingest.updates_applied + flow.ingest.updates_quarantined,
        admitted - evicted,
        "updates leaked between admission and the stream engine"
    );
    assert_eq!(flow.overload.updates_shed, adm.total_lost());
}

#[test]
fn soak_is_deterministic() {
    // Shed/evict decisions are clock-free: two identical soaks must
    // produce identical counters, batch for batch.
    assert_eq!(soak(7, 10), soak(7, 10));
}

#[test]
fn transient_wal_fault_is_ridden_out_by_retries() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let dir = tmpdir("transient");
    let mut e = FlowEngine::builder()
        .durability_dir(&dir)
        .retry(RetryPolicy::retries(3, 42))
        .build(64)
        .unwrap();
    faults::arm("wal.append", FaultMode::FailTimes(2));

    let updates = rmat_edge_stream(6, 60, 0.0, 11);
    let batches = ga_stream::update::into_batches(updates, 20, 1);
    for b in &batches {
        e.process_stream_durable(b, |_| None, None).unwrap();
    }
    faults::clear_all();

    assert_eq!(
        e.stats().durability.retries,
        2,
        "fail-twice costs 2 retries"
    );
    assert_eq!(
        e.stats().ingest.updates_quarantined,
        0,
        "no batch was quarantined"
    );
    assert_eq!(e.stats().ingest.updates_applied, 60);
    assert_eq!(e.stats().durability.breaker_trips, 0);
    assert!(!e.durability_suspended());

    // The retried frame is durable: recovery replays all three batches.
    let live_graph = e.graph().clone();
    drop(e);
    let r = FlowEngine::recover(&dir).unwrap();
    assert_eq!(*r.graph(), live_graph);
    assert_eq!(r.stats().ingest.updates_applied, 60);
    assert_eq!(r.stats().ingest.updates_quarantined, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_fault_trips_breaker_into_non_durable_mode() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let dir = tmpdir("breaker");
    let mut e = FlowEngine::builder()
        .durability_dir(&dir)
        .breaker_threshold(2)
        .build(64)
        .unwrap();
    faults::arm("wal.append", FaultMode::FailEveryNth(1)); // every append fails

    let updates = rmat_edge_stream(6, 60, 0.0, 5);
    let batches = ga_stream::update::into_batches(updates, 20, 1);

    // First failure: surfaced as an error, batch not applied.
    assert!(e
        .process_stream_durable(&batches[0], |_| None, None)
        .is_err());
    assert!(!e.durability_suspended());
    assert_eq!(e.stats().ingest.updates_applied, 0);

    // Second consecutive failure trips the breaker: the engine degrades
    // to non-durable operation, applies the batch, and raises an alert.
    e.process_stream_durable(&batches[0], |_| None, None)
        .unwrap();
    assert!(e.durability_suspended());
    assert_eq!(e.stats().durability.breaker_trips, 1);
    assert_eq!(e.stats().analytics.alerts_raised, 1);
    assert_eq!(e.stats().ingest.updates_applied, 20);
    let evs = e.take_overload_events();
    assert!(evs.iter().any(|ev| matches!(
        ev.kind,
        EventKind::CircuitBreaker {
            site: "durability",
            open: true
        }
    )));

    // While suspended: batches flow (non-durably), checkpoints refuse.
    e.process_stream_durable(&batches[1], |_| None, None)
        .unwrap();
    assert_eq!(e.stats().ingest.updates_applied, 40);
    assert!(e.checkpoint().is_err());

    // Operator fixes the disk: resume, re-base with a checkpoint, and
    // recovery sees the full state again — including the batches that
    // were applied while the WAL was down.
    faults::clear_all();
    e.resume_durability().unwrap();
    assert!(!e.durability_suspended());
    e.checkpoint().unwrap();
    e.process_stream_durable(&batches[2], |_| None, None)
        .unwrap();
    let evs = e.take_overload_events();
    assert!(evs.iter().any(|ev| matches!(
        ev.kind,
        EventKind::CircuitBreaker {
            site: "durability",
            open: false
        }
    )));

    let live_graph = e.graph().clone();
    let live_applied = e.stats().ingest.updates_applied;
    drop(e);
    let r = FlowEngine::recover(&dir).unwrap();
    assert_eq!(*r.graph(), live_graph);
    assert_eq!(r.stats().ingest.updates_applied, live_applied);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pump_requeues_batch_on_durable_append_error() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let dir = tmpdir("pump-requeue");
    let mut e = FlowEngine::builder()
        .durability_dir(&dir)
        .retry(RetryPolicy::none())
        .breaker_threshold(10) // far from tripping
        .build(16)
        .unwrap();
    let batch = UpdateBatch {
        time: 1,
        updates: vec![Update::EdgeInsert {
            src: 0,
            dst: 1,
            weight: 1.0,
        }],
    };
    assert!(e.offer(Priority::High, batch).admitted());
    faults::arm("wal.append", FaultMode::FailOnce);

    // The append fails without tripping the breaker: the error is
    // surfaced and the popped batch goes back to the front of its class
    // — not applied, not counted shed, not silently dropped.
    assert!(e.pump(8, |_| None, None).is_err());
    assert_eq!(e.queue_depth(), 1, "failed batch must be re-queued");
    assert_eq!(e.stats().ingest.updates_applied, 0);
    assert_eq!(e.stats().overload.updates_shed, 0);
    assert_eq!(e.admission_stats().total_lost(), 0);

    // The fault cleared (FailOnce): the very same batch drains durably.
    e.pump(8, |_| None, None).unwrap();
    assert_eq!(e.queue_depth(), 0);
    assert_eq!(e.stats().ingest.updates_applied, 1);
    faults::clear_all();

    let live_graph = e.graph().clone();
    drop(e);
    let r = FlowEngine::recover(&dir).unwrap();
    assert_eq!(*r.graph(), live_graph);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dead_letters_survive_replay_append_error() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let dir = tmpdir("dead-letter-retain");
    let mut e = FlowEngine::builder()
        .vertex_limit(8)
        .durability_dir(&dir)
        .retry(RetryPolicy::none())
        .breaker_threshold(10)
        .build(16)
        .unwrap();
    let batch = UpdateBatch {
        time: 1,
        updates: vec![Update::EdgeInsert {
            src: 0,
            dst: 12, // over the limit: quarantined
            weight: 1.0,
        }],
    };
    e.process_stream_durable(&batch, |_| None, None).unwrap();
    assert_eq!(e.dead_letters().count(), 1);

    // A replay whose WAL append fails must leave the quarantined update
    // safely in the dead-letter queue, not destroy it with the error.
    e.set_vertex_limit(16);
    faults::arm("wal.append", FaultMode::FailOnce);
    assert!(e.replay_dead_letters().is_err());
    assert_eq!(e.dead_letters().count(), 1, "letters destroyed on error");

    // After the fault clears, the same letters replay cleanly.
    assert_eq!(e.replay_dead_letters().unwrap(), (1, 0));
    assert!(e.graph().has_edge(0, 12));
    assert_eq!(e.dead_letters().count(), 0);
    faults::clear_all();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn correlated_repair_failure_still_trips_breaker() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let dir = tmpdir("repair-breaker");
    let mut e = FlowEngine::builder()
        .durability_dir(&dir)
        .retry(RetryPolicy::none())
        .breaker_threshold(2)
        .build(16)
        .unwrap();
    // Hard storage fault: every append fails AND every tail repair
    // fails too — the correlated case that must feed the breaker rather
    // than bypass it into an unbounded error stream.
    faults::arm("wal.append", FaultMode::FailEveryNth(1));
    faults::arm("wal.repair", FaultMode::FailEveryNth(1));

    let batch = UpdateBatch {
        time: 1,
        updates: vec![Update::EdgeInsert {
            src: 0,
            dst: 1,
            weight: 1.0,
        }],
    };
    assert!(e.process_stream_durable(&batch, |_| None, None).is_err());
    assert!(!e.durability_suspended());

    // The second consecutive repair failure trips the breaker into
    // explicit non-durable operation instead of erroring forever.
    e.process_stream_durable(&batch, |_| None, None).unwrap();
    assert!(e.durability_suspended());
    assert_eq!(e.stats().durability.breaker_trips, 1);
    assert_eq!(e.stats().ingest.updates_applied, 1);
    faults::clear_all();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dead_letters_replay_through_the_durable_path() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let dir = tmpdir("dead-letters");
    // Limit before durability: the base checkpoint records the limit
    // that quarantines, so recovery re-quarantines deterministically.
    let mut e = FlowEngine::builder()
        .vertex_limit(8)
        .durability_dir(&dir)
        .build(16)
        .unwrap();
    let batch = UpdateBatch {
        time: 1,
        updates: vec![
            Update::EdgeInsert {
                src: 0,
                dst: 12, // over the limit: quarantined
                weight: 1.0,
            },
            Update::EdgeInsert {
                src: 0,
                dst: 1,
                weight: 1.0,
            },
        ],
    };
    e.process_stream_durable(&batch, |_| None, None).unwrap();
    assert_eq!(e.stats().ingest.updates_quarantined, 1);

    e.set_vertex_limit(16);
    assert_eq!(e.replay_dead_letters().unwrap(), (1, 0));
    assert!(e.graph().has_edge(0, 12));
    // Raising the limit is a config change the WAL cannot replay —
    // checkpoint to re-base recovery on the new configuration.
    e.checkpoint().unwrap();

    // The replay went through the durable path: recovery reproduces it
    // without any operator re-intervention.
    let live_graph = e.graph().clone();
    drop(e);
    let r = FlowEngine::recover(&dir).unwrap();
    assert_eq!(*r.graph(), live_graph);
    assert_eq!(r.stats().ingest.updates_applied, 2);
    assert_eq!(r.dead_letters().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The freeze rewrites the whole CSR, so the rungs that exist to make a
/// batch cheap must not pay it per batch: a serving engine publishes per
/// batch at `Full`/`PartialBudget`, once per pump for everything it
/// applied at `SeedsOnly`/`Shed` — and readers still see all of it.
#[test]
fn degraded_rungs_publish_once_per_pump() {
    let mut e = FlowEngine::builder()
        .overload(OverloadConfig {
            partial_at: 20,
            seeds_only_at: 30,
            shed_at: 50,
            ..OverloadConfig::default()
        })
        .build(64)
        .unwrap();
    let handle = e.serve_handle();
    // Ten batches of ten distinct edges: depth 100, 90, … 10 at pop.
    for b in 0..10u32 {
        let updates = (0..10)
            .map(|k| Update::EdgeInsert {
                src: b,
                dst: 20 + k,
                weight: 1.0,
            })
            .collect();
        e.offer(Priority::Normal, UpdateBatch { time: 1, updates });
    }
    let before = handle.publishes();

    // Depths 100..=50: six batches, all at `Shed`.
    assert_eq!(e.degradation_level(), DegradationLevel::Shed);
    e.pump(6, |_| None, None).unwrap();
    assert_eq!(e.degradation_level(), DegradationLevel::SeedsOnly);
    assert_eq!(handle.publishes() - before, 1, "one freeze per Shed pump");
    // Readers see every applied edge (stored in both directions).
    assert_eq!(handle.load().unwrap().csr.num_edges(), 2 * 60);

    // Depths 40, 30 (`SeedsOnly`: deferred), 20 (`PartialBudget`),
    // 10 (`Full`): the last two publish per batch and leave the
    // post-loop publish nothing to do.
    e.pump(10, |_| None, None).unwrap();
    assert_eq!(e.degradation_level(), DegradationLevel::Full);
    assert_eq!(handle.publishes() - before, 3);
    assert_eq!(handle.load().unwrap().csr.num_edges(), 2 * 100);
}

proptest! {
    /// Backoff delays are always inside [base, cap], for any policy
    /// shape, seed, and attempt number (including shift-overflow
    /// territory).
    #[test]
    fn backoff_delays_bounded_by_base_and_cap(
        (base_ms, cap_ms, seed, attempt) in
            (1u64..50, 1u64..200, 0..u64::MAX, 0u32..100)
    ) {
        let p = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(cap_ms),
            seed,
        };
        let d = p.delay(attempt);
        let lo = p.base.min(p.cap);
        let hi = p.base.max(p.cap);
        prop_assert!(d >= lo, "delay {d:?} below base {lo:?}");
        prop_assert!(d <= hi, "delay {d:?} above cap {hi:?}");
        // And it is a pure function of (policy, attempt).
        prop_assert_eq!(d, p.delay(attempt));
    }
}
