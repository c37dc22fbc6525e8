//! The `ga-obs` observability surface, end to end: snapshot JSON
//! round-trips and stays on the `ga-obs/v1` schema, the event journal
//! honors its ring-buffer bound, a disabled recorder is a no-op, a
//! mini durable flow covers the NORA step taxonomy with spans, and the
//! deprecated configuration shims still steer the engine.

use graph_analytics::prelude::*;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ga_obs_metrics")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Drive a small durable flow with an enabled recorder: stream ingest
/// through the WAL, periodic checkpoints, and a triggered batch path.
fn instrumented_durable_flow(dir: &PathBuf) -> MetricsSnapshot {
    let mut flow = FlowEngine::builder()
        .durability_dir(dir)
        .recorder(Recorder::enabled())
        .build(1 << 10)
        .unwrap();
    let pr = flow.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
    // Dedup happens upstream of the engine in this workspace; charge it
    // to the span taxonomy by hand, as the bench drivers do.
    flow.recorder()
        .record(Step::Dedup, 1_000, [500, 4_096, 0, 0]);
    let batches = into_batches(rmat_edge_stream(8, 4_000, 0.1, 9), 500, 1);
    for (i, b) in batches.iter().enumerate() {
        flow.process_stream_durable(b, |_| None, None).unwrap();
        if i == batches.len() / 2 {
            flow.checkpoint().unwrap();
        }
    }
    flow.run_batch(&SelectionCriteria::TopKDegree { k: 3 }, pr);
    flow.metrics()
}

#[test]
fn durable_flow_covers_the_step_taxonomy() {
    let dir = tmpdir("coverage");
    let snap = instrumented_durable_flow(&dir);
    assert!(
        snap.steps_covered() >= 8,
        "expected >= 8 NORA steps spanned, got {}: {:?}",
        snap.steps_covered(),
        snap.steps
            .iter()
            .filter(|m| m.count > 0)
            .map(|m| m.step.name())
            .collect::<Vec<_>>()
    );
    // The durable path's own steps are all present.
    for step in [Step::Ingest, Step::Wal, Step::Checkpoint, Step::Snapshot] {
        assert!(snap.step(step).count > 0, "{} never spanned", step.name());
    }
    // Spans measured real work: wall time advanced and resources moved.
    assert!(snap.step(Step::Wal).disk_bytes > 0);
    assert!(snap.step(Step::Checkpoint).disk_bytes > 0);
    assert!(snap.step(Step::BatchAnalytic).cpu_ops > 0);
    assert!(snap.step(Step::Ingest).wall_nanos > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_json_round_trips_from_a_real_run() {
    let dir = tmpdir("roundtrip");
    let snap = instrumented_durable_flow(&dir);
    let line = snap.to_json();
    assert!(!line.contains('\n'), "snapshot must be one JSON line");
    let back = MetricsSnapshot::from_json(&line).unwrap();
    assert_eq!(back, snap);
    // And the empty snapshot round-trips too (schema-valid when disabled).
    let empty = MetricsSnapshot::empty();
    assert_eq!(MetricsSnapshot::from_json(&empty.to_json()).unwrap(), empty);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_schema_is_stable() {
    // Golden keys: external consumers (the CI obs job, dashboards) key
    // off these exact names — changing any of them is a schema bump.
    let rec = Recorder::enabled();
    rec.record(Step::Ingest, 10, [1, 2, 3, 4]);
    rec.journal(7, "load_shed", "bulk: 3 updates at depth 9".into());
    let line = rec.snapshot().to_json();
    for key in [
        "\"schema\":\"ga-obs/v1\"",
        "\"steps\":",
        "\"events\":",
        "\"step\":",
        "\"count\":",
        "\"cpu_ops\":",
        "\"mem_bytes\":",
        "\"disk_bytes\":",
        "\"net_bytes\":",
        "\"wall_nanos\":",
        "\"hist\":",
        "\"seq\":",
        "\"time\":",
        "\"category\":",
        "\"detail\":",
    ] {
        assert!(line.contains(key), "schema key {key} missing from {line}");
    }
    // All nine taxonomy names appear, in declaration order.
    let mut pos = 0;
    for step in Step::ALL {
        let needle = format!("\"step\":\"{}\"", step.name());
        let at = line[pos..].find(&needle).unwrap_or_else(|| {
            panic!("step {} missing or out of order", step.name());
        });
        pos += at + needle.len();
    }
}

#[test]
fn journal_is_bounded_by_its_ring_capacity() {
    let rec = Recorder::with_journal_capacity(16);
    for i in 0..100 {
        rec.journal(i, "degraded", format!("event {i}"));
    }
    let snap = rec.snapshot();
    assert_eq!(snap.events.len(), 16, "ring buffer exceeded its capacity");
    // The ring keeps the most recent events, with monotone sequence
    // numbers that expose how many were dropped.
    assert_eq!(snap.events.first().unwrap().detail, "event 84");
    assert_eq!(snap.events.last().unwrap().detail, "event 99");
    let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
}

#[test]
fn disabled_recorder_records_nothing() {
    let rec = Recorder::disabled();
    assert!(!rec.is_enabled());
    let mut span = rec.span(Step::BatchAnalytic);
    assert!(!span.is_recording());
    span.add(1_000, 2_000, 3_000, 4_000);
    drop(span);
    rec.record(Step::Ingest, 99, [9, 9, 9, 9]);
    rec.journal(1, "circuit_breaker", "durability open".into());
    let snap = rec.snapshot();
    assert_eq!(snap, MetricsSnapshot::empty());
    assert_eq!(snap.steps_covered(), 0);

    // An engine without an explicit recorder is disabled by default:
    // its snapshot is empty but schema-valid.
    let mut flow = FlowEngine::new(64);
    let pr = flow.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
    for b in into_batches(rmat_edge_stream(6, 200, 0.1, 3), 50, 1) {
        flow.process_stream(&b, |_| None, None);
    }
    flow.run_batch(&SelectionCriteria::TopKDegree { k: 2 }, pr);
    assert_eq!(flow.metrics(), MetricsSnapshot::empty());
    assert!(MetricsSnapshot::from_json(&flow.metrics().to_json()).is_ok());
}

#[test]
fn overload_events_land_in_the_journal() {
    let mut flow = FlowEngine::builder()
        .admission(AdmissionConfig {
            capacity: 100,
            normal_watermark: 40,
            bulk_watermark: 20,
        })
        .recorder(Recorder::enabled())
        .build(64)
        .unwrap();
    // Offer far past the bulk watermark without pumping: sheds must be
    // journaled alongside the span data, one unified stream.
    let updates = rmat_edge_stream(6, 400, 0.1, 5);
    for b in into_batches(updates, 10, 1) {
        flow.offer(Priority::Bulk, b);
    }
    let snap = flow.metrics();
    assert!(
        snap.events.iter().any(|e| e.category == "load_shed"),
        "no load_shed event journaled: {:?}",
        snap.events
    );
}

#[test]
fn pre_pr5_setter_shims_are_gone_and_builder_covers_them() {
    // The deprecated post-construction setters (set_retry_policy,
    // set_admission_config, set_breaker, enable_durability) were
    // retired: the builder is the only configuration surface. Pin
    // that they stay gone from the public API.
    let flow_src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/core/src/flow.rs"
    ))
    .unwrap();
    for shim in [
        "pub fn set_retry_policy",
        "pub fn set_admission_config",
        "pub fn set_breaker",
        "pub fn enable_durability(",
    ] {
        assert!(
            !flow_src.contains(shim),
            "retired shim `{shim}` resurfaced on FlowEngine"
        );
    }
    // And the builder covers everything the shims used to do.
    let dir = tmpdir("shims");
    let mut e = FlowEngine::builder()
        .retry(RetryPolicy::retries(2, 7))
        .admission(AdmissionConfig {
            capacity: 50,
            normal_watermark: 40,
            bulk_watermark: 30,
        })
        .durability_dir(&dir)
        .build(64)
        .unwrap();
    assert!(e.is_durable());
    assert_eq!(e.retry_policy(), RetryPolicy::retries(2, 7));
    for b in into_batches(rmat_edge_stream(6, 100, 0.0, 2), 25, 1) {
        e.process_stream_durable(&b, |_| None, None).unwrap();
    }
    assert_eq!(e.stats().ingest.updates_applied, 100);
    let live = e.graph().clone();
    drop(e);
    let r = FlowEngine::recover(&dir).unwrap();
    assert_eq!(*r.graph(), live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_replays_under_the_configured_recorder() {
    // Checkpoint mid-run, crash, recover with a recorder on the builder:
    // the configuration is in force during WAL replay, so the recorder
    // sees exactly one Ingest span per replayed frame.
    let dir = tmpdir("recover-spans");
    let mut e = FlowEngine::builder()
        .durability_dir(&dir)
        .build(1 << 8)
        .unwrap();
    let batches = into_batches(rmat_edge_stream(8, 1_200, 0.1, 4), 100, 1);
    let checkpoint_after = 5;
    for (i, b) in batches.iter().enumerate() {
        e.process_stream_durable(b, |_| None, None).unwrap();
        if i + 1 == checkpoint_after {
            e.checkpoint().unwrap();
        }
    }
    let (live_graph, live_props) = (e.graph().clone(), e.props().clone());
    drop(e);

    let r = FlowEngine::builder()
        .recorder(Recorder::enabled())
        .recover(&dir)
        .unwrap();
    let replayed = (batches.len() - checkpoint_after) as u64;
    assert_eq!(r.metrics().step(Step::Ingest).count, replayed);
    assert_eq!(*r.graph(), live_graph);
    assert_eq!(*r.props(), live_props);
    std::fs::remove_dir_all(&dir).ok();
}

/// A serving engine freezes a snapshot for every publish, analytic or
/// no analytic: `FlowStats.snapshots` must report those freezes (it used
/// to fold the cache counters only inside `run_batch`, so a pure
/// ingest-and-serve engine read `rebuilds == 0, mem_bytes == 0` forever).
#[test]
fn serving_without_analytics_still_counts_its_freezes() {
    let mut flow = FlowEngine::new(1 << 8);
    let handle = flow.serve_handle();
    // Insert-only batches: every one moves the graph, so every publish
    // is one rebuild.
    for b in into_batches(rmat_edge_stream(8, 1_200, 0.0, 5), 200, 1) {
        flow.process_stream(&b, |_| None, None);
    }
    let s = flow.stats().snapshots;
    assert_eq!(handle.publishes(), 1 + 6, "initial publish + one per batch");
    assert_eq!(s.rebuilds as u64, handle.publishes());
    assert!(s.mem_bytes > 0);
    assert!(s.rows_reused > 0, "delta freezes reuse clean rows");
}
