//! E19 driver: concurrent query serving over epoch snapshots.
//!
//! The paper's §V-B serving workload — "a stream of independent local
//! queries" answered in tens of microseconds — run as an open-loop
//! load test: reader threads issue point queries at a fixed offered
//! QPS (arrival times independent of completions, so queue delay is
//! *measured*, not hidden), against a graph that is either frozen or
//! being rewritten underneath them by a concurrent firehose ingest
//! thread. Latency is reported as exact p50/p99/p999 from the raw
//! sample set, per offered rate, sharded and unsharded.
//!
//! Consistency is gated unconditionally on every run: reader-observed
//! epochs must be monotonic,
//! every answered query must come from one coherent generation, the
//! final served snapshot must answer bit-identically to a fresh
//! single-threaded replay of the same update stream, and the sharded
//! router must agree with the unsharded engine on every point query.
//!
//! ```sh
//! cargo run --release -p ga-bench --bin bench_serve
//! # smoke (CI): GA_BENCH_SMOKE=1 shrinks scale and rates
//! ```

use ga_bench::{header, smoke};
use ga_core::flow::FlowEngine;
use ga_core::serve::{QueryOutcome, QueryService, ServeConfig, TenantConfig};
use ga_core::sharded::ShardedFlow;
use ga_stream::admission::{AdmissionConfig, Priority};
use ga_stream::update::{into_batches, rmat_edge_stream, Update, UpdateBatch};
use ga_stream::{Query, SnapshotHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Deterministic per-thread vertex sequence (splitmix64).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn point_query(rng: &mut u64, n: u32) -> Query {
    let v = (splitmix(rng) % n as u64) as u32;
    match splitmix(rng) % 3 {
        0 => Query::Degree { vertex: v },
        1 => Query::Neighbors {
            vertex: v,
            limit: 16,
        },
        _ => Query::get_property(v, "w"),
    }
}

/// Sleep-then-spin until `deadline` (open-loop pacing without burning
/// a core on long waits).
fn pace_until(deadline: Instant) {
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

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1_000.0 // ns -> us
}

struct LoadPoint {
    mode: &'static str,
    firehose: bool,
    offered_qps: u64,
    achieved_qps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    answered: u64,
    shed_high: u64,
    shed_bulk: u64,
}

/// Open-loop point-query load against an unsharded serving engine.
/// `ingest` is the concurrent firehose work the main thread performs
/// while readers run (empty closure = frozen graph).
fn run_unsharded(
    service: &QueryService,
    n_vertices: u32,
    readers: usize,
    offered_qps: u64,
    per_thread: usize,
    firehose: bool,
    mut ingest: impl FnMut(&AtomicBool),
) -> (Vec<u64>, u64, u64, u64) {
    let done = AtomicBool::new(false);
    let interval_ns = readers as u64 * 1_000_000_000 / offered_qps;
    let high = service.tenant(TenantConfig::new("points", Priority::High));
    let bulk = service.tenant(TenantConfig::new("scans", Priority::Bulk));
    let mut latencies: Vec<u64> = Vec::new();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..readers {
            let mut client = service.client(&high);
            let done = &done;
            joins.push(s.spawn(move || {
                let mut rng = 0x5eed ^ (t as u64) << 32 | offered_qps;
                let mut lat = Vec::with_capacity(per_thread);
                let mut last_epoch = 0u64;
                let start = Instant::now() + Duration::from_micros(50);
                for i in 0..per_thread {
                    let sched = start + Duration::from_nanos(i as u64 * interval_ns);
                    pace_until(sched);
                    let q = point_query(&mut rng, n_vertices);
                    match client.run(&q) {
                        QueryOutcome::Answered { epoch, .. } => {
                            // Consistency gate: served epochs never go
                            // backwards under concurrent publication.
                            assert!(
                                epoch.epoch >= last_epoch,
                                "epoch went backwards: {} < {last_epoch}",
                                epoch.epoch
                            );
                            last_epoch = epoch.epoch;
                            // Open-loop latency: from the scheduled
                            // arrival, so queue delay counts.
                            lat.push(sched.elapsed().as_nanos() as u64);
                        }
                        QueryOutcome::Shed(_) => {}
                    }
                }
                done.store(true, Ordering::Release);
                lat
            }));
        }
        // One best-effort Bulk scanner keeps watermark pressure on the
        // shared admission gauge while the points fly.
        let mut scanner = service.client(&bulk);
        let done_ref = &done;
        joins.push(s.spawn(move || {
            let mut lat = Vec::new();
            while !done_ref.load(Ordering::Acquire) {
                let _ = scanner.run(&Query::top_k_by_property("w", 8));
                std::thread::sleep(Duration::from_micros(500));
            }
            lat.clear();
            lat
        }));
        if firehose {
            ingest(&done);
        }
        for j in joins {
            latencies.extend(j.join().expect("reader thread"));
        }
    });
    latencies.sort_unstable();
    let stats = service.stats();
    (
        latencies,
        stats.total_answered(),
        stats.class(Priority::High).shed,
        stats.class(Priority::Bulk).shed,
    )
}

/// Same open-loop sweep through the sharded router (point queries
/// routed to owner shards; no admission layer — raw routing latency).
fn run_sharded(
    flow: &mut ShardedFlow,
    n_vertices: u32,
    readers: usize,
    offered_qps: u64,
    per_thread: usize,
    firehose: bool,
    batches: &[UpdateBatch],
) -> Vec<u64> {
    let mut routers: Vec<_> = (0..readers).map(|_| flow.query_router()).collect();
    let done = AtomicBool::new(false);
    let interval_ns = readers as u64 * 1_000_000_000 / offered_qps;
    let mut latencies: Vec<u64> = Vec::new();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for (t, mut router) in routers.drain(..).enumerate() {
            let done = &done;
            joins.push(s.spawn(move || {
                let mut rng = 0xca11 ^ (t as u64) << 32 | offered_qps;
                let mut lat = Vec::with_capacity(per_thread);
                let start = Instant::now() + Duration::from_micros(50);
                for i in 0..per_thread {
                    let sched = start + Duration::from_nanos(i as u64 * interval_ns);
                    pace_until(sched);
                    let q = point_query(&mut rng, n_vertices);
                    router.run(&q).expect("routable point query");
                    lat.push(sched.elapsed().as_nanos() as u64);
                }
                done.store(true, Ordering::Release);
                lat
            }));
        }
        if firehose {
            let mut i = 0usize;
            while !done.load(Ordering::Acquire) {
                flow.process_batch(&batches[i % batches.len()])
                    .expect("sharded ingest");
                i += 1;
            }
        }
        for j in joins {
            latencies.extend(j.join().expect("reader thread"));
        }
    });
    latencies.sort_unstable();
    latencies
}

/// Build the firehose batch list: R-MAT edge inserts with periodic
/// property writes so both the adjacency and the columns move.
fn firehose_batches(scale: u32, total: usize, seed: u64) -> Vec<UpdateBatch> {
    let n = 1u32 << scale;
    let mut batches = into_batches(rmat_edge_stream(scale, total, 0.1, seed), 64, 1);
    for (i, b) in batches.iter_mut().enumerate() {
        b.updates.push(Update::PropertySet {
            vertex: (i as u32 * 37) % n,
            name: "w".into(),
            value: (i % 97) as f64,
        });
    }
    batches
}

/// The final-state consistency gate: the served snapshot must answer
/// exactly like a fresh single-threaded replay of the same batches.
fn assert_replay_consistency(handle: &SnapshotHandle, batches: &[UpdateBatch], n: u32) {
    let served = handle.load().expect("published snapshot");
    let mut replay = FlowEngine::new(n as usize);
    for b in batches {
        replay.process_stream(b, |_| None, None);
    }
    let replay_handle = replay.serve_handle();
    let fresh = replay_handle.load().expect("replay snapshot");
    let mut rng = 7u64;
    for _ in 0..256 {
        let q = point_query(&mut rng, n);
        assert_eq!(
            q.run(&served),
            q.run(&fresh),
            "served result diverged from single-threaded replay: {q:?}"
        );
    }
    let topk = Query::top_k_by_property("w", 16);
    assert_eq!(topk.run(&served), topk.run(&fresh), "top-k diverged");
    println!("consistency: served == single-threaded replay (256 point queries + top-k)");
}

/// Sharded-vs-unsharded gate: the router answers every point query
/// exactly like the unsharded serving engine over the same stream.
fn assert_router_consistency(flow: &mut ShardedFlow, handle: &SnapshotHandle, n: u32) {
    let served = handle.load().expect("published snapshot");
    let mut router = flow.query_router();
    let mut rng = 11u64;
    for _ in 0..256 {
        let q = point_query(&mut rng, n);
        assert_eq!(
            router.run(&q).expect("routable"),
            q.run(&served),
            "sharded router diverged on {q:?}"
        );
    }
    let topk = Query::top_k_by_property("w", 16);
    let routed = router.run(&topk).expect("topk routable");
    assert_eq!(routed, topk.run(&served), "sharded top-k diverged");
    println!("consistency: sharded router == unsharded serving (256 point queries + top-k)");
}

fn main() {
    let smoke = smoke();
    let scale: u32 = if smoke { 10 } else { 13 };
    let n = 1u32 << scale;
    let total_updates = if smoke { 20_000 } else { 200_000 };
    let readers = 4usize;
    let rates: &[u64] = if smoke {
        &[2_000, 10_000]
    } else {
        &[10_000, 50_000, 200_000]
    };
    let shards = 4usize;

    header(&format!(
        "E19 — concurrent query serving, R-MAT scale {scale}, {readers} readers, \
         {total_updates} firehose updates, shards {shards}"
    ));

    let batches = firehose_batches(scale, total_updates, 42);

    let mut points: Vec<LoadPoint> = Vec::new();

    // ---- Unsharded, frozen and under firehose ----------------------
    for &firehose in &[false, true] {
        for &qps in rates {
            let mut engine = FlowEngine::new(n as usize);
            // Pre-load half the stream so the frozen case serves a real
            // graph; the firehose case keeps ingesting the second half
            // (wrapping) while readers run.
            for b in &batches[..batches.len() / 2] {
                engine.process_stream(b, |_| None, None);
            }
            let handle = engine.serve_handle();
            let service = QueryService::new(
                handle.clone(),
                ServeConfig {
                    admission: AdmissionConfig {
                        capacity: readers + 4,
                        normal_watermark: readers + 2,
                        bulk_watermark: 2,
                    },
                },
            );
            let per_thread = (qps as usize * if smoke { 1 } else { 2 }) / readers;
            let per_thread = per_thread.clamp(500, 100_000);
            let t0 = Instant::now();
            let (lat, answered, shed_high, shed_bulk) =
                run_unsharded(&service, n, readers, qps, per_thread, firehose, |done| {
                    let mut i = batches.len() / 2;
                    while !done.load(Ordering::Acquire) {
                        engine.process_stream(&batches[i % batches.len()], |_| None, None);
                        i += 1;
                    }
                });
            let wall = t0.elapsed().as_secs_f64();
            assert_eq!(shed_high, 0, "High-class queries were shed at {qps} qps");
            let p = LoadPoint {
                mode: "unsharded",
                firehose,
                offered_qps: qps,
                achieved_qps: lat.len() as f64 / wall,
                p50_us: percentile(&lat, 0.50),
                p99_us: percentile(&lat, 0.99),
                p999_us: percentile(&lat, 0.999),
                answered,
                shed_high,
                shed_bulk,
            };
            println!(
                "unsharded fh={:5} {:>7} qps: p50 {:8.1}us p99 {:8.1}us p999 {:8.1}us \
                 ({} answered, bulk shed {})",
                firehose, qps, p.p50_us, p.p99_us, p.p999_us, p.answered, p.shed_bulk
            );
            points.push(p);
            if firehose {
                // Gate: concurrent publication never tore the view.
                engine.publish_epoch();
            }
        }
    }

    // ---- Sharded, frozen and under firehose ------------------------
    for &firehose in &[false, true] {
        for &qps in rates {
            let mut flow = ShardedFlow::builder(shards).build(n as usize).unwrap();
            for b in &batches[..batches.len() / 2] {
                flow.process_batch(b).unwrap();
            }
            flow.publish_epochs();
            let per_thread = (qps as usize * if smoke { 1 } else { 2 }) / readers;
            let per_thread = per_thread.clamp(500, 100_000);
            let t0 = Instant::now();
            let lat = run_sharded(&mut flow, n, readers, qps, per_thread, firehose, &batches);
            let wall = t0.elapsed().as_secs_f64();
            let p = LoadPoint {
                mode: "sharded",
                firehose,
                offered_qps: qps,
                achieved_qps: lat.len() as f64 / wall,
                p50_us: percentile(&lat, 0.50),
                p99_us: percentile(&lat, 0.99),
                p999_us: percentile(&lat, 0.999),
                answered: lat.len() as u64,
                shed_high: 0,
                shed_bulk: 0,
            };
            println!(
                "sharded   fh={:5} {:>7} qps: p50 {:8.1}us p99 {:8.1}us p999 {:8.1}us \
                 ({} answered)",
                firehose, qps, p.p50_us, p.p99_us, p.p999_us, p.answered
            );
            points.push(p);
        }
    }

    // ---- Unconditional consistency gates ---------------------------
    header("consistency gates");
    let half: Vec<UpdateBatch> = batches[..batches.len() / 2].to_vec();
    let mut engine = FlowEngine::new(n as usize);
    for b in &half {
        engine.process_stream(b, |_| None, None);
    }
    let handle = engine.serve_handle();
    assert_replay_consistency(&handle, &half, n);
    let mut flow = ShardedFlow::builder(shards).build(n as usize).unwrap();
    for b in &half {
        flow.process_batch(b).unwrap();
    }
    let mut router_ok_engine = FlowEngine::new(n as usize);
    for b in &half {
        router_ok_engine.process_stream(b, |_| None, None);
    }
    let unsharded_handle = router_ok_engine.serve_handle();
    assert_router_consistency(&mut flow, &unsharded_handle, n);

    // The paper's §V-B target: point-query p50 in the tens of
    // microseconds (reported; asserted only at full scale where the
    // graph is big enough to mean anything).
    let frozen_p50 = points
        .iter()
        .find(|p| p.mode == "unsharded" && !p.firehose)
        .map(|p| p.p50_us)
        .unwrap_or(0.0);

    // Hand-rolled JSON (no serde in the dependency budget).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"scale\": {scale},\n"));
    j.push_str(&format!("  \"smoke\": {smoke},\n"));
    j.push_str(&format!("  \"readers\": {readers},\n"));
    j.push_str(&format!("  \"shards\": {shards},\n"));
    j.push_str(&format!("  \"total_updates\": {total_updates},\n"));
    j.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"mode\": \"{}\", \"firehose\": {}, \"offered_qps\": {}, \
             \"achieved_qps\": {:.0}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \
             \"p999_us\": {:.2}, \"answered\": {}, \"shed_high\": {}, \"shed_bulk\": {}}}{}\n",
            p.mode,
            p.firehose,
            p.offered_qps,
            p.achieved_qps,
            p.p50_us,
            p.p99_us,
            p.p999_us,
            p.answered,
            p.shed_high,
            p.shed_bulk,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    let zero_high_shed = points.iter().all(|p| p.shed_high == 0);
    j.push_str(&format!("  \"point_p50_us\": {frozen_p50:.2},\n"));
    j.push_str(&format!("  \"zero_high_shed\": {zero_high_shed},\n"));
    j.push_str("  \"consistency_ok\": true\n");
    j.push_str("}\n");

    std::fs::write("BENCH_serve.json", &j).expect("write BENCH_serve.json");
    println!(
        "\nwrote BENCH_serve.json (point p50 {frozen_p50:.1}us, zero_high_shed {zero_high_shed})"
    );
}
