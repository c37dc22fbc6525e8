//! Query serving end to end: the flow engine ingests a firehose and
//! publishes epoch snapshots; classed, quota'd clients answer point
//! queries concurrently — wait-free in the steady state — while the
//! graph keeps changing underneath them.
//!
//! ```sh
//! cargo run --release --example serve_queries
//! ```

use graph_analytics::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

fn main() {
    let scale = 12u32;
    let n = 1usize << scale;

    // The writer: a flow engine with a serve handle. Every
    // process_stream republishes the epoch snapshot.
    let mut engine = FlowEngine::new(n);
    let batches = into_batches(rmat_edge_stream(scale, 60_000, 0.1, 42), 500, 1);
    for b in &batches[..batches.len() / 2] {
        engine.process_stream(b, |_| None, None);
    }
    // Give the Bulk scans a column to rank: one PageRank batch run
    // around the highest-degree seeds writes `pagerank` back.
    let pagerank = engine.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
    engine.run_batch(&SelectionCriteria::TopKDegree { k: 16 }, pagerank);

    // The serving front end: one High tenant for interactive point
    // reads, one quota'd Bulk tenant for scans. Bulk can shed under
    // pressure; High never does while capacity fits the pool.
    let service = QueryService::new(engine.serve_handle(), ServeConfig::default());
    let points = service.tenant(TenantConfig::new("dashboard", Priority::High));
    let scans = service.tenant(TenantConfig::new("reports", Priority::Bulk).quota(1));

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Readers: concurrent point queries against whatever epoch is
        // current — one atomic load in the steady state, no locks held
        // while the query runs.
        let mut joins = Vec::new();
        for t in 0..4u32 {
            let mut client = service.client(&points);
            joins.push(s.spawn(move || {
                let mut last = 0u64;
                for i in 0..20_000u32 {
                    let v = (i.wrapping_mul(2654435761) ^ t) % (1 << scale);
                    let outcome = client.run(&Query::Neighbors {
                        vertex: v,
                        limit: 8,
                    });
                    if let QueryOutcome::Answered { epoch, .. } = outcome {
                        assert!(epoch.epoch >= last, "epochs never regress");
                        last = epoch.epoch;
                    }
                }
                last
            }));
        }
        // A scan rider on the Bulk class.
        let done_ref = &done;
        let mut scanner = service.client(&scans);
        let scan = s.spawn(move || {
            let (mut answered, mut rows) = (0u64, 0usize);
            loop {
                let outcome = scanner.run(&Query::top_k_by_property("pagerank", 8));
                if let Some(QueryResponse::Scored(top)) = outcome.response() {
                    answered += 1;
                    rows += top.len();
                }
                if done_ref.load(Ordering::Acquire) {
                    break (answered, rows);
                }
                std::thread::yield_now();
            }
        });
        // The firehose: the second half of the stream, ingested while
        // the readers run. Each batch republishes; readers pick the new
        // epoch up on their next query.
        let mut i = batches.len() / 2;
        while joins.iter().any(|j| !j.is_finished()) {
            engine.process_stream(&batches[i % batches.len()], |_| None, None);
            i += 1;
        }
        let final_epochs: Vec<u64> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        done.store(true, Ordering::Release);
        let (scans_answered, scan_rows) = scan.join().unwrap();
        println!("final epochs seen by readers: {final_epochs:?}");
        println!("bulk scans answered while riding along: {scans_answered}");
        println!("rows those scans returned: {scan_rows}");
        assert!(scan_rows > 0, "the scans must rank the pagerank column");
    });

    let stats = service.stats();
    for p in [Priority::High, Priority::Normal, Priority::Bulk] {
        let c = stats.class(p);
        println!(
            "{:>6}: answered {:>6}  shed {:>4}  p50 {:>4}us  p99 {:>4}us",
            p.name(),
            c.answered,
            c.shed,
            c.latency_us.p50,
            c.latency_us.p99
        );
    }
    assert_eq!(stats.class(Priority::High).shed, 0);
}
