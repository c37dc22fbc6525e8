//! The streaming side of Fig. 1: Firehose-style anomaly detection plus
//! incremental graph monitors over one update stream.
//!
//! ```sh
//! cargo run --release --example streaming_firehose
//! ```

use graph_analytics::prelude::*;
use graph_analytics::stream::firehose::{FixedKeyDetector, TwoLevelDetector, UnboundedKeyDetector};
use graph_analytics::stream::jaccard_stream::for_vertex_dynamic;
use graph_analytics::stream::tri_inc::IncrementalTriangles;
use graph_analytics::stream::update::{firehose_stream, two_level_stream};
use std::time::Instant;

fn main() {
    // --- Firehose detectors ------------------------------------------
    let packets = firehose_stream(20_000, 500_000, 0.1, 0.9, 0.05, 1);
    let mut fixed = FixedKeyDetector::new();
    let mut out = Vec::new();
    let t = Instant::now();
    for (i, p) in packets.iter().enumerate() {
        fixed.ingest(p, i as u64, &mut out);
    }
    let s = fixed.score;
    println!(
        "fixed-key: {} packets in {:?} -> {} anomalies (precision {:.3}, recall {:.3})",
        packets.len(),
        t.elapsed(),
        out.len(),
        s.precision(),
        s.recall()
    );

    let mut unbounded = UnboundedKeyDetector::new(8_000);
    let wide = firehose_stream(200_000, 500_000, 0.1, 0.9, 0.05, 2);
    let mut out2 = Vec::new();
    for (i, p) in wide.iter().enumerate() {
        unbounded.ingest(p, i as u64, &mut out2);
    }
    println!(
        "unbounded-key (cap 8k): {} anomalies, {} evictions, precision {:.3}",
        out2.len(),
        unbounded.evictions,
        unbounded.score().precision()
    );

    let two = two_level_stream(2_000, 12, 400_000, 3);
    let mut two_det = TwoLevelDetector::new(30);
    let mut out3 = Vec::new();
    for (i, p) in two.iter().enumerate() {
        two_det.ingest(p, i as u64, &mut out3);
    }
    println!(
        "two-level: flagged {} hot outer keys (12 planted)",
        two_det.flagged().len()
    );

    // --- incremental graph monitors ----------------------------------
    let mut engine = StreamEngine::new(1 << 14);
    engine.register(Box::new(IncrementalTriangles::new()));
    let t = Instant::now();
    for batch in into_batches(rmat_edge_stream(14, 150_000, 0.05, 9), 5_000, 0) {
        engine.apply_batch(&batch);
    }
    println!(
        "graph stream: {} updates in {:?}, {} live edges",
        engine.stats().edges_inserted + engine.stats().edges_deleted,
        t.elapsed(),
        engine.graph().num_live_edges()
    );

    // --- the query form of streaming Jaccard (E7) ---------------------
    let g = engine.graph();
    let targets: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| (8..=64).contains(&g.degree(v)))
        .take(1_000)
        .collect();
    let t = Instant::now();
    let answers: Vec<usize> = targets
        .iter()
        .map(|&v| for_vertex_dynamic(g, v, 0.1).len())
        .collect();
    let per_query = t.elapsed() / targets.len() as u32;
    println!(
        "jaccard query stream: {} queries, mean answer size {:.1}, {per_query:?} per query",
        targets.len(),
        answers.iter().sum::<usize>() as f64 / answers.len() as f64
    );
    println!("(the paper's §V-B projects 10s-of-µs per query on Emu-class hardware)");
}
