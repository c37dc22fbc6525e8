//! Integration coverage for the extension modules (DESIGN.md §7):
//! sliding windows, the generic query stream, Kronecker products,
//! problem-size scaling, and the calibration loop — each exercised
//! through the public facade, together.

use graph_analytics::core::calibrate::{calibrate, CostCoefficients, MeasuredRun};
use graph_analytics::core::flow::FlowEngine;
use graph_analytics::core::flow::{
    AnalyticsStats, DurabilityStats, FlowStats, IngestStats, OverloadStats, SnapshotStats,
};
use graph_analytics::core::model::{baseline2012, evaluate, lightweight, nora_steps_scaled};
use graph_analytics::core::nora::NoraStats;
use graph_analytics::linalg::kron::{kron, kron_power};
use graph_analytics::linalg::semiring::OrAnd;
use graph_analytics::linalg::{CooMatrix, CsrMatrix};
use graph_analytics::stream::queries::{Query, QueryResponse};
use graph_analytics::stream::update::{into_batches, rmat_edge_stream};
use graph_analytics::stream::window::{DegreeTopK, SlidingWindow};
use graph_analytics::stream::StreamEngine;

#[test]
fn window_and_topk_monitors_ride_one_stream() {
    let mut e = StreamEngine::new(1 << 8);
    let mut w = SlidingWindow::new(1 << 8, 10);
    w.degree_alert = 16;
    e.register(Box::new(w));
    e.register(Box::new(DegreeTopK::new(3)));
    for batch in into_batches(rmat_edge_stream(8, 4_000, 0.1, 5), 200, 0) {
        e.apply_batch(&batch);
    }
    // Both monitors produced events on a skewed stream.
    let sources: std::collections::HashSet<&str> = e.events().iter().map(|ev| ev.source).collect();
    assert!(sources.contains("window"), "no window events: {sources:?}");
    assert!(
        sources.contains("degree_topk"),
        "no top-k events: {sources:?}"
    );
}

#[test]
fn unified_queries_over_streamed_graph() {
    let mut e = FlowEngine::new(1 << 8);
    for batch in into_batches(rmat_edge_stream(8, 3_000, 0.0, 2), 500, 0) {
        e.process_stream(&batch, |_| None, None);
    }
    let snap = e.serve_handle().load().expect("published snapshot");
    // Degrees agree with the live graph.
    for v in 0..32u32 {
        match (Query::Degree { vertex: v }).run(&snap) {
            QueryResponse::Scalar(d) => assert_eq!(d, e.graph().degree(v) as f64),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn kron_power_degree_distribution_matches_rmat_marginals() {
    // The exact Kronecker power of the Graph500 initiator has total
    // edge count 3^k; the sampled R-MAT stream draws from the same
    // product distribution, so row-0 (the "celebrity") dominates both.
    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 0, true);
    coo.push(0, 1, true);
    coo.push(1, 0, true);
    let init = coo.to_csr(|x, _| x);
    let p5 = kron_power(OrAnd, &init, 5);
    assert_eq!(p5.nnz(), 243); // 3^5
    let max_row = (0..p5.nrows)
        .max_by_key(|&r| p5.row_indices(r).len())
        .unwrap();
    assert_eq!(max_row, 0);

    // kron(A, B) shape laws.
    let i3: CsrMatrix<bool> = CsrMatrix::identity(3, true);
    let k = kron(OrAnd, &p5, &i3);
    assert_eq!((k.nrows, k.ncols), (96, 96));
    assert_eq!(k.nnz(), 243 * 3);
}

#[test]
fn problem_size_scaling_changes_architecture_ranking_sensibly() {
    // Growing the problem grows the compute-heavy NORA step fastest, so
    // the compute-poor Lightweight config falls behind at scale.
    let small = nora_steps_scaled(1.0);
    let big = nora_steps_scaled(16.0);
    let rel = |steps: &[graph_analytics::core::model::StepDemand]| {
        evaluate(&lightweight(), steps).speedup_over(&evaluate(&baseline2012(), steps))
    };
    assert!(
        rel(&big) < rel(&small),
        "lightweight should fade at scale: {} vs {}",
        rel(&big),
        rel(&small)
    );
}

#[test]
fn calibration_is_deterministic_and_priceable() {
    let run = MeasuredRun {
        flow: FlowStats {
            ingest: IngestStats {
                records_ingested: 1_000,
                entities_created: 300,
                updates_applied: 5_000,
                updates_quarantined: 0,
                events_observed: 200,
                triggers_fired: 2,
            },
            analytics: AnalyticsStats {
                batch_runs: 3,
                seeds_selected: 6,
                subgraphs_extracted: 3,
                vertices_extracted: 400,
                edges_extracted: 9_000,
                props_written_back: 400,
                globals_produced: 6,
                alerts_raised: 1,
                kernel_cpu_ops: 60_000,
                kernel_mem_bytes: 480_000,
                kernel_edges_touched: 27_000,
            },
            snapshots: SnapshotStats {
                rebuilds: 3,
                rows_reused: 1_200,
                mem_bytes: 150_000,
            },
            durability: DurabilityStats {
                retries: 3,
                breaker_trips: 0,
            },
            overload: OverloadStats {
                updates_shed: 250,
                deadline_partials: 1,
                analytics_skipped: 2,
            },
            tier: Default::default(),
        },
        nora: NoraStats {
            pair_candidates: 20_000,
            relationships: 40,
        },
        serve: Default::default(),
    };
    let a = calibrate(&run, &CostCoefficients::default());
    let b = calibrate(&run, &CostCoefficients::default());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cpu_ops, y.cpu_ops);
    }
    let e = evaluate(&baseline2012(), &a);
    assert!(e.total_seconds.is_finite() && e.total_seconds > 0.0);
}
