//! End-to-end Fig. 2 pipeline tests: records → dedup → persistent
//! graph → streaming monitors → triggered analytics → write-back →
//! property-seeded follow-up analytics, with the instrumentation
//! counters checked for consistency at every stage.

use graph_analytics::core::dedup::{dedup_batch, generate_records, InlineDeduper};
use graph_analytics::core::flow::{
    ComponentsAnalytic, DegradationLevel, FlowEngine, IngestStats, PageRankAnalytic,
    SelectionCriteria, TriangleAnalytic,
};
use graph_analytics::core::nora::{boil, NoraParams, NoraWorld, QuoteServer};
use graph_analytics::core::sharded::ShardedFlow;
use graph_analytics::graph::{DynamicGraph, ExtractOptions, PropertyStore};
use graph_analytics::stream::engine::StreamStats;
use graph_analytics::stream::jaccard_stream::JaccardMonitor;
use graph_analytics::stream::tri_inc::IncrementalTriangles;
use graph_analytics::stream::update::{into_batches, rmat_edge_stream, Update, UpdateBatch};
use graph_analytics::stream::{EventKind, Priority};
use std::path::PathBuf;

#[test]
fn full_combined_batch_and_streaming_run() {
    let mut flow = FlowEngine::builder()
        .extract(ExtractOptions {
            depth: 2,
            max_vertices: 256,
            undirected_expand: false,
        })
        .build(1 << 10)
        .unwrap();
    let pr = flow.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
    let tri = flow.register_analytic(Box::new(TriangleAnalytic {
        alert_transitivity: 0.0,
    }));
    flow.register_monitor(Box::new(JaccardMonitor::new(0.95)));

    // Stream with triggers.
    let mut triggered = 0;
    for batch in into_batches(rmat_edge_stream(10, 8_000, 0.05, 3), 500, 0) {
        triggered += flow
            .process_stream(
                &batch,
                |ev| match ev.kind {
                    EventKind::PairThreshold { a, b, .. } => Some(vec![a, b]),
                    _ => None,
                },
                Some(tri),
            )
            .len();
    }
    assert!(triggered > 0, "no triggered analytics on an R-MAT stream");

    // Batch run writes `pagerank` back; follow-up seeds from it.
    flow.run_batch(&SelectionCriteria::TopKDegree { k: 3 }, pr);
    let follow = flow.run_batch(
        &SelectionCriteria::TopKProperty {
            name: "pagerank".into(),
            k: 2,
        },
        tri,
    );
    assert_eq!(follow.seeds.len(), 2);

    let s = flow.stats();
    assert_eq!(s.ingest.updates_applied, 8_000);
    assert_eq!(s.ingest.triggers_fired, triggered);
    assert_eq!(s.analytics.batch_runs, triggered + 2);
    assert_eq!(s.analytics.subgraphs_extracted, s.analytics.batch_runs);
    assert!(s.analytics.props_written_back > 0);
    assert!(s.analytics.vertices_extracted >= s.analytics.subgraphs_extracted);
}

#[test]
fn dedup_feeds_flow_counters() {
    let records = generate_records(100, 500, 0.1, 1);
    let dd = dedup_batch(&records, 0.78);
    let mut flow = FlowEngine::new(dd.num_entities);
    flow.note_ingest(records.len(), dd.num_entities);
    assert_eq!(flow.stats().ingest.records_ingested, 500);
    assert_eq!(flow.stats().ingest.entities_created, dd.num_entities);
    // Inline dedup over the same stream lands near the batch count.
    let mut inline = InlineDeduper::new(0.78);
    for r in &records {
        inline.ingest(r);
    }
    let (b, i) = (dd.num_entities as f64, inline.num_entities() as f64);
    assert!((i - b).abs() / b < 0.4, "inline {i} vs batch {b}");
}

#[test]
fn nora_boil_and_quotes_agree_end_to_end() {
    let world = NoraWorld::generate(
        NoraParams {
            num_people: 1_000,
            num_addresses: 700,
            moves_per_person: 1.5,
            num_rings: 6,
            ring_size: 3,
            ring_addresses: 3,
        },
        11,
    );
    let graph = world.build_graph();
    let boiled = boil(&world, &graph);
    assert!(boiled.ring_recall(&world) >= 0.99);

    let mut server = QuoteServer::new(world.clone());
    // Every ring member's live quote contains its ring partners.
    for ring in &world.rings {
        let live = server.quote(ring[0], 2);
        for &other in &ring[1..] {
            assert!(
                live.iter()
                    .any(|r| r.a == ring[0].min(other) && r.b == ring[0].max(other)),
                "quote for {} missing partner {}",
                ring[0],
                other
            );
        }
        // And matches the precomputed boil.
        assert_eq!(live.len(), boiled.lookup(ring[0]).len());
    }
}

#[test]
fn streaming_property_updates_become_selection_criteria() {
    // Firehose-style vertex property updates steering batch selection.
    let mut flow = FlowEngine::new(64);
    let comp = flow.register_analytic(Box::new(ComponentsAnalytic));
    let mut updates = vec![];
    // Ring structure + risk scores on three vertices.
    for i in 0..64u32 {
        updates.push(Update::EdgeInsert {
            src: i,
            dst: (i + 1) % 64,
            weight: 1.0,
        });
    }
    for (v, score) in [(7u32, 0.9), (21, 0.8), (40, 0.2)] {
        updates.push(Update::PropertySet {
            vertex: v,
            name: "risk".into(),
            value: score,
        });
    }
    for batch in into_batches(updates, 16, 0) {
        flow.process_stream(&batch, |_| None, None);
    }
    let seeds = flow.select_seeds(&SelectionCriteria::PropertyAbove {
        name: "risk".into(),
        tau: 0.5,
    });
    assert_eq!(seeds, vec![7, 21]);
    let report = flow.run_batch(
        &SelectionCriteria::PropertyAbove {
            name: "risk".into(),
            tau: 0.5,
        },
        comp,
    );
    // Two depth-2 balls on a 64-ring: 2 balls x 5 vertices.
    assert_eq!(report.subgraph_size.0, 10);
    assert_eq!(report.globals[0].1, 2.0); // two components in the extraction
}

/// What one front left behind: everything the pipeline writes.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    graph: DynamicGraph,
    props: PropertyStore,
    ingest: IngestStats,
    stream: StreamStats,
}

impl Outcome {
    fn of(e: &FlowEngine) -> Outcome {
        Outcome {
            graph: e.graph().clone(),
            props: e.props().clone(),
            ingest: e.stats().ingest,
            stream: e.stream_stats(),
        }
    }

    /// What recovery must reproduce when the checkpoint was taken at
    /// `mid` and the rest came from WAL replay: the same state, except
    /// that monitors are not persisted, so the replayed suffix emits no
    /// events — the event counters stay at their checkpointed values.
    fn recovered_from(mut self, mid: &Outcome) -> Outcome {
        self.ingest.events_observed = mid.ingest.events_observed;
        self.stream.events_emitted = mid.stream.events_emitted;
        self
    }
}

const PIPELINE_VERTEX_LIMIT: usize = 1 << 8;

/// Edge churn, property sets, and a few updates quarantine must catch
/// (out-of-range vertex, non-finite weight).
fn pipeline_batches() -> Vec<UpdateBatch> {
    let mut updates = rmat_edge_stream(8, 2_400, 0.2, 17);
    for i in 0..60u32 {
        let at = (i as usize * 37) % updates.len();
        updates.insert(
            at,
            match i % 3 {
                0 => Update::PropertySet {
                    vertex: i,
                    name: format!("p{}", i % 4),
                    value: i as f64 * 0.5,
                },
                1 => Update::EdgeInsert {
                    src: i,
                    dst: PIPELINE_VERTEX_LIMIT as u32 + i,
                    weight: 1.0,
                },
                _ => Update::EdgeInsert {
                    src: i,
                    dst: i + 1,
                    weight: f32::NAN,
                },
            },
        );
    }
    into_batches(updates, 100, 1)
}

/// A triangle counter that reports every change of the global count,
/// so every front emits events.
fn triangle_monitor() -> Box<IncrementalTriangles> {
    let mut tri = IncrementalTriangles::new();
    tri.report_stride = 1;
    Box::new(tri)
}

fn pipeline_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ga_flow_pipeline")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every front is the same pipeline: the same seeded batches through
/// `process_stream`, `process_stream_durable`, `offer`+`pump` at `Full`
/// and a 1-shard `ShardedFlow` leave bit-identical graph slots, property
/// columns, ingest counters and monitor-event counts, and every durable
/// variant recovers (mid-run checkpoint + WAL suffix) to that state.
#[test]
fn every_front_is_the_same_pipeline() {
    type Front = fn(&mut FlowEngine, &UpdateBatch);
    let process_stream: Front = |e, b| {
        e.process_stream(b, |_| None, None);
    };
    let process_stream_durable: Front = |e, b| {
        e.process_stream_durable(b, |_| None, None).unwrap();
    };
    let offer_pump: Front = |e, b| {
        assert!(e.offer(Priority::Normal, b.clone()).admitted());
        assert_eq!(e.degradation_level(), DegradationLevel::Full);
        e.pump(1, |_| None, None).unwrap();
    };
    let batches = pipeline_batches();
    let (head, tail) = batches.split_at(batches.len() / 2);

    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for (name, durable, front) in [
        ("process_stream", false, process_stream),
        ("process_stream_durable", true, process_stream_durable),
        ("offer+pump", false, offer_pump),
        ("offer+pump durable", true, offer_pump),
    ] {
        let dir = pipeline_dir(name);
        let mut cfg = FlowEngine::builder().vertex_limit(PIPELINE_VERTEX_LIMIT);
        if durable {
            cfg = cfg.durability_dir(&dir);
        }
        let mut e = cfg.build(PIPELINE_VERTEX_LIMIT).unwrap();
        e.register_monitor(triangle_monitor());
        head.iter().for_each(|b| front(&mut e, b));
        let mid = Outcome::of(&e);
        if durable {
            e.checkpoint().unwrap();
        }
        tail.iter().for_each(|b| front(&mut e, b));
        let live = Outcome::of(&e);
        drop(e);
        if durable {
            let r = FlowEngine::recover(&dir).unwrap();
            assert_eq!(
                Outcome::of(&r),
                live.clone().recovered_from(&mid),
                "{name}: recovery diverged"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        outcomes.push((name, live));
    }

    for durable in [false, true] {
        let name = if durable {
            "1-shard fleet durable"
        } else {
            "1-shard fleet"
        };
        let base = pipeline_dir(name);
        let mut cfg = ShardedFlow::builder(1).vertex_limit(PIPELINE_VERTEX_LIMIT);
        if durable {
            cfg = cfg.durability_base(&base);
        }
        let mut fleet = cfg.build(PIPELINE_VERTEX_LIMIT).unwrap();
        fleet.shard_mut(0).register_monitor(triangle_monitor());
        for b in head {
            fleet.process_batch(b).unwrap();
        }
        let mid = Outcome::of(&fleet.shards()[0]);
        if durable {
            assert!(fleet.checkpoint().unwrap().is_complete());
        }
        for b in tail {
            fleet.process_batch(b).unwrap();
        }
        let live = Outcome::of(&fleet.shards()[0]);
        drop(fleet);
        if durable {
            let r = ShardedFlow::builder(1).recover(&base).unwrap();
            assert_eq!(
                Outcome::of(&r.shards()[0]),
                live.clone().recovered_from(&mid),
                "{name}: recovery diverged"
            );
            std::fs::remove_dir_all(&base).ok();
        }
        outcomes.push((name, live));
    }

    let (_, reference) = &outcomes[0];
    assert!(
        reference.ingest.updates_quarantined > 0,
        "no quarantine exercised"
    );
    assert!(
        reference.ingest.events_observed > 0,
        "no monitor events exercised"
    );
    assert!(!reference.props.column_names().is_empty());
    for (name, outcome) in &outcomes[1..] {
        assert_eq!(outcome, reference, "{name} diverged from process_stream");
    }
}
