//! Model calibration from measured instrumentation — the paper's
//! closing proposal made real.
//!
//! §VI: "a reference implementation, with explicit instrumentation, of
//! a combined benchmark would allow calibration of the model."
//!
//! [`calibrate`] turns the counters a real [`crate::flow::FlowEngine`]
//! run produces ([`crate::flow::FlowStats`]) plus a dedup/NORA workload
//! profile into a [`StepDemand`] table in the *same units* the analytic
//! model prices — so the Fig. 3 machinery can be re-run against demands
//! measured from this codebase instead of the hand-calibrated 2013
//! table. The mapping from counters to resource demands uses explicit,
//! documented per-operation cost coefficients ([`CostCoefficients`]).

use crate::flow::FlowStats;
use crate::model::{evaluate, StepDemand, SystemConfig};
use crate::nora::NoraStats;
use ga_obs::{MetricsSnapshot, Step};
use std::fmt::Write as _;

/// Per-operation resource costs used to convert counters into demands.
///
/// These are order-of-magnitude software constants (instructions and
/// bytes per logical operation), not tuned numbers; the point of
/// calibration is that the *ratios between steps* come from measurement.
#[derive(Clone, Copy, Debug)]
pub struct CostCoefficients {
    /// CPU ops per record-pair similarity comparison (string edit
    /// distances dominate dedup).
    pub ops_per_comparison: f64,
    /// CPU ops per graph update applied.
    pub ops_per_update: f64,
    /// CPU ops per candidate pair scanned in the relationship search.
    pub ops_per_pair_candidate: f64,
    /// CPU ops per vertex copied during extraction.
    pub ops_per_extracted_vertex: f64,
    /// Bytes of memory traffic per extracted edge.
    pub mem_bytes_per_edge: f64,
    /// Bytes of memory traffic per property write-back.
    pub mem_bytes_per_writeback: f64,
    /// Raw record size on disk (ingest reads, export writes).
    pub disk_bytes_per_record: f64,
    /// Bytes shipped per update crossing the network (shuffle model).
    pub net_bytes_per_update: f64,
    /// Bytes shipped per emitted relationship/event.
    pub net_bytes_per_event: f64,
    /// CPU ops per answered point query (High/Normal classes: property
    /// reads, degree, neighbor lists — the §V-B microsecond workload).
    pub ops_per_point_query: f64,
    /// CPU ops per answered scan query (Bulk class: top-k property
    /// scans and other whole-column work).
    pub ops_per_scan_query: f64,
    /// Bytes of memory traffic per answered point query.
    pub mem_bytes_per_point_query: f64,
    /// Bytes of memory traffic per answered scan query.
    pub mem_bytes_per_scan_query: f64,
}

impl Default for CostCoefficients {
    fn default() -> Self {
        CostCoefficients {
            ops_per_comparison: 2_000.0,
            ops_per_update: 300.0,
            ops_per_pair_candidate: 120.0,
            ops_per_extracted_vertex: 150.0,
            mem_bytes_per_edge: 16.0,
            mem_bytes_per_writeback: 64.0,
            disk_bytes_per_record: 2_048.0,
            net_bytes_per_update: 64.0,
            net_bytes_per_event: 128.0,
            ops_per_point_query: 400.0,
            ops_per_scan_query: 20_000.0,
            mem_bytes_per_point_query: 256.0,
            mem_bytes_per_scan_query: 64_000.0,
        }
    }
}

/// A measured workload profile: the flow engine's counters plus the
/// NORA search's own instrumentation, and (when the run served
/// concurrent queries) the serving front end's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeasuredRun {
    /// The flow engine counters.
    pub flow: FlowStats,
    /// The relationship-search counters.
    pub nora: NoraStats,
    /// The query-serving counters ([`crate::serve::QueryService::stats`]);
    /// default (all-zero) when the run served no queries.
    pub serve: crate::serve::ServeStats,
}

/// Convert a measured run into a demand table shaped like
/// [`crate::model::nora_steps`] (same step names, measured magnitudes).
///
/// The step mapping:
/// 1. ingest          ← records read from "disk", **plus the admission
///    cost of shed updates** ([`crate::flow::OverloadStats::updates_shed`]) — an update
///    dropped at the watermark still crossed the wire and was
///    classified before being refused
/// 2. clean/spell     ← dedup comparisons (CPU)
/// 3. shuffle/sort    ← updates crossing the network
/// 4. dedup/link      ← comparisons again (the union/merge pass)
/// 5. join/merge      ← entity materialization (disk + memory)
/// 6. graph build     ← edges extracted/inserted (memory) **plus the
///    measured snapshot-freeze traffic**
///    ([`crate::flow::SnapshotStats::mem_bytes`]) — the Fig. 2 "copy subgraph
///    into faster memory" step priced from what the snapshot cache
///    actually wrote, not an estimate — **plus WAL retry disk traffic**
///    ([`crate::flow::DurabilityStats::retries`]): each retried append
///    re-writes a frame to the persistent graph's log
/// 7. NORA search     ← pair candidates scanned **plus the measured
///    batch-kernel counters** ([`crate::flow::AnalyticsStats::kernel_cpu_ops`],
///    [`crate::flow::AnalyticsStats::kernel_mem_bytes`]) drained from the kernels'
///    [`ga_graph::OpCounters`] — the analytic step now prices what the
///    instrumented kernels actually did, not an estimate — **plus the
///    served query load** ([`MeasuredRun::serve`]): answered
///    High/Normal queries priced as point reads, answered Bulk queries
///    as scans (the §II "stream of independent local queries" is graph
///    search demand, so it lands on the search row)
/// 8. index build     ← relationships written (disk)
/// 9. export/boil     ← events/alerts shipped (network)
pub fn calibrate(run: &MeasuredRun, c: &CostCoefficients) -> Vec<StepDemand> {
    let f = &run.flow;
    let n = &run.nora;
    let records = f.ingest.records_ingested as f64;
    let comparisons = f.ingest.records_ingested as f64 * 0.0 + dedup_comparisons(f);
    let updates = f.ingest.updates_applied as f64;
    let edges = f.analytics.edges_extracted as f64;
    let pairs = n.pair_candidates as f64;
    let rels = n.relationships as f64;
    let events = f.ingest.events_observed as f64;
    let writebacks = f.analytics.props_written_back as f64;
    let snap_bytes = f.snapshots.mem_bytes as f64;
    let shed = f.overload.updates_shed as f64;
    let retries = f.durability.retries as f64;
    use ga_stream::admission::Priority;
    let point_queries = (run.serve.class(Priority::High).answered
        + run.serve.class(Priority::Normal).answered) as f64;
    let scan_queries = run.serve.class(Priority::Bulk).answered as f64;

    let d = |name, cpu, mem, disk, net| StepDemand {
        name,
        cpu_ops: cpu,
        mem_bytes: mem,
        disk_bytes: disk,
        net_bytes: net,
    };

    vec![
        d(
            "1 ingest raw data ",
            // Shed updates still cost their admission decision: parse,
            // classify, compare against the watermark (~25 ops each).
            records * 50.0 + shed * 25.0,
            records * c.disk_bytes_per_record, // every byte read touches memory
            records * c.disk_bytes_per_record,
            records * c.net_bytes_per_update * 0.5 + shed * c.net_bytes_per_update,
        ),
        d(
            "2 clean / spell   ",
            comparisons * c.ops_per_comparison * 0.5,
            comparisons * 256.0,
            records * 64.0,
            0.0,
        ),
        d(
            "3 shuffle / sort  ",
            updates * 40.0,
            updates * c.net_bytes_per_update,
            0.0,
            updates * c.net_bytes_per_update,
        ),
        d(
            "4 dedup / link    ",
            comparisons * c.ops_per_comparison * 0.5,
            comparisons * 128.0,
            0.0,
            0.0,
        ),
        d(
            "5 join / merge    ",
            f.ingest.entities_created as f64 * 500.0,
            f.ingest.entities_created as f64 * 1_024.0,
            f.ingest.entities_created as f64 * c.disk_bytes_per_record,
            0.0,
        ),
        d(
            "6 graph build     ",
            // Snapshot freezes are bandwidth-bound streaming writes:
            // ~1 op per 8 bytes moved (index arithmetic + store).
            edges * 20.0 + updates * c.ops_per_update + snap_bytes / 8.0,
            edges * c.mem_bytes_per_edge + updates * 48.0 + snap_bytes,
            // Each durability retry re-writes roughly one record-sized
            // WAL frame to the persistent graph's log.
            retries * c.disk_bytes_per_record,
            0.0,
        ),
        d(
            "7 NORA search     ",
            pairs * c.ops_per_pair_candidate
                + f.analytics.vertices_extracted as f64 * c.ops_per_extracted_vertex
                + f.analytics.kernel_cpu_ops as f64
                + point_queries * c.ops_per_point_query
                + scan_queries * c.ops_per_scan_query,
            pairs * 32.0
                + edges * c.mem_bytes_per_edge
                + f.analytics.kernel_mem_bytes as f64
                + point_queries * c.mem_bytes_per_point_query
                + scan_queries * c.mem_bytes_per_scan_query,
            0.0,
            0.0,
        ),
        d(
            "8 index build     ",
            rels * 200.0 + writebacks * 20.0,
            writebacks * c.mem_bytes_per_writeback,
            rels * 256.0 + writebacks * 64.0,
            0.0,
        ),
        d(
            "9 export / boil   ",
            events * 30.0,
            events * c.net_bytes_per_event,
            rels * 256.0,
            (events + rels) * c.net_bytes_per_event,
        ),
    ]
}

fn dedup_comparisons(f: &FlowStats) -> f64 {
    // FlowStats doesn't carry the comparison count directly (it lives in
    // DedupResult); approximate from the blocking model when absent:
    // records * ~50 within-block comparisons. Callers with the exact
    // count should prefer `calibrate_with_comparisons`.
    f.ingest.records_ingested as f64 * 50.0
}

// ---------------------------------------------------------------------
// Measured mode: per-step demands read straight from a recorded trace.
// ---------------------------------------------------------------------

/// Demands *measured* by the instrumentation layer: one row per
/// [`ga_obs::Step`], four resources each, taken verbatim from the span
/// totals an enabled [`ga_obs::Recorder`] accumulated during a real
/// run. No cost coefficients are involved — this is the ground truth
/// the projected table is checked against.
pub fn measured_demands(snap: &MetricsSnapshot) -> Vec<StepDemand> {
    Step::ALL
        .iter()
        .map(|&step| {
            let m = snap.step(step);
            StepDemand {
                name: step.name(),
                cpu_ops: m.cpu_ops as f64,
                mem_bytes: m.mem_bytes as f64,
                disk_bytes: m.disk_bytes as f64,
                net_bytes: m.net_bytes as f64,
            }
        })
        .collect()
}

/// Demands *projected* onto the same per-[`Step`] rows from the grouped
/// [`FlowStats`] counters and the documented cost coefficients — the
/// model side of the measured-vs-projected comparison. Rows the
/// counters cannot see (checkpoint count, for one) project as zero and
/// show up as measurement-only rows in the table; that asymmetry is the
/// point of having both columns.
pub fn projected_step_demands(f: &FlowStats, c: &CostCoefficients) -> Vec<StepDemand> {
    let comparisons = dedup_comparisons(f);
    let records = f.ingest.records_ingested as f64;
    let updates = f.ingest.updates_applied as f64;
    let seeds = f.analytics.seeds_selected as f64;
    let nv = f.analytics.vertices_extracted as f64;
    let ne = f.analytics.edges_extracted as f64;
    let writes = f.analytics.props_written_back as f64;
    let snap_bytes = f.snapshots.mem_bytes as f64;
    // Tier IO projects from its own counters, split by the step that
    // paid for it: spill (and scrub re-reads) happen while the snapshot
    // freezes; demand misses and prefetches happen while the extraction
    // BFS walks cold rows. This is what makes the larger-than-RAM
    // regime measurable — E3's "disk is the tall pole" shows up as
    // nonzero disk rows instead of vanishing into RAM.
    let tier_spill = (f.tier.spilled_bytes + f.tier.scrub_bytes) as f64;
    let tier_read = f.tier.read_bytes as f64;
    let d = |step: Step, cpu, mem, disk, net| StepDemand {
        name: step.name(),
        cpu_ops: cpu,
        mem_bytes: mem,
        disk_bytes: disk,
        net_bytes: net,
    };
    vec![
        d(
            Step::Dedup,
            comparisons * c.ops_per_comparison,
            comparisons * 256.0,
            records * c.disk_bytes_per_record,
            0.0,
        ),
        d(Step::Ingest, updates, updates * 16.0, 0.0, updates * 13.0),
        d(Step::Selection, seeds * 100.0, seeds * 800.0, 0.0, 0.0),
        d(
            Step::Extraction,
            nv + ne,
            nv * 8.0 + ne * c.mem_bytes_per_edge,
            tier_read,
            0.0,
        ),
        d(
            Step::BatchAnalytic,
            f.analytics.kernel_cpu_ops as f64,
            f.analytics.kernel_mem_bytes as f64,
            0.0,
            0.0,
        ),
        d(Step::WriteBack, writes, writes * 8.0, 0.0, writes * 8.0),
        d(Step::Wal, 0.0, 0.0, updates * 16.0, 0.0),
        d(Step::Checkpoint, 0.0, 0.0, 0.0, 0.0),
        d(Step::Snapshot, 0.0, snap_bytes, tier_spill, 0.0),
    ]
}

/// Render the measured-vs-projected comparison: a per-step
/// four-resource table (measured `m` next to projected `p`), followed
/// by the total step time both demand tables imply on each system
/// configuration. `fmt` formats one magnitude (pass an engineering
/// formatter for readable output).
pub fn measured_vs_projected_table(
    measured: &[StepDemand],
    projected: &[StepDemand],
    configs: &[SystemConfig],
    fmt: impl Fn(f64) -> String,
) -> String {
    assert_eq!(measured.len(), projected.len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "step", "cpu m", "cpu p", "mem m", "mem p", "disk m", "disk p", "net m", "net p"
    );
    for (m, p) in measured.iter().zip(projected) {
        let _ = writeln!(
            out,
            "{:<15} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            m.name,
            fmt(m.cpu_ops),
            fmt(p.cpu_ops),
            fmt(m.mem_bytes),
            fmt(p.mem_bytes),
            fmt(m.disk_bytes),
            fmt(p.disk_bytes),
            fmt(m.net_bytes),
            fmt(p.net_bytes),
        );
    }
    if !configs.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<38} {:>14} {:>14} {:>8}",
            "configuration", "measured (s)", "projected (s)", "ratio"
        );
        for cfg in configs {
            let tm = evaluate(cfg, measured).total_seconds;
            let tp = evaluate(cfg, projected).total_seconds;
            let ratio = if tm > 0.0 { tp / tm } else { f64::NAN };
            let _ = writeln!(
                out,
                "{:<38} {:>14.3e} {:>14.3e} {:>8.2}",
                cfg.name, tm, tp, ratio
            );
        }
    }
    out
}

/// As [`calibrate`], with the exact dedup comparison count from
/// [`crate::dedup::DedupResult::comparisons`].
pub fn calibrate_with_comparisons(
    run: &MeasuredRun,
    comparisons: usize,
    c: &CostCoefficients,
) -> Vec<StepDemand> {
    let mut steps = calibrate(run, c);
    let approx = dedup_comparisons(&run.flow);
    if approx > 0.0 {
        let scale = comparisons as f64 / approx;
        for idx in [1usize, 3] {
            steps[idx].cpu_ops *= scale;
            steps[idx].mem_bytes *= scale;
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{AnalyticsStats, DurabilityStats, IngestStats, OverloadStats, SnapshotStats};
    use crate::model::{baseline2012, Resource};

    fn sample_run() -> MeasuredRun {
        MeasuredRun {
            flow: FlowStats {
                ingest: IngestStats {
                    records_ingested: 10_000,
                    entities_created: 2_200,
                    updates_applied: 60_000,
                    updates_quarantined: 0,
                    events_observed: 9_000,
                    triggers_fired: 50,
                },
                analytics: AnalyticsStats {
                    batch_runs: 10,
                    seeds_selected: 20,
                    subgraphs_extracted: 10,
                    vertices_extracted: 5_000,
                    edges_extracted: 100_000,
                    props_written_back: 5_000,
                    globals_produced: 20,
                    alerts_raised: 3,
                    kernel_cpu_ops: 400_000,
                    kernel_mem_bytes: 3_200_000,
                    kernel_edges_touched: 200_000,
                },
                snapshots: SnapshotStats {
                    rebuilds: 10,
                    rows_reused: 45_000,
                    mem_bytes: 2_400_000,
                },
                durability: DurabilityStats {
                    retries: 4,
                    breaker_trips: 0,
                },
                overload: OverloadStats {
                    updates_shed: 1_500,
                    budget_partials: 3,
                    analytics_skipped: 2,
                },
                tier: Default::default(),
            },
            nora: NoraStats {
                pair_candidates: 150_000,
                relationships: 200,
            },
            serve: Default::default(),
        }
    }

    #[test]
    fn produces_nine_steps_matching_model_names() {
        let steps = calibrate(&sample_run(), &CostCoefficients::default());
        let reference = crate::model::nora_steps();
        assert_eq!(steps.len(), 9);
        for (s, r) in steps.iter().zip(&reference) {
            assert_eq!(s.name, r.name);
        }
    }

    #[test]
    fn demands_are_positive_where_work_happened() {
        let steps = calibrate(&sample_run(), &CostCoefficients::default());
        for s in &steps {
            assert!(s.cpu_ops > 0.0, "{} has zero cpu", s.name);
            assert!(s.mem_bytes > 0.0, "{} has zero mem", s.name);
        }
        // Ingest/export move disk bytes; shuffle/export move net bytes.
        assert!(steps[0].disk_bytes > 0.0);
        assert!(steps[2].net_bytes > 0.0);
        assert!(steps[8].net_bytes > 0.0);
    }

    #[test]
    fn calibrated_demands_price_on_any_config() {
        let steps = calibrate(&sample_run(), &CostCoefficients::default());
        let e = evaluate(&baseline2012(), &steps);
        assert!(e.total_seconds > 0.0);
        assert_eq!(e.steps.len(), 9);
        // Every step has a bounding resource.
        let total: usize = Resource::ALL.iter().map(|&r| e.steps_bound_by(r)).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn exact_comparisons_rescale_dedup_steps() {
        let run = sample_run();
        let c = CostCoefficients::default();
        let approx = calibrate(&run, &c);
        let exact = calibrate_with_comparisons(&run, 1_000_000, &c);
        // 10k records * 50 = 500k approx; exact 1M doubles steps 2 & 4.
        assert!((exact[1].cpu_ops / approx[1].cpu_ops - 2.0).abs() < 1e-9);
        assert!((exact[3].cpu_ops / approx[3].cpu_ops - 2.0).abs() < 1e-9);
        // Other steps untouched.
        assert_eq!(exact[0].cpu_ops, approx[0].cpu_ops);
        assert_eq!(exact[6].cpu_ops, approx[6].cpu_ops);
    }

    #[test]
    fn kernel_counters_shift_nora_step() {
        let base = sample_run();
        let mut hot = base;
        hot.flow.analytics.kernel_cpu_ops *= 100;
        hot.flow.analytics.kernel_mem_bytes *= 100;
        let c = CostCoefficients::default();
        let a = calibrate(&base, &c);
        let b = calibrate(&hot, &c);
        assert!(b[6].cpu_ops > a[6].cpu_ops);
        assert!(b[6].mem_bytes > a[6].mem_bytes);
        // Only step 7 consumes the kernel counters.
        for i in (0..9).filter(|&i| i != 6) {
            assert_eq!(a[i].cpu_ops, b[i].cpu_ops, "step {i}");
        }
    }

    #[test]
    fn served_queries_price_only_the_search_row() {
        use ga_stream::admission::Priority;
        let base = sample_run();
        let mut served = base;
        served.serve.classes[Priority::High.idx()].answered = 100_000;
        served.serve.classes[Priority::Bulk.idx()].answered = 1_000;
        let c = CostCoefficients::default();
        let a = calibrate(&base, &c);
        let b = calibrate(&served, &c);
        let extra_cpu = 100_000.0 * c.ops_per_point_query + 1_000.0 * c.ops_per_scan_query;
        let extra_mem =
            100_000.0 * c.mem_bytes_per_point_query + 1_000.0 * c.mem_bytes_per_scan_query;
        assert!((b[6].cpu_ops - a[6].cpu_ops - extra_cpu).abs() < 1e-6);
        assert!((b[6].mem_bytes - a[6].mem_bytes - extra_mem).abs() < 1e-6);
        for i in (0..9).filter(|&i| i != 6) {
            assert_eq!(a[i].cpu_ops, b[i].cpu_ops, "step {i}");
            assert_eq!(a[i].mem_bytes, b[i].mem_bytes, "step {i}");
        }
        // Shed queries cost nothing here: only answered work is demand.
        let mut shed = base;
        shed.serve.classes[Priority::Bulk.idx()].shed = 1_000_000;
        assert_eq!(calibrate(&shed, &c)[6].cpu_ops, a[6].cpu_ops);
    }

    #[test]
    fn snapshot_counters_shift_only_graph_build_step() {
        let base = sample_run();
        let mut hot = base;
        hot.flow.snapshots.mem_bytes *= 100;
        let c = CostCoefficients::default();
        let a = calibrate(&base, &c);
        let b = calibrate(&hot, &c);
        assert!(b[5].cpu_ops > a[5].cpu_ops);
        assert!(b[5].mem_bytes > a[5].mem_bytes);
        // Only step 6 prices the snapshot copy.
        for i in (0..9).filter(|&i| i != 5) {
            assert_eq!(a[i].cpu_ops, b[i].cpu_ops, "step {i}");
            assert_eq!(a[i].mem_bytes, b[i].mem_bytes, "step {i}");
        }
    }

    #[test]
    fn overload_counters_price_admission_and_retry_cost() {
        let base = sample_run();
        let mut hot = base;
        hot.flow.overload.updates_shed *= 100;
        hot.flow.durability.retries *= 100;
        let c = CostCoefficients::default();
        let a = calibrate(&base, &c);
        let b = calibrate(&hot, &c);
        // Shed updates are priced at ingest: classification CPU plus the
        // wire bytes they consumed before being refused.
        assert!(b[0].cpu_ops > a[0].cpu_ops);
        assert!(b[0].net_bytes > a[0].net_bytes);
        // WAL retries re-write frames: disk traffic on graph build.
        assert!(b[5].disk_bytes > a[5].disk_bytes);
        // Nothing else moves.
        for i in 1..9 {
            assert_eq!(a[i].cpu_ops, b[i].cpu_ops, "step {i}");
            assert_eq!(a[i].net_bytes, b[i].net_bytes, "step {i}");
        }
        for i in (0..9).filter(|&i| i != 5) {
            assert_eq!(a[i].disk_bytes, b[i].disk_bytes, "step {i}");
        }
    }

    #[test]
    fn measured_flow_run_calibrates() {
        // End-to-end: a real FlowEngine batch run drains nonzero kernel
        // counters into FlowStats, and calibrate prices them.
        use crate::flow::{FlowEngine, PageRankAnalytic, SelectionCriteria};
        use ga_graph::{gen, DynamicGraph, PropertyStore};

        let mut g = DynamicGraph::new(64);
        g.insert_undirected(&gen::ring(64), 1);
        let mut eng = FlowEngine::with_graph(g, PropertyStore::new(64));
        let idx = eng.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
        eng.run_batch(&SelectionCriteria::Explicit(vec![0, 16, 32]), idx);
        let stats = eng.stats();
        assert!(
            stats.analytics.kernel_cpu_ops > 0,
            "no kernel cpu ops measured"
        );
        assert!(
            stats.analytics.kernel_mem_bytes > 0,
            "no kernel mem traffic measured"
        );
        assert!(
            stats.analytics.kernel_edges_touched > 0,
            "no kernel edges measured"
        );
        assert!(stats.snapshots.rebuilds > 0, "no snapshot freeze measured");
        assert!(
            stats.snapshots.mem_bytes > 0,
            "no snapshot traffic measured"
        );

        let run = MeasuredRun {
            flow: stats,
            nora: NoraStats::default(),
            serve: Default::default(),
        };
        let steps = calibrate(&run, &CostCoefficients::default());
        assert!(steps[6].cpu_ops >= stats.analytics.kernel_cpu_ops as f64);
        assert!(steps[6].mem_bytes >= stats.analytics.kernel_mem_bytes as f64);
        assert!(steps[5].mem_bytes >= stats.snapshots.mem_bytes as f64);
    }

    #[test]
    fn measured_demands_read_span_totals_verbatim() {
        let rec = ga_obs::Recorder::enabled();
        {
            let mut span = rec.span(Step::Extraction);
            span.add(10, 20, 30, 40);
        }
        let m = measured_demands(&rec.snapshot());
        assert_eq!(m.len(), 9);
        let ex = m.iter().find(|s| s.name == "extraction").unwrap();
        assert_eq!(
            (ex.cpu_ops, ex.mem_bytes, ex.disk_bytes, ex.net_bytes),
            (10.0, 20.0, 30.0, 40.0)
        );
        // Untouched steps are present with zero demand.
        assert!(m.iter().all(|s| s.name != "wal" || s.cpu_ops == 0.0));
    }

    #[test]
    fn projected_rows_align_with_measured_rows() {
        let run = sample_run();
        let p = projected_step_demands(&run.flow, &CostCoefficients::default());
        let m = measured_demands(&MetricsSnapshot::empty());
        assert_eq!(p.len(), m.len());
        for (a, b) in p.iter().zip(&m) {
            assert_eq!(a.name, b.name, "step rows must line up");
        }
        // The analytic row projects the kernels' own counters exactly.
        let ba = p.iter().find(|s| s.name == "batch_analytic").unwrap();
        assert_eq!(ba.cpu_ops, run.flow.analytics.kernel_cpu_ops as f64);
        let table = measured_vs_projected_table(&m, &p, &[baseline2012()], |v| format!("{v:.0}"));
        assert!(table.contains("batch_analytic"));
        assert!(table.contains("configuration"));
        assert!(table.contains("Baseline 2012"));
    }

    #[test]
    fn instrumented_run_feeds_measured_mode() {
        // End-to-end: an engine built with a recorder produces a trace
        // whose measured batch-analytic demand matches the drained
        // kernel counters in FlowStats.
        use crate::flow::{FlowEngine, PageRankAnalytic, SelectionCriteria};
        use ga_graph::{gen, DynamicGraph, PropertyStore};

        let mut g = DynamicGraph::new(64);
        g.insert_undirected(&gen::ring(64), 1);
        let mut eng = FlowEngine::builder()
            .recorder(ga_obs::Recorder::enabled())
            .build_with_graph(g, PropertyStore::new(64))
            .unwrap();
        let idx = eng.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
        eng.run_batch(&SelectionCriteria::Explicit(vec![0, 16, 32]), idx);
        let m = measured_demands(&eng.metrics());
        let stats = eng.stats();
        let ba = m.iter().find(|s| s.name == "batch_analytic").unwrap();
        assert_eq!(ba.cpu_ops, stats.analytics.kernel_cpu_ops as f64);
        assert_eq!(ba.mem_bytes, stats.analytics.kernel_mem_bytes as f64);
        let sn = m.iter().find(|s| s.name == "snapshot").unwrap();
        assert_eq!(sn.mem_bytes, stats.snapshots.mem_bytes as f64);
        // Selection, extraction, write-back all saw work too.
        for name in ["selection", "extraction", "write_back"] {
            let s = m.iter().find(|s| s.name == name).unwrap();
            assert!(s.cpu_ops > 0.0, "{name} span recorded nothing");
        }
    }

    #[test]
    fn scaling_counters_scales_demands_linearly() {
        let run = sample_run();
        let mut big = run;
        big.flow.ingest.updates_applied *= 10;
        let c = CostCoefficients::default();
        let a = calibrate(&run, &c);
        let b = calibrate(&big, &c);
        assert!((b[2].net_bytes / a[2].net_bytes - 10.0).abs() < 1e-9);
    }
}
