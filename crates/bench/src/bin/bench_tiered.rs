//! E18 driver: the tiered larger-than-RAM segment store under shrinking
//! RAM budgets.
//!
//! One R-MAT graph is spilled through [`TieredCsr`] at 100%, 50%, and
//! 25% of its decoded row working set. At each budget the driver runs
//! BFS and PageRank over the tier and records:
//!
//! * **miss rate** — demand misses over total row-segment lookups, the
//!   knob the paper's E3 regime turns: at 100% the tier behaves like
//!   RAM, at 25% most of the graph pages in from disk mid-kernel;
//! * **scrub throughput** — bytes CRC-verified per second by a full
//!   [`TieredCsr::scrub`] pass;
//! * **repair latency** — wall-clock for detect + quarantine +
//!   [`TieredCsr::repair_from`] after a byte of one segment is rotted
//!   on disk;
//! * **zero loss** — after repair, BFS over the tier must be
//!   bit-identical to the in-RAM run with no `lost_rows`/`lost_segments`;
//! * **projected vs measured disk** — a tiered `FlowEngine` batch is
//!   priced through `ga_core::calibrate`: the tier's spill and demand
//!   reads must show up as disk demand on the Snapshot and Extraction
//!   rows of the measured-vs-projected table, in agreement.
//!
//! Results land in `BENCH_tiered.json`. A budget point that loses data,
//! or tier IO missing from the model, fails the run at every scale.
//!
//! ```sh
//! cargo run --release -p ga-bench --bin bench_tiered
//! # smoke (CI): GA_BENCH_SMOKE=1 cargo run ... --bin bench_tiered
//! ```

use ga_bench::{eng, header, scale, smoke};
use ga_core::calibrate::{measured_demands, projected_step_demands, CostCoefficients};
use ga_core::flow::{FlowEngine, PageRankAnalytic, SelectionCriteria};
use ga_graph::tier::{TierConfig, TieredCsr};
use ga_graph::{gen, CsrBuilder, CsrGraph};
use ga_kernels::{bfs, pagerank};
use ga_obs::Recorder;
use ga_stream::update::{into_batches, rmat_edge_stream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const BUDGET_PCTS: [u64; 3] = [100, 50, 25];

struct BudgetPoint {
    budget_pct: u64,
    ram_budget_bytes: u64,
    miss_rate: f64,
    cache_hits: u64,
    cache_misses: u64,
    read_bytes: u64,
    evictions: u64,
    prefetches: u64,
    bfs_ms: f64,
    pagerank_ms: f64,
    scrub_mb_per_s: f64,
    scrub_bytes: u64,
    repair_ms: f64,
    repaired: usize,
    zero_loss: bool,
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ga_bench_tiered")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run_budget_point(g: &Arc<CsrGraph>, working_set: u64, pct: u64) -> BudgetPoint {
    let dir = tmpdir(&format!("pct-{pct}"));
    let budget = working_set * pct / 100;
    let cfg = TierConfig::new(&dir)
        .segment_rows(512)
        .ram_budget(budget)
        .keep_pin(false);
    let tier = TieredCsr::spill(g, cfg).expect("spill");

    let t0 = Instant::now();
    let b_tier = bfs::bfs(&tier, 0);
    let bfs_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let _ = pagerank::pagerank(&tier, 0.85, 1e-7, 10);
    let pagerank_ms = t0.elapsed().as_secs_f64() * 1e3;
    let kernel_stats = tier.stats();

    // Scrub throughput over the whole store.
    let t0 = Instant::now();
    let clean = tier.scrub();
    let scrub_s = t0.elapsed().as_secs_f64();
    assert!(clean.corrupt.is_empty(), "clean store scrubbed dirty");
    let scrub_mb_per_s = clean.bytes as f64 / 1e6 / scrub_s.max(1e-9);

    // Rot one byte of one segment on disk; time detect + repair.
    let victim = std::fs::read_dir(&dir)
        .expect("read tier dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "gas"))
        .expect("no segments spilled");
    let mut bytes = std::fs::read(&victim).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&victim, &bytes).expect("rot segment");

    let t0 = Instant::now();
    let rot = tier.scrub();
    let repair = tier.repair_from(Some(g));
    let repair_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(rot.corrupt.len(), 1, "rot not detected");

    // Post-repair the tier must serve the exact graph again.
    let b_ram = bfs::bfs(&**g, 0);
    let b_after = bfs::bfs(&tier, 0);
    let s = tier.stats();
    let zero_loss = repair.repaired.len() == 1
        && repair.unrepairable.is_empty()
        && s.lost_rows == 0
        && s.lost_segments == 0
        && b_tier.depth == b_ram.depth
        && b_after.depth == b_ram.depth;

    std::fs::remove_dir_all(&dir).ok();
    let lookups = kernel_stats.cache_hits + kernel_stats.cache_misses;
    BudgetPoint {
        budget_pct: pct,
        ram_budget_bytes: budget,
        miss_rate: kernel_stats.cache_misses as f64 / lookups.max(1) as f64,
        cache_hits: kernel_stats.cache_hits,
        cache_misses: kernel_stats.cache_misses,
        read_bytes: kernel_stats.read_bytes,
        evictions: kernel_stats.evictions,
        prefetches: kernel_stats.prefetches,
        bfs_ms,
        pagerank_ms,
        scrub_mb_per_s,
        scrub_bytes: clean.bytes,
        repair_ms,
        repaired: repair.repaired.len(),
        zero_loss,
    }
}

struct ModelRow {
    step: &'static str,
    measured_disk: f64,
    projected_disk: f64,
}

/// Price a tiered engine batch through the calibration path: the tier's
/// disk traffic must appear on the Snapshot (spill) and Extraction
/// (demand reads) rows of both the measured spans and the projected
/// counters.
fn run_model_comparison(scale: u32) -> Vec<ModelRow> {
    let dir = tmpdir("model");
    let cfg = TierConfig::new(&dir).segment_rows(64).ram_budget(8 << 10);
    let mut e = FlowEngine::builder()
        .recorder(Recorder::enabled())
        .tiered(cfg)
        .build(1 << scale)
        .expect("engine");
    let idx = e.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
    for b in into_batches(rmat_edge_stream(scale, 6 << scale, 0.1, 42), 256, 1) {
        e.process_stream(&b, |_| None, None);
    }
    let _ = e.run_batch(&SelectionCriteria::TopKDegree { k: 16 }, idx);
    let measured = measured_demands(&e.metrics());
    let projected = projected_step_demands(&e.stats(), &CostCoefficients::default());
    std::fs::remove_dir_all(&dir).ok();
    ["snapshot", "extraction"]
        .iter()
        .map(|step| {
            let m = measured
                .iter()
                .find(|d| d.name == *step)
                .expect("measured row");
            let p = projected
                .iter()
                .find(|d| d.name == *step)
                .expect("projected row");
            ModelRow {
                step,
                measured_disk: m.disk_bytes,
                projected_disk: p.disk_bytes,
            }
        })
        .collect()
}

fn main() {
    let smoke = smoke();
    let scale = scale(16, 12);
    let num_vertices = 1usize << scale;
    let edges = gen::rmat(scale, 8 << scale, gen::RmatParams::GRAPH500, 42);
    let g = Arc::new(
        CsrBuilder::new(num_vertices)
            .edges(edges.iter().copied())
            .symmetrize(true)
            .dedup(true)
            .drop_self_loops(true)
            .reverse(true)
            .build(),
    );
    let probe_dir = tmpdir("probe");
    let probe = TieredCsr::spill(&g, TierConfig::new(&probe_dir).segment_rows(512)).expect("probe");
    let working_set = probe.working_set_bytes();
    drop(probe);
    std::fs::remove_dir_all(&probe_dir).ok();

    header(&format!(
        "E18 — tiered segment store, scale {scale} ({num_vertices} vertices, {} edges), \
         working set {}B",
        g.num_edges(),
        eng(working_set as f64),
    ));

    let mut points = Vec::new();
    let mut all_zero_loss = true;
    for pct in BUDGET_PCTS {
        let p = run_budget_point(&g, working_set, pct);
        println!(
            "{:3}% RAM ({}B): miss rate {:5.1}% ({} hits / {} misses) | \
             read {}B, {} evictions, {} prefetches | bfs {:7.2} ms, pagerank {:7.2} ms | \
             scrub {:7.1} MB/s | repair {:6.2} ms | {}",
            p.budget_pct,
            eng(p.ram_budget_bytes as f64),
            p.miss_rate * 100.0,
            p.cache_hits,
            p.cache_misses,
            eng(p.read_bytes as f64),
            p.evictions,
            p.prefetches,
            p.bfs_ms,
            p.pagerank_ms,
            p.scrub_mb_per_s,
            p.repair_ms,
            if p.zero_loss { "zero loss" } else { "LOSS" },
        );
        all_zero_loss &= p.zero_loss;
        points.push(p);
    }

    header("cost model — tier IO as disk demand (measured vs projected)");
    let model = run_model_comparison(scale.min(10));
    let mut model_disk_seen = true;
    for r in &model {
        println!(
            "{:11} disk: measured {}B, projected {}B",
            r.step,
            eng(r.measured_disk),
            eng(r.projected_disk),
        );
        model_disk_seen &= r.measured_disk > 0.0 && r.projected_disk > 0.0;
    }

    // Hand-rolled JSON (no serde in the dependency budget).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"scale\": {scale},\n"));
    j.push_str(&format!("  \"num_vertices\": {num_vertices},\n"));
    j.push_str(&format!("  \"num_edges\": {},\n", g.num_edges()));
    j.push_str(&format!("  \"working_set_bytes\": {working_set},\n"));
    j.push_str(&format!("  \"smoke\": {smoke},\n"));
    j.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"budget_pct\": {}, \"ram_budget_bytes\": {}, \"miss_rate\": {:.4}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"read_bytes\": {}, \
             \"evictions\": {}, \"prefetches\": {}, \"bfs_ms\": {:.3}, \
             \"pagerank_ms\": {:.3}, \"scrub_mb_per_s\": {:.1}, \"scrub_bytes\": {}, \
             \"repair_ms\": {:.3}, \"repaired\": {}, \"zero_loss\": {}}}{}\n",
            p.budget_pct,
            p.ram_budget_bytes,
            p.miss_rate,
            p.cache_hits,
            p.cache_misses,
            p.read_bytes,
            p.evictions,
            p.prefetches,
            p.bfs_ms,
            p.pagerank_ms,
            p.scrub_mb_per_s,
            p.scrub_bytes,
            p.repair_ms,
            p.repaired,
            p.zero_loss,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"model\": [\n");
    for (i, r) in model.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"step\": \"{}\", \"measured_disk_bytes\": {:.0}, \
             \"projected_disk_bytes\": {:.0}}}{}\n",
            r.step,
            r.measured_disk,
            r.projected_disk,
            if i + 1 == model.len() { "" } else { "," },
        ));
    }
    j.push_str("  ]\n");
    j.push_str("}\n");
    std::fs::write("BENCH_tiered.json", &j).expect("write BENCH_tiered.json");
    println!("\nwrote BENCH_tiered.json");

    if !all_zero_loss {
        eprintln!("FAIL: a budget point lost data or diverged after repair");
        std::process::exit(1);
    }
    if !model_disk_seen {
        eprintln!("FAIL: tier IO did not appear as disk demand in the cost model");
        std::process::exit(1);
    }
    println!("zero-loss assertion held at every budget");
}
