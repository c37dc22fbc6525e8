//! Regression tests for the paper's headline claims — the "shape"
//! targets of DESIGN.md §4. If a refactor breaks one of these, the
//! reproduction no longer reproduces.

use graph_analytics::archsim::emu::{gups, jaccard_query, pointer_chase, EmuConfig, ExecModel};
use graph_analytics::archsim::sparse::{
    simulate_cache, simulate_pipeline, spgemm_work, CacheNode, PipelineNode,
};
use graph_analytics::core::model::{
    all_but_cpu, all_upgrades, baseline2012, cpu_upgrade, disk_upgrade, emu1, emu2, emu3, evaluate,
    lightweight, mem_upgrade, net_upgrade, nora_steps, stack_only_3d, xcaliber, Resource,
};
use graph_analytics::graph::{gen, CsrBuilder, CsrGraph};
use graph_analytics::linalg::CsrMatrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

// ----- §IV / Fig. 3 -----------------------------------------------------

#[test]
fn fig3_shape_claims() {
    let steps = nora_steps();
    let base = evaluate(&baseline2012(), &steps);
    let s = |cfg| evaluate(&cfg, &steps).speedup_over(&base);

    // "disk and network bandwidth represent the tall poles for the baseline"
    let io = base.seconds_bound_by(Resource::Disk) + base.seconds_bound_by(Resource::Network);
    let compute = base.seconds_bound_by(Resource::Cpu) + base.seconds_bound_by(Resource::Memory);
    assert!(io > compute);

    // "upgrading the microprocessor alone provided only a 45% increase"
    let cpu_only = s(cpu_upgrade());
    assert!((1.25..1.6).contains(&cpu_only), "cpu-only {cpu_only}");

    // "upgrading all but the microprocessor provides over a 3X growth
    // (far more than the product of the individual factors)"
    let all_but = s(all_but_cpu());
    let product = s(mem_upgrade()) * s(disk_upgrade()) * s(net_upgrade());
    assert!(all_but > 3.0, "all-but {all_but}");
    assert!(all_but > product, "all-but {all_but} vs product {product}");

    // "upgrading the microprocessor did provide an 8X growth"
    let all = s(all_upgrades());
    assert!((6.0..14.0).contains(&all), "all {all}");

    // "near equal performance in 1/5'th of the hardware (2 racks)"
    let lw = s(lightweight());
    assert!((0.6..1.4).contains(&lw), "lightweight {lw}");
    // "...causes computational rate to dominate for 4 of the 9 steps"
    assert!(evaluate(&lightweight(), &steps).steps_bound_by(Resource::Cpu) >= 4);

    // "the two-level memory system ... equal performance in only 3 racks"
    let xc = s(xcaliber());
    assert!((0.7..1.8).contains(&xc), "xcaliber {xc}");

    // "possibly up to 200X performance in 1/10th the hardware"
    let stack = s(stack_only_3d());
    assert!((100.0..320.0).contains(&stack), "3D stack {stack}");
}

// ----- §V-B / Figs. 5 & 6 -------------------------------------------------

#[test]
fn fig6_emu_claims() {
    let steps = nora_steps();
    let base = evaluate(&baseline2012(), &steps);
    let e1 = evaluate(&emu1(), &steps).speedup_over(&base);
    let e2 = evaluate(&emu2(), &steps).speedup_over(&base);
    let e3 = evaluate(&emu3(), &steps).speedup_over(&base);
    assert!(e1 < e2 && e2 < e3);
    // "projected performance for the Emu system are up to 60X that of
    // the best of the upgraded clusters" in 1/10th the hardware.
    let best = evaluate(&all_upgrades(), &steps);
    let ratio = evaluate(&emu3(), &steps).speedup_over(&best);
    assert!((20.0..90.0).contains(&ratio), "Emu3 vs best {ratio}");
    assert_eq!(emu3().racks, 1.0);
    assert_eq!(all_upgrades().racks, 10.0);
}

#[test]
fn migrating_threads_half_or_less() {
    // "consume half or less the bandwidth and latency of a conventional
    // thread trying to do the same thing via remote memory operations"
    let cfg = EmuConfig::chick();
    let mig = pointer_chase(&cfg, ExecModel::Migrating, 50_000, 1);
    let rem = pointer_chase(&cfg, ExecModel::RemoteAccess, 50_000, 1);
    assert!(mig.bytes as f64 <= 0.55 * rem.bytes as f64);
    assert!(mig.total_latency_ns <= 0.5 * rem.total_latency_ns);

    // Fire-and-forget remote ops win GUPS outright.
    let mg = gups(&cfg, ExecModel::Migrating, 1 << 20, 200_000, 1024, 2);
    let rg = gups(&cfg, ExecModel::RemoteAccess, 1 << 20, 200_000, 1024, 2);
    assert!(mg.ops_per_sec() > 1.5 * rg.ops_per_sec());
}

#[test]
fn streaming_jaccard_microsecond_scale() {
    // "individual response times in the 10s of microseconds are possible"
    let cfg = EmuConfig::chick();
    let edges = gen::rmat(14, 16 << 14, gen::RmatParams::GRAPH500, 9);
    let g = CsrGraph::from_edges_undirected(1 << 14, &edges);
    let mut sampled = 0;
    let mut total_us = 0.0;
    for v in 0..g.num_vertices() as u32 {
        if (8..=32).contains(&g.degree(v)) {
            total_us += jaccard_query(&cfg, ExecModel::Migrating, &g, v).wall_ns / 1e3;
            sampled += 1;
            if sampled == 16 {
                break;
            }
        }
    }
    let mean = total_us / sampled as f64;
    assert!((1.0..200.0).contains(&mean), "mean query {mean} µs");
}

// ----- §V-A / Fig. 4 ------------------------------------------------------

#[test]
fn sparse_pipeline_order_of_magnitude() {
    // "more than an order of magnitude performance advantage over a
    // node for a Cray XT4" once the operand spills the cache.
    let n = 1 << 17;
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut edges = Vec::with_capacity(n * 8);
    for r in 0..n as u32 {
        for _ in 0..8 {
            edges.push((r, rng.gen_range(0..n) as u32));
        }
    }
    let g = CsrBuilder::new(n).edges(edges).build();
    let a = CsrMatrix::from_graph(&g, |_, _, _| 1.0, |x, y| x + y);
    let w = spgemm_work(&a, &a);
    let mut xt4 = CacheNode::xt4();
    xt4.hit_rate = (2e6 / (a.nnz() as f64 * 8.0)).min(0.95);
    let pipe = simulate_pipeline(&w, &PipelineNode::fpga_prototype());
    let cache = simulate_cache(&w, &xt4);
    let speedup = pipe.macs_per_sec / cache.macs_per_sec;
    assert!(speedup > 10.0, "FPGA/XT4 {speedup}");

    // "Projections to ASIC-based designs imply a possibility of another
    // order of magnitude advantage in both metrics."
    let asic = simulate_pipeline(&w, &PipelineNode::asic_projection());
    assert!(asic.macs_per_sec / pipe.macs_per_sec >= 10.0);
    assert!(asic.macs_per_joule / pipe.macs_per_joule >= 5.0);

    // "Performance per watt ... is even more striking."
    assert!(pipe.macs_per_joule / cache.macs_per_joule > speedup);
}
