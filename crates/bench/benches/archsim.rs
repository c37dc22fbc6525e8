//! Criterion benches for the architecture simulators themselves (the
//! simulators must be fast enough to sweep) plus the NORA model.

use criterion::{criterion_group, criterion_main, Criterion};
use ga_archsim::emu::{gups, pointer_chase, EmuConfig, ExecModel};
use ga_archsim::sparse::{simulate_pipeline, spgemm_work, PipelineNode};
use ga_bench::random_sparse;
use ga_core::model::{all_configs, evaluate, nora_steps};
use std::hint::black_box;

fn bench_emu_sim(c: &mut Criterion) {
    let cfg = EmuConfig::chick();
    c.bench_function("emu_pointer_chase_100k", |b| {
        b.iter(|| pointer_chase(black_box(&cfg), ExecModel::Migrating, 100_000, 1))
    });
    c.bench_function("emu_gups_100k", |b| {
        b.iter(|| {
            gups(
                black_box(&cfg),
                ExecModel::Migrating,
                1 << 20,
                100_000,
                1024,
                1,
            )
        })
    });
}

fn bench_sparse_sim(c: &mut Criterion) {
    let a = random_sparse(4096, 8, 1);
    let node = PipelineNode::fpga_prototype();
    c.bench_function("sparse_spgemm_work_4k", |b| {
        b.iter(|| {
            let w = spgemm_work(black_box(&a), black_box(&a));
            simulate_pipeline(&w, &node)
        })
    });
}

fn bench_nora_model(c: &mut Criterion) {
    let steps = nora_steps();
    let configs = all_configs();
    c.bench_function("nora_model_all_configs", |b| {
        b.iter(|| {
            configs
                .iter()
                .map(|cfg| evaluate(black_box(cfg), black_box(&steps)).total_seconds)
                .sum::<f64>()
        })
    });
}

criterion_group!(
    name = benches;
    // Bounded measurement so `cargo bench --workspace` finishes in
    // minutes; raise for publication-grade confidence intervals.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_emu_sim, bench_sparse_sim, bench_nora_model
);
criterion_main!(benches);
