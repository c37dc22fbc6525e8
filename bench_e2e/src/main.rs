//! `bench_e2e` — the repo's one benchmark: seven workloads, named
//! end-to-end and per-layer metrics, and a traced run. See `README.md`
//! beside this crate for why each workload exists and what each metric
//! means, and `BENCHMARK.json` at the repo root for the contract.
//!
//! ```sh
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload ingest.durable --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload. Human-readable lines come first; the
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A validation failure prints the
//! difference and exits non-zero without printing a result.

mod inputs;
mod pace;
mod report;
mod shadow;
mod stats;
mod trace;
mod workloads;

use report::{result_file, result_line};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Config;

/// Where results and traces go unless `--out` says otherwise, relative to
/// the directory the benchmark is run from (the repo root); listed in
/// `.gitignore`.
const OUT_DIR: &str = "bench_e2e/out";

fn usage() -> String {
    format!(
        "usage: bench_e2e --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] \
         [--smoke] [--out <dir>]\nworkloads: {}",
        workloads::NAMES.join(" ")
    )
}

/// The run's configuration (its scratch directory still unset) and the
/// output directory.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(Config, PathBuf), String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        scratch: PathBuf::new(),
    };
    let mut out = PathBuf::from(OUT_DIR);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => cfg.smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !workloads::NAMES.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of the seven\n{}", usage()));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok((cfg, out))
}

/// This run's scratch directory; removed again however the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out: &Path, workload: &str) -> std::io::Result<Self> {
        let dir = out.join(format!("tmp-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(mut cfg: Config, out: &Path) -> Result<(), String> {
    if cfg!(debug_assertions) && !cfg.smoke {
        return Err(
            "refusing to measure a debug build; build with --release or pass --smoke".into(),
        );
    }
    let scratch = Scratch::create(out, &cfg.workload)
        .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    cfg.scratch = scratch.0.clone();
    let (outcome, tracers) = workloads::run(&cfg)?;
    drop(scratch);

    let metrics = if cfg.trace {
        outcome.per_layer()
    } else {
        outcome.end_to_end()
    };
    let stem = if cfg.trace { "trace-" } else { "" };
    let file = out.join(format!("{stem}{}.json", cfg.workload));
    std::fs::write(&file, result_file(&cfg, &outcome, &metrics))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    if cfg.trace {
        let path = out.join(format!("trace-{}.jsonl", cfg.workload));
        let mut spans = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        for (thread, tracer) in &tracers {
            tracer
                .write_jsonl(&mut spans, thread)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        std::io::Write::flush(&mut spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    println!(
        "{} seed {} ({} rounds, outputs validated): {} attempted, {} failed; wrote {}",
        cfg.workload,
        cfg.seed,
        outcome.setup_s.len(),
        outcome.attempted,
        outcome.failed,
        file.display()
    );
    for m in metrics.iter().chain(&outcome.named) {
        println!("  {:<42} {:>18.6} {}", m.name, m.value, m.unit);
    }
    // The repetitions behind the two medians, so their spread is visible.
    for (label, values) in [
        ("ops_per_s", &outcome.ops_per_s),
        ("setup_s", &outcome.setup_s),
    ] {
        let list: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("  {label} per round: {}", list.join(" "));
    }
    println!("{}", result_line(&outcome, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|(cfg, out)| run(cfg, &out));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Config, String> {
        parse_args(list.iter().map(|s| s.to_string())).map(|(cfg, _)| cfg)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "serve.mixed",
            "--seed",
            "42",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve.mixed", 42, 8.0, true)
        );
        assert!(!a.smoke);
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "serve.mixed", "--trace", "yes"]).is_err());
        assert!(args(&["--workload", "serve.mixed", "--seed"]).is_err());
        assert!(args(&["--workload", "serve.mixed", "--bogus"]).is_err());
    }

    /// The whole suite at smoke size, untraced and traced: every workload
    /// validates, and every metric `BENCHMARK.json` names is emitted with
    /// its unit — non-zero where the workload owns it.
    #[test]
    fn smoke_pass_emits_every_metric() {
        let out = std::env::temp_dir().join(format!("bench_e2e-smoke-{}", std::process::id()));
        // Layer metrics each workload's traced run must report non-zero.
        let owned: [(&str, &[&str]); 7] = [
            (
                "ingest.durable",
                &[
                    "admit_us",
                    "admitted_updates",
                    "wal_append_ms",
                    "wal_bytes_per_update",
                    "wal_appends",
                    "checkpoint_ms",
                    "checkpoint_bytes",
                    "apply_ms",
                    "apply_ns_per_update",
                    "freeze_ms",
                    "snapshot_mem_bytes",
                    "publish_ms",
                    "publishes",
                    "props_clone_ms",
                    "trace_overhead",
                ],
            ),
            (
                "ingest.memory",
                &["apply_ms", "apply_ns_per_update", "trace_overhead"],
            ),
            (
                "analytics.batch",
                &[
                    "apply_ms",
                    "freeze_ms",
                    "rows_reused_fraction",
                    "extract_ms",
                    "extract_vertices",
                    "extract_edges",
                    "kernel_cpu_ops",
                    "kernel_mem_bytes",
                    "kernel_edges_touched",
                    "kernel_ns_per_edge",
                    "kernel_bytes_per_edge",
                    "batch_run_ms_p50.pagerank",
                    "batch_run_ms_p50.components",
                    "batch_run_ms_p50.triangles",
                    "batch_run_ms_p50.jaccard",
                    "writeback_ms",
                    "props_written",
                    "trace_overhead",
                ],
            ),
            (
                "kernels.gap",
                &[
                    "kernel_ms.bfs.serial.plain",
                    "kernel_ms.bfs.parallel.compressed",
                    "kernel_ms.pagerank.parallel.plain",
                    "kernel_ms.sssp.serial.compressed",
                    "kernel_ms.cc.parallel.plain",
                    "kernel_ms.tc.serial.plain",
                    "kernel_cpu_ops",
                    "kernel_edges_touched",
                    "kernel_ns_per_edge",
                    "trace_overhead",
                ],
            ),
            (
                "serve.frozen",
                &[
                    "exec_us_p50.point",
                    "exec_us_p50.khop",
                    "exec_us_p50.topk",
                    "revalidate_ns",
                    "trace_overhead",
                ],
            ),
            (
                "serve.mixed",
                &[
                    "exec_us_p50.point",
                    "exec_us_p50.khop",
                    "revalidate_ns",
                    "admit_us",
                    "wal_append_ms",
                    "apply_ms",
                    "freeze_ms",
                    "publish_ms",
                    "publishes",
                    "trace_overhead",
                ],
            ),
            (
                "recover.replay",
                &[
                    "checkpoint_load_ms",
                    "wal_replay_ms",
                    "apply_ms",
                    "freeze_ms",
                    "publish_ms",
                    "trace_overhead",
                ],
            ),
        ];
        for (workload, owned_layers) in owned {
            for trace in [false, true] {
                let scratch = Scratch::create(&out, workload).unwrap();
                let cfg = Config {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    scratch: scratch.0.clone(),
                };
                let (outcome, tracers) = workloads::run(&cfg)
                    .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                assert!(outcome.attempted >= 1, "{workload}");
                assert_eq!(outcome.failed, 0, "{workload}: no operation may fail");
                if trace {
                    let layers = outcome.per_layer();
                    assert_eq!(layers.len(), report::PER_LAYER.len());
                    for name in owned_layers {
                        let m = layers.iter().find(|m| m.name == *name).expect(name);
                        assert!(
                            m.value != 0.0 && !m.unit.is_empty(),
                            "{workload}: {name} is 0"
                        );
                    }
                    assert!(layers.iter().all(|m| m.value.is_finite()), "{workload}");
                    assert!(
                        tracers.iter().any(|(_, t)| !t.spans().is_empty()),
                        "{workload}: the traced run recorded no span"
                    );
                } else {
                    let e2e = outcome.end_to_end();
                    assert_eq!(e2e.len(), report::END_TO_END.len());
                    for m in &e2e {
                        assert!(
                            m.value > 0.0 && m.value.is_finite(),
                            "{workload}: {}",
                            m.name
                        );
                    }
                    assert!(!outcome.named.is_empty(), "{workload}: no named metric");
                    let line = result_line(&outcome, &e2e);
                    assert!(line.contains("\"setup_s\": {\"value\": "), "{line}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
