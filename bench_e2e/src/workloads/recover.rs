//! `recover.replay`: the WAL and checkpoint codecs used for *reads*. Set
//! up by ingesting durably with one checkpoint a quarter of the way in,
//! then time `FlowConfig::recover` + `serve_handle` until the first query
//! answers, each time on a fresh copy of the directory. A group-commit or
//! frame-format change that speeds `ingest.durable` but slows replay
//! shows here.

use super::{
    check_state, fill_trace_ratios, fill_write_layers, ms, replay, rounds, Config, Invalid, Tracers,
};
use crate::inputs::{count_updates, update_batches, BATCH};
use crate::report::Outcome;
use crate::shadow::Shadow;
use crate::stats::median;
use crate::trace::{LayerTimes, Tracer};
use ga_core::durability::decode_checkpoint;
use ga_core::flow::FlowEngine;
use ga_core::serve::{QueryOutcome, QueryService, ServeConfig, TenantConfig};
use ga_graph::{DynamicGraph, PropertyStore};
use ga_stream::admission::Priority;
use ga_stream::epoch::SnapshotHandle;
use ga_stream::update::UpdateBatch;
use ga_stream::wal::{self, Wal};
use ga_stream::Query;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy)]
struct Sizes {
    scale: u32,
    batches: usize,
    /// Timed recoveries per round, each on its own copy of the directory.
    recoveries: usize,
}

const FULL: Sizes = Sizes {
    scale: 16,
    batches: 391, // ~200 k updates; checkpoint after the first quarter
    recoveries: 5,
};

const SMOKE: Sizes = Sizes {
    scale: 10,
    batches: 16,
    recoveries: 2,
};

struct State {
    dir: PathBuf,
    batches: Vec<UpdateBatch>,
    traced: bool,
    tracer: Tracer,
    /// The last recovered state, kept for validation.
    recovered: Option<(DynamicGraph, PropertyStore)>,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

struct Round {
    traced: bool,
    recover_ms: Vec<f64>,
    unanswered: usize,
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// The first query a recovered engine must answer.
fn first_query(handle: SnapshotHandle) -> bool {
    let service = QueryService::new(handle, ServeConfig::default());
    let tenant = service.tenant(TenantConfig::new("first", Priority::High));
    let outcome = service.client(&tenant).run(&Query::Degree { vertex: 0 });
    matches!(outcome, QueryOutcome::Answered { .. })
}

/// Files of `dir` named `<prefix><number><suffix>`, ascending by number.
fn numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let number = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok());
        if let Some(number) = number {
            found.push((number, path));
        }
    }
    found.sort();
    Ok(found)
}

/// `FlowEngine::recover` + `serve_handle` rebuilt from the layers' public
/// pieces, a span around each: `recover` > `checkpoint_load`,
/// `wal_replay`, `wal_reopen`, `apply` (one per replayed batch), `freeze`,
/// `publish` > `props_clone`, `first_query`.
fn shadow_recover(dir: &Path, tr: &mut Tracer, op: u64) -> io::Result<(Shadow, bool)> {
    let root = tr.begin("recover", op);
    let span = tr.begin("checkpoint_load", op);
    let (_, newest) = numbered(dir, "ckpt-", ".gac")?
        .pop()
        .ok_or_else(|| io::Error::other("no checkpoint to recover from"))?;
    let ckpt = decode_checkpoint(&fs::read(newest)?)?;
    tr.end(span);

    let span = tr.begin("wal_replay", op);
    let segments = numbered(dir, "wal-", ".log")?;
    let mut frames = Vec::new();
    for (_, path) in &segments {
        frames.extend(wal::replay(path)?.batches);
    }
    frames.retain(|(seq, _)| *seq >= ckpt.next_wal_seq);
    frames.sort_by_key(|(seq, _)| *seq);
    tr.end(span);

    let span = tr.begin("wal_reopen", op);
    if let Some((start, path)) = segments.last() {
        Wal::open_append(path, *start)?;
    }
    tr.end(span);

    let mut shadow = Shadow::new(ckpt.graph, ckpt.props, None)?;
    shadow.stream.set_stats(ckpt.stream);
    shadow.stream.symmetrize = ckpt.symmetrize;
    shadow.stream.set_vertex_limit(ckpt.vertex_limit as usize);
    shadow.stream.set_last_batch_time(ckpt.last_batch_time);
    for (_, batch) in &frames {
        shadow.apply(tr, op, batch);
    }
    let handle = shadow.serve_handle(tr, op);
    let span = tr.begin("first_query", op);
    let answered = first_query(handle);
    tr.end(span);
    tr.end(root);
    Ok((shadow, answered))
}

pub fn run(cfg: &Config) -> Result<(Outcome, Tracers), Invalid> {
    let sz = if cfg.smoke { SMOKE } else { FULL };
    let n = 1usize << sz.scale;
    let origin = Instant::now();
    let (setup_s, results, mut last) = rounds(
        cfg,
        |round| {
            let batches = update_batches(sz.scale, sz.batches * BATCH, cfg.seed);
            let dir = cfg.scratch.join(format!("recover-{round}"));
            let mut engine = FlowEngine::builder()
                .durability_dir(dir.join("source"))
                .build(n)
                .expect("durable engine");
            for (i, batch) in batches.iter().enumerate() {
                engine
                    .process_stream_durable(batch, |_| None, None)
                    .expect("durable ingest");
                if i + 1 == sz.batches / 4 {
                    engine.checkpoint().expect("checkpoint");
                }
            }
            State {
                dir,
                batches,
                traced: cfg.trace && round > 0,
                tracer: Tracer::new(origin),
                recovered: None,
            }
        },
        |st| {
            let mut round = Round {
                traced: st.traced,
                recover_ms: Vec::new(),
                unanswered: 0,
            };
            for rep in 0..sz.recoveries {
                let copy = st.dir.join(format!("copy-{rep}"));
                copy_dir(&st.dir.join("source"), &copy).expect("copy durability directory");
                let last = rep + 1 == sz.recoveries;
                let t = Instant::now();
                let answered = if st.traced {
                    let (shadow, answered) =
                        shadow_recover(&copy, &mut st.tracer, rep as u64).expect("shadow recover");
                    round.recover_ms.push(ms(t.elapsed().as_secs_f64()));
                    if last {
                        let s = &shadow.stream;
                        st.recovered = Some((s.graph().clone(), s.props().clone()));
                    }
                    answered
                } else {
                    let mut engine = FlowEngine::builder().recover(&copy).expect("recover");
                    let answered = first_query(engine.serve_handle());
                    round.recover_ms.push(ms(t.elapsed().as_secs_f64()));
                    if last {
                        st.recovered = Some((engine.graph().clone(), engine.props().clone()));
                    }
                    answered
                };
                round.unanswered += !answered as usize;
                fs::remove_dir_all(&copy).expect("remove copy");
            }
            round
        },
    );

    let reference = replay(n, &last.batches);
    let (graph, props) = last.recovered.as_ref().expect("a recovery ran");
    check_state("recover.replay", graph, props, &reference)?;

    let updates = count_updates(&last.batches);
    let mut out = Outcome {
        setup_s,
        attempted: (results.len() * sz.recoveries) as u64,
        failed: results.iter().map(|r| r.unanswered as u64).sum(),
        counts: vec![
            ("scale", sz.scale as u64),
            ("batches", sz.batches as u64),
            ("checkpoint_after_batches", (sz.batches / 4) as u64),
            ("recoveries_per_round", sz.recoveries as u64),
            ("batch_updates", BATCH as u64),
        ],
        ..Outcome::default()
    };
    let untraced: Vec<&Round> = results.iter().filter(|r| !r.traced).collect();
    for r in &untraced {
        // One operation = one recovered update: the rate at which durable
        // history becomes servable state again.
        out.ops_per_s
            .push(updates as f64 / (median(&r.recover_ms) / 1e3));
        out.op_ms.extend(&r.recover_ms);
    }
    out.name("recover_s", median(&out.op_ms) / 1e3, "s");
    out.name("recovered_updates_per_s", median(&out.ops_per_s), "1/s");
    out.name("recoveries", out.op_ms.len() as f64, "count");

    if cfg.trace {
        let mut layers = LayerTimes::default();
        layers.absorb(&last.tracer);
        let round = results.iter().rfind(|r| r.traced).expect("a traced round");
        let replayed = (sz.batches - sz.batches / 4) * BATCH;
        out.layer("checkpoint_load_ms", ms(layers.mean_s("checkpoint_load")));
        out.layer("wal_replay_ms", ms(layers.mean_s("wal_replay")));
        // The one freeze of a recovery is a full rebuild: no snapshot
        // counters to report beside its time.
        fill_write_layers(
            &mut out,
            &layers,
            replayed * sz.recoveries,
            Default::default(),
        );
        let attributed = layers.total_of(&[
            "checkpoint_load",
            "wal_replay",
            "wal_reopen",
            "apply",
            "freeze",
            "publish",
            "props_clone",
            "first_query",
        ]);
        let attributed_ms = ms(attributed) / sz.recoveries as f64;
        let real_ms = median(&out.op_ms);
        fill_trace_ratios(&mut out, real_ms, attributed_ms, median(&round.recover_ms));
    }
    Ok((out, vec![("main", last.tracer.take())]))
}
