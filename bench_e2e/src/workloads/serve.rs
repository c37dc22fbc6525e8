//! `serve.frozen` and `serve.mixed`.
//!
//! `serve.frozen` is pure query service time and admission cost: one
//! reader in a closed loop against a graph published once. Publish and
//! ingest are absent, so a publish-side change predicts no movement here.
//!
//! `serve.mixed` runs the same query mix in an *open* loop beside a live
//! durable publisher: the reader revalidates against a moving slot while
//! the freeze competes for the host's two cores. It uses the layers of
//! `serve.frozen` and `ingest.durable` concurrently, so a gain for writers
//! that costs readers shows. Latency is timed from each operation's due
//! time and the generators' own lateness is reported.

use super::{
    check_state, fill_trace_ratios, fill_write_layers, preload, replay, rounds, same_csr, Config,
    Invalid, Pipeline, Tracers,
};
use crate::inputs::{count_updates, query_mix, update_batches, Class, BATCH};
use crate::pace::{pace_until, OpenLoopLog, Schedule};
use crate::report::Outcome;
use crate::shadow::Shadow;
use crate::stats::median;
use crate::trace::{LayerTimes, Tracer, SETUP_OP};
use ga_core::flow::FlowEngine;
use ga_core::serve::{QueryClient, QueryOutcome, QueryService, ServeConfig, TenantConfig};
use ga_stream::admission::Priority;
use ga_stream::epoch::{EpochSnapshot, SnapshotHandle, SnapshotReader};
use ga_stream::update::UpdateBatch;
use ga_stream::wal::encode_batch;
use ga_stream::{Query, StreamEngine};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A query counts as served in time if answered within this of its due
/// time; shed and unanswered queries count as misses.
const LATENCY_LIMIT: Duration = Duration::from_millis(1);

/// A generator that sends more than this after the due time ran late.
const LATE_SLACK_NS: u64 = 100_000;

/// Queries re-run against the reference replay after the rounds.
const CHECKED_QUERIES: usize = 512;

#[derive(Clone, Copy)]
struct Sizes {
    scale: u32,
    preload_batches: usize,
    /// `serve.frozen`: queries per closed-loop round.
    frozen_queries: usize,
    /// `serve.mixed`: length of one open-loop round, and the two rates.
    mixed_seconds: f64,
    query_rate: f64,
    batch_rate: f64,
}

const FULL: Sizes = Sizes {
    scale: 16,
    preload_batches: 977, // ~500 k updates
    frozen_queries: 50_000,
    mixed_seconds: 2.0,
    query_rate: 2_000.0,
    batch_rate: 20.0,
};

const SMOKE: Sizes = Sizes {
    scale: 10,
    preload_batches: 8,
    frozen_queries: 2_000,
    mixed_seconds: 0.1,
    query_rate: 5_000.0,
    batch_rate: 40.0,
};

/// The two tenants of the mix: points and two-hops run High, the top-k
/// scan runs Bulk.
struct Clients {
    high: QueryClient,
    bulk: QueryClient,
}

impl Clients {
    fn new(service: &QueryService) -> Self {
        let high = service.tenant(TenantConfig::new("interactive", Priority::High));
        let bulk = service.tenant(TenantConfig::new("scans", Priority::Bulk));
        Clients {
            high: service.client(&high),
            bulk: service.client(&bulk),
        }
    }

    fn run(&mut self, class: Class, query: &Query) -> QueryOutcome {
        match class {
            Class::TopK => self.bulk.run(query),
            Class::Point | Class::KHop => self.high.run(query),
        }
    }
}

/// Span names per query class, indexed by `Class as usize`.
const EXEC_SPANS: [&str; 3] = ["exec.point", "exec.khop", "exec.topk"];
const SERVE_SPANS: [&str; 3] = ["serve.point", "serve.khop", "serve.topk"];

/// One reader thread: its clients, what it observed, and — traced — its
/// span log plus a raw reader for timing the layers below the service.
struct Reader {
    clients: Clients,
    raw: SnapshotReader,
    tracer: Option<Tracer>,
    /// Service time of every answered query, per class, in nanoseconds.
    service_ns: [Vec<u64>; 3],
    shed: [u64; 3],
    last_epoch: u64,
    epoch_regressions: u64,
}

impl Reader {
    fn new(service: &QueryService, handle: &SnapshotHandle, tracer: Option<Tracer>) -> Self {
        Reader {
            clients: Clients::new(service),
            raw: handle.reader(),
            tracer,
            service_ns: Default::default(),
            shed: [0; 3],
            last_epoch: 0,
            epoch_regressions: 0,
        }
    }

    /// Run one query through the service; `true` when it was answered.
    /// Traced, the layers below are timed first on the same generation:
    /// `revalidate` (the reader's slot check) and `exec.<class>`
    /// (`Query::run` alone), then `serve.<class>` around the whole call.
    fn query(&mut self, op: u64, class: Class, query: &Query) -> bool {
        let c = class as usize;
        if let Some(tr) = self.tracer.as_mut() {
            let span = tr.begin("revalidate", op);
            let snap = self.raw.snapshot_arc();
            tr.end(span);
            if let Some(snap) = snap {
                let span = tr.begin(EXEC_SPANS[c], op);
                std::hint::black_box(query.run(&snap));
                tr.end(span);
            }
        }
        let span = self.tracer.as_mut().map(|tr| tr.begin(SERVE_SPANS[c], op));
        let t = Instant::now();
        let outcome = self.clients.run(class, query);
        let took = t.elapsed();
        if let (Some(tr), Some(span)) = (self.tracer.as_mut(), span) {
            tr.end(span);
        }
        match std::hint::black_box(outcome) {
            QueryOutcome::Answered { epoch, .. } => {
                if epoch.epoch < self.last_epoch {
                    self.epoch_regressions += 1;
                }
                self.last_epoch = epoch.epoch;
                self.service_ns[c].push(took.as_nanos() as u64);
                true
            }
            QueryOutcome::Shed(_) => {
                self.shed[c] += 1;
                false
            }
        }
    }

    fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }
}

/// The reference replay as a generation `Query::run` accepts.
fn reference_snapshot(reference: &StreamEngine) -> EpochSnapshot {
    EpochSnapshot {
        stamp: Default::default(),
        props_version: 0,
        time: reference.last_batch_time(),
        csr: Arc::new(reference.graph().snapshot()),
        compressed: None,
        props: Arc::new(reference.props().clone()),
    }
}

/// Served epochs never went backwards, and the final served generation
/// answers exactly like the single-threaded replay.
fn check_serving(
    what: &str,
    handle: &SnapshotHandle,
    reference: &StreamEngine,
    queries: &[(Class, Query)],
    epoch_regressions: u64,
) -> Result<(), Invalid> {
    if epoch_regressions > 0 {
        return Err(format!(
            "{what}: served epoch went backwards {epoch_regressions} time(s)"
        ));
    }
    let served = handle
        .load()
        .ok_or_else(|| format!("{what}: nothing published"))?;
    let expected = reference_snapshot(reference);
    if !same_csr(&served.csr, &expected.csr) {
        return Err(format!(
            "{what}: served CSR differs from a freeze of the replay"
        ));
    }
    // One of each class at least, then a prefix of the mix.
    let firsts = Class::ALL
        .iter()
        .filter_map(|c| queries.iter().find(|(k, _)| k == c));
    for (_, q) in firsts.chain(queries.iter().take(CHECKED_QUERIES)) {
        let (got, want) = (q.run(&served), q.run(&expected));
        if got != want {
            return Err(format!(
                "{what}: {q:?} answered differently from the replay:\n  got      {got:?}\n  expected {want:?}"
            ));
        }
    }
    Ok(())
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// Per-class medians of the service time `QueryClient::run` took.
fn name_service_times<'a>(
    out: &mut Outcome,
    rounds: impl Iterator<Item = &'a [Vec<u64>; 3]> + Clone,
) {
    for class in Class::ALL {
        let all: Vec<u64> = rounds
            .clone()
            .flat_map(|r| r[class as usize].iter().copied())
            .collect();
        if !all.is_empty() {
            out.name(
                format!("service_us_p50.{}", class.name()),
                median(&us(&all)),
                "us",
            );
        }
    }
}

fn fill_query_layers(out: &mut Outcome, layers: &LayerTimes, shed: u64) {
    for (class, span) in Class::ALL.iter().zip(EXEC_SPANS) {
        out.layer(
            format!("exec_us_p50.{}", class.name()),
            layers.median_s(span) * 1e6,
        );
    }
    // Admission + bookkeeping around a point query, where it matters most.
    out.layer(
        "admit_ns",
        (layers.median_s(SERVE_SPANS[0]) - layers.median_s(EXEC_SPANS[0])) * 1e9,
    );
    out.layer("revalidate_ns", layers.median_s("revalidate") * 1e9);
    out.layer("shed_queries", shed as f64);
}

// ---------------------------------------------------------------- frozen

struct FrozenState {
    /// Kept alive so the published generation has an owner; never touched.
    _engine: FlowEngine,
    handle: SnapshotHandle,
    reader: Reader,
    batches: Vec<UpdateBatch>,
    queries: Vec<(Class, Query)>,
    traced: bool,
}

struct FrozenRound {
    traced: bool,
    wall_s: f64,
    answered: usize,
    service_ns: [Vec<u64>; 3],
    shed: u64,
}

pub fn frozen(cfg: &Config) -> Result<(Outcome, Tracers), Invalid> {
    let sz = if cfg.smoke { SMOKE } else { FULL };
    let n = 1usize << sz.scale;
    let origin = Instant::now();
    let (setup_s, results, mut last) = rounds(
        cfg,
        |round| {
            let batches = update_batches(sz.scale, sz.preload_batches * BATCH, cfg.seed);
            let (graph, props) = preload(n, &batches);
            let mut engine = FlowEngine::with_graph(graph, props);
            let handle = engine.serve_handle();
            let service = QueryService::new(handle.clone(), ServeConfig::default());
            let traced = cfg.trace && round > 0;
            FrozenState {
                reader: Reader::new(&service, &handle, traced.then(|| Tracer::new(origin))),
                _engine: engine,
                handle,
                batches,
                queries: query_mix(sz.frozen_queries, n as u32, cfg.seed),
                traced,
            }
        },
        |st| {
            let start = Instant::now();
            let mut answered = 0;
            for (i, (class, query)) in st.queries.iter().enumerate() {
                answered += st.reader.query(i as u64, *class, query) as usize;
            }
            FrozenRound {
                traced: st.traced,
                wall_s: start.elapsed().as_secs_f64(),
                answered,
                service_ns: std::mem::take(&mut st.reader.service_ns),
                shed: st.reader.shed_total(),
            }
        },
    );

    let reference = replay(n, &last.batches);
    check_serving(
        "serve.frozen",
        &last.handle,
        &reference,
        &last.queries,
        last.reader.epoch_regressions,
    )?;

    let mut out = Outcome {
        setup_s,
        attempted: (results.len() * sz.frozen_queries) as u64,
        failed: results
            .iter()
            .map(|r| (sz.frozen_queries - r.answered) as u64)
            .sum(),
        counts: vec![
            ("scale", sz.scale as u64),
            ("preload_batches", sz.preload_batches as u64),
            ("queries_per_round", sz.frozen_queries as u64),
            ("readers", 1),
        ],
        ..Outcome::default()
    };
    let untraced: Vec<&FrozenRound> = results.iter().filter(|r| !r.traced).collect();
    for r in &untraced {
        out.ops_per_s.push(r.answered as f64 / r.wall_s);
    }
    let all: Vec<u64> = untraced
        .iter()
        .flat_map(|r| r.service_ns.iter().flatten().copied())
        .collect();
    out.op_ms = all.iter().map(|&n| n as f64 / 1e6).collect();
    out.name("queries_per_s", median(&out.ops_per_s), "1/s");
    out.name_timing("query_us", "us", &us(&all));
    name_service_times(&mut out, untraced.iter().map(|r| &r.service_ns));
    out.name(
        "shed_queries",
        untraced.iter().map(|r| r.shed as f64).sum(),
        "count",
    );

    let mut tracers = Vec::new();
    if let Some(tracer) = last.reader.tracer.take() {
        let mut layers = LayerTimes::default();
        layers.absorb(&tracer);
        let round = results.iter().rfind(|r| r.traced).expect("a traced round");
        fill_query_layers(&mut out, &layers, round.shed);
        // Closed loop, one thread: what the service spans do not cover
        // of the untraced wall is the bench's own loop.
        let real_wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let served = layers.total_of(&SERVE_SPANS);
        fill_trace_ratios(&mut out, real_wall, served, round.wall_s);
        tracers.push(("reader", tracer));
    }
    Ok((out, tracers))
}

// ----------------------------------------------------------------- mixed

struct MixedState {
    pipe: Box<dyn Pipeline>,
    handle: SnapshotHandle,
    service: QueryService,
    /// Preloaded batches followed by the ones the writer offers.
    batches: Vec<UpdateBatch>,
    preloaded: usize,
    queries: Vec<(Class, Query)>,
    writer_tracer: Tracer,
    reader_tracer: Option<Tracer>,
    traced: bool,
    dir: PathBuf,
}

impl Drop for MixedState {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct MixedRound {
    traced: bool,
    wall_s: f64,
    queries: usize,
    answered: usize,
    within_limit: usize,
    /// Query latency from due time, microseconds.
    query_us: Vec<f64>,
    query_log: OpenLoopLog,
    reader_busy_s: f64,
    service_ns: [Vec<u64>; 3],
    shed_queries: u64,
    epoch_regressions: u64,
    updates: usize,
    shed_updates: usize,
    invisible_updates: usize,
    /// Batch visibility lag from due time, milliseconds.
    lag_ms: Vec<f64>,
    batch_log: OpenLoopLog,
    writer_busy_s: f64,
}

fn drive_mixed(st: &mut MixedState, sz: Sizes) -> MixedRound {
    let queries = Schedule::per_second(sz.query_rate);
    let batches = Schedule::per_second(sz.batch_rate);
    let offered: Vec<UpdateBatch> = st.batches[st.preloaded..].to_vec();
    let updates = count_updates(&offered);
    let mut reader = Reader::new(&st.service, &st.handle, st.reader_tracer.take());
    // Both generators count from one start, a moment ahead so that the
    // reader thread is up before its first query is due.
    let start = Instant::now() + Duration::from_millis(5);
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;

    let (mut batch_log, mut lag_ms) = (OpenLoopLog::default(), Vec::new());
    let (mut shed_updates, mut invisible_updates, mut writer_busy) = (0, 0, Duration::ZERO);
    let (query_log, within_limit, reader_busy) = std::thread::scope(|scope| {
        let reader = &mut reader;
        let mix = &st.queries;
        let thread = scope.spawn(move || {
            let mut log = OpenLoopLog::default();
            let (mut within, mut busy) = (0usize, Duration::ZERO);
            for (i, (class, query)) in mix.iter().enumerate() {
                let due = queries.due_ns(i as u64);
                pace_until(start + Duration::from_nanos(due));
                let sent = Instant::now();
                let answered = reader.query(i as u64, *class, query);
                let done = Instant::now();
                busy += done - sent;
                log.record(due, since(sent), answered.then(|| since(done)));
                if answered && since(done) - due <= LATENCY_LIMIT.as_nanos() as u64 {
                    within += 1;
                }
            }
            (log, within, busy)
        });

        // The writer: the calling thread, as in a real deployment where
        // one thread owns the engine.
        for (j, batch) in offered.into_iter().enumerate() {
            let len = batch.updates.len();
            let due = batches.due_ns(j as u64);
            pace_until(start + Duration::from_nanos(due));
            let sent = Instant::now();
            let admitted = st
                .pipe
                .ingest(&mut st.writer_tracer, j as u64, batch)
                .expect("durable ingest");
            let snap = st.handle.load().expect("published");
            let done = Instant::now();
            writer_busy += done - sent;
            if !admitted {
                shed_updates += len;
            }
            let visible = snap.stamp.graph_version >= st.pipe.graph().version();
            if !visible {
                invisible_updates += len;
            }
            batch_log.record(due, since(sent), visible.then(|| since(done)));
        }
        lag_ms.extend(batch_log.latency_ns.iter().map(|&n| n as f64 / 1e6));
        thread.join().expect("reader thread")
    });
    let wall_s = start.elapsed().as_secs_f64();

    st.reader_tracer = reader.tracer.take();
    MixedRound {
        traced: st.traced,
        wall_s,
        queries: st.queries.len(),
        answered: query_log.latency_ns.len(),
        within_limit,
        query_us: us(&query_log.latency_ns),
        query_log,
        reader_busy_s: reader_busy.as_secs_f64(),
        shed_queries: reader.shed_total(),
        epoch_regressions: reader.epoch_regressions,
        service_ns: reader.service_ns,
        updates,
        shed_updates,
        invisible_updates,
        lag_ms,
        batch_log,
        writer_busy_s: writer_busy.as_secs_f64(),
    }
}

pub fn mixed(cfg: &Config) -> Result<(Outcome, Tracers), Invalid> {
    let sz = if cfg.smoke { SMOKE } else { FULL };
    let n = 1usize << sz.scale;
    let origin = Instant::now();
    let offered_batches = (sz.mixed_seconds * sz.batch_rate).round() as usize;
    let offered_queries = (sz.mixed_seconds * sz.query_rate).round() as usize;
    let (setup_s, results, mut last) = rounds(
        cfg,
        |round| {
            let total = (sz.preload_batches + offered_batches) * BATCH;
            let batches = update_batches(sz.scale, total, cfg.seed);
            let (graph, props) = preload(n, &batches[..sz.preload_batches]);
            let dir = cfg.scratch.join(format!("mixed-{round}"));
            let traced = cfg.trace && round > 0;
            let mut writer_tracer = Tracer::new(origin);
            let (pipe, handle): (Box<dyn Pipeline>, _) = if traced {
                let mut shadow = Shadow::new(graph, props, Some(&dir)).expect("durable shadow");
                let handle = shadow.serve_handle(&mut writer_tracer, SETUP_OP);
                (Box::new(shadow), handle)
            } else {
                let mut engine = FlowEngine::builder()
                    .durability_dir(&dir)
                    .build_with_graph(graph, props)
                    .expect("durable engine");
                let handle = engine.serve_handle();
                (Box::new(engine), handle)
            };
            MixedState {
                pipe,
                service: QueryService::new(handle.clone(), ServeConfig::default()),
                handle,
                batches,
                preloaded: sz.preload_batches,
                queries: query_mix(offered_queries, n as u32, cfg.seed),
                writer_tracer,
                reader_tracer: traced.then(|| Tracer::new(origin)),
                traced,
                dir,
            }
        },
        |st| drive_mixed(st, sz),
    );

    let reference = replay(n, &last.batches);
    check_state(
        "serve.mixed",
        last.pipe.graph(),
        last.pipe.props(),
        &reference,
    )?;
    let regressions = results.iter().map(|r| r.epoch_regressions).sum();
    check_serving(
        "serve.mixed",
        &last.handle,
        &reference,
        &last.queries,
        regressions,
    )?;

    let mut out = Outcome {
        setup_s,
        attempted: results.iter().map(|r| (r.queries + r.updates) as u64).sum(),
        failed: results
            .iter()
            .map(|r| (r.queries - r.answered + r.shed_updates + r.invisible_updates) as u64)
            .sum(),
        counts: vec![
            ("scale", sz.scale as u64),
            ("preload_batches", sz.preload_batches as u64),
            ("round_ms", (sz.mixed_seconds * 1e3) as u64),
            ("queries_per_s_offered", sz.query_rate as u64),
            ("batches_per_s_offered", sz.batch_rate as u64),
            ("batch_updates", BATCH as u64),
            ("readers", 1),
        ],
        ..Outcome::default()
    };
    let untraced: Vec<&MixedRound> = results.iter().filter(|r| !r.traced).collect();
    let pool = |f: &dyn Fn(&MixedRound) -> Vec<f64>| -> Vec<f64> {
        untraced.iter().flat_map(|r| f(r)).collect()
    };
    for r in &untraced {
        // An open loop completes what it is offered, so the answered rate
        // is the schedule's. What the system decides is how many answers
        // arrive within the latency limit: the goodput.
        out.ops_per_s.push(r.within_limit as f64 / r.wall_s);
    }
    let query_us = pool(&|r| r.query_us.clone());
    // The other side of the same coin: how long a batch offered beside
    // the reader takes to become visible. The reader's own median sits
    // at a point query's sub-microsecond cost plus pacing jitter, which
    // says nothing about the mix; its p99 and within-limit share do, and
    // are reported below.
    out.op_ms = pool(&|r| r.lag_ms.clone());
    out.name("goodput_queries_per_s", median(&out.ops_per_s), "1/s");
    out.name(
        "queries_per_s",
        median(
            &untraced
                .iter()
                .map(|r| r.answered as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        ),
        "1/s",
    );
    out.name_timing("query_us", "us", &query_us);
    out.name_percentile("query_us", "us", &query_us, 0.99);
    let sum = |f: &dyn Fn(&MixedRound) -> f64| -> f64 { untraced.iter().map(|r| f(r)).sum() };
    out.name(
        "within_1ms_fraction",
        sum(&|r| r.within_limit as f64) / sum(&|r| r.queries as f64),
        "fraction",
    );
    let lag = pool(&|r| r.lag_ms.clone());
    out.name_timing("visible_lag_ms", "ms", &lag);
    out.name_percentile("visible_lag_ms", "ms", &lag, 0.99);
    out.name("shed_queries", sum(&|r| r.shed_queries as f64), "count");
    // How late the generators themselves ran, and how busy each side
    // was: offered rates are meant to sit below half of capacity.
    let late = |f: &dyn Fn(&MixedRound) -> &OpenLoopLog| -> f64 {
        median(
            &untraced
                .iter()
                .map(|r| f(r).late_fraction(LATE_SLACK_NS))
                .collect::<Vec<_>>(),
        )
    };
    out.name(
        "query_generator_late_fraction",
        late(&|r| &r.query_log),
        "fraction",
    );
    out.name(
        "batch_generator_late_fraction",
        late(&|r| &r.batch_log),
        "fraction",
    );
    let reader_util = sum(&|r| r.reader_busy_s) / sum(&|r| r.wall_s);
    let writer_util = sum(&|r| r.writer_busy_s) / sum(&|r| r.wall_s);
    out.name("reader_utilization", reader_util, "fraction");
    out.name("writer_utilization", writer_util, "fraction");
    out.name(
        "rates_below_half_capacity",
        (reader_util < 0.5 && writer_util < 0.5) as u8 as f64,
        "bool",
    );
    name_service_times(&mut out, untraced.iter().map(|r| &r.service_ns));

    let mut tracers = Vec::new();
    if cfg.trace {
        let round = results.iter().rfind(|r| r.traced).expect("a traced round");
        let reader_tracer = last.reader_tracer.take().expect("traced reader");
        let mut reader_layers = LayerTimes::default();
        reader_layers.absorb(&reader_tracer);
        fill_query_layers(&mut out, &reader_layers, round.shed_queries);
        let mut w = LayerTimes::default();
        w.absorb(&last.writer_tracer);
        fill_write_layers(&mut out, &w, round.updates, last.pipe.take_snapshot_stats());
        out.layer(
            "admitted_updates",
            (round.updates - round.shed_updates) as f64,
        );
        out.layer("shed_updates", round.shed_updates as f64);
        let offered = &last.batches[last.preloaded..];
        let wal_bytes: usize = offered.iter().map(|b| encode_batch(b).len()).sum();
        out.layer(
            "wal_bytes_per_update",
            wal_bytes as f64 / round.updates as f64,
        );
        // Writer side: the engine's busy time beside what its layers
        // account for in the traced round.
        let attributed = w.total_of(&[
            "admission",
            "wal",
            "apply",
            "freeze",
            "publish",
            "props_clone",
        ]);
        let real_busy = median(&untraced.iter().map(|r| r.writer_busy_s).collect::<Vec<_>>());
        out.layer(
            "unattributed_fraction",
            (real_busy - attributed) / real_busy,
        );
        // Open loop: the wall is fixed by the schedule, so the overhead
        // shows in how busy the traced sides were.
        let real = median(
            &untraced
                .iter()
                .map(|r| r.writer_busy_s + r.reader_busy_s)
                .collect::<Vec<_>>(),
        );
        out.layer(
            "trace_overhead",
            (round.writer_busy_s + round.reader_busy_s) / real,
        );
        tracers.push(("writer", last.writer_tracer.take()));
        tracers.push(("reader", reader_tracer));
    }
    Ok((out, tracers))
}
