//! Crash/recovery equivalence across a deterministic fault matrix.
//!
//! Protocol, for every point of the matrix (`ga_core::faults::FaultPlan::crash`):
//!
//! 1. **Reference run**: feed N seeded R-MAT batches through a durable
//!    engine with no faults; record final graph, props, and stats.
//! 2. **Faulted run**: same input, but the plan's fault site is armed
//!    and the driver "crashes" (abandons the engine) at the plan's
//!    crash point or on the first injected I/O error.
//! 3. **Recover + resume**: `FlowEngine::recover(dir)` rebuilds state
//!    from checkpoint + WAL suffix; the driver derives where the
//!    durable history ends from `next_wal_seq` (frame `i` = batch
//!    `i-1`) and feeds the remaining batches.
//! 4. **Assert**: graph (slot-exact: live rows + timestamps), property
//!    columns, `FlowStats`, and `StreamStats` are identical to the
//!    reference run's.
//!
//! Everything is seeded — the only nondeterminism tolerated is *where*
//! the run crashes, and the fault registry pins even that.
//!
//! With `GA_FAULT_SEED` set (the CI loop), only that one matrix point
//! runs; unset, the whole matrix runs in-process.

use ga_core::durability::{decode_checkpoint, CHECKPOINTS_RETAINED};
use ga_core::faults::{self, FaultPlan, MATRIX_SIZE};
use ga_core::flow::{FlowEngine, FlowStats};
use ga_core::retry::RetryPolicy;
use ga_stream::update::{into_batches, rmat_edge_stream, Update, UpdateBatch};
use std::path::PathBuf;
use std::sync::Mutex;

// The fault registry is process-global: serialize every test here.
static LOCK: Mutex<()> = Mutex::new(());

const NUM_BATCHES: usize = 12;
const CHECKPOINT_EVERY: usize = 4;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ga_crash_recovery")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The workload: pure ingest (inserts + deletes + property sets), fully
/// WAL-logged, so recovery equivalence holds bit-for-bit. Includes a
/// few poisoned updates to exercise quarantine determinism on replay.
fn workload(seed: u64) -> Vec<UpdateBatch> {
    let mut updates = rmat_edge_stream(7, 20 * NUM_BATCHES, 0.15, seed);
    // Poison a deterministic sprinkle of updates.
    updates[13] = Update::EdgeInsert {
        src: 2,
        dst: 4,
        weight: f32::NAN,
    };
    updates[57] = Update::EdgeInsert {
        src: 1,
        dst: u32::MAX - 3,
        weight: 1.0,
    };
    updates[101] = Update::PropertySet {
        vertex: 3,
        name: "risk".into(),
        value: f64::NEG_INFINITY,
    };
    updates[160] = Update::PropertySet {
        vertex: 5,
        name: "risk".into(),
        value: 0.75,
    };
    into_batches(updates, 20, 1)
}

fn fresh_engine(dir: &PathBuf) -> FlowEngine {
    FlowEngine::builder().durability_dir(dir).build(16).unwrap()
}

struct FinalState {
    graph: ga_graph::DynamicGraph,
    props: ga_graph::PropertyStore,
    flow: FlowStats,
    stream: ga_stream::engine::StreamStats,
    quarantined: usize,
}

fn state_of(e: &FlowEngine) -> FinalState {
    FinalState {
        graph: e.graph().clone(),
        props: e.props().clone(),
        flow: e.stats(),
        stream: e.stream_stats(),
        quarantined: e.stats().ingest.updates_quarantined,
    }
}

/// Run all batches with periodic checkpoints, no faults.
fn reference_run(dir: &PathBuf, batches: &[UpdateBatch]) -> FinalState {
    let mut e = fresh_engine(dir);
    for (i, b) in batches.iter().enumerate() {
        e.process_stream_durable(b, |_| None, None).unwrap();
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            e.checkpoint().unwrap();
        }
    }
    state_of(&e)
}

/// Drive a faulted run per `plan`; returns the abandoned directory.
fn faulted_run(dir: &PathBuf, batches: &[UpdateBatch], plan: &FaultPlan) {
    // Classic points carry retries = 0 (fail-fast, as in PR 2); the
    // transient points get a seeded budget that outlasts the fault.
    let mut e = FlowEngine::builder()
        .durability_dir(dir)
        .retry(RetryPolicy::retries(plan.retries, plan.seed))
        .build(16)
        .unwrap();
    plan.arm();
    for (i, b) in batches.iter().enumerate() {
        if i == plan.after_batches {
            if plan.checkpoint_first {
                // A checkpoint fault must not kill the engine — the
                // state is still live and the WAL still has everything.
                let _ = e.checkpoint();
            }
            break; // crash: abandon the engine
        }
        match e.process_stream_durable(b, |_| None, None) {
            Ok(_) => {}
            Err(err) => {
                assert!(
                    faults::is_injected(&err),
                    "unexpected real I/O error: {err}"
                );
                break; // crash at the injected WAL fault
            }
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let _ = e.checkpoint(); // may be the injected victim
        }
    }
    faults::clear_all();
    // Engine dropped here without any orderly shutdown.
}

/// Recover and feed the not-yet-durable tail of the input.
fn recover_and_resume(dir: &PathBuf, batches: &[UpdateBatch], plan: &FaultPlan) -> FinalState {
    // checkpoint.load faults are part of some plans: re-arm them for
    // the recovery itself (the crash consumed the write-side fault).
    if plan.targets("checkpoint.load") {
        plan.arm();
    }
    let e_recovered = FlowEngine::builder()
        .retry(RetryPolicy::retries(plan.retries, plan.seed))
        .recover(dir)
        .unwrap();
    faults::clear_all();
    let mut e = e_recovered;
    // Frame i (1-based) carries batch i-1, so the first missing batch
    // index is next_wal_seq - 1.
    let resume_from = (e.next_wal_seq().unwrap() - 1) as usize;
    for (i, b) in batches.iter().enumerate().skip(resume_from) {
        e.process_stream_durable(b, |_| None, None).unwrap();
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            e.checkpoint().unwrap();
        }
    }
    state_of(&e)
}

fn assert_equivalent(seed_tag: &str, reference: &FinalState, recovered: &FinalState) {
    assert_eq!(
        reference.graph, recovered.graph,
        "{seed_tag}: graph diverged (slots/timestamps)"
    );
    assert_eq!(
        reference.props, recovered.props,
        "{seed_tag}: property columns diverged"
    );
    // Retries of a durable write cannot be part of the image that very
    // write produced, so a recovered `durability_retries` legitimately
    // lags the live run's — normalize it; every *logical* counter must
    // still match exactly.
    let mut ref_flow = reference.flow;
    let mut rec_flow = recovered.flow;
    ref_flow.durability.retries = 0;
    rec_flow.durability.retries = 0;
    assert_eq!(ref_flow, rec_flow, "{seed_tag}: FlowStats diverged");
    assert_eq!(
        recovered.flow.durability.breaker_trips, 0,
        "{seed_tag}: the breaker must never trip inside the matrix"
    );
    assert_eq!(
        reference.stream, recovered.stream,
        "{seed_tag}: StreamStats diverged"
    );
}

fn check_matrix_point(seed: u64) {
    let plan = FaultPlan::crash(seed);
    let tag = format!("seed {seed} ({plan:?})");
    let batches = workload(42);

    let ref_dir = tmpdir(&format!("ref-{seed}"));
    faults::clear_all();
    let reference = reference_run(&ref_dir, &batches);
    assert!(
        reference.quarantined >= 3,
        "{tag}: workload poison did not register"
    );

    let dir = tmpdir(&format!("fault-{seed}"));
    faulted_run(&dir, &batches, &plan);
    let recovered = recover_and_resume(&dir, &batches, &plan);
    assert_equivalent(&tag, &reference, &recovered);
    if let Some(ga_core::faults::FaultMode::FailTimes(k)) = plan.mode {
        // Transient points ride out the fault on retries: the recovered
        // state carries exactly k retries and not one extra quarantined
        // update relative to the clean reference (checked above).
        assert_eq!(
            recovered.flow.durability.retries, k as usize,
            "{tag}: transient fault should cost exactly {k} retries"
        );
    }

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_equivalence_across_fault_matrix() {
    let _g = LOCK.lock().unwrap();
    match FaultPlan::from_env(FaultPlan::crash) {
        // CI: one matrix point per process, selected by GA_FAULT_SEED.
        Some(plan) => check_matrix_point(plan.seed),
        // Local: sweep the whole matrix.
        None => {
            for seed in 0..MATRIX_SIZE {
                check_matrix_point(seed);
            }
        }
    }
}

#[test]
fn recovery_is_idempotent() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let batches = workload(7);
    let dir = tmpdir("idempotent");
    let mut e = fresh_engine(&dir);
    for b in &batches[..5] {
        e.process_stream_durable(b, |_| None, None).unwrap();
    }
    drop(e);
    // Recover twice from the same directory: same state both times.
    let a = FlowEngine::recover(&dir).unwrap();
    let a_state = (a.graph().clone(), a.props().clone(), a.stats());
    drop(a);
    let b = FlowEngine::recover(&dir).unwrap();
    assert_eq!(a_state.0, *b.graph());
    assert_eq!(a_state.1, *b.props());
    assert_eq!(a_state.2, b.stats());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_updates_never_panic_and_are_counted() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let dir = tmpdir("poison");
    let mut e = fresh_engine(&dir);
    let poison = UpdateBatch {
        time: 5,
        updates: vec![
            Update::EdgeInsert {
                src: u32::MAX,
                dst: 0,
                weight: 1.0,
            },
            Update::EdgeInsert {
                src: 0,
                dst: 1,
                weight: f32::INFINITY,
            },
            Update::EdgeDelete {
                src: 0,
                dst: u32::MAX - 1,
            },
            Update::PropertySet {
                vertex: 2,
                name: "x".into(),
                value: f64::NAN,
            },
            Update::EdgeInsert {
                src: 0,
                dst: 1,
                weight: 2.0,
            },
        ],
    };
    e.process_stream_durable(&poison, |_| None, None).unwrap();
    assert_eq!(e.stats().ingest.updates_quarantined, 4);
    assert_eq!(e.stats().ingest.updates_applied, 1);
    assert_eq!(e.dead_letters().count(), 4);
    // A batch older than the watermark is quarantined whole.
    let stale = UpdateBatch {
        time: 3,
        updates: vec![Update::EdgeInsert {
            src: 4,
            dst: 5,
            weight: 1.0,
        }],
    };
    e.process_stream_durable(&stale, |_| None, None).unwrap();
    assert_eq!(e.stats().ingest.updates_quarantined, 5);
    assert!(!e.graph().has_edge(4, 5));
    // Recovery replays the poison identically.
    drop(e);
    let r = FlowEngine::recover(&dir).unwrap();
    assert_eq!(r.stats().ingest.updates_quarantined, 5);
    assert_eq!(r.stats().ingest.updates_applied, 1);
    assert!(r.graph().has_edge(0, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn over_long_property_names_recover_to_the_live_state() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let dir = tmpdir("long-names");
    let mut e = fresh_engine(&dir);
    // The WAL's name-length field is a u16. Cut at 65 535 bytes, the
    // first name would replay as another name, and the second would
    // end inside its two-byte `é`. The third is the longest name the
    // log carries whole.
    let names = [
        "n".repeat(70_000),
        format!("{}é", "a".repeat(65_534)),
        "b".repeat(65_531),
    ];
    for (t, name) in names.iter().enumerate() {
        let batch = UpdateBatch {
            time: t as u64 + 1,
            updates: vec![
                Update::PropertySet {
                    vertex: 1,
                    name: name.clone(),
                    value: 2.5,
                },
                Update::EdgeInsert {
                    src: 0,
                    dst: t as u32 + 1,
                    weight: 1.0,
                },
            ],
        };
        e.process_stream_durable(&batch, |_| None, None).unwrap();
    }
    assert_eq!(e.stats().ingest.updates_quarantined, 2);
    assert_eq!(e.props().get_f64(&names[2], 1), Some(2.5));
    let live = state_of(&e);
    drop(e);
    let mut r = FlowEngine::recover(&dir).unwrap();
    assert_equivalent("long names", &live, &state_of(&r));
    // The store holds no name a checkpoint cannot write.
    r.checkpoint().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn monitors_reattach_after_recovery() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let dir = tmpdir("monitors");
    let batches = workload(21);
    let mut e = fresh_engine(&dir);
    for b in &batches[..6] {
        e.process_stream_durable(b, |_| None, None).unwrap();
    }
    drop(e);
    let mut r = FlowEngine::recover(&dir).unwrap();
    // Configuration is not persisted; re-register and keep streaming.
    let mut tri = ga_stream::tri_inc::IncrementalTriangles::new();
    tri.report_stride = 1;
    r.register_monitor(Box::new(tri));
    for b in &batches[6..8] {
        r.process_stream_durable(b, |_| None, None).unwrap();
    }
    assert!(r.stats().ingest.events_observed > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_retention_bounds_directory() {
    let _g = LOCK.lock().unwrap();
    faults::clear_all();
    let dir = tmpdir("retention");
    let batches = workload(3);
    let mut e = fresh_engine(&dir);
    for b in &batches {
        e.process_stream_durable(b, |_| None, None).unwrap();
        e.checkpoint().unwrap();
    }
    let ckpts: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|f| f.ok())
        .filter(|f| f.file_name().to_string_lossy().starts_with("ckpt-"))
        .collect();
    assert_eq!(ckpts.len(), CHECKPOINTS_RETAINED);
    // Every retained checkpoint still decodes.
    for c in &ckpts {
        decode_checkpoint(&std::fs::read(c.path()).unwrap()).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
