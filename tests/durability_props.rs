//! Property-based tests (vendored proptest) for the durability codecs:
//! GAD1 dynamic-graph and GAP1 property-store round-trips, the GAC1
//! checkpoint envelope, and WAL append→replay under random truncation.

use ga_core::durability::{decode_checkpoint, encode_checkpoint, Checkpoint};
use ga_core::flow::{FlowStats, IngestStats};
use ga_graph::io::{read_dynamic, read_props, write_dynamic, write_props};
use ga_graph::{DynamicGraph, PropertyStore};
use ga_stream::engine::StreamStats;
use ga_stream::update::{Update, UpdateBatch};
use ga_stream::wal::{decode_batch, encode_batch, replay, Wal};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

const N: u32 = 24;

/// Strategy: a random edit script over `N` vertices — (op, src, dst,
/// weight) where op 0 = insert, 1 = delete, 2 = property set.
fn edit_script() -> impl Strategy<Value = Vec<(u8, u32, u32, f32)>> {
    prop::collection::vec((0u8..3, 0u32..N, 0u32..N, 0.0f32..8.0), 0..120)
}

fn build_graph(script: &[(u8, u32, u32, f32)]) -> DynamicGraph {
    let mut g = DynamicGraph::new(N as usize);
    for (i, &(op, u, v, w)) in script.iter().enumerate() {
        match op {
            0 => {
                g.insert_edge(u, v, w, i as u64);
            }
            _ => {
                g.delete_edge(u, v, i as u64);
            }
        }
    }
    g
}

fn build_props(script: &[(u8, u32, u32, f32)]) -> PropertyStore {
    let names = ["rank", "risk", "count", "label"];
    let mut p = PropertyStore::new(N as usize);
    for &(op, u, v, w) in script {
        let name = names[(v as usize) % names.len()];
        match op {
            0 => {
                p.set(name, u, w as f64);
            }
            1 => {
                p.set(name, u, v as u64);
            }
            _ => {
                p.set(name, u, format!("tag-{v}"));
            }
        }
    }
    p
}

fn script_to_updates(script: &[(u8, u32, u32, f32)]) -> Vec<Update> {
    script
        .iter()
        .map(|&(op, u, v, w)| match op {
            0 => Update::EdgeInsert {
                src: u,
                dst: v,
                weight: w,
            },
            1 => Update::EdgeDelete { src: u, dst: v },
            _ => Update::PropertySet {
                vertex: u,
                name: format!("p{}", v % 5),
                value: w as f64,
            },
        })
        .collect()
}

fn unique_tmp(prefix: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("ga_durability_props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{prefix}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gad1_round_trip_is_slot_exact(script in edit_script()) {
        let g = build_graph(&script);
        let mut buf = Vec::new();
        write_dynamic(&g, &mut buf).unwrap();
        let g2 = read_dynamic(&buf[..]).unwrap();
        prop_assert_eq!(&g, &g2);
    }

    #[test]
    fn gad1_rejects_every_truncation(script in edit_script()) {
        let g = build_graph(&script);
        let mut buf = Vec::new();
        write_dynamic(&g, &mut buf).unwrap();
        // Check a sample of cut points (every byte is O(n^2) over cases).
        for cut in (0..buf.len()).step_by(7) {
            prop_assert!(read_dynamic(&buf[..cut]).is_err(), "prefix {} parsed", cut);
        }
    }

    #[test]
    fn gap1_round_trip_preserves_columns(script in edit_script()) {
        let p = build_props(&script);
        let mut buf = Vec::new();
        write_props(&p, &mut buf).unwrap();
        let p2 = read_props(&buf[..]).unwrap();
        prop_assert_eq!(p, p2);
    }

    #[test]
    fn gap1_rejects_every_truncation(script in edit_script()) {
        let p = build_props(&script);
        let mut buf = Vec::new();
        write_props(&p, &mut buf).unwrap();
        for cut in (0..buf.len()).step_by(7) {
            prop_assert!(read_props(&buf[..cut]).is_err(), "prefix {} parsed", cut);
        }
    }

    #[test]
    fn checkpoint_envelope_round_trips(script in edit_script()) {
        let ckpt = Checkpoint {
            graph: build_graph(&script),
            props: build_props(&script),
            flow: FlowStats {
                ingest: IngestStats {
                    updates_applied: script.len(),
                    updates_quarantined: script.len() / 7,
                    ..IngestStats::default()
                },
                ..FlowStats::default()
            },
            stream: StreamStats {
                batches: script.len() / 3,
                ..StreamStats::default()
            },
            symmetrize: script.len().is_multiple_of(2),
            vertex_limit: 1 << 20,
            last_batch_time: script.len() as u64,
            next_wal_seq: script.len() as u64 + 1,
        };
        let bytes = encode_checkpoint(&ckpt).unwrap();
        prop_assert_eq!(decode_checkpoint(&bytes).unwrap(), ckpt);
    }

    #[test]
    fn wal_payload_round_trips(script in edit_script()) {
        let batch = UpdateBatch { time: 42, updates: script_to_updates(&script) };
        let payload = encode_batch(&batch);
        let back = decode_batch(&payload).unwrap();
        prop_assert_eq!(back.time, batch.time);
        prop_assert_eq!(back.updates, batch.updates);
    }

    #[test]
    fn wal_replay_tolerates_any_truncation((script, cut_frac) in (edit_script(), 0.0f64..1.0)) {
        // Write a few frames, then truncate the file at an arbitrary
        // byte: replay must return an exact prefix of the appended
        // batches and never error or panic.
        let updates = script_to_updates(&script);
        let batches: Vec<UpdateBatch> = updates
            .chunks(7)
            .enumerate()
            .map(|(i, c)| UpdateBatch { time: i as u64 + 1, updates: c.to_vec() })
            .collect();
        let path = unique_tmp("wal");
        let mut wal = Wal::create(&path, 1).unwrap();
        for b in &batches {
            wal.append(b).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let cut = (full.len() as f64 * cut_frac) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let scan = replay(&path).unwrap();
        prop_assert!(scan.batches.len() <= batches.len());
        prop_assert_eq!(scan.torn, scan.valid_len < cut as u64);
        for (i, (seq, b)) in scan.batches.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(&b.updates, &batches[i].updates);
        }
        // Reopening for append always lands on a clean boundary.
        let wal = Wal::open_append(&path, 1).unwrap();
        prop_assert_eq!(wal.next_seq(), scan.batches.len() as u64 + 1);
        std::fs::remove_file(&path).ok();
    }
}
