//! Property-based tests (vendored proptest) for the durability codecs:
//! GAD1 dynamic-graph and GAP1 property-store round-trips, the GAC1
//! checkpoint envelope, and WAL append→replay under random truncation.

use ga_core::durability::{decode_checkpoint, encode_checkpoint, Checkpoint};
use ga_core::flow::{FlowStats, IngestStats};
use ga_graph::io::crc32;
use ga_graph::io::{read_dynamic, read_props, write_dynamic, write_props};
use ga_graph::tier::{decode_segment, SegmentKind};
use ga_graph::{
    Adjacency, CsrBuilder, CsrGraph, DynamicGraph, PropertyStore, SegmentStore, TierConfig,
    TieredCsr,
};
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

fn build_checkpoint(script: &[(u8, u32, u32, f32)]) -> Checkpoint {
    Checkpoint {
        graph: build_graph(script),
        props: build_props(script),
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
    }
}

/// The script's inserts as a weighted CSR over `N` vertices.
fn build_csr(script: &[(u8, u32, u32, f32)]) -> CsrGraph {
    let inserts = script.iter().filter(|e| e.0 == 0);
    CsrBuilder::new(N as usize)
        .weighted_edges(inserts.map(|&(_, u, v, w)| (u, v, w)))
        .build()
}

/// Strategy: one to eight `(where, byte)` overwrites; `where` is a
/// fraction of the encoding's length.
fn overwrites() -> impl Strategy<Value = Vec<(f64, u8)>> {
    prop::collection::vec((0.0f64..1.0, (0u32..256).prop_map(|b| b as u8)), 1..9)
}

fn overwrite(bytes: &mut [u8], edits: &[(f64, u8)]) {
    for &(at, byte) in edits {
        let i = (at * bytes.len() as f64) as usize;
        if let Some(b) = bytes.get_mut(i) {
            *b = byte;
        }
    }
}

/// Overwrite the bytes a trailing CRC32 covers and recompute it, so
/// the parser behind the checksum sees them.
fn overwrite_under_crc(frame: &mut [u8], edits: &[(f64, u8)]) {
    let body = frame.len() - 4;
    overwrite(&mut frame[..body], edits);
    let crc = crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
}

/// A decoder's answer to damaged bytes: a value, or an `InvalidData`
/// error. A panic fails the case on its own.
fn assert_typed<T>(format: &str, result: std::io::Result<T>) {
    if let Err(e) = result {
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{format}: {e}");
    }
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
        let ckpt = build_checkpoint(&script);
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

    #[test]
    fn parsers_behind_a_crc_survive_overwritten_bytes((script, edits) in (edit_script(), overwrites())) {
        // The bare parsers: a WAL payload and the two checkpoint sections.
        let mut payload = encode_batch(&UpdateBatch { time: 42, updates: script_to_updates(&script) });
        overwrite(&mut payload, &edits);
        assert_typed("WAL", decode_batch(&payload));
        let mut gad1 = Vec::new();
        write_dynamic(&build_graph(&script), &mut gad1).unwrap();
        overwrite(&mut gad1, &edits);
        assert_typed("GAD1", read_dynamic(&gad1[..]));
        let mut gap1 = Vec::new();
        write_props(&build_props(&script), &mut gap1).unwrap();
        overwrite(&mut gap1, &edits);
        assert_typed("GAP1", read_props(&gap1[..]));

        // A whole checkpoint whose checksum still holds.
        let mut gac1 = encode_checkpoint(&build_checkpoint(&script)).unwrap();
        overwrite_under_crc(&mut gac1, &edits);
        assert_typed("GAC1", decode_checkpoint(&gac1));

        // The middle segment of a three-segment tier, re-checksummed
        // and read back through the tier: a damaged frame is refused
        // and its rows come from the pin; every other row is exact.
        let csr = std::sync::Arc::new(build_csr(&script));
        let dir = unique_tmp("fuzz-tier");
        let cfg = TierConfig::new(&dir).segment_rows(N as usize / 3);
        let tier = TieredCsr::spill(&csr, cfg).unwrap();
        let seg = SegmentStore::open(&dir).unwrap().segment_path(SegmentKind::Rows, 1);
        let mut gas1 = std::fs::read(&seg).unwrap();
        overwrite_under_crc(&mut gas1, &edits);
        assert_typed("GAS1", decode_segment(&gas1));
        std::fs::write(&seg, &gas1).unwrap();
        let in_seg = N / 3..2 * N / 3;
        for v in 0..N {
            let got: Vec<_> = tier.weighted_neighbors(v).collect();
            if !in_seg.contains(&v) || tier.stats().corrupt_segments == 1 {
                let want: Vec<_> = Adjacency::weighted_neighbors(&*csr, v).collect();
                prop_assert_eq!(got, want, "row {}", v);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Golden bytes: the on-disk formats, pinned.
// ---------------------------------------------------------------------

/// A fixed small checkpoint: a graph with a live and a deleted edge,
/// one column of each type, and nonzero counters in two stats groups.
fn golden_checkpoint() -> Checkpoint {
    let mut graph = DynamicGraph::new(4);
    graph.insert_edge(0, 1, 1.5, 3);
    graph.insert_edge(2, 3, -0.25, 4);
    graph.insert_edge(1, 2, 2.0, 5);
    graph.delete_edge(0, 1, 6);
    let mut props = PropertyStore::new(4);
    props.set("deg", 1, 7u64);
    props.set("rank", 3, 0.125);
    props.set("label", 0, "hub");
    Checkpoint {
        graph,
        props,
        flow: FlowStats {
            ingest: IngestStats {
                updates_applied: 4,
                updates_quarantined: 1,
                ..IngestStats::default()
            },
            ..FlowStats::default()
        },
        stream: StreamStats {
            edges_inserted: 3,
            edges_deleted: 1,
            batches: 2,
            ..StreamStats::default()
        },
        symmetrize: false,
        vertex_limit: 1 << 20,
        last_batch_time: 6,
        next_wal_seq: 3,
    }
}

/// A batch holding each of the three update kinds.
fn golden_batch() -> UpdateBatch {
    UpdateBatch {
        time: 9,
        updates: vec![
            Update::EdgeInsert {
                src: 1,
                dst: 2,
                weight: 0.5,
            },
            Update::EdgeDelete { src: 3, dst: 0 },
            Update::PropertySet {
                vertex: 2,
                name: "risk".into(),
                value: -4.0,
            },
        ],
    }
}

/// A weighted CSR small enough to spill as one segment.
fn golden_csr() -> std::sync::Arc<CsrGraph> {
    let edges = [(0, 1, 1.0), (0, 3, 2.5), (2, 0, -1.0), (3, 2, 0.75)];
    std::sync::Arc::new(CsrBuilder::new(4).weighted_edges(edges).build())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

const GOLDEN_GAC1: &str = concat!(
    "4741433103000000000000100000000000060000000000000003000000000000",
    "005a000000000000004741443101000000040000000000000006000000000000",
    "0000000000000000000100000000000000020000000000004005000000000000",
    "0000010000000000000003000000000080be0400000000000000000000000000",
    "0000004c00000000000000474150310100000004000000000000000300000003",
    "006465670000010700000000000000000005006c6162656c0201030000006875",
    "62000000040072616e6b0100000001000000000000c03f060000000000000000",
    "0000000000000000000000040000000000000001000000000000000000000000",
    "00000000000000000000000b0000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000003000000000000000000000000000000000000000000000000",
    "0000000200000000000000000000000000000000000000030000000000000000",
    "0000000000000000000000000000000000000014000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000080000000300000000",
    "0000000000000000000000010000000000000000000000000000000000000000",
    "000000020000000000000000000000000000000000000000000000e3bd0250",
);

const GOLDEN_WAL: &str = concat!(
    "3500000007000000000000000900000000000000030000000001000000020000",
    "000000003f010300000000000000020200000004007269736b00000000000010",
    "c08bc4570e",
);

const GOLDEN_GAS1: &str = concat!(
    "4741533101000000000000000000000054000000000000000000000004000000",
    "0100000000000000000000000200000000000000020000000000000003000000",
    "000000000400000000000000010000000300000000000000020000000000803f",
    "00002040000080bf0000403fc891e429",
);

/// Each format encodes the fixed state to the recorded bytes, and the
/// recorded bytes decode back to that state: a codec change that moves
/// one byte on disk, or stops reading an older file, fails here.
#[test]
fn formats_match_golden_bytes() {
    // GAC1 checkpoint (with its GAD1 and GAP1 sections).
    let ckpt = golden_checkpoint();
    assert_eq!(hex(&encode_checkpoint(&ckpt).unwrap()), GOLDEN_GAC1);
    assert_eq!(decode_checkpoint(&unhex(GOLDEN_GAC1)).unwrap(), ckpt);

    // One WAL frame holding all three update kinds.
    let path = unique_tmp("golden-wal");
    let mut wal = Wal::create(&path, 7).unwrap();
    wal.append(&golden_batch()).unwrap();
    drop(wal);
    assert_eq!(hex(&std::fs::read(&path).unwrap()), GOLDEN_WAL);
    std::fs::write(&path, unhex(GOLDEN_WAL)).unwrap();
    let scan = replay(&path).unwrap();
    assert!(!scan.torn);
    assert_eq!(scan.batches.len(), 1);
    let (seq, batch) = &scan.batches[0];
    assert_eq!((*seq, batch.time), (7, golden_batch().time));
    assert_eq!(batch.updates, golden_batch().updates);
    std::fs::remove_file(&path).ok();

    // The one GAS1 segment a weighted four-vertex CSR spills to.
    let dir = unique_tmp("golden-tier");
    let csr = golden_csr();
    let tier = TieredCsr::spill(&csr, TierConfig::new(&dir).keep_pin(false)).unwrap();
    let seg = SegmentStore::open(&dir)
        .unwrap()
        .segment_path(SegmentKind::Rows, 0);
    assert_eq!(hex(&std::fs::read(&seg).unwrap()), GOLDEN_GAS1);
    std::fs::write(&seg, unhex(GOLDEN_GAS1)).unwrap();
    for v in 0..4 {
        let got: Vec<_> = tier.weighted_neighbors(v).collect();
        let want: Vec<_> = Adjacency::weighted_neighbors(&*csr, v).collect();
        assert_eq!(got, want, "row {v}");
    }
    assert_eq!(tier.stats().cache_misses, 1);
    assert_eq!(tier.stats().lost_rows, 0);
    std::fs::remove_dir_all(&dir).ok();
}
