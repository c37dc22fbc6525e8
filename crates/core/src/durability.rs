//! Checkpoints + WAL management: the durable half of the flow engine.
//!
//! A durable [`crate::flow::FlowEngine`] directs every update batch
//! through a write-ahead log (`ga_stream::wal`) and periodically
//! serializes its full state into a *checkpoint* file:
//!
//! ```text
//! GAC1 | version | symmetrize | vertex_limit | last_batch_time
//!      | next_wal_seq | GAD1 graph | GAP1 props | FlowStats
//!      | StreamStats | crc32
//! ```
//!
//! `next_wal_seq` is the recovery cursor: every WAL frame with a
//! sequence number below it is already reflected in the checkpoint, so
//! recovery = *newest checkpoint that passes its CRC* + *replay of the
//! WAL suffix at or past the cursor*. Checkpoints are written to a
//! temporary file and renamed into place, the body carries a whole-file
//! CRC32, and recovery transparently falls back to the previous
//! checkpoint when the newest is torn or unreadable — so a crash at any
//! byte of any write leaves a recoverable directory.
//!
//! Retention keeps the last two checkpoints; a WAL segment is deleted
//! only once it is fully covered by the *older* retained checkpoint, so
//! the fallback path always has the frames it needs.
//!
//! The decoder reads through [`ga_graph::io::ByteReader`], the one
//! bounded reader behind every on-disk format.
//!
//! Fault sites: `"checkpoint.write"` (veto or tear the file) and
//! `"checkpoint.load"` (veto a candidate during recovery); WAL appends
//! carry their own `"wal.append"` site.

use crate::faults;
use crate::flow::{
    AnalyticsStats, DurabilityStats, FlowStats, IngestStats, OverloadStats, SnapshotStats,
};
use ga_graph::io::{self as gio, crc32, ByteReader};
use ga_graph::{DynamicGraph, PropertyStore, Timestamp};
use ga_obs::{Recorder, Step};
use ga_stream::engine::StreamStats;
use ga_stream::update::UpdateBatch;
use ga_stream::wal::{self, Wal};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"GAC1";
/// The checkpoint format [`encode_checkpoint`] writes and the only one
/// [`decode_checkpoint`] reads: per-group [`FlowStats`] sections
/// including the tier-IO group.
const VERSION: u16 = 3;

/// A complete, self-contained snapshot of engine state, as
/// [`decode_checkpoint`] returns it; the writers take a [`CheckpointRef`].
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The persistent graph: its live rows, weights and timestamps.
    pub graph: DynamicGraph,
    /// The property columns.
    pub props: PropertyStore,
    /// Flow-level instrumentation counters.
    pub flow: FlowStats,
    /// Stream-level instrumentation counters.
    pub stream: StreamStats,
    /// The stream engine's symmetrize setting (replay must mirror it).
    pub symmetrize: bool,
    /// The quarantine bound for vertex ids (replay must mirror it).
    pub vertex_limit: u64,
    /// Batch-time watermark (replay must face the same monotonicity
    /// checks as the original run).
    pub last_batch_time: Timestamp,
    /// First WAL sequence number NOT reflected in this checkpoint.
    pub next_wal_seq: u64,
}

/// The engine state [`encode_checkpoint`] writes, with the graph and
/// property columns borrowed, so taking a checkpoint copies nothing but
/// the encoded bytes. A `&Checkpoint` converts into one.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointRef<'a> {
    /// The persistent graph.
    pub graph: &'a DynamicGraph,
    /// The property columns.
    pub props: &'a PropertyStore,
    /// See [`Checkpoint::flow`].
    pub flow: FlowStats,
    /// See [`Checkpoint::stream`].
    pub stream: StreamStats,
    /// See [`Checkpoint::symmetrize`].
    pub symmetrize: bool,
    /// See [`Checkpoint::vertex_limit`].
    pub vertex_limit: u64,
    /// See [`Checkpoint::last_batch_time`].
    pub last_batch_time: Timestamp,
    /// See [`Checkpoint::next_wal_seq`].
    pub next_wal_seq: u64,
}

impl<'a> From<&'a Checkpoint> for CheckpointRef<'a> {
    fn from(c: &'a Checkpoint) -> Self {
        CheckpointRef {
            graph: &c.graph,
            props: &c.props,
            flow: c.flow,
            stream: c.stream,
            symmetrize: c.symmetrize,
            vertex_limit: c.vertex_limit,
            last_batch_time: c.last_batch_time,
            next_wal_seq: c.next_wal_seq,
        }
    }
}

fn push_group(out: &mut Vec<u8>, fields: &[usize]) {
    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    for &f in fields {
        out.extend_from_slice(&(f as u64).to_le_bytes());
    }
}

fn push_group_u64(out: &mut Vec<u8>, fields: &[u64]) {
    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    for &f in fields {
        out.extend_from_slice(&f.to_le_bytes());
    }
}

/// Stats version 3: one length-prefixed section per group, in fixed
/// group order (ingest, analytics, snapshots, durability, overload,
/// tier).
fn push_flow_stats(out: &mut Vec<u8>, s: &FlowStats) {
    let i = &s.ingest;
    push_group(
        out,
        &[
            i.records_ingested,
            i.entities_created,
            i.updates_applied,
            i.updates_quarantined,
            i.events_observed,
            i.triggers_fired,
        ],
    );
    let a = &s.analytics;
    push_group(
        out,
        &[
            a.batch_runs,
            a.seeds_selected,
            a.subgraphs_extracted,
            a.vertices_extracted,
            a.edges_extracted,
            a.props_written_back,
            a.globals_produced,
            a.alerts_raised,
            a.kernel_cpu_ops,
            a.kernel_mem_bytes,
            a.kernel_edges_touched,
        ],
    );
    let sn = &s.snapshots;
    push_group(out, &[sn.rebuilds, sn.rows_reused, sn.mem_bytes]);
    let d = &s.durability;
    push_group(out, &[d.retries, d.breaker_trips]);
    let o = &s.overload;
    push_group(
        out,
        &[o.updates_shed, o.budget_partials, o.analytics_skipped],
    );
    let t = &s.tier;
    push_group_u64(
        out,
        &[
            t.spilled_segments,
            t.spilled_bytes,
            t.cache_hits,
            t.cache_misses,
            t.read_bytes,
            t.prefetches,
            t.prefetch_denied,
            t.evictions,
            t.corrupt_segments,
            t.scrubbed_segments,
            t.scrub_bytes,
            t.scrub_errors,
            t.repaired_segments,
            t.lost_segments,
            t.lost_rows,
            t.slow_ios,
            t.pinned_fallbacks,
            t.breaker_trips,
            t.write_failures,
            t.read_failures,
        ],
    );
}

/// Decode what [`push_flow_stats`] wrote.
fn take_flow_stats(r: &mut ByteReader) -> io::Result<FlowStats> {
    let i = take_stats(r, 6, "IngestStats")?;
    let a = take_stats(r, 11, "AnalyticsStats")?;
    let sn = take_stats(r, 3, "SnapshotStats")?;
    let d = take_stats(r, 2, "DurabilityStats")?;
    let o = take_stats(r, 3, "OverloadStats")?;
    let t = take_stats(r, 20, "TierStats")?;
    Ok(FlowStats {
        ingest: IngestStats {
            records_ingested: i[0],
            entities_created: i[1],
            updates_applied: i[2],
            updates_quarantined: i[3],
            events_observed: i[4],
            triggers_fired: i[5],
        },
        analytics: AnalyticsStats {
            batch_runs: a[0],
            seeds_selected: a[1],
            subgraphs_extracted: a[2],
            vertices_extracted: a[3],
            edges_extracted: a[4],
            props_written_back: a[5],
            globals_produced: a[6],
            alerts_raised: a[7],
            kernel_cpu_ops: a[8],
            kernel_mem_bytes: a[9],
            kernel_edges_touched: a[10],
        },
        snapshots: SnapshotStats {
            rebuilds: sn[0],
            rows_reused: sn[1],
            mem_bytes: sn[2],
        },
        durability: DurabilityStats {
            retries: d[0],
            breaker_trips: d[1],
        },
        overload: OverloadStats {
            updates_shed: o[0],
            budget_partials: o[1],
            analytics_skipped: o[2],
        },
        tier: ga_graph::tier::TierStats {
            spilled_segments: t[0] as u64,
            spilled_bytes: t[1] as u64,
            cache_hits: t[2] as u64,
            cache_misses: t[3] as u64,
            read_bytes: t[4] as u64,
            prefetches: t[5] as u64,
            prefetch_denied: t[6] as u64,
            evictions: t[7] as u64,
            corrupt_segments: t[8] as u64,
            scrubbed_segments: t[9] as u64,
            scrub_bytes: t[10] as u64,
            scrub_errors: t[11] as u64,
            repaired_segments: t[12] as u64,
            lost_segments: t[13] as u64,
            lost_rows: t[14] as u64,
            slow_ios: t[15] as u64,
            pinned_fallbacks: t[16] as u64,
            breaker_trips: t[17] as u64,
            write_failures: t[18] as u64,
            read_failures: t[19] as u64,
        },
    })
}

fn push_stream_stats(out: &mut Vec<u8>, s: &StreamStats) {
    let fields = [
        s.edges_inserted,
        s.edges_updated,
        s.edges_deleted,
        s.deletes_missed,
        s.props_set,
        s.batches,
        s.events_emitted,
        s.updates_quarantined,
    ];
    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    for f in fields {
        out.extend_from_slice(&(f as u64).to_le_bytes());
    }
}

fn take_stats(r: &mut ByteReader, expect: usize, what: &str) -> io::Result<Vec<usize>> {
    let count = r.u32(what)? as usize;
    if count != expect {
        return Err(r.corrupt(format_args!(
            "{what}: {count} fields on disk, this build expects {expect}"
        )));
    }
    (0..count).map(|_| Ok(r.u64(what)? as usize)).collect()
}

/// Serialize a checkpoint (including the trailing CRC32).
pub fn encode_checkpoint<'a>(c: impl Into<CheckpointRef<'a>>) -> io::Result<Vec<u8>> {
    let c = c.into();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.push(c.symmetrize as u8);
    out.extend_from_slice(&c.vertex_limit.to_le_bytes());
    out.extend_from_slice(&c.last_batch_time.to_le_bytes());
    out.extend_from_slice(&c.next_wal_seq.to_le_bytes());
    push_section(&mut out, |o| gio::write_dynamic(c.graph, o))?;
    push_section(&mut out, |o| gio::write_props(c.props, o))?;
    push_flow_stats(&mut out, &c.flow);
    push_stream_stats(&mut out, &c.stream);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Encode one section straight into `out` behind its `u64` byte length,
/// which is patched in once the section is written.
fn push_section(
    out: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    encode(out)?;
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Deserialize and CRC-verify a checkpoint.
pub fn decode_checkpoint(bytes: &[u8]) -> io::Result<Checkpoint> {
    let mut file = ByteReader::new(bytes, "GAC1");
    let body = file.bytes(bytes.len().saturating_sub(4), "body")?;
    if crc32(body) != file.u32("checksum")? {
        return Err(file.corrupt("checksum mismatch (torn or corrupt file)"));
    }
    let mut r = ByteReader::new(body, "GAC1");
    r.magic(MAGIC)?;
    r.version(VERSION)?;
    let _reserved: [u8; 2] = r.array("header")?;
    let symmetrize = match r.array("symmetrize flag")? {
        [0] => false,
        [1] => true,
        [x] => return Err(r.corrupt(format_args!("invalid symmetrize flag {x}"))),
    };
    let vertex_limit = r.u64("vertex_limit")?;
    let last_batch_time = r.u64("last_batch_time")?;
    let next_wal_seq = r.u64("next_wal_seq")?;
    let graph_len = r.u64("graph section length")?;
    let graph = gio::read_dynamic(r.bytes(graph_len as usize, "graph section")?)?;
    let props_len = r.u64("props section length")?;
    let props = gio::read_props(r.bytes(props_len as usize, "props section")?)?;
    let flow = take_flow_stats(&mut r)?;
    let s = take_stats(&mut r, 8, "StreamStats")?;
    let stream = StreamStats {
        edges_inserted: s[0],
        edges_updated: s[1],
        edges_deleted: s[2],
        deletes_missed: s[3],
        props_set: s[4],
        batches: s[5],
        events_emitted: s[6],
        updates_quarantined: s[7],
    };
    r.finish()?;
    Ok(Checkpoint {
        graph,
        props,
        flow,
        stream,
        symmetrize,
        vertex_limit,
        last_batch_time,
        next_wal_seq,
    })
}

fn ckpt_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{seq:020}.gac"))
}

fn wal_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("wal-{start_seq:020}.log"))
}

fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
        {
            if let Ok(n) = num.parse::<u64>() {
                out.push((n, entry.path()));
            }
        }
    }
    out.sort_by_key(|(n, _)| *n);
    Ok(out)
}

/// How many checkpoints [`Durability`] retains (the newest plus one
/// fallback for torn-checkpoint recovery).
pub const CHECKPOINTS_RETAINED: usize = 2;

/// Owns a durability directory: the open WAL segment plus checkpoint
/// rotation/retention.
pub struct Durability {
    dir: PathBuf,
    wal: Wal,
    /// Observability sink: checkpoint spans here, WAL spans in the open
    /// segment (re-attached after every rotation).
    recorder: Recorder,
}

impl Durability {
    /// Initialize a fresh durability directory with `initial` as
    /// checkpoint zero. Fails if `dir` already holds engine state
    /// (recover instead of silently clobbering it).
    pub fn create<'a>(
        dir: impl AsRef<Path>,
        initial: impl Into<CheckpointRef<'a>>,
    ) -> io::Result<Durability> {
        let initial = initial.into();
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if !list_numbered(&dir, "ckpt-", ".gac")?.is_empty()
            || !list_numbered(&dir, "wal-", ".log")?.is_empty()
        {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already contains engine state; use recover",
                    dir.display()
                ),
            ));
        }
        let seq = initial.next_wal_seq;
        write_checkpoint_file(&dir, initial)?;
        let wal = Wal::create(wal_path(&dir, seq), seq)?;
        Ok(Durability {
            dir,
            wal,
            recorder: Recorder::disabled(),
        })
    }

    /// Attach the observability recorder: checkpoint writes are recorded
    /// here and the open WAL segment gets its own copy (kept across
    /// rotations).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.wal.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Sequence number the next WAL append will carry.
    pub fn next_wal_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Append a batch to the WAL (fsynced). Returns its sequence.
    pub fn append(&mut self, batch: &UpdateBatch) -> io::Result<u64> {
        self.wal.append(batch)
    }

    /// Truncate any torn tail a failed append left in the open WAL
    /// segment (see [`ga_stream::wal::Wal::repair`]). Must run before an
    /// in-process *retry* of a failed append, or the retried frame lands
    /// after the torn bytes and is unreadable at replay.
    pub fn repair_wal(&mut self) -> io::Result<()> {
        self.wal.repair()
    }

    /// Write `ckpt` durably, rotate the WAL, and prune per retention.
    /// On success returns the checkpoint's path.
    pub fn checkpoint<'a>(&mut self, ckpt: impl Into<CheckpointRef<'a>>) -> io::Result<PathBuf> {
        let ckpt = ckpt.into();
        let seq = ckpt.next_wal_seq;
        // The span counts attempts: a failed write still records its
        // wall time, with zero disk bytes.
        let mut span = self.recorder.span(Step::Checkpoint);
        let path = write_checkpoint_file(&self.dir, ckpt)?;
        if span.is_recording() {
            span.add_disk_bytes(fs::metadata(&path).map(|m| m.len()).unwrap_or(0));
        }
        drop(span);
        // Rotate: new appends land in a fresh segment starting at the
        // checkpoint cursor (no-op rename-over when seq already has a
        // segment, i.e. a checkpoint with no intervening batches).
        if wal_path(&self.dir, seq) != *self.wal.path() {
            self.wal = Wal::create(wal_path(&self.dir, seq), seq)?;
            self.wal.set_recorder(self.recorder.clone());
        }
        self.prune()?;
        Ok(path)
    }

    /// Drop checkpoints beyond the retention window and WAL segments
    /// fully covered by the *oldest retained* checkpoint.
    fn prune(&self) -> io::Result<()> {
        let ckpts = list_numbered(&self.dir, "ckpt-", ".gac")?;
        if ckpts.len() > CHECKPOINTS_RETAINED {
            for (_, path) in &ckpts[..ckpts.len() - CHECKPOINTS_RETAINED] {
                fs::remove_file(path)?;
            }
        }
        let keep_floor = ckpts
            .iter()
            .rev()
            .take(CHECKPOINTS_RETAINED)
            .map(|(n, _)| *n)
            .min()
            .unwrap_or(0);
        let wals = list_numbered(&self.dir, "wal-", ".log")?;
        // Segment [start_i, start_{i+1}) is disposable once even the
        // fallback checkpoint no longer needs any frame in it.
        for w in wals.windows(2) {
            let (_, ref path) = w[0];
            let (next_start, _) = w[1];
            if next_start <= keep_floor {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Load the newest usable checkpoint in `dir` and the WAL suffix
    /// after it. Returns the manager (ready to append), the checkpoint,
    /// and the `(seq, batch)` replay list in order.
    ///
    /// File paths are attached to candidate load failures, so a
    /// recovery failure read from a log names the checkpoint file that
    /// sank it.
    #[allow(clippy::type_complexity)]
    pub fn recover(
        dir: impl AsRef<Path>,
    ) -> io::Result<(Durability, Checkpoint, Vec<(u64, UpdateBatch)>)> {
        let dir = dir.as_ref().to_path_buf();
        let ckpts = list_numbered(&dir, "ckpt-", ".gac")?;
        let mut last_err = io::Error::new(
            io::ErrorKind::NotFound,
            format!("{}: no checkpoint files", dir.display()),
        );
        let mut ckpt = None;
        for (seq, path) in ckpts.iter().rev() {
            // A vetoed or corrupt candidate falls through to the next
            // older checkpoint; the WAL suffix covers the difference.
            let attempt = faults::check("checkpoint.load")
                .and_then(|()| fs::read(path))
                .and_then(|bytes| decode_checkpoint(&bytes))
                .and_then(|c| {
                    if c.next_wal_seq == *seq {
                        return Ok(c);
                    }
                    Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("GAC1: cursor {} disagrees with filename", c.next_wal_seq),
                    ))
                })
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())));
            match attempt {
                Ok(c) => {
                    ckpt = Some(c);
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        let Some(ckpt) = ckpt else {
            return Err(last_err);
        };

        // Replay every intact frame at or past the cursor, in order,
        // stopping at a sequence gap (nothing after a gap can be trusted).
        let wals = list_numbered(&dir, "wal-", ".log")?;
        let mut frames: Vec<(u64, UpdateBatch)> = Vec::new();
        for (_, path) in &wals {
            let scan = wal::replay(path)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
            frames.extend(scan.batches);
        }
        frames.sort_by_key(|(seq, _)| *seq);
        let mut replayable = Vec::new();
        let mut expect = ckpt.next_wal_seq;
        for (seq, batch) in frames {
            if seq < expect {
                continue; // already inside the checkpoint
            }
            if seq != expect {
                break; // gap: a vetoed append preceded the crash
            }
            replayable.push((seq, batch));
            expect += 1;
        }

        // Reopen the newest segment for appending (truncating any torn
        // tail); `expect` is where the durable history actually ends.
        let wal = match wals.last() {
            Some((start, path)) => {
                let mut w = Wal::open_append(path, *start)?;
                if w.next_seq() > expect {
                    // The tail of this segment sits after a gap; a fresh
                    // segment at the true cursor supersedes it.
                    w = Wal::create(wal_path(&dir, expect), expect)?;
                }
                w
            }
            None => Wal::create(wal_path(&dir, expect), expect)?,
        };
        Ok((
            Durability {
                dir,
                wal,
                recorder: Recorder::disabled(),
            },
            ckpt,
            replayable,
        ))
    }
}

/// Encode + write one checkpoint file: temp file, fsync, atomic rename.
/// Passes the `"checkpoint.write"` fault site; an injected short write
/// tears the file at its *final* path, modelling a crash inside a
/// non-atomic writer, which recovery must survive via fallback.
fn write_checkpoint_file(dir: &Path, ckpt: CheckpointRef) -> io::Result<PathBuf> {
    let bytes = encode_checkpoint(ckpt)?;
    let path = ckpt_path(dir, ckpt.next_wal_seq);
    match faults::intercept("checkpoint.write") {
        faults::Intercept::Proceed => {}
        faults::Intercept::Delay(ms) => faults::apply_delay(ms),
        faults::Intercept::Error => return Err(faults::injected("checkpoint.write")),
        faults::Intercept::ShortWrite(k) => {
            let k = k.min(bytes.len());
            let mut f = fs::File::create(&path)?;
            f.write_all(&bytes[..k])?;
            f.sync_data()?;
            return Err(faults::injected("checkpoint.write"));
        }
    }
    let tmp = path.with_extension("gac.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_stream::update::{into_batches, rmat_edge_stream, Update};
    use std::sync::Mutex;

    static LOCK: Mutex<()> = Mutex::new(());

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ga_durability_tests").join(name);
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_checkpoint() -> Checkpoint {
        let mut graph = DynamicGraph::new(6);
        graph.insert_edge(0, 1, 1.5, 3);
        graph.insert_edge(1, 2, 2.5, 4);
        graph.delete_edge(0, 1, 5);
        let mut props = PropertyStore::new(6);
        props.set("score", 2, 0.75);
        props.set("label", 0, "seed");
        Checkpoint {
            graph,
            props,
            flow: FlowStats {
                ingest: IngestStats {
                    updates_applied: 40,
                    updates_quarantined: 2,
                    events_observed: 7,
                    ..IngestStats::default()
                },
                snapshots: SnapshotStats {
                    rebuilds: 3,
                    rows_reused: 11,
                    mem_bytes: 1234,
                },
                durability: DurabilityStats {
                    retries: 4,
                    ..DurabilityStats::default()
                },
                overload: OverloadStats {
                    updates_shed: 17,
                    budget_partials: 2,
                    ..OverloadStats::default()
                },
                ..FlowStats::default()
            },
            stream: StreamStats {
                edges_inserted: 2,
                edges_deleted: 1,
                batches: 5,
                updates_quarantined: 2,
                ..StreamStats::default()
            },
            symmetrize: false,
            vertex_limit: 1 << 20,
            last_batch_time: 5,
            next_wal_seq: 6,
        }
    }

    #[test]
    fn checkpoint_codec_round_trip() {
        let c = sample_checkpoint();
        let bytes = encode_checkpoint(&c).unwrap();
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn other_format_versions_are_refused_not_misread() {
        let good = encode_checkpoint(&sample_checkpoint()).unwrap();
        for version in [0u16, 1, 2, VERSION + 1] {
            let mut body = good[..good.len() - 4].to_vec();
            body[4..6].copy_from_slice(&version.to_le_bytes());
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            let err = decode_checkpoint(&body).unwrap_err();
            assert!(err.to_string().contains("unsupported version"), "{err}");
        }
    }

    #[test]
    fn checkpoint_codec_rejects_any_truncation_or_bitflip() {
        let bytes = encode_checkpoint(&sample_checkpoint()).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        for i in (0..bytes.len()).step_by(17) {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            assert!(decode_checkpoint(&flipped).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn create_then_recover_with_wal_suffix() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let dir = tmpdir("basic");
        let init = Checkpoint {
            graph: DynamicGraph::new(4),
            props: PropertyStore::new(4),
            flow: FlowStats::default(),
            stream: StreamStats::default(),
            symmetrize: true,
            vertex_limit: 1 << 20,
            last_batch_time: 0,
            next_wal_seq: 1,
        };
        let mut d = Durability::create(&dir, &init).unwrap();
        // Double-create is refused.
        assert!(Durability::create(&dir, &init).is_err());
        let batches = into_batches(rmat_edge_stream(4, 30, 0.1, 3), 10, 1);
        for b in &batches {
            d.append(b).unwrap();
        }
        drop(d);
        let (d2, ckpt, replay) = Durability::recover(&dir).unwrap();
        assert_eq!(ckpt, init);
        assert_eq!(replay.len(), 3);
        assert_eq!(replay[0].0, 1);
        assert_eq!(replay[0].1.updates, batches[0].updates);
        assert_eq!(d2.next_wal_seq(), 4);
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let dir = tmpdir("torn_ckpt");
        let mut c = sample_checkpoint();
        c.next_wal_seq = 1;
        let mut d = Durability::create(&dir, &c).unwrap();
        let batch = UpdateBatch {
            time: 9,
            updates: vec![Update::EdgeInsert {
                src: 0,
                dst: 3,
                weight: 1.0,
            }],
        };
        d.append(&batch).unwrap();
        // Second checkpoint is torn at the final path.
        faults::arm("checkpoint.write", faults::FaultMode::ShortWrite(40));
        let mut c2 = c.clone();
        c2.next_wal_seq = 2;
        assert!(d.checkpoint(&c2).is_err());
        faults::clear_all();
        drop(d);
        // Recovery skips the torn file, lands on checkpoint 1, and the
        // WAL suffix still has the batch.
        let (_, ckpt, replay) = Durability::recover(&dir).unwrap();
        assert_eq!(ckpt.next_wal_seq, 1);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].1.updates, batch.updates);
    }

    #[test]
    fn retention_keeps_fallback_replayable() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let dir = tmpdir("retention");
        let mut c = sample_checkpoint();
        c.next_wal_seq = 1;
        let mut d = Durability::create(&dir, &c).unwrap();
        let batches = into_batches(rmat_edge_stream(4, 40, 0.0, 5), 10, 10);
        for (i, b) in batches.iter().enumerate() {
            d.append(b).unwrap();
            let mut ci = c.clone();
            ci.next_wal_seq = i as u64 + 2;
            d.checkpoint(&ci).unwrap();
        }
        let ckpts = list_numbered(&dir, "ckpt-", ".gac").unwrap();
        assert_eq!(ckpts.len(), CHECKPOINTS_RETAINED);
        // The newest checkpoint fails to load -> fallback to the older
        // one, whose replay frames must still exist.
        faults::arm("checkpoint.load", faults::FaultMode::FailOnce);
        let (_, ckpt, replay) = Durability::recover(&dir).unwrap();
        faults::clear_all();
        assert_eq!(ckpt.next_wal_seq, batches.len() as u64);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].1.updates, batches.last().unwrap().updates);
    }
}
