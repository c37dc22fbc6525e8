//! Write-ahead log for update batches.
//!
//! Every [`UpdateBatch`] headed for the engine is first appended to the
//! log as one CRC32-framed record:
//!
//! ```text
//! [payload len: u32][seq: u64][payload: len bytes][crc32: u32]
//! ```
//!
//! where the CRC covers `seq || payload`. The format is torn-tail
//! tolerant: a crash mid-append leaves a short or corrupt final frame,
//! and [`replay`] simply stops at the first frame that fails its length
//! or checksum test — everything before it is intact (frames are only
//! ever appended). [`Wal::open_append`] truncates such a tail away so
//! the next append starts on a clean frame boundary.
//!
//! Batches are logged *before* validation: the quarantine filter is
//! deterministic, so replaying the raw stream re-quarantines exactly
//! the updates the original run rejected, keeping recovered counters
//! identical to an uninterrupted run.
//!
//! A property name travels behind a `u16` length, so a name longer than
//! 65 535 bytes cannot be logged whole: [`encode_batch`] cuts it at a
//! char boundary, and the stream engine quarantines every name longer
//! than 65 531 bytes (`u16::MAX - 4`, under
//! [`crate::engine::QuarantineReason::NameTooLong`]). A cut keeps at
//! least 65 532 bytes, so replay quarantines the cut name exactly as the
//! live run quarantined the full one, and every frame decodes.
//!
//! Frames and payloads are read through [`ga_graph::io::ByteReader`],
//! the one bounded reader behind every on-disk decoder.
//!
//! Fault injection: appends pass through the `"wal.append"` site of
//! [`ga_graph::faults`], which can veto the write entirely or tear it
//! after a chosen number of bytes; tail repair passes through
//! `"wal.repair"`, modelling the correlated hard-storage case where the
//! truncate fails too.

use crate::update::{Update, UpdateBatch};
use ga_graph::io::{crc32, ByteReader};
use ga_graph::{faults, Timestamp};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Upper bound on a frame payload; a corrupt length field must not
/// drive a giant allocation during replay.
const MAX_PAYLOAD: u32 = 1 << 28;

const TAG_EDGE_INSERT: u8 = 0;
const TAG_EDGE_DELETE: u8 = 1;
const TAG_PROPERTY_SET: u8 = 2;

/// Longest property name the stream engine applies: below the shortest
/// cut [`encode_batch`] can make (see the module docs).
pub(crate) const MAX_NAME_BYTES: usize = u16::MAX as usize - 4;

/// Serialize one batch to the WAL payload encoding.
pub fn encode_batch(batch: &UpdateBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + batch.updates.len() * 13);
    out.extend_from_slice(&batch.time.to_le_bytes());
    out.extend_from_slice(&(batch.updates.len() as u32).to_le_bytes());
    for u in &batch.updates {
        match u {
            &Update::EdgeInsert { src, dst, weight } => {
                out.push(TAG_EDGE_INSERT);
                out.extend_from_slice(&src.to_le_bytes());
                out.extend_from_slice(&dst.to_le_bytes());
                out.extend_from_slice(&weight.to_le_bytes());
            }
            &Update::EdgeDelete { src, dst } => {
                out.push(TAG_EDGE_DELETE);
                out.extend_from_slice(&src.to_le_bytes());
                out.extend_from_slice(&dst.to_le_bytes());
            }
            Update::PropertySet {
                vertex,
                name,
                value,
            } => {
                out.push(TAG_PROPERTY_SET);
                out.extend_from_slice(&vertex.to_le_bytes());
                let name = &name[..name.floor_char_boundary(u16::MAX as usize)];
                out.extend_from_slice(&(name.len() as u16).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
        }
    }
    out
}

/// Deserialize a WAL payload produced by [`encode_batch`].
pub fn decode_batch(payload: &[u8]) -> io::Result<UpdateBatch> {
    let mut r = ByteReader::new(payload, "WAL");
    let time: Timestamp = r.u64("batch time")?;
    let count = r.u32("update count")?;
    // The shortest update, a delete, is a tag and two ids.
    let count = r.count(count.into(), 9, "update")?;
    let mut updates = Vec::with_capacity(count);
    for i in 0..count {
        let [tag] = r.array("update tag")?;
        let u = match tag {
            TAG_EDGE_INSERT => Update::EdgeInsert {
                src: r.u32("src")?,
                dst: r.u32("dst")?,
                weight: f32::from_le_bytes(r.array("weight")?),
            },
            TAG_EDGE_DELETE => Update::EdgeDelete {
                src: r.u32("src")?,
                dst: r.u32("dst")?,
            },
            TAG_PROPERTY_SET => {
                let vertex = r.u32("vertex")?;
                let name_len = u16::from_le_bytes(r.array("name length")?);
                let name = std::str::from_utf8(r.bytes(name_len.into(), "property name")?)
                    .map_err(|_| r.corrupt("property name is not UTF-8"))?;
                Update::PropertySet {
                    vertex,
                    name: name.to_owned(),
                    value: f64::from_le_bytes(r.array("value")?),
                }
            }
            x => return Err(r.corrupt(format_args!("unknown update tag {x} at index {i}"))),
        };
        updates.push(u);
    }
    r.finish()?;
    Ok(UpdateBatch { time, updates })
}

/// Build the full on-disk frame for (`seq`, `payload`).
fn frame_bytes(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut crc_input = Vec::with_capacity(8 + payload.len());
    crc_input.extend_from_slice(&seq.to_le_bytes());
    crc_input.extend_from_slice(payload);
    let crc = crc32(&crc_input);
    let mut frame = Vec::with_capacity(16 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc_input);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalReplay {
    /// The decoded `(sequence number, batch)` pairs, in file order.
    pub batches: Vec<(u64, UpdateBatch)>,
    /// Byte offset of the end of the last valid frame.
    pub valid_len: u64,
    /// True if bytes followed the last valid frame (a torn tail).
    pub torn: bool,
}

/// Scan a WAL file, decoding every intact frame and stopping cleanly at
/// the first short/corrupt one.
pub fn replay(path: impl AsRef<Path>) -> io::Result<WalReplay> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    replay_bytes(&bytes)
}

fn replay_bytes(bytes: &[u8]) -> io::Result<WalReplay> {
    let mut r = ByteReader::new(bytes, "WAL");
    let mut batches = Vec::new();
    let mut valid_len = 0;
    while let Some((seq, payload)) = next_frame(&mut r) {
        // A frame that passes its CRC but fails to decode is a real
        // format error, not a torn tail — surface it.
        batches.push((seq, decode_batch(payload)?));
        valid_len = bytes.len() - r.remaining();
    }
    Ok(WalReplay {
        batches,
        valid_len: valid_len as u64,
        torn: valid_len < bytes.len(),
    })
}

/// The `(seq, payload)` of the frame at `r`, or `None` at a short or
/// corrupt one: a torn tail, a corrupt length field, or bit rot or a
/// torn write inside the frame.
fn next_frame<'a>(r: &mut ByteReader<'a>) -> Option<(u64, &'a [u8])> {
    let len = r
        .u32("frame length")
        .ok()
        .filter(|&len| len <= MAX_PAYLOAD)?;
    let crc_input = r.bytes(8 + len as usize, "frame").ok()?;
    let stored_crc = r.u32("frame checksum").ok()?;
    if crc32(crc_input) != stored_crc {
        return None;
    }
    let mut body = ByteReader::new(crc_input, "WAL");
    let seq = body.u64("sequence number").ok()?;
    Some((seq, body.bytes(len as usize, "payload").ok()?))
}

/// An open write-ahead log file.
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    /// Bytes of intact frames on disk — everything past this offset is a
    /// torn tail from a failed append.
    valid_len: u64,
    /// Observability sink; appends record a [`ga_obs::Step::Wal`] span
    /// with the frame's disk bytes. Disabled (free) by default.
    recorder: ga_obs::Recorder,
}

impl Wal {
    /// Create a fresh (empty) log whose first frame will carry `first_seq`.
    pub fn create(path: impl AsRef<Path>, first_seq: u64) -> io::Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(Wal {
            file,
            path,
            next_seq: first_seq,
            valid_len: 0,
            recorder: ga_obs::Recorder::disabled(),
        })
    }

    /// Open an existing log for appending: scan it, truncate any torn
    /// tail, and continue the sequence after the last valid frame (or at
    /// `first_seq_if_empty` when no valid frame exists).
    pub fn open_append(path: impl AsRef<Path>, first_seq_if_empty: u64) -> io::Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let scan = replay(&path)?;
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(scan.valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        let next_seq = scan
            .batches
            .last()
            .map(|(seq, _)| seq + 1)
            .unwrap_or(first_seq_if_empty);
        Ok(Wal {
            file,
            path,
            next_seq,
            valid_len: scan.valid_len,
            recorder: ga_obs::Recorder::disabled(),
        })
    }

    /// Attach an observability recorder (call again after log
    /// rotation — a fresh [`Wal::create`] starts disabled).
    pub fn set_recorder(&mut self, recorder: ga_obs::Recorder) {
        self.recorder = recorder;
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one batch as a framed record and fsync it. Returns the
    /// frame's sequence number.
    ///
    /// Passes the `"wal.append"` fault site: an injected error leaves
    /// the file untouched; an injected short write leaves a torn tail
    /// exactly as a crash mid-write would.
    pub fn append(&mut self, batch: &UpdateBatch) -> io::Result<u64> {
        // Spans count *attempts*: a failed append records wall time with
        // zero disk bytes, so retry storms are visible in the trace.
        let mut span = self.recorder.span(ga_obs::Step::Wal);
        let frame = frame_bytes(self.next_seq, &encode_batch(batch));
        match faults::intercept("wal.append") {
            faults::Intercept::Proceed => {}
            faults::Intercept::Delay(ms) => faults::apply_delay(ms),
            faults::Intercept::Error => return Err(faults::injected("wal.append")),
            faults::Intercept::ShortWrite(k) => {
                let k = k.min(frame.len());
                self.file.write_all(&frame[..k])?;
                self.file.sync_data()?;
                return Err(faults::injected("wal.append"));
            }
        }
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        span.add_disk_bytes(frame.len() as u64);
        self.valid_len += frame.len() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Bytes of intact frames on disk.
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Truncate any torn tail left by a failed append and reposition at
    /// the end of the last intact frame. Safe to call unconditionally; a
    /// no-op on a clean log. This is what makes in-process *retry* of a
    /// failed append sound: without it a retried frame would land after
    /// the torn bytes and be unreadable at replay.
    pub fn repair(&mut self) -> io::Result<()> {
        // `"wal.repair"` fault site: any armed mode vetoes the truncate
        // (a short write makes no sense for set_len).
        if !matches!(faults::intercept("wal.repair"), faults::Intercept::Proceed) {
            return Err(faults::injected("wal.repair"));
        }
        self.file.set_len(self.valid_len)?;
        self.file.seek(SeekFrom::Start(self.valid_len))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{into_batches, rmat_edge_stream};
    use ga_graph::faults::{self, FaultMode};
    use std::sync::Mutex;

    // Fault registry is process-global; serialize tests that arm it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ga_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_batches() -> Vec<UpdateBatch> {
        let mut batches = into_batches(rmat_edge_stream(6, 60, 0.2, 11), 16, 100);
        batches[0].updates.push(Update::PropertySet {
            vertex: 3,
            name: "score".into(),
            value: 2.25,
        });
        batches
    }

    #[test]
    fn encode_decode_round_trip() {
        for b in sample_batches() {
            let payload = encode_batch(&b);
            let back = decode_batch(&payload).unwrap();
            assert_eq!(back.time, b.time);
            assert_eq!(back.updates, b.updates);
        }
    }

    #[test]
    fn decode_rejects_any_truncation() {
        let payload = encode_batch(&sample_batches()[0]);
        for cut in 0..payload.len() {
            assert!(decode_batch(&payload[..cut]).is_err(), "prefix {cut}");
        }
        let mut extra = payload.clone();
        extra.push(0);
        assert!(decode_batch(&extra).is_err());
    }

    #[test]
    fn append_replay_round_trip() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let p = tmp("round_trip.log");
        let batches = sample_batches();
        let mut wal = Wal::create(&p, 1).unwrap();
        for b in &batches {
            wal.append(b).unwrap();
        }
        let scan = replay(&p).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.batches.len(), batches.len());
        for (i, (seq, b)) in scan.batches.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(b.updates, batches[i].updates);
        }
    }

    #[test]
    fn torn_tail_is_ignored_and_truncated_on_open() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let p = tmp("torn.log");
        let batches = sample_batches();
        let mut wal = Wal::create(&p, 1).unwrap();
        for b in &batches {
            wal.append(b).unwrap();
        }
        drop(wal);
        let clean_len = std::fs::metadata(&p).unwrap().len();
        // Simulate a crash mid-append: write half of another frame.
        let frame = frame_bytes(99, &encode_batch(&batches[0]));
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(f);

        let scan = replay(&p).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.batches.len(), batches.len());
        assert_eq!(scan.valid_len, clean_len);

        // Reopening truncates the tail and resumes the sequence.
        let wal = Wal::open_append(&p, 1).unwrap();
        assert_eq!(wal.next_seq(), batches.len() as u64 + 1);
        assert_eq!(std::fs::metadata(&p).unwrap().len(), clean_len);
    }

    #[test]
    fn corrupt_frame_stops_replay_at_last_good_one() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let p = tmp("bitrot.log");
        let batches = sample_batches();
        let mut wal = Wal::create(&p, 1).unwrap();
        for b in &batches {
            wal.append(b).unwrap();
        }
        drop(wal);
        // Flip a byte inside the second frame's payload.
        let mut bytes = std::fs::read(&p).unwrap();
        let first_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize + 16;
        bytes[first_len + 20] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let scan = replay(&p).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.batches.len(), 1);
    }

    #[test]
    fn injected_fault_blocks_append() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let p = tmp("fault.log");
        let batches = sample_batches();
        let mut wal = Wal::create(&p, 1).unwrap();
        wal.append(&batches[0]).unwrap();

        faults::arm("wal.append", FaultMode::FailOnce);
        let err = wal.append(&batches[1]).unwrap_err();
        assert!(faults::is_injected(&err));
        // Nothing was written; the log still has exactly one frame.
        assert_eq!(replay(&p).unwrap().batches.len(), 1);

        faults::arm("wal.append", FaultMode::ShortWrite(7));
        let err = wal.append(&batches[1]).unwrap_err();
        assert!(faults::is_injected(&err));
        let scan = replay(&p).unwrap();
        assert_eq!(scan.batches.len(), 1);
        assert!(scan.torn);
        faults::clear_all();

        // Recovery-style reopen truncates the torn bytes and appends fine.
        let mut wal = Wal::open_append(&p, 1).unwrap();
        assert_eq!(wal.next_seq(), 2);
        wal.append(&batches[1]).unwrap();
        assert_eq!(replay(&p).unwrap().batches.len(), 2);
    }

    #[test]
    fn repair_enables_in_process_retry_after_short_write() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let p = tmp("repair.log");
        let batches = sample_batches();
        let mut wal = Wal::create(&p, 1).unwrap();
        wal.append(&batches[0]).unwrap();
        let clean = wal.valid_len();
        assert_eq!(clean, std::fs::metadata(&p).unwrap().len());

        // Torn append: the file grows past valid_len.
        faults::arm("wal.append", FaultMode::ShortWrite(9));
        assert!(wal.append(&batches[1]).is_err());
        faults::clear_all();
        assert!(std::fs::metadata(&p).unwrap().len() > clean);
        assert_eq!(wal.valid_len(), clean);

        // Repair + retry on the SAME handle (no reopen) yields a clean log.
        wal.repair().unwrap();
        assert_eq!(std::fs::metadata(&p).unwrap().len(), clean);
        let seq = wal.append(&batches[1]).unwrap();
        assert_eq!(seq, 2);
        let scan = replay(&p).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.batches.len(), 2);
        // Repair on a clean log is a no-op.
        wal.repair().unwrap();
        assert_eq!(replay(&p).unwrap().batches.len(), 2);
    }
}
