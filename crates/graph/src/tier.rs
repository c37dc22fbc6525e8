//! Tiered larger-than-RAM storage: cold CSR rows spill to CRC-framed
//! disk segments behind a budgeted page cache.
//!
//! The paper's NORA boil works a 4–7 TB set and finds "disk is the
//! tall pole" (E3); ROADMAP item 3 asks for that regime to be
//! *representable* here: a graph whose row data does not fit the
//! configured RAM budget, served through a cache whose misses are real
//! disk reads, priced through the calibration model, and whose IO
//! misbehavior is first-class in the fault matrix.
//!
//! Three layers:
//!
//! * **`GAS1` segment codec** — one CRC-framed file per segment
//!   (`magic | version | kind | id | payload len | payload | crc32`),
//!   read, like every on-disk format, through [`crate::io::ByteReader`]
//!   and checked with [`crate::io::crc32`]. Every decode error is
//!   *detected*: truncation, bit flips, and torn writes all fail the
//!   frame check instead of silently decoding, and a CRC-valid row
//!   payload that names another row range or whose offsets do not
//!   ascend is refused and quarantined like a corrupt frame.
//! * **[`SegmentStore`]** — the directory of segment files plus a
//!   `quarantine/` subdirectory corrupt segments are moved to. All IO
//!   passes the seeded fault registry at the `segment.write`,
//!   `segment.read`, and `segment.scrub` sites (scope-compatible, so a
//!   sharded fleet can fault one member's tier), including the slow-IO
//!   [`crate::faults::FaultMode::Delay`] mode. A demand read and a
//!   scrub read are one code path and differ only in their fault site.
//! * **[`TieredCsr`]** — an [`Adjacency`] implementation over spilled
//!   row segments: a RAM-budgeted LRU page cache, sequential prefetch
//!   of the next segment after a demand miss, CRC-verified reads that
//!   quarantine corrupt segments, a background [`TieredCsr::scrub`]
//!   pass that detects bit rot proactively, [`TieredCsr::repair_from`]
//!   that restores quarantined/missing segments from a source of truth
//!   (resident copy, or the checkpoint+WAL-recovered graph the flow
//!   hands in) — with honest refusal and counted loss when no source
//!   exists. Failed IO goes through the workspace's one retry loop
//!   ([`RetryPolicy::run`]) and one [`CircuitBreaker`], which degrades
//!   the tier to pinned-in-RAM operation when the device keeps failing.
//!
//! All five batch kernels run bit-identically over a `TieredCsr`
//! because rows decode to exactly the source CSR's sorted target
//! slices; the representation changes, the bits do not.

use crate::faults::{self, Intercept};
use crate::io::{corrupt, crc32, ByteReader};
use crate::retry::{CircuitBreaker, RetryPolicy};
use crate::{Adjacency, CsrGraph, VertexId, Weight};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Magic tag of the `GAS1` segment file format.
pub const MAGIC_SEGMENT: &[u8; 4] = b"GAS1";
/// Format name in `GAS1` error messages.
const GAS1: &str = "GAS1";
/// Current `GAS1` codec version.
const SEGMENT_VERSION: u16 = 1;
/// Segment IO is retried twice, immediately: reads retry under the
/// tier mutex, where a backoff sleep would stall every reader.
const IO_RETRY: RetryPolicy = RetryPolicy {
    max_retries: 2,
    base: Duration::ZERO,
    cap: Duration::ZERO,
    seed: 0,
};
/// Consecutive exhausted-retry IO failures before the breaker opens and
/// the tier degrades to pinned-in-RAM operation.
const BREAKER_THRESHOLD: u32 = 4;

/// What a segment file holds. The discriminant is the kind's tag in a
/// `GAS1` header and its index into a tier's per-direction fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SegmentKind {
    /// A contiguous range of forward CSR rows.
    Rows = 0,
    /// A contiguous range of reverse (in-edge) CSR rows.
    RevRows = 1,
}

impl SegmentKind {
    const ALL: [SegmentKind; 2] = [SegmentKind::Rows, SegmentKind::RevRows];

    fn from_tag(tag: u8) -> Option<SegmentKind> {
        SegmentKind::ALL.into_iter().find(|&k| k as u8 == tag)
    }

    /// File-name prefix for this kind (`rows-000042.gas`).
    fn prefix(self) -> &'static str {
        match self {
            SegmentKind::Rows => "rows",
            SegmentKind::RevRows => "rev",
        }
    }

    /// Row `v` of `csr` in this kind's direction: its targets, and its
    /// weights when it is a forward row of a weighted graph.
    fn row_of(self, csr: &CsrGraph, v: VertexId) -> (&[VertexId], Option<&[Weight]>) {
        match self {
            SegmentKind::Rows => (csr.neighbors(v), csr.edge_weights(v)),
            SegmentKind::RevRows => (csr.in_neighbors(v), None),
        }
    }
}

/// Identity of one segment: kind plus index within the kind.
pub type SegmentId = (SegmentKind, u64);

// ---------------------------------------------------------------------
// GAS1 codec.
// ---------------------------------------------------------------------

/// Frame `payload` as a `GAS1` segment file image. The CRC covers the
/// header *and* the payload, so a flipped kind/id/length byte is as
/// detectable as a flipped payload byte.
pub fn encode_segment(kind: SegmentKind, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(MAGIC_SEGMENT);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.push(kind as u8);
    out.push(0); // reserved
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode a `GAS1` segment file image into `(kind, id, payload)`.
/// Every corruption — truncation at any byte, any single-bit flip, a
/// torn tail — is detected and reported as `InvalidData`; a corrupt
/// segment never silently decodes.
pub fn decode_segment(bytes: &[u8]) -> io::Result<(SegmentKind, u64, Vec<u8>)> {
    let mut r = ByteReader::new(bytes, GAS1);
    r.magic(MAGIC_SEGMENT)?;
    r.version(SEGMENT_VERSION)?;
    let [tag, reserved] = r.array("segment kind")?;
    let kind = SegmentKind::from_tag(tag).ok_or_else(|| r.corrupt("unknown segment kind"))?;
    if reserved != 0 {
        return Err(r.corrupt("nonzero reserved byte"));
    }
    let id = r.u64("segment id")?;
    let len = r.u64("payload length")?;
    let len = r.count(len, 1, "payload byte")?;
    let payload = r.bytes(len, "payload")?;
    let stored = r.u32("checksum")?;
    r.finish()?;
    let computed = crc32(&bytes[..bytes.len() - 4]);
    if stored != computed {
        return Err(r.corrupt(format_args!(
            "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    Ok((kind, id, payload.to_vec()))
}

// ---------------------------------------------------------------------
// Row-range payload codec.
// ---------------------------------------------------------------------

/// Decoded rows of one segment, resident in the page cache.
#[derive(Clone, Debug)]
struct ResidentSeg {
    /// First vertex of the range.
    start: VertexId,
    /// Relative offsets, `count + 1` entries; row `r` of the range is
    /// `targets[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
    /// Decoded bytes this segment charges against the RAM budget.
    bytes: u64,
    /// LRU clock stamp of the last access.
    last_used: u64,
    /// True when this segment has no good on-disk copy (its spill
    /// failed): it must not be evicted, or the rows would be lost.
    no_disk_copy: bool,
}

impl ResidentSeg {
    fn decoded_bytes(offsets: &[u64], targets: &[VertexId], weights: &Option<Vec<Weight>>) -> u64 {
        (offsets.len() * 8 + targets.len() * 4 + weights.as_ref().map_or(0, |w| w.len() * 4)) as u64
    }

    /// Row `v` (which must lie in this segment's range).
    fn row(&self, v: VertexId) -> (&[VertexId], Option<&[Weight]>) {
        let r = (v - self.start) as usize;
        let (a, b) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
        (
            &self.targets[a..b],
            self.weights.as_deref().map(|w| &w[a..b]),
        )
    }

    /// Re-encode these rows (repair from the in-RAM copy).
    fn payload(&self) -> Vec<u8> {
        let count = (self.offsets.len() - 1) as u32;
        encode_rows_payload(self.start, count, self.weights.is_some(), |v| self.row(v))
    }
}

/// Encode rows `[start, start + count)` as a segment payload, reading
/// each row through `row`; the weights are written when `weighted` is
/// set. The spill (from a CSR) and the repair (from a CSR or a resident
/// segment) both encode here.
fn encode_rows_payload<'a>(
    start: VertexId,
    count: u32,
    weighted: bool,
    row: impl Fn(VertexId) -> (&'a [VertexId], Option<&'a [Weight]>),
) -> Vec<u8> {
    let rows = start..start + count;
    let mut offsets: Vec<u64> = Vec::with_capacity(count as usize + 1);
    let mut total: u64 = 0;
    offsets.push(0);
    for v in rows.clone() {
        total += row(v).0.len() as u64;
        offsets.push(total);
    }
    let mut out = Vec::with_capacity(16 + offsets.len() * 8 + total as usize * 4);
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.push(u8::from(weighted));
    out.extend_from_slice(&[0u8; 3]);
    for &o in &offsets {
        out.extend_from_slice(&o.to_le_bytes());
    }
    for v in rows.clone() {
        for &t in row(v).0 {
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
    if weighted {
        for v in rows {
            for w in row(v).1.unwrap_or(&[]) {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    out
}

/// Decode the rows of the segment that holds `count` rows from
/// `start`. A payload that names another range, whose offsets do not
/// ascend from 0, or whose length disagrees with its last offset is
/// refused, so a CRC-valid frame can never index outside its own rows.
fn decode_rows_payload(payload: &[u8], (start, count): (VertexId, u32)) -> io::Result<ResidentSeg> {
    let mut r = ByteReader::new(payload, GAS1);
    let got = (r.u32("row range start")?, r.u32("row count")?);
    if got != (start, count) {
        return Err(r.corrupt(format_args!(
            "row payload holds {} rows from {}, the segment {count} from {start}",
            got.1, got.0
        )));
    }
    let [flag, _, _, _] = r.array("row flags")?;
    let weighted = flag != 0;
    let n_off = r.count(u64::from(count) + 1, 8, "row offset")?;
    let offsets = (0..n_off)
        .map(|_| r.u64("row offset"))
        .collect::<io::Result<Vec<u64>>>()?;
    if offsets[0] != 0 || offsets.windows(2).any(|p| p[0] > p[1]) {
        return Err(r.corrupt("row offsets do not ascend from 0"));
    }
    let edge_bytes = if weighted { 8 } else { 4 };
    let m = r.count(offsets[count as usize], edge_bytes, "row edge")?;
    let targets = (0..m)
        .map(|_| r.u32("row target"))
        .collect::<io::Result<Vec<VertexId>>>()?;
    let weights = weighted
        .then(|| {
            (0..m)
                .map(|_| r.array("row weight").map(Weight::from_le_bytes))
                .collect::<io::Result<Vec<Weight>>>()
        })
        .transpose()?;
    r.finish()?;
    let bytes = ResidentSeg::decoded_bytes(&offsets, &targets, &weights);
    Ok(ResidentSeg {
        start,
        offsets,
        targets,
        weights,
        bytes,
        last_used: 0,
        no_disk_copy: false,
    })
}

// ---------------------------------------------------------------------
// Segment store: the on-disk directory, with fault sites.
// ---------------------------------------------------------------------

/// Outcome of one store IO: how many bytes moved and whether an
/// injected [`Intercept::Delay`] slowed it.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoOutcome {
    /// Bytes written or read.
    pub bytes: u64,
    /// True when a slow-IO fault delayed the operation.
    pub slowed: bool,
}

/// Why a segment read failed — callers treat the arms differently:
/// transient IO errors are retried, corrupt segments are already
/// quarantined and need repair, missing segments need repair outright.
#[derive(Debug)]
pub enum SegmentReadError {
    /// The read itself failed (injected or real IO error); the on-disk
    /// bytes were not judged.
    Io(io::Error),
    /// The frame failed validation; the file has been moved to
    /// `quarantine/`.
    Corrupt(io::Error),
    /// No file for this segment (never written, or quarantined by an
    /// earlier read).
    Missing,
}

/// The arms of a fault site every store IO shares: an injected delay is
/// served and reported as `Ok(true)` (slowed); an injected error is
/// returned. A short write means something only to the writer, which
/// handles it before the gate; anywhere else it is an injected error.
fn gate(site: &str, intercept: Intercept) -> io::Result<bool> {
    match intercept {
        Intercept::Proceed => Ok(false),
        Intercept::Delay(ms) => {
            faults::apply_delay(ms);
            Ok(true)
        }
        Intercept::Error | Intercept::ShortWrite(_) => Err(faults::injected(site)),
    }
}

/// A directory of `GAS1` segment files plus its `quarantine/` corner.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
}

impl SegmentStore {
    /// Open (creating if needed) a segment directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SegmentStore> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("quarantine"))?;
        Ok(SegmentStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of segment `(kind, id)`.
    pub fn segment_path(&self, kind: SegmentKind, id: u64) -> PathBuf {
        self.dir.join(format!("{}-{id:06}.gas", kind.prefix()))
    }

    fn quarantine_path(&self, kind: SegmentKind, id: u64) -> PathBuf {
        self.dir
            .join("quarantine")
            .join(format!("{}-{id:06}.gas", kind.prefix()))
    }

    /// Write one segment through the `segment.write` fault site. An
    /// injected short write tears the file at its final path exactly as
    /// a crash mid-write would; the torn frame fails CRC on read.
    pub fn write(&self, kind: SegmentKind, id: u64, payload: &[u8]) -> io::Result<IoOutcome> {
        let frame = encode_segment(kind, id, payload);
        let path = self.segment_path(kind, id);
        let intercept = faults::intercept("segment.write");
        if let Intercept::ShortWrite(k) = intercept {
            let mut f = fs::File::create(&path)?;
            f.write_all(&frame[..k.min(frame.len())])?;
            f.sync_data()?;
            return Err(faults::injected("segment.write"));
        }
        let slowed = gate("segment.write", intercept)?;
        let mut f = fs::File::create(&path)?;
        f.write_all(&frame)?;
        f.sync_data()?;
        Ok(IoOutcome {
            bytes: frame.len() as u64,
            slowed,
        })
    }

    /// Read and validate one segment through the `segment.read` fault
    /// site. A frame that fails validation is moved to `quarantine/`
    /// before the error is returned — it is never silently decoded and
    /// never re-read as good data.
    pub fn read(
        &self,
        kind: SegmentKind,
        id: u64,
    ) -> Result<(Vec<u8>, IoOutcome), SegmentReadError> {
        self.read_at("segment.read", kind, id)
    }

    /// The one read path, behind the fault site `site` (`segment.read`
    /// for a demand read, `segment.scrub` for a scrub): read the file,
    /// check the frame and that it names `(kind, id)`, and quarantine
    /// it when either check fails.
    fn read_at(
        &self,
        site: &str,
        kind: SegmentKind,
        id: u64,
    ) -> Result<(Vec<u8>, IoOutcome), SegmentReadError> {
        let slowed = gate(site, faults::intercept(site)).map_err(SegmentReadError::Io)?;
        let bytes = match fs::read(self.segment_path(kind, id)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(SegmentReadError::Missing),
            Err(e) => return Err(SegmentReadError::Io(e)),
        };
        let checked = decode_segment(&bytes).and_then(|(got_kind, got_id, payload)| {
            if (got_kind, got_id) == (kind, id) {
                Ok(payload)
            } else {
                Err(corrupt(
                    GAS1,
                    format!(
                        "segment identity mismatch: file says {got_kind:?}/{got_id}, \
                         expected {kind:?}/{id}"
                    ),
                ))
            }
        });
        match checked {
            Ok(payload) => Ok((
                payload,
                IoOutcome {
                    bytes: bytes.len() as u64,
                    slowed,
                },
            )),
            Err(e) => {
                let _ = self.quarantine(kind, id);
                Err(SegmentReadError::Corrupt(e))
            }
        }
    }

    /// Move a segment file into `quarantine/` (idempotent; missing
    /// files are fine).
    fn quarantine(&self, kind: SegmentKind, id: u64) -> io::Result<()> {
        let from = self.segment_path(kind, id);
        match fs::rename(&from, self.quarantine_path(kind, id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Remove all live segment files of `kind` (fresh respill).
    fn clear(&self, kind: SegmentKind) -> io::Result<()> {
        let prefix = format!("{}-", kind.prefix());
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let live = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".gas"))
                .is_some_and(|idx| idx.parse::<u64>().is_ok());
            if live {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Tier configuration + counters.
// ---------------------------------------------------------------------

/// Knobs for a [`TieredCsr`]. Built with struct-update syntax over
/// [`TierConfig::new`] or the builder-style methods. Sequential
/// prefetch (always on), the IO retry budget (2 immediate retries) and
/// the breaker threshold (4 consecutive failures) are constants: no
/// caller ever needed another value.
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Directory segments spill to.
    pub dir: PathBuf,
    /// RAM budget for resident decoded row data. The per-vertex degree
    /// index (8 bytes/vertex, the tier's "page table") is accounted
    /// separately and not evictable.
    pub ram_budget_bytes: u64,
    /// Rows per segment; 0 is taken as 1.
    pub segment_rows: usize,
    /// Keep the source snapshot `Arc` as the pinned-in-RAM fallback.
    /// Without it, a tripped breaker (or an unrepairable segment) can
    /// only count the loss honestly.
    pub keep_pin: bool,
}

impl TierConfig {
    /// Defaults: 64 MiB RAM budget, 1024-row segments, pinned fallback
    /// kept.
    pub fn new(dir: impl Into<PathBuf>) -> TierConfig {
        TierConfig {
            dir: dir.into(),
            ram_budget_bytes: 64 << 20,
            segment_rows: 1024,
            keep_pin: true,
        }
    }

    /// Set the resident RAM budget.
    pub fn ram_budget(mut self, bytes: u64) -> Self {
        self.ram_budget_bytes = bytes;
        self
    }

    /// Set rows per segment.
    pub fn segment_rows(mut self, rows: usize) -> Self {
        self.segment_rows = rows.max(1);
        self
    }

    /// Keep (or drop) the pinned-in-RAM fallback snapshot.
    pub fn keep_pin(mut self, on: bool) -> Self {
        self.keep_pin = on;
        self
    }
}

/// Tier IO counters — merged into `FlowStats`, persisted in GAC1 v3
/// checkpoints, and priced through the calibration model's disk rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Segments spilled (written) to disk.
    pub spilled_segments: u64,
    /// Encoded bytes written by spills and repairs.
    pub spilled_bytes: u64,
    /// Row reads served from the resident cache.
    pub cache_hits: u64,
    /// Row reads that had to fetch a segment from disk.
    pub cache_misses: u64,
    /// Encoded bytes read from disk (misses + prefetch).
    pub read_bytes: u64,
    /// Sequential prefetches issued.
    pub prefetches: u64,
    /// Always 0: prefetch has no IO budget that could deny it. The
    /// field keeps its slot in the GAC1 v3 stats section, which is
    /// positional with an exact field count.
    pub prefetch_denied: u64,
    /// Segments evicted to stay inside the RAM budget.
    pub evictions: u64,
    /// Segments that failed frame validation and were quarantined.
    pub corrupt_segments: u64,
    /// Segments verified by scrub passes.
    pub scrubbed_segments: u64,
    /// Bytes read by scrub passes.
    pub scrub_bytes: u64,
    /// Scrub reads that errored without judging the on-disk bytes.
    pub scrub_errors: u64,
    /// Quarantined/missing segments restored from a good source.
    pub repaired_segments: u64,
    /// Segments lost for good: no disk copy, no resident copy, no
    /// repair source — counted, never papered over.
    pub lost_segments: u64,
    /// Row reads served empty because the segment was unavailable and
    /// no pin existed (the read-path honesty counter).
    pub lost_rows: u64,
    /// IOs slowed by an injected [`faults::FaultMode::Delay`].
    pub slow_ios: u64,
    /// Row reads served from the pinned-in-RAM snapshot after IO
    /// failures or a tripped breaker.
    pub pinned_fallbacks: u64,
    /// Times the consecutive-failure breaker tripped to pinned mode.
    pub breaker_trips: u64,
    /// Segment writes that failed after retries (segment kept resident).
    pub write_failures: u64,
    /// Segment reads that failed after retries (transient IO, not
    /// corruption).
    pub read_failures: u64,
}

impl TierStats {
    /// Fold another stats block into this one (sharded merge).
    pub fn merge(&mut self, o: &TierStats) {
        self.spilled_segments += o.spilled_segments;
        self.spilled_bytes += o.spilled_bytes;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.read_bytes += o.read_bytes;
        self.prefetches += o.prefetches;
        self.prefetch_denied += o.prefetch_denied;
        self.evictions += o.evictions;
        self.corrupt_segments += o.corrupt_segments;
        self.scrubbed_segments += o.scrubbed_segments;
        self.scrub_bytes += o.scrub_bytes;
        self.scrub_errors += o.scrub_errors;
        self.repaired_segments += o.repaired_segments;
        self.lost_segments += o.lost_segments;
        self.lost_rows += o.lost_rows;
        self.slow_ios += o.slow_ios;
        self.pinned_fallbacks += o.pinned_fallbacks;
        self.breaker_trips += o.breaker_trips;
        self.write_failures += o.write_failures;
        self.read_failures += o.read_failures;
    }

    /// Total disk bytes this tier moved (spill, demand/prefetch reads,
    /// scrub) — the quantity the calibration model prices as disk
    /// demand.
    pub fn disk_bytes(&self) -> u64 {
        self.spilled_bytes + self.read_bytes + self.scrub_bytes
    }
}

/// Report of one [`TieredCsr::scrub`] pass.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Segments whose frames validated.
    pub clean: u64,
    /// Bytes read and checksummed.
    pub bytes: u64,
    /// Segments found corrupt and quarantined.
    pub corrupt: Vec<SegmentId>,
    /// Segments already missing from disk (quarantined earlier or
    /// never spilled).
    pub missing: Vec<SegmentId>,
    /// Scrub reads that errored (device trouble, not a verdict on the
    /// bytes — the segment stays live).
    pub errors: u64,
}

/// Report of one [`TieredCsr::repair_from`] pass.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Segments rewritten from a good source.
    pub repaired: Vec<SegmentId>,
    /// Segments with no source left — honest refusal, counted in
    /// [`TierStats::lost_segments`].
    pub unrepairable: Vec<SegmentId>,
    /// Encoded bytes rewritten.
    pub bytes: u64,
}

// ---------------------------------------------------------------------
// TieredCsr: the budgeted page-cache tier.
// ---------------------------------------------------------------------

struct TierState {
    resident: HashMap<SegmentId, ResidentSeg>,
    resident_bytes: u64,
    clock: u64,
    /// Open = pinned-in-RAM operation.
    breaker: CircuitBreaker,
    quarantined: Vec<SegmentId>,
    stats: TierStats,
}

impl TierState {
    /// Feed one exhausted-retry IO failure to the breaker.
    fn io_failed(&mut self) {
        if self.breaker.record_failure() {
            self.stats.breaker_trips += 1;
        }
    }

    /// Count segment `id` as found corrupt and quarantined.
    fn found_corrupt(&mut self, id: SegmentId) {
        self.stats.corrupt_segments += 1;
        self.quarantined.push(id);
    }

    /// Make `seg` resident as `id`, stamped most recently used.
    fn admit(&mut self, id: SegmentId, mut seg: ResidentSeg) {
        self.clock += 1;
        seg.last_used = self.clock;
        self.resident_bytes += seg.bytes;
        self.resident.insert(id, seg);
    }
}

/// An [`Adjacency`] served from CRC-framed disk segments behind a
/// RAM-budgeted page cache. See the module docs for the full contract;
/// the short version: rows decode bit-identical to the source CSR,
/// corruption is detected and quarantined rather than decoded, repair
/// restores from a source of truth or refuses honestly, and a device
/// that keeps failing trips a breaker into pinned-in-RAM operation.
pub struct TieredCsr {
    store: SegmentStore,
    config: TierConfig,
    num_vertices: usize,
    num_edges: usize,
    weighted: bool,
    has_reverse: bool,
    /// Per-vertex out-degrees and, when the source has a reverse index,
    /// in-degrees (the RAM-resident index), indexed by [`SegmentKind`].
    degrees: [Vec<u32>; 2],
    /// Segments of each kind, indexed by [`SegmentKind`].
    num_segs: [usize; 2],
    /// Pinned-in-RAM fallback (see [`TierConfig::keep_pin`]).
    pin: Option<Arc<CsrGraph>>,
    state: Mutex<TierState>,
}

impl std::fmt::Debug for TieredCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredCsr")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.num_edges)
            .field("segments", &self.num_segs.iter().sum::<usize>())
            .field("dir", &self.config.dir)
            .finish()
    }
}

impl TieredCsr {
    /// Spill `snap` into segments under `config.dir` and return the
    /// tier over them. The cache starts cold (nothing resident). A
    /// segment whose write keeps failing after retries stays resident
    /// and non-evictable — the rows are never abandoned to a disk that
    /// did not accept them — and counts toward the breaker.
    pub fn spill(snap: &Arc<CsrGraph>, mut config: TierConfig) -> io::Result<TieredCsr> {
        let store = SegmentStore::open(&config.dir)?;
        for kind in SegmentKind::ALL {
            store.clear(kind)?;
        }
        config.segment_rows = config.segment_rows.max(1);
        let n = snap.num_vertices();
        let num_fwd_segs = n.div_ceil(config.segment_rows);
        let in_degrees = if snap.has_reverse() {
            (0..n)
                .map(|v| snap.in_degree(v as VertexId) as u32)
                .collect()
        } else {
            Vec::new()
        };
        let tier = TieredCsr {
            store,
            num_vertices: n,
            num_edges: snap.num_edges(),
            weighted: snap.is_weighted(),
            has_reverse: snap.has_reverse(),
            degrees: [
                (0..n).map(|v| snap.degree(v as VertexId) as u32).collect(),
                in_degrees,
            ],
            num_segs: [
                num_fwd_segs,
                if snap.has_reverse() { num_fwd_segs } else { 0 },
            ],
            pin: config.keep_pin.then(|| Arc::clone(snap)),
            config,
            state: Mutex::new(TierState {
                resident: HashMap::new(),
                resident_bytes: 0,
                clock: 0,
                breaker: CircuitBreaker::new(BREAKER_THRESHOLD),
                quarantined: Vec::new(),
                stats: TierStats::default(),
            }),
        };
        for id in tier.segments() {
            tier.spill_one(snap, id);
        }
        Ok(tier)
    }

    /// Every segment this tier owns: the forward rows', then the
    /// reverse rows'.
    fn segments(&self) -> impl Iterator<Item = SegmentId> + '_ {
        SegmentKind::ALL.into_iter().flat_map(move |kind| {
            (0..self.num_segs[kind as usize] as u64).map(move |seg| (kind, seg))
        })
    }

    fn seg_range(&self, seg: u64) -> (VertexId, u32) {
        let start = seg as usize * self.config.segment_rows;
        let count = self.config.segment_rows.min(self.num_vertices - start);
        (start as VertexId, count as u32)
    }

    /// Encode segment `id`'s rows as `csr` holds them.
    fn payload_from(&self, csr: &CsrGraph, (kind, seg): SegmentId) -> Vec<u8> {
        let (start, count) = self.seg_range(seg);
        let weighted = kind == SegmentKind::Rows && csr.is_weighted();
        encode_rows_payload(start, count, weighted, |v| kind.row_of(csr, v))
    }

    /// One segment write through the one retry loop.
    fn write_retrying(&self, (kind, seg): SegmentId, payload: &[u8]) -> io::Result<IoOutcome> {
        let write = |_: &mut ()| self.store.write(kind, seg, payload);
        IO_RETRY.run(&mut (), write, |_| Ok(())).0
    }

    /// Spill one segment. On persistent failure the segment is kept
    /// resident (non-evictable) instead of lost.
    fn spill_one(&self, snap: &CsrGraph, id: SegmentId) {
        let payload = self.payload_from(snap, id);
        let written = self.write_retrying(id, &payload);
        let mut state = self.state.lock().unwrap();
        match written {
            Ok(out) => {
                state.stats.spilled_segments += 1;
                state.stats.spilled_bytes += out.bytes;
                state.stats.slow_ios += u64::from(out.slowed);
                state.breaker.record_success();
            }
            Err(_) => {
                // Keep the rows resident; a disk that refused the
                // write does not get to own the only copy.
                state.stats.write_failures += 1;
                state.io_failed();
                let mut decoded = decode_rows_payload(&payload, self.seg_range(id.1))
                    .expect("freshly encoded payload must decode");
                decoded.no_disk_copy = true;
                state.admit(id, decoded);
            }
        }
    }

    /// Number of vertices per segment.
    pub fn segment_rows(&self) -> usize {
        self.config.segment_rows
    }

    /// Decoded bytes currently resident in the page cache.
    pub fn resident_bytes(&self) -> u64 {
        self.state.lock().unwrap().resident_bytes
    }

    /// The configured resident RAM budget.
    pub fn ram_budget_bytes(&self) -> u64 {
        self.config.ram_budget_bytes
    }

    /// Decoded bytes of the full row working set (what 100% RAM would
    /// hold): the basis benchmarks size their budgets against.
    pub fn working_set_bytes(&self) -> u64 {
        let m = self.num_edges as u64;
        let fwd = m * 4
            + (self.num_vertices as u64 + self.num_segs[SegmentKind::Rows as usize] as u64) * 8;
        let w = if self.weighted { m * 4 } else { 0 };
        let rev = if self.has_reverse { fwd } else { 0 };
        fwd + w + rev
    }

    /// True once the breaker has tripped to pinned-in-RAM operation.
    pub fn pinned_mode(&self) -> bool {
        self.state.lock().unwrap().breaker.is_open()
    }

    /// Currently quarantined segments (cleared by repair).
    pub fn quarantined(&self) -> Vec<SegmentId> {
        self.state.lock().unwrap().quarantined.clone()
    }

    /// Counters so far (cumulative; see [`TieredCsr::take_stats`]).
    pub fn stats(&self) -> TierStats {
        self.state.lock().unwrap().stats
    }

    /// Drain the counters (the flow folds them into `FlowStats` after
    /// each batch).
    pub fn take_stats(&self) -> TierStats {
        std::mem::take(&mut self.state.lock().unwrap().stats)
    }

    fn seg_of(&self, v: VertexId) -> u64 {
        (v as usize / self.config.segment_rows) as u64
    }

    /// Fetch a segment into the cache (caller holds the lock via
    /// `state`). Returns false when the segment could not be fetched.
    fn fetch_locked(&self, state: &mut TierState, id: SegmentId) -> bool {
        let (kind, seg) = id;
        // Only a failed IO is retried; a verdict on the bytes (corrupt,
        // missing) is final the first time.
        let read = |_: &mut ()| match self.store.read(kind, seg) {
            Err(SegmentReadError::Io(e)) => Err(e),
            verdict => Ok(verdict),
        };
        match IO_RETRY.run(&mut (), read, |_| Ok(())).0 {
            Ok(Ok((payload, out))) => {
                state.stats.read_bytes += out.bytes;
                state.stats.slow_ios += u64::from(out.slowed);
                state.breaker.record_success();
                let Ok(decoded) = decode_rows_payload(&payload, self.seg_range(seg)) else {
                    // Frame CRC passed but the payload lied — treat as
                    // corrupt, same as the store would.
                    let _ = self.store.quarantine(kind, seg);
                    state.found_corrupt(id);
                    return false;
                };
                state.admit(id, decoded);
                self.evict_over_budget(state, id);
                true
            }
            Ok(Err(SegmentReadError::Corrupt(_))) => {
                state.found_corrupt(id);
                false
            }
            // Missing: repair's job, not a device failure.
            Ok(Err(_)) => false,
            Err(_) => {
                state.stats.read_failures += 1;
                state.io_failed();
                false
            }
        }
    }

    /// Evict least-recently-used segments until resident bytes fit the
    /// budget. The just-inserted segment and segments without a disk
    /// copy are exempt (evicting either would break correctness).
    fn evict_over_budget(&self, state: &mut TierState, keep: SegmentId) {
        while state.resident_bytes > self.config.ram_budget_bytes {
            let victim = state
                .resident
                .iter()
                .filter(|(k, s)| **k != keep && !s.no_disk_copy)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    let seg = state.resident.remove(&k).unwrap();
                    state.resident_bytes -= seg.bytes;
                    state.stats.evictions += 1;
                }
                None => break, // nothing evictable: tolerate overage
            }
        }
    }

    /// Issue a sequential prefetch of the segment after `(kind, seg)`,
    /// which a demand miss just fetched.
    fn maybe_prefetch(&self, state: &mut TierState, (kind, seg): SegmentId) {
        let next = (kind, seg + 1);
        if state.breaker.is_open()
            || next.1 >= self.num_segs[kind as usize] as u64
            || state.resident.contains_key(&next)
        {
            return;
        }
        if self.fetch_locked(state, next) {
            state.stats.prefetches += 1;
        }
    }

    /// Run `f` on row `v` of direction `kind`: `(targets, weights)`.
    /// Falls back to the pin in pinned mode or when the segment cannot
    /// be fetched, and to an empty row — with `lost_rows` counted —
    /// when no pin exists.
    fn with_row<R>(
        &self,
        v: VertexId,
        kind: SegmentKind,
        f: impl FnOnce(&[VertexId], Option<&[Weight]>) -> R,
    ) -> R {
        let id = (kind, self.seg_of(v));
        let mut state = self.state.lock().unwrap();
        let mut missed = false;
        let cached = if state.breaker.is_open() && self.pin.is_some() {
            false
        } else if state.resident.contains_key(&id) {
            state.stats.cache_hits += 1;
            true
        } else {
            state.stats.cache_misses += 1;
            missed = true;
            self.fetch_locked(&mut state, id)
        };
        if !cached {
            // Pinned mode, or the segment is unfetchable (IO failure,
            // corrupt, or missing): serve from the pin when we have
            // one, else count the loss.
            return match &self.pin {
                Some(pin) => {
                    state.stats.pinned_fallbacks += 1;
                    let (targets, weights) = kind.row_of(pin, v);
                    f(targets, weights)
                }
                None => {
                    state.stats.lost_rows += 1;
                    f(&[], None)
                }
            };
        }
        state.clock += 1;
        let clock = state.clock;
        let resident = state.resident.get_mut(&id).unwrap();
        resident.last_used = clock;
        let (targets, weights) = resident.row(v);
        let out = f(targets, weights);
        if missed {
            // Prefetch only after the row has been served: under a
            // tight budget the speculative segment may evict this one.
            self.maybe_prefetch(&mut state, id);
        }
        out
    }

    /// Scrub every segment this tier owns: validate frames on disk,
    /// quarantine corruption, report missing files. Scrub never
    /// decodes a corrupt frame into served data — the failure mode is
    /// quarantine + repair, not a wrong answer.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut state = self.state.lock().unwrap();
        for id @ (kind, seg) in self.segments() {
            match self.store.read_at("segment.scrub", kind, seg) {
                Ok((_, out)) => {
                    report.clean += 1;
                    report.bytes += out.bytes;
                    state.stats.scrubbed_segments += 1;
                    state.stats.scrub_bytes += out.bytes;
                    state.stats.slow_ios += u64::from(out.slowed);
                }
                Err(SegmentReadError::Missing) => report.missing.push(id),
                Err(SegmentReadError::Corrupt(_)) => {
                    state.found_corrupt(id);
                    report.corrupt.push(id);
                }
                Err(SegmentReadError::Io(_)) => {
                    // Device error, not a verdict on the bytes: the
                    // segment stays live, the error is counted.
                    state.stats.scrub_errors += 1;
                    report.errors += 1;
                }
            }
        }
        report
    }

    /// Restore every quarantined/missing segment. Source priority: the
    /// resident in-RAM copy (still good), then `source` (the
    /// checkpoint+WAL-recovered graph the flow hands in, or a replica
    /// reconstruction in the sharded fleet), then the pin. With none of
    /// them, the segment is reported unrepairable and counted lost —
    /// never fabricated.
    pub fn repair_from(&self, source: Option<&CsrGraph>) -> RepairReport {
        let mut report = RepairReport::default();
        let mut state = self.state.lock().unwrap();
        for id @ (kind, seg) in self.segments() {
            if self.store.segment_path(kind, seg).exists() {
                continue;
            }
            let payload = match (state.resident.get(&id), source.or(self.pin.as_deref())) {
                (Some(res), _) => res.payload(),
                (None, Some(src)) => self.payload_from(src, id),
                (None, None) => {
                    state.stats.lost_segments += 1;
                    report.unrepairable.push(id);
                    continue;
                }
            };
            match self.write_retrying(id, &payload) {
                Ok(out) => {
                    state.stats.repaired_segments += 1;
                    state.stats.spilled_bytes += out.bytes;
                    state.stats.slow_ios += u64::from(out.slowed);
                    report.repaired.push(id);
                    report.bytes += out.bytes;
                    // The rewritten copy is good again: a resident twin
                    // may evict freely.
                    if let Some(res) = state.resident.get_mut(&id) {
                        res.no_disk_copy = false;
                    }
                }
                Err(_) => {
                    state.stats.write_failures += 1;
                    report.unrepairable.push(id);
                }
            }
        }
        state.quarantined.retain(|id| !report.repaired.contains(id));
        report
    }
}

impl Adjacency for TieredCsr {
    type Neighbors<'a> = std::vec::IntoIter<VertexId>;
    type WeightedNeighbors<'a> = std::vec::IntoIter<(VertexId, Weight)>;

    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn degree(&self, v: VertexId) -> usize {
        self.degrees[SegmentKind::Rows as usize][v as usize] as usize
    }

    fn neighbors(&self, v: VertexId) -> Self::Neighbors<'_> {
        self.with_row(v, SegmentKind::Rows, |t, _| t.to_vec())
            .into_iter()
    }

    fn weighted_neighbors(&self, v: VertexId) -> Self::WeightedNeighbors<'_> {
        self.with_row(v, SegmentKind::Rows, |t, w| match w {
            Some(w) => t.iter().copied().zip(w.iter().copied()).collect::<Vec<_>>(),
            None => t.iter().map(|&x| (x, 1.0)).collect(),
        })
        .into_iter()
    }

    fn is_weighted(&self) -> bool {
        self.weighted
    }

    fn has_reverse(&self) -> bool {
        self.has_reverse
    }

    fn in_degree(&self, v: VertexId) -> usize {
        assert!(self.has_reverse, "no reverse index");
        self.degrees[SegmentKind::RevRows as usize][v as usize] as usize
    }

    fn in_neighbors(&self, v: VertexId) -> Self::Neighbors<'_> {
        assert!(self.has_reverse, "no reverse index");
        self.with_row(v, SegmentKind::RevRows, |t, _| t.to_vec())
            .into_iter()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::faults::FaultMode;
    use crate::gen;
    use std::sync::Mutex as StdMutex;

    // The fault registry is process-global: every test in the crate that
    // spills or reads segments holds this lock, so a fault armed by one
    // test never fires in another.
    pub(crate) static LOCK: StdMutex<()> = StdMutex::new(());

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ga-tier-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_graph() -> Arc<CsrGraph> {
        let edges = gen::rmat(8, 8 << 8, gen::RmatParams::GRAPH500, 7);
        Arc::new(CsrGraph::from_edges(1 << 8, &edges))
    }

    #[test]
    fn segment_codec_round_trips() {
        let payload = vec![7u8; 1000];
        let frame = encode_segment(SegmentKind::Rows, 42, &payload);
        let (kind, id, got) = decode_segment(&frame).unwrap();
        assert_eq!((kind, id), (SegmentKind::Rows, 42));
        assert_eq!(got, payload);
    }

    #[test]
    fn segment_codec_detects_bit_flips_and_truncation() {
        let frame = encode_segment(SegmentKind::RevRows, 3, b"hello segment");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(decode_segment(&bad).is_err(), "flip at byte {i} undetected");
        }
        for cut in 0..frame.len() {
            assert!(
                decode_segment(&frame[..cut]).is_err(),
                "cut at {cut} undetected"
            );
        }
    }

    #[test]
    fn tiered_rows_match_source_and_respect_budget() {
        let _g = LOCK.lock().unwrap();
        let snap = sample_graph();
        let cfg = TierConfig::new(tmpdir("rows"))
            .segment_rows(32)
            .ram_budget(4 << 10)
            .keep_pin(false);
        let tier = TieredCsr::spill(&snap, cfg).unwrap();
        for v in snap.vertices() {
            let got: Vec<VertexId> = Adjacency::neighbors(&tier, v).collect();
            assert_eq!(got, snap.neighbors(v), "row {v}");
            assert!(tier.resident_bytes() <= tier.ram_budget_bytes());
        }
        let s = tier.stats();
        assert!(s.cache_misses > 0 && s.evictions > 0);
        assert_eq!(s.lost_rows, 0);
        let _ = fs::remove_dir_all(tier.store.dir());
    }

    #[test]
    fn scrub_detects_corruption_and_repair_restores() {
        let _g = LOCK.lock().unwrap();
        let snap = sample_graph();
        let dir = tmpdir("scrub");
        let cfg = TierConfig::new(&dir).segment_rows(64).keep_pin(false);
        let tier = TieredCsr::spill(&snap, cfg).unwrap();
        // Rot one byte in segment 1 on disk.
        let path = tier.store.segment_path(SegmentKind::Rows, 1);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let report = tier.scrub();
        assert_eq!(report.corrupt, vec![(SegmentKind::Rows, 1)]);
        assert_eq!(tier.quarantined(), vec![(SegmentKind::Rows, 1)]);
        // Repair from the source graph; rows come back bit-identical.
        let rep = tier.repair_from(Some(&snap));
        assert_eq!(rep.repaired, vec![(SegmentKind::Rows, 1)]);
        assert!(rep.unrepairable.is_empty());
        assert!(tier.quarantined().is_empty());
        for v in snap.vertices() {
            let got: Vec<VertexId> = Adjacency::neighbors(&tier, v).collect();
            assert_eq!(got, snap.neighbors(v));
        }
        assert_eq!(tier.scrub().corrupt, vec![]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_without_source_refuses_and_counts_loss() {
        let _g = LOCK.lock().unwrap();
        let snap = sample_graph();
        let dir = tmpdir("refuse");
        let cfg = TierConfig::new(&dir).segment_rows(64).keep_pin(false);
        let tier = TieredCsr::spill(&snap, cfg).unwrap();
        fs::remove_file(tier.store.segment_path(SegmentKind::Rows, 0)).unwrap();
        let rep = tier.repair_from(None);
        assert_eq!(rep.unrepairable, vec![(SegmentKind::Rows, 0)]);
        assert!(rep.repaired.is_empty());
        assert_eq!(tier.stats().lost_segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_faults_fall_back_to_pin_and_trip_breaker() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let snap = sample_graph();
        let dir = tmpdir("breaker");
        let tier = TieredCsr::spill(&snap, TierConfig::new(&dir).segment_rows(64)).unwrap();
        faults::arm("segment.read", FaultMode::FailEveryNth(1));
        for v in snap.vertices() {
            let got: Vec<VertexId> = Adjacency::neighbors(&tier, v).collect();
            assert_eq!(got, snap.neighbors(v), "pinned fallback must stay exact");
        }
        let fired = faults::fired_count("segment.read");
        faults::clear_all();
        let s = tier.stats();
        // Every fetch spends the whole retry budget, and the breaker
        // opens on the BREAKER_THRESHOLD-th consecutive exhausted fetch —
        // after which no read reaches the device at all.
        assert_eq!(s.read_failures, u64::from(BREAKER_THRESHOLD));
        assert_eq!(
            fired,
            u64::from(BREAKER_THRESHOLD) * u64::from(IO_RETRY.max_retries + 1)
        );
        assert_eq!(s.pinned_fallbacks, snap.num_vertices() as u64);
        assert_eq!(s.breaker_trips, 1);
        assert!(tier.pinned_mode());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delayed_io_is_counted_not_failed() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let snap = sample_graph();
        let dir = tmpdir("delay");
        faults::arm("segment.write", FaultMode::Delay(0));
        let cfg = TierConfig::new(&dir).segment_rows(64).keep_pin(false);
        let tier = TieredCsr::spill(&snap, cfg).unwrap();
        faults::clear_all();
        let s = tier.stats();
        assert_eq!(s.slow_ios, s.spilled_segments);
        assert_eq!(s.write_failures, 0);
        for v in snap.vertices() {
            let got: Vec<VertexId> = Adjacency::neighbors(&tier, v).collect();
            assert_eq!(got, snap.neighbors(v));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_segment_rows_is_taken_as_one() {
        let _g = LOCK.lock().unwrap();
        let dir = tmpdir("zero-rows");
        let snap = Arc::new(CsrGraph::from_edges(4, &gen::path(4)));
        let cfg = TierConfig {
            segment_rows: 0,
            ..TierConfig::new(&dir).keep_pin(false)
        };
        let tier = TieredCsr::spill(&snap, cfg).unwrap();
        for v in snap.vertices() {
            let got: Vec<VertexId> = Adjacency::neighbors(&tier, v).collect();
            assert_eq!(got, snap.neighbors(v), "row {v}");
        }
        assert_eq!(tier.segment_rows(), 1);
        assert_eq!(tier.stats().spilled_segments, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_payload_naming_other_rows_is_quarantined_not_served() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let snap = sample_graph();
        let dir = tmpdir("misnamed");
        let tier = TieredCsr::spill(&snap, TierConfig::new(&dir).segment_rows(32)).unwrap();
        // A CRC-valid `rows/1` frame whose payload holds rows 0-31.
        let (rows_0_to_31, _) = tier.store.read(SegmentKind::Rows, 0).unwrap();
        tier.store
            .write(SegmentKind::Rows, 1, &rows_0_to_31)
            .unwrap();
        for v in [40, 41, 40] {
            let got: Vec<VertexId> = Adjacency::neighbors(&tier, v).collect();
            assert_eq!(got, snap.neighbors(v), "row {v} through the pin");
        }
        let s = tier.stats();
        assert_eq!(s.corrupt_segments, 1);
        assert_eq!(s.pinned_fallbacks, 3);
        assert_eq!(tier.quarantined(), vec![(SegmentKind::Rows, 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// What one read path made of a segment file: its verdict, and
    /// whether the file was moved to `quarantine/`.
    type Verdict = (&'static str, bool);

    /// Read segment `Rows/1` by a demand read or by a scrub pass.
    fn verdict(tier: &TieredCsr, scrub: bool) -> Verdict {
        let (kind, id) = (SegmentKind::Rows, 1);
        let said = if scrub {
            let report = tier.scrub();
            assert_eq!(report.errors, 0);
            if report.corrupt.contains(&(kind, id)) {
                "corrupt"
            } else if report.missing.contains(&(kind, id)) {
                "missing"
            } else {
                "clean"
            }
        } else {
            match tier.store.read(kind, id) {
                Ok(_) => "clean",
                Err(SegmentReadError::Corrupt(_)) => "corrupt",
                Err(SegmentReadError::Missing) => "missing",
                Err(SegmentReadError::Io(e)) => panic!("no IO fault is armed: {e}"),
            }
        };
        let quarantine = tier.store.quarantine_path(kind, id);
        let moved = quarantine.exists();
        assert!(!(moved && tier.store.segment_path(kind, id).exists()));
        let _ = fs::remove_file(quarantine);
        (said, moved)
    }

    #[test]
    fn read_and_scrub_agree_on_every_frame() {
        let _g = LOCK.lock().unwrap();
        faults::clear_all();
        let snap = sample_graph();
        let dir = tmpdir("agree");
        let cfg = TierConfig::new(&dir).segment_rows(64).keep_pin(false);
        let tier = TieredCsr::spill(&snap, cfg).unwrap();
        let path = tier.store.segment_path(SegmentKind::Rows, 1);
        let good = fs::read(&path).unwrap();
        let other = fs::read(tier.store.segment_path(SegmentKind::Rows, 2)).unwrap();
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x01;
        let cases: [(&str, Option<&[u8]>, Verdict); 5] = [
            ("clean", Some(&good), ("clean", false)),
            ("bit flip", Some(&flipped), ("corrupt", true)),
            (
                "truncation",
                Some(&good[..good.len() - 5]),
                ("corrupt", true),
            ),
            ("another id's frame", Some(&other), ("corrupt", true)),
            ("missing", None, ("missing", false)),
        ];
        for (case, bytes, expect) in cases {
            let mut seen = Vec::new();
            for scrub in [false, true] {
                match bytes {
                    Some(b) => fs::write(&path, b).unwrap(),
                    None => {
                        let _ = fs::remove_file(&path);
                    }
                }
                seen.push(verdict(&tier, scrub));
            }
            assert_eq!(seen, [expect, expect], "{case}: read, then scrub");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
