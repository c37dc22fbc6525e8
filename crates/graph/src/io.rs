//! Graph I/O: the compact binary codecs of checkpoint state, and the
//! one reader every on-disk decoder reads through.
//!
//! [`ByteReader`] is the single home of byte reading in the workspace's
//! five decoders — `GAC1` checkpoints (`ga_core::durability`), the
//! `GAD1`/`GAP1` sections below, `GAS1` tier segments and their row
//! payloads ([`crate::tier`]) and WAL frames (`ga_stream::wal`). It
//! reads every little-endian field, checks every magic and version,
//! bounds every element count (a 2^32 sanity bound first,
//! then what the remaining bytes can hold, so no allocation outgrows
//! its input) and words every error as `InvalidData` with the format's
//! name in front. A decoder fed arbitrary bytes returns a value or that
//! error; it neither panics nor over-allocates.
//!
//! The two checkpoint section codecs here are hand-rolled little-endian
//! formats (no serialization dependency), each `magic + version`-tagged:
//!
//! * `GAD1` — full [`DynamicGraph`] state, every live slot with its
//!   weight and timestamp, so a checkpointed graph restores
//!   bit-identical to the original,
//! * `GAP1` — [`PropertyStore`] columns (u64/f64/string, with presence
//!   masks).
//!
//! [`crc32`] is the shared integrity checksum for the checkpoint files,
//! the tier's segments and the write-ahead log.

use crate::dynamic::EdgeRecord;
use crate::props::{Column, Dense};
use crate::{DynamicGraph, PropertyStore, Timestamp, VertexId};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::io;

const MAGIC_DYNAMIC: &[u8; 4] = b"GAD1";
const MAGIC_PROPS: &[u8; 4] = b"GAP1";

/// Current `GAD1` codec version.
const DYNAMIC_VERSION: u16 = 1;
/// Current `GAP1` codec version.
const PROPS_VERSION: u16 = 1;

/// Upper bound on any element count read from an untrusted header. A
/// corrupt length field must not turn into a multi-terabyte allocation.
const MAX_ELEMS: u64 = 1 << 32;

// ---------------------------------------------------------------------
// CRC32 (IEEE, reflected) — integrity checksum for checkpoints + WAL.
// ---------------------------------------------------------------------

/// Slicing-by-8 tables: `T[0]` is the byte-wise table and `T[k][i]` is
/// the CRC of byte `i` followed by `k` zero bytes, so one step folds
/// eight input bytes with eight lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 256;
    while i < 8 * 256 {
        let prev = t[i / 256 - 1][i % 256];
        t[i / 256][i % 256] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE 802.3) of `data` — the frame/file checksum used by the
/// WAL and checkpoint formats.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

/// Incremental [`crc32`]: feed chunks as they are produced and finish
/// at the end, without buffering the whole payload. The tier's segment
/// writer checksums header + payload sections as it streams them;
/// `Crc32::new().update(a).update(b).finish()` equals
/// `crc32(&[a, b].concat())` exactly.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher (equivalent to having hashed zero bytes).
    pub fn new() -> Crc32 {
        Crc32 { state: !0u32 }
    }

    /// Absorb one chunk, eight bytes per step.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        let t = &CRC32_TABLES;
        let mut c = self.state;
        let (words, tail) = data.as_chunks::<8>();
        for &w in words {
            let x = u64::from_le_bytes(w) ^ c as u64;
            c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(x >> (8 * k)) as usize & 0xFF]);
        }
        for &b in tail {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
        self
    }

    /// The checksum of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

// ---------------------------------------------------------------------
// ByteReader: the one bounded cursor behind every decoder.
// ---------------------------------------------------------------------

/// An `InvalidData` error worded `"{format}: {what}"`.
pub(crate) fn corrupt(format: &str, what: impl Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{format}: {what}"))
}

/// A cursor over untrusted bytes: every read is bounds-checked, and
/// every failure is an `InvalidData` error prefixed with the format's
/// name. The `what` arguments name the field for the error and are only
/// formatted when a read fails, so `format_args!` costs nothing on the
/// good path.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
    format: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, naming `format` in its errors.
    pub fn new(bytes: &'a [u8], format: &'static str) -> ByteReader<'a> {
        ByteReader {
            rest: bytes,
            format,
        }
    }

    /// An `InvalidData` error in this reader's format.
    pub fn corrupt(&self, what: impl Display) -> io::Error {
        corrupt(self.format, what)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize, what: impl Display) -> io::Result<&'a [u8]> {
        let Some((head, rest)) = self.rest.split_at_checked(n) else {
            return Err(self.corrupt(format_args!("truncated in {what}")));
        };
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, as an array.
    pub fn array<const N: usize>(&mut self, what: impl Display) -> io::Result<[u8; N]> {
        match self.rest.split_first_chunk::<N>() {
            Some((head, rest)) => {
                self.rest = rest;
                Ok(*head)
            }
            None => Err(self.corrupt(format_args!("truncated in {what}"))),
        }
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self, what: impl Display) -> io::Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self, what: impl Display) -> io::Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Check the four-byte magic tag.
    pub fn magic(&mut self, expect: &[u8; 4]) -> io::Result<()> {
        let magic: [u8; 4] = self.array("magic")?;
        if &magic != expect {
            return Err(self.corrupt(format_args!(
                "bad magic {:?} (expected {:?})",
                String::from_utf8_lossy(&magic),
                String::from_utf8_lossy(expect)
            )));
        }
        Ok(())
    }

    /// Check the little-endian `u16` format version.
    pub fn version(&mut self, expect: u16) -> io::Result<()> {
        let v = u16::from_le_bytes(self.array("version")?);
        if v != expect {
            return Err(self.corrupt(format_args!(
                "unsupported version {v} (this build reads version {expect})"
            )));
        }
        Ok(())
    }

    /// Admit an element count read from the input: at most 2^32, and
    /// no more elements of at least `min_elem_bytes` each than the
    /// remaining bytes can hold. A count that passes can size an
    /// allocation.
    pub fn count(&self, n: u64, min_elem_bytes: usize, what: impl Display) -> io::Result<usize> {
        if n > MAX_ELEMS {
            return Err(self.corrupt(format_args!(
                "{what} count {n} exceeds sanity bound {MAX_ELEMS}"
            )));
        }
        if n.saturating_mul(min_elem_bytes as u64) > self.rest.len() as u64 {
            return Err(self.corrupt(format_args!(
                "{what} count {n} needs {min_elem_bytes} bytes each, {} remain",
                self.rest.len()
            )));
        }
        Ok(n as usize)
    }

    /// Refuse trailing bytes: the input must be used up.
    pub fn finish(self) -> io::Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(self.corrupt(format_args!("{n} trailing bytes"))),
        }
    }
}

// ---------------------------------------------------------------------
// GAD1: DynamicGraph checkpoints (live slots + timestamps).
// ---------------------------------------------------------------------

/// Bytes of one `GAD1` slot: dst u32, weight f32, timestamp u64 and the
/// deletion flag.
const SLOT_BYTES: usize = 4 + 4 + 8 + 1;

/// Serialize the *complete* dynamic graph state — every row's live
/// slots in `dst` order, with weights and timestamps — so that
/// `read_dynamic(write_dynamic(g)) == g` holds structurally.
///
/// Each slot ends in a one-byte deletion flag, kept so the layout is
/// unchanged from files whose rows still held deleted slots: this
/// writer always writes 0, and [`read_dynamic`] drops a slot flagged 1.
pub fn write_dynamic(g: &DynamicGraph, out: &mut Vec<u8>) -> io::Result<()> {
    out.reserve(24 + g.num_vertices() * 8 + g.num_live_edges() * SLOT_BYTES);
    out.extend_from_slice(MAGIC_DYNAMIC);
    out.extend_from_slice(&DYNAMIC_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    out.extend_from_slice(&g.last_update().to_le_bytes());
    for v in 0..g.num_vertices() as VertexId {
        let row = g.row_slots(v);
        out.extend_from_slice(&(row.len() as u64).to_le_bytes());
        for rec in row {
            out.extend_from_slice(&rec.dst.to_le_bytes());
            out.extend_from_slice(&rec.weight.to_le_bytes());
            out.extend_from_slice(&rec.timestamp.to_le_bytes());
            out.push(0); // deletion flag
        }
    }
    Ok(())
}

/// Deserialize a dynamic graph written by [`write_dynamic`]. A row out
/// of `dst` order is sorted; a row naming one target twice (flagged or
/// not) is corrupt; a slot whose deletion flag is 1 is dropped, so a
/// file whose rows hold deleted slots loads to its live edges.
pub fn read_dynamic(bytes: &[u8]) -> io::Result<DynamicGraph> {
    let mut r = ByteReader::new(bytes, "GAD1");
    r.magic(MAGIC_DYNAMIC)?;
    r.version(DYNAMIC_VERSION)?;
    let _reserved: [u8; 2] = r.array("header")?;
    let n = r.u64("vertex count")?;
    let n = r.count(n, 8, "vertex")?;
    let last_update: Timestamp = r.u64("last_update")?;
    let mut adj: Vec<Vec<EdgeRecord>> = Vec::with_capacity(n);
    // One row's slots with their deletion flags, reused across rows.
    let mut slots: Vec<(EdgeRecord, bool)> = Vec::new();
    for u in 0..n {
        let len = r.u64(format_args!("row {u} length"))?;
        let len = r.count(len, SLOT_BYTES, format_args!("row {u} slot"))?;
        slots.clear();
        for s in 0..len {
            let dst = r.u32(format_args!("row {u} slot {s}"))?;
            if dst as usize >= n {
                return Err(r.corrupt(format_args!(
                    "row {u} slot {s}: target {dst} out of range (n = {n})"
                )));
            }
            let rec = EdgeRecord {
                dst,
                weight: f32::from_le_bytes(r.array(format_args!("row {u} slot {s} weight"))?),
                timestamp: r.u64(format_args!("row {u} slot {s} timestamp"))?,
            };
            let deleted = match r.array(format_args!("row {u} slot {s} flags"))? {
                [0] => false,
                [1] => true,
                [x] => {
                    return Err(
                        r.corrupt(format_args!("row {u} slot {s}: invalid deletion flag {x}"))
                    )
                }
            };
            slots.push((rec, deleted));
        }
        // Rows are sorted by `dst` in memory; files written before that
        // invariant may hold them in insertion order.
        slots.sort_unstable_by_key(|(r, _)| r.dst);
        if let Some(p) = slots.windows(2).find(|p| p[0].0.dst == p[1].0.dst) {
            return Err(r.corrupt(format_args!("row {u}: repeated target {}", p[0].0.dst)));
        }
        let mut row = Vec::with_capacity(slots.len());
        row.extend(slots.iter().filter(|s| !s.1).map(|s| s.0));
        adj.push(row);
    }
    r.finish()?;
    Ok(DynamicGraph::from_rows(adj, last_update))
}

// ---------------------------------------------------------------------
// GAP1: PropertyStore checkpoints.
// ---------------------------------------------------------------------

const COL_TAG_U64: u8 = 0;
const COL_TAG_F64: u8 = 1;
const COL_TAG_STR: u8 = 2;

/// Write one numeric slot: a presence byte, then the value if present.
fn push_slot<const N: usize>(out: &mut Vec<u8>, value: Option<[u8; N]>) {
    match value {
        Some(bytes) => {
            out.push(1);
            out.extend_from_slice(&bytes);
        }
        None => out.push(0),
    }
}

/// Serialize every property column (names, types, presence masks,
/// values).
pub fn write_props(p: &PropertyStore, out: &mut Vec<u8>) -> io::Result<()> {
    out.extend_from_slice(MAGIC_PROPS);
    out.extend_from_slice(&PROPS_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&(p.num_vertices() as u64).to_le_bytes());
    out.extend_from_slice(&(p.columns.len() as u32).to_le_bytes());
    for (name, col) in &p.columns {
        if name.len() > u16::MAX as usize {
            return Err(corrupt(
                "GAP1",
                format_args!("column name longer than {}", u16::MAX),
            ));
        }
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        match col {
            Column::U64(vals) => {
                out.push(COL_TAG_U64);
                for v in vals.iter() {
                    push_slot(out, v.map(u64::to_le_bytes));
                }
            }
            Column::F64(vals) => {
                out.push(COL_TAG_F64);
                for v in vals.iter() {
                    push_slot(out, v.map(f64::to_le_bytes));
                }
            }
            Column::Str(vals) => {
                out.push(COL_TAG_STR);
                for v in vals {
                    if let Some(s) = v {
                        out.push(1);
                        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        out.extend_from_slice(s.as_bytes());
                    } else {
                        out.push(0);
                    }
                }
            }
        }
    }
    Ok(())
}

/// A `GAP1` slot's presence byte: whether a value of column `name`
/// follows.
fn presence(r: &mut ByteReader, name: &str) -> io::Result<bool> {
    match r.array(format_args!("{name} presence byte"))? {
        [0] => Ok(false),
        [1] => Ok(true),
        [x] => Err(r.corrupt(format_args!("{name}: invalid presence byte {x}"))),
    }
}

/// Deserialize a property store written by [`write_props`].
pub fn read_props(bytes: &[u8]) -> io::Result<PropertyStore> {
    let mut r = ByteReader::new(bytes, "GAP1");
    r.magic(MAGIC_PROPS)?;
    r.version(PROPS_VERSION)?;
    let _reserved: [u8; 2] = r.array("header")?;
    let n = r.u64("vertex count")?;
    // A store may hold vertices and no column: the count alone sizes
    // nothing, and each column's slots are bounded below.
    let n = r.count(n, 0, "vertex")?;
    let ncols = r.u32("column count")?;
    // A column is at least a name length and a type tag.
    let ncols = r.count(ncols.into(), 3, "column")?;
    let mut columns: BTreeMap<String, Column> = BTreeMap::new();
    for c in 0..ncols {
        let name_len = u16::from_le_bytes(r.array(format_args!("column {c} name length"))?);
        let name = std::str::from_utf8(r.bytes(name_len.into(), format_args!("column {c} name"))?)
            .map_err(|_| r.corrupt(format_args!("column {c} name is not UTF-8")))?
            .to_owned();
        let [tag] = r.array(format_args!("column {name:?} type tag"))?;
        // Every slot holds at least its presence byte.
        let slots = r.count(n as u64, 1, format_args!("column {name:?} slot"))?;
        let value = format_args!("column {name:?} value");
        let col = match tag {
            COL_TAG_U64 => {
                let mut vals = Dense::with_capacity(slots);
                for _ in 0..slots {
                    let v = presence(&mut r, &name)?.then(|| r.u64(value)).transpose()?;
                    vals.push(v);
                }
                Column::U64(vals)
            }
            COL_TAG_F64 => {
                let mut vals = Dense::with_capacity(slots);
                for _ in 0..slots {
                    let v = presence(&mut r, &name)?
                        .then(|| r.array(value).map(f64::from_le_bytes))
                        .transpose()?;
                    vals.push(v);
                }
                Column::F64(vals)
            }
            COL_TAG_STR => {
                let mut vals = Vec::with_capacity(slots);
                for _ in 0..slots {
                    let v = match presence(&mut r, &name)? {
                        false => None,
                        true => {
                            let len = r.u32(format_args!("column {name:?} string length"))?;
                            let bytes =
                                r.bytes(len as usize, format_args!("column {name:?} string"))?;
                            let s = std::str::from_utf8(bytes).map_err(|_| {
                                r.corrupt(format_args!("column {name:?} string is not UTF-8"))
                            })?;
                            Some(s.to_owned())
                        }
                    };
                    vals.push(v);
                }
                Column::Str(vals)
            }
            x => return Err(r.corrupt(format_args!("column {name:?}: unknown type tag {x}"))),
        };
        columns.insert(name, col);
    }
    r.finish()?;
    Ok(PropertyStore::from_raw_parts(n, columns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier;

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time definition the sliced loop must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_offset() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 167 + 13) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let chunk = &data[offset..offset + len];
                assert_eq!(
                    crc32(chunk),
                    crc32_bytewise(chunk),
                    "offset {offset} len {len}"
                );
            }
        }
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    #[test]
    fn crc32_incremental_matches_one_shot() {
        assert_eq!(Crc32::new().finish(), crc32(b""));
        let mut h = Crc32::new();
        h.update(b"123").update(b"").update(b"456789");
        assert_eq!(h.finish(), 0xCBF4_3926);
        // Any chunking of any payload agrees with the one-shot hash.
        let data: Vec<u8> = (0..=255u8).cycle().take(1031).collect();
        for split in [0, 1, 7, 512, 1030, 1031] {
            let mut h = Crc32::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split at {split}");
        }
    }

    /// A decoder with its output dropped, so both formats share a type.
    type Decode = fn(&[u8]) -> io::Result<()>;

    /// A valid `GAD1` file and a valid `GAP1` file, each over two
    /// vertices, then a valid `GAS1` tier segment: the three decoders
    /// share the magic and version checks, and the first two the count
    /// check.
    fn gad1_gap1_and_gas1() -> [(Vec<u8>, Decode); 3] {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(0, 1, 1.0, 1);
        let mut gad1 = Vec::new();
        write_dynamic(&g, &mut gad1).unwrap();
        let mut p = PropertyStore::new(2);
        p.set("a", 1, 3u64);
        let mut gap1 = Vec::new();
        write_props(&p, &mut gap1).unwrap();
        let gas1 = tier::encode_segment(tier::SegmentKind::Rows, 0, b"rows");
        [
            (gad1, |b| read_dynamic(b).map(drop)),
            (gap1, |b| read_props(b).map(drop)),
            (gas1, |b| tier::decode_segment(b).map(drop)),
        ]
    }

    #[test]
    fn checkpoint_codecs_reject_bad_magic() {
        for (buf, read) in gad1_gap1_and_gas1() {
            read(&buf).unwrap();
            let format = String::from_utf8_lossy(&buf[..4]).into_owned();
            // A wrong magic includes the other formats'.
            for magic in [b"NOPE", MAGIC_DYNAMIC, MAGIC_PROPS, tier::MAGIC_SEGMENT] {
                if magic[..] == buf[..4] {
                    continue;
                }
                let mut bad = buf.clone();
                bad[..4].copy_from_slice(magic);
                let err = read(&bad).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().starts_with(&format), "{err}");
                assert!(err.to_string().contains("bad magic"), "{err}");
            }
            assert!(read(&buf[..2]).is_err());
        }
    }

    #[test]
    fn checkpoint_codecs_reject_an_unknown_version() {
        for (buf, read) in gad1_gap1_and_gas1() {
            for version in [0u16, 2, 99] {
                let mut bad = buf.clone();
                bad[4..6].copy_from_slice(&version.to_le_bytes());
                let err = read(&bad).unwrap_err();
                assert!(
                    err.to_string()
                        .contains(&format!("unsupported version {version}")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn checkpoint_codecs_reject_an_absurd_vertex_count() {
        // The count sits after magic(4) + version(2) + reserved(2) in
        // both checkpoint formats; it must be refused before any row is
        // sized. A GAS1 segment has no vertex count.
        for (buf, read) in gad1_gap1_and_gas1().into_iter().take(2) {
            for n in [MAX_ELEMS + 1, u64::MAX] {
                let mut huge = buf.clone();
                huge[8..16].copy_from_slice(&n.to_le_bytes());
                let err = read(&huge).unwrap_err();
                assert!(
                    err.to_string()
                        .contains(&format!("vertex count {n} exceeds sanity bound")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn dynamic_round_trip_preserves_rows_and_timestamps() {
        let mut g = DynamicGraph::new(5);
        g.insert_edge(0, 1, 1.5, 10);
        g.insert_edge(0, 2, 2.5, 11);
        g.insert_edge(3, 4, 0.5, 12);
        g.delete_edge(0, 1, 13);
        g.insert_edge(1, 0, 9.0, 14);
        let mut buf = Vec::new();
        write_dynamic(&g, &mut buf).unwrap();
        let g2 = read_dynamic(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.num_live_edges(), 3);
        assert_eq!(g2.last_update(), 14);
        assert_eq!(g2.edge(0, 2).unwrap().timestamp, 11);
        // Header(8) + n(8) + last_update(8), then per row a u64 length
        // and 17-byte slots: three live slots, no deleted one, written.
        assert_eq!(buf.len(), 24 + 5 * 8 + 3 * 17);
    }

    #[test]
    fn dynamic_rejects_truncation_at_every_byte() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(0, 1, 1.0, 1);
        g.delete_edge(0, 1, 2);
        g.insert_edge(2, 0, 3.0, 3);
        let mut buf = Vec::new();
        write_dynamic(&g, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(read_dynamic(&buf[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn dynamic_rejects_bad_target_and_flag() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(0, 1, 1.0, 1);
        let mut buf = Vec::new();
        write_dynamic(&g, &mut buf).unwrap();
        // Record layout after header(8) + n(8) + last_update(8) +
        // row0 len(8): dst u32 | weight f32 | ts u64 | flag u8.
        let rec = 8 + 8 + 8 + 8;
        let mut bad_dst = buf.clone();
        bad_dst[rec..rec + 4].copy_from_slice(&9u32.to_le_bytes());
        assert!(read_dynamic(&bad_dst[..])
            .unwrap_err()
            .to_string()
            .contains("out of range"));
        let mut bad_flag = buf.clone();
        bad_flag[rec + 16] = 7;
        assert!(read_dynamic(&bad_flag[..])
            .unwrap_err()
            .to_string()
            .contains("flag"));
    }

    /// A hand-built `GAD1` file: one row per entry of `rows`, each slot
    /// `(dst, deletion flag)` with weight `dst + 0.5` and timestamp
    /// `dst`. Flag 1 is how files written while rows still kept deleted
    /// slots marked them.
    fn gad1_bytes(rows: &[&[(u32, u8)]]) -> Vec<u8> {
        let mut b = b"GAD1".to_vec();
        b.extend(1u16.to_le_bytes());
        b.extend(0u16.to_le_bytes());
        b.extend((rows.len() as u64).to_le_bytes());
        b.extend(9u64.to_le_bytes());
        for row in rows {
            b.extend((row.len() as u64).to_le_bytes());
            for &(dst, flag) in row.iter() {
                b.extend(dst.to_le_bytes());
                b.extend((dst as f32 + 0.5).to_le_bytes());
                b.extend((dst as u64).to_le_bytes());
                b.push(flag);
            }
        }
        b
    }

    /// The graph holding `edges`, each `(u, v)` inserted with weight
    /// `v + 0.5` and timestamp `v` as [`gad1_bytes`] writes them.
    fn inserted(n: usize, edges: &[(u32, u32)]) -> DynamicGraph {
        let mut g = DynamicGraph::new(n);
        for &(u, v) in edges {
            g.insert_edge(u, v, v as f32 + 0.5, v as u64);
        }
        g
    }

    fn assert_frozen_identical(a: &DynamicGraph, b: &DynamicGraph) {
        let (a, b) = (a.snapshot(), b.snapshot());
        assert_eq!(a.raw_offsets(), b.raw_offsets());
        assert_eq!(a.raw_targets(), b.raw_targets());
        assert_eq!(a.raw_weights(), b.raw_weights());
    }

    #[test]
    fn dynamic_sorts_a_row_written_in_insertion_order() {
        let g = read_dynamic(&gad1_bytes(&[&[(3, 0), (1, 1), (2, 0)], &[], &[], &[]])[..]).unwrap();
        let dsts: Vec<_> = g.row_slots(0).iter().map(|r| r.dst).collect();
        assert_eq!(dsts, [2, 3]);
        assert_eq!(g.edge(0, 3).unwrap().weight, 3.5);
        assert_eq!(g.num_live_edges(), 2);
        assert_frozen_identical(&g, &inserted(4, &[(0, 2), (0, 3)]));
    }

    #[test]
    fn dynamic_drops_the_deleted_slots_of_an_older_file() {
        // Rows as a writer that kept deleted slots in place left them:
        // sorted, with flagged slots between and around the live ones,
        // and one row that holds nothing live.
        let bytes = gad1_bytes(&[
            &[(1, 1), (2, 0), (4, 1), (5, 0)],
            &[(0, 1)],
            &[(0, 0), (3, 1)],
            &[],
            &[(1, 0), (2, 1), (3, 0)],
            &[],
        ]);
        let g = read_dynamic(&bytes[..]).unwrap();
        let want = inserted(6, &[(0, 2), (0, 5), (2, 0), (4, 1), (4, 3)]);
        let rows = |g: &DynamicGraph| -> Vec<Vec<EdgeRecord>> {
            (0..6).map(|v| g.row_slots(v).to_vec()).collect()
        };
        assert_eq!(rows(&g), rows(&want), "only the live slots load");
        assert_eq!(g.num_live_edges(), 5);
        assert_eq!(g.last_update(), 9);
        assert_frozen_identical(&g, &want);
        // Written again, the file holds only those live slots.
        let mut again = Vec::new();
        write_dynamic(&g, &mut again).unwrap();
        assert_eq!(again.len(), 24 + 6 * 8 + 5 * 17);
        assert_eq!(read_dynamic(&again[..]).unwrap(), g);
    }

    #[test]
    fn dynamic_rejects_a_flag_above_one() {
        let bytes = gad1_bytes(&[&[], &[(0, 1), (2, 7)], &[]]);
        let err = read_dynamic(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("row 1 slot 1: invalid deletion flag 7"),
            "{err}"
        );
    }

    #[test]
    fn dynamic_rejects_a_repeated_target() {
        // A flagged slot counts: dropping it must not hide the repeat.
        let bytes = gad1_bytes(&[&[], &[(2, 0), (0, 1), (2, 1)], &[]]);
        let err = read_dynamic(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("row 1: repeated target 2"),
            "{err}"
        );
    }

    #[test]
    fn props_round_trip_all_types() {
        let mut p = PropertyStore::new(4);
        p.set("deg", 0, 7u64);
        p.set("deg", 3, 9u64);
        p.set("rank", 1, 0.25);
        p.set("label", 2, "hub");
        let mut buf = Vec::new();
        write_props(&p, &mut buf).unwrap();
        let p2 = read_props(&buf[..]).unwrap();
        assert_eq!(p, p2);
        assert_eq!(p2.get_f64("deg", 3), Some(9.0));
        assert_eq!(
            p2.get("label", 2),
            Some(crate::PropValue::Str("hub".into()))
        );
        assert_eq!(p2.get("rank", 0), None);
    }

    #[test]
    fn props_rejects_truncation_at_every_byte() {
        let mut p = PropertyStore::new(3);
        p.set("a", 0, 1u64);
        p.set("b", 1, 2.0);
        p.set("c", 2, "x");
        let mut buf = Vec::new();
        write_props(&p, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(read_props(&buf[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn props_rejects_unknown_tag_and_bad_presence() {
        let mut p = PropertyStore::new(1);
        p.set("a", 0, 1u64);
        let mut buf = Vec::new();
        write_props(&p, &mut buf).unwrap();
        // header(8) + n(8) + ncols(4) + name len(2) + "a"(1) => tag at 23.
        let mut bad_tag = buf.clone();
        bad_tag[23] = 42;
        assert!(read_props(&bad_tag[..])
            .unwrap_err()
            .to_string()
            .contains("type tag"));
        let mut bad_presence = buf.clone();
        bad_presence[24] = 3;
        assert!(read_props(&bad_presence[..])
            .unwrap_err()
            .to_string()
            .contains("presence"));
    }

    /// Slot `i` of the hand-written GAP1 image: `deg` (u64), `label`
    /// (str) and `rank` (f64), each with gaps.
    fn gap1_slot(i: u32) -> (Option<u64>, Option<String>, Option<f64>) {
        let deg = i
            .is_multiple_of(3)
            .then(|| if i == 69 { u64::MAX } else { i as u64 * 1000 });
        let label = (i % 5 == 1).then(|| format!("v{i}"));
        let rank = i.is_multiple_of(2).then(|| match i {
            0 => -0.0,
            2 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            _ => (i as f64 - 30.0) / 4.0,
        });
        (deg, label, rank)
    }

    /// The [`gap1_slot`] image of 70 vertices (past one 64-slot presence
    /// word) written byte by byte, with the offset of each column's
    /// first presence byte. Columns come in name order, as
    /// `write_props` writes them.
    fn gap1_bytes() -> (Vec<u8>, Vec<usize>) {
        const N: u32 = 70;
        let mut b = b"GAP1".to_vec();
        b.extend(1u16.to_le_bytes());
        b.extend(0u16.to_le_bytes());
        b.extend((N as u64).to_le_bytes());
        b.extend(3u32.to_le_bytes());
        let mut firsts = Vec::new();
        let value = |c: usize, i: u32| -> Option<Vec<u8>> {
            let (deg, label, rank) = gap1_slot(i);
            match c {
                0 => deg.map(|x| x.to_le_bytes().to_vec()),
                1 => label.map(|s| [&(s.len() as u32).to_le_bytes()[..], s.as_bytes()].concat()),
                _ => rank.map(|x| x.to_le_bytes().to_vec()),
            }
        };
        // Type tags: 0 u64, 1 f64, 2 str.
        for (c, (name, tag)) in [("deg", 0u8), ("label", 2), ("rank", 1)]
            .into_iter()
            .enumerate()
        {
            b.extend((name.len() as u16).to_le_bytes());
            b.extend(name.as_bytes());
            b.push(tag);
            firsts.push(b.len());
            for i in 0..N {
                match value(c, i) {
                    Some(bytes) => {
                        b.push(1);
                        b.extend(bytes);
                    }
                    None => b.push(0),
                }
            }
        }
        (b, firsts)
    }

    #[test]
    fn props_hand_written_bytes_load_and_re_encode_identically() {
        let (bytes, firsts) = gap1_bytes();
        let p = read_props(&bytes[..]).unwrap();
        let mut want = PropertyStore::new(70);
        for i in 0..70 {
            let (deg, label, rank) = gap1_slot(i);
            if let Some(x) = deg {
                want.set("deg", i, x);
            }
            if let Some(x) = label {
                want.set("label", i, x);
            }
            if let Some(x) = rank {
                want.set("rank", i, x);
            }
        }
        assert_eq!(p, want);
        assert_eq!(p.column_count("deg"), 24);
        assert_eq!(p.get("deg", 1), None);
        assert_eq!(
            p.get_f64("rank", 0).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        let mut again = Vec::new();
        write_props(&p, &mut again).unwrap();
        assert_eq!(again, bytes);
        let mut again = Vec::new();
        write_props(&want, &mut again).unwrap();
        assert_eq!(again, bytes);

        for (name, at) in ["deg", "label", "rank"].into_iter().zip(firsts) {
            for byte in [2, 255] {
                let mut bad = bytes.clone();
                bad[at] = byte;
                let err = read_props(&bad[..]).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert_eq!(
                    err.to_string(),
                    format!("GAP1: {name}: invalid presence byte {byte}")
                );
            }
        }
    }
}
