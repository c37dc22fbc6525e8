//! Epoch-based snapshot handoff: the publication side of the
//! concurrent read path.
//!
//! The Fig. 2 flow already freezes the dynamic graph into immutable
//! `Arc<CsrGraph>` snapshots (PR 3's cache). This module turns those
//! snapshots into a *served product*: the ingest thread bundles one
//! frozen CSR, its optional compressed twin, and a frozen property
//! store into an [`EpochSnapshot`] stamped with the cache's monotonic
//! [`SnapshotEpoch`], then [`SnapshotHandle::publish`]es it. Unbounded
//! concurrent reader threads hold a [`SnapshotReader`] each: the
//! steady-state read is **one atomic load** (wait-free — no lock, no
//! CAS loop, no allocation); only when the publisher has moved does the
//! reader take a brief shared lock to re-clone the `Arc`.
//!
//! Consistency is structural: an [`EpochSnapshot`] is built whole by
//! the single-writer ingest thread *before* publication and never
//! mutated after, so a reader can observe either the old generation or
//! the new one — never a torn mix. Epochs are monotonic by
//! construction ([`SnapshotHandle::publish`] refuses to go backwards),
//! which the proptest suite in `tests/serve_props.rs` pins.

use ga_graph::{CompressedCsr, CsrGraph, PropertyStore, SnapshotEpoch, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One published, immutable generation of the served graph: a frozen
/// CSR (plus optional compressed twin) and the property store that was
/// current when it froze, all under one [`SnapshotEpoch`] stamp.
///
/// Everything inside is behind an `Arc` and never mutated after
/// construction, so the whole bundle is `Send + Sync` and arbitrarily
/// shareable across reader threads.
#[derive(Clone, Debug)]
pub struct EpochSnapshot {
    /// The snapshot cache's generation stamp (monotonic `epoch` +
    /// the `DynamicGraph` version it reflects).
    pub stamp: SnapshotEpoch,
    /// [`PropertyStore::version`] at publish time — pairs the frozen
    /// columns with the frozen adjacency.
    pub props_version: u64,
    /// Stream time (last batch timestamp) at publish.
    pub time: Timestamp,
    /// The frozen adjacency.
    pub csr: Arc<CsrGraph>,
    /// Delta-varint twin of `csr`, if the publisher built one. The flow
    /// engine publishes `None`; a caller that wants the compressed form
    /// builds it from `csr` with [`CompressedCsr::from_csr`].
    pub compressed: Option<Arc<CompressedCsr>>,
    /// Frozen property columns consistent with `csr`.
    pub props: Arc<PropertyStore>,
}

/// Publisher/reader state shared by every clone of a handle.
#[derive(Debug)]
struct Shared {
    /// Publication sequence number: bumped (Release) on every install,
    /// read (Acquire) by the wait-free reader fast path. 0 = nothing
    /// published yet.
    seq: AtomicU64,
    /// The current generation. Writers hold the lock only for the
    /// pointer swap; readers only to re-clone the `Arc` after `seq`
    /// moved.
    slot: RwLock<Option<Arc<EpochSnapshot>>>,
}

/// The atomically-published snapshot slot: one writer (the ingest /
/// pump thread), unbounded readers.
///
/// Clone the handle freely — clones share the slot. Each reader thread
/// should call [`Self::reader`] once and reuse the returned
/// [`SnapshotReader`], whose steady-state load is a single atomic read.
///
/// ```
/// use ga_stream::epoch::{EpochSnapshot, SnapshotHandle};
/// use ga_graph::{CsrBuilder, PropertyStore, SnapshotEpoch};
/// use std::sync::Arc;
///
/// let handle = SnapshotHandle::new();
/// let mut reader = handle.reader();
/// assert!(reader.snapshot().is_none(), "nothing published yet");
///
/// let csr = CsrBuilder::new(2).edges([(0, 1)]).build();
/// handle.publish(EpochSnapshot {
///     stamp: SnapshotEpoch { epoch: 1, graph_version: 1 },
///     props_version: 0,
///     time: 0,
///     csr: Arc::new(csr),
///     compressed: None,
///     props: Arc::new(PropertyStore::new(2)),
/// });
/// let snap = reader.snapshot().unwrap();
/// assert_eq!(snap.stamp.epoch, 1);
/// ```
#[derive(Clone, Debug)]
pub struct SnapshotHandle {
    shared: Arc<Shared>,
}

impl Default for SnapshotHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotHandle {
    /// An empty handle; readers see `None` until the first publish.
    pub fn new() -> Self {
        SnapshotHandle {
            shared: Arc::new(Shared {
                seq: AtomicU64::new(0),
                slot: RwLock::new(None),
            }),
        }
    }

    /// Install a new generation. Refuses (returns `false`) a stamp
    /// older than the currently-published one, so the served epoch is
    /// monotonic even if a stale publisher races a fresh one.
    /// Re-publishing the *same* epoch (e.g. only the property columns
    /// moved under an unchanged CSR) is allowed.
    pub fn publish(&self, snap: EpochSnapshot) -> bool {
        let mut slot = self.shared.slot.write().unwrap();
        if let Some(cur) = slot.as_ref() {
            if snap.stamp.epoch < cur.stamp.epoch {
                return false;
            }
        }
        *slot = Some(Arc::new(snap));
        // Bump under the write lock so a refreshing reader always pairs
        // the slot it cloned with a seq at least as new.
        self.shared.seq.fetch_add(1, Ordering::Release);
        true
    }

    /// Number of successful publishes so far (0 = empty slot).
    pub fn publishes(&self) -> u64 {
        self.shared.seq.load(Ordering::Acquire)
    }

    /// The current generation, if any. Takes the shared lock — use a
    /// [`SnapshotReader`] on hot paths.
    pub fn load(&self) -> Option<Arc<EpochSnapshot>> {
        self.shared.slot.read().unwrap().clone()
    }

    /// A per-thread cached reader over this slot.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            shared: Arc::clone(&self.shared),
            cached_seq: 0,
            cached: None,
        }
    }
}

/// A reader-thread-local view of a [`SnapshotHandle`].
///
/// Caches the last loaded generation; [`Self::snapshot`] revalidates
/// the cache with one `Acquire` load of the publication counter and
/// only touches the shared lock when the publisher actually moved.
/// The returned `Arc` keeps the whole generation alive even while the
/// publisher installs newer ones — queries run to completion on the
/// generation they started on.
#[derive(Debug)]
pub struct SnapshotReader {
    shared: Arc<Shared>,
    cached_seq: u64,
    cached: Option<Arc<EpochSnapshot>>,
}

impl SnapshotReader {
    /// The current generation (`None` before the first publish).
    /// Steady state — publisher unchanged — is one atomic load.
    pub fn snapshot(&mut self) -> Option<&Arc<EpochSnapshot>> {
        let seq = self.shared.seq.load(Ordering::Acquire);
        if seq != self.cached_seq {
            // Re-clone under the shared lock; re-read seq inside it so
            // the cached pair stays consistent (the publisher bumps seq
            // while holding the write lock).
            let slot = self.shared.slot.read().unwrap();
            self.cached = slot.clone();
            self.cached_seq = self.shared.seq.load(Ordering::Acquire);
        }
        self.cached.as_ref()
    }

    /// Like [`Self::snapshot`] but clones the `Arc` out.
    pub fn snapshot_arc(&mut self) -> Option<Arc<EpochSnapshot>> {
        self.snapshot().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::CsrBuilder;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    fn snap(epoch: u64, edges: &[(u32, u32)]) -> EpochSnapshot {
        let n = edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(1);
        let csr = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let mut props = PropertyStore::new(n);
        // Stamp the epoch into a column so a torn read would be
        // detectable as a stamp/content mismatch.
        props.set_column_f64("epoch", &vec![epoch as f64; n]);
        EpochSnapshot {
            stamp: SnapshotEpoch {
                epoch,
                graph_version: epoch,
            },
            props_version: props.version(),
            time: epoch,
            csr: Arc::new(csr),
            compressed: None,
            props: Arc::new(props),
        }
    }

    #[test]
    fn publish_load_roundtrip() {
        let h = SnapshotHandle::new();
        assert!(h.load().is_none());
        assert_eq!(h.publishes(), 0);
        assert!(h.publish(snap(1, &[(0, 1)])));
        let s = h.load().unwrap();
        assert_eq!(s.stamp.epoch, 1);
        assert!(s.csr.has_edge(0, 1));
        assert_eq!(h.publishes(), 1);
    }

    #[test]
    fn stale_epoch_is_refused() {
        let h = SnapshotHandle::new();
        assert!(h.publish(snap(5, &[(0, 1)])));
        assert!(!h.publish(snap(4, &[(1, 0)])), "older epoch refused");
        assert!(h.publish(snap(5, &[(1, 0)])), "same epoch re-publishable");
        assert!(h.publish(snap(6, &[(2, 0)])));
        assert_eq!(h.load().unwrap().stamp.epoch, 6);
    }

    #[test]
    fn reader_cache_revalidates() {
        let h = SnapshotHandle::new();
        let mut r = h.reader();
        assert!(r.snapshot().is_none());
        h.publish(snap(1, &[(0, 1)]));
        assert_eq!(r.snapshot().unwrap().stamp.epoch, 1);
        // Unchanged publisher: the same Arc comes back.
        let a = r.snapshot_arc().unwrap();
        let b = r.snapshot_arc().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        h.publish(snap(2, &[(0, 1), (1, 2)]));
        assert_eq!(r.snapshot().unwrap().stamp.epoch, 2);
    }

    #[test]
    fn concurrent_readers_never_see_torn_state() {
        let h = SnapshotHandle::new();
        h.publish(snap(1, &[(0, 1)]));
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let mut r = h.reader();
            let stop = Arc::clone(&stop);
            joins.push(thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut loads = 0u64;
                // do-while: every reader validates at least one load,
                // plus one final load after the publisher stops.
                loop {
                    let s = r.snapshot().unwrap();
                    let e = s.stamp.epoch;
                    assert!(e >= last_epoch, "epoch went backwards");
                    // The stamp must agree with the column content the
                    // publisher wrote for that generation.
                    assert_eq!(s.props.get_f64("epoch", 0), Some(e as f64));
                    assert_eq!(s.props_version, s.props.version());
                    last_epoch = e;
                    loads += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                loads
            }));
        }
        for e in 2..200u64 {
            h.publish(snap(e, &[(0, 1), ((e % 7) as u32, (e % 5) as u32)]));
        }
        stop.store(true, Ordering::Relaxed);
        for j in joins {
            assert!(j.join().unwrap() > 0);
        }
        assert_eq!(h.load().unwrap().stamp.epoch, 199);
    }
}
