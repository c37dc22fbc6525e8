//! Duplicate-free vertex sets for the delta-stepping SSSP bucket scans.
//!
//! A [`Frontier`] keeps a set in two forms at once: a dense bitmap, the
//! authority on membership, and a sparse insertion-ordered list, cheap
//! to iterate and to clear when the set is small next to the graph. A
//! vertex relaxed through several edges in one phase is inserted once,
//! so the bucket scan visits it once.

use crate::VertexId;

/// A set of vertices held as a bitmap plus a sparse list.
///
/// `insert` is duplicate-free (the bitmap is the authority), so kernels
/// that may discover a vertex through several edges — SSSP bucket
/// relaxations — get dedup for free instead of scanning a vertex once
/// per discovery.
#[derive(Clone, Debug)]
pub struct Frontier {
    bits: Vec<u64>,
    sparse: Vec<VertexId>,
}

impl Frontier {
    /// An empty frontier over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Frontier {
            bits: vec![0u64; num_vertices.div_ceil(64)],
            sparse: Vec::new(),
        }
    }

    /// Insert `v`; returns true if it was not already a member.
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> bool {
        let (word, bit) = (v as usize / 64, v as usize % 64);
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.sparse.push(v);
        true
    }

    /// True when no vertex is a member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sparse.is_empty()
    }

    /// Members in insertion order (the sparse representation).
    #[inline]
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, VertexId>> {
        self.sparse.iter().copied()
    }

    /// Remove all members. O(len): clears only the words the members
    /// touch, so sparse frontiers over huge graphs stay cheap.
    pub fn clear(&mut self) {
        if self.sparse.len() * 64 >= self.bits.len() {
            self.bits.fill(0);
        } else {
            for &v in &self.sparse {
                self.bits[v as usize / 64] = 0;
            }
        }
        self.sparse.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedups_and_tracks_order() {
        let mut f = Frontier::new(100);
        assert!(f.insert(7));
        assert!(f.insert(3));
        assert!(!f.insert(7));
        assert!(f.insert(64));
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![7, 3, 64]);
        assert!(!f.insert(64));
        assert!(f.insert(63));
    }

    #[test]
    fn clear_resets_both_representations() {
        let mut f = Frontier::new(200);
        for v in [0, 65, 199] {
            f.insert(v);
        }
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.iter().count(), 0);
        assert!(f.insert(65));
    }

    #[test]
    fn empty_frontier_over_empty_graph() {
        let f = Frontier::new(0);
        assert!(f.is_empty());
        assert_eq!(f.iter().count(), 0);
    }
}
