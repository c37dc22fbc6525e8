//! Disjoint-set forest shared by the connectivity kernels.

use ga_graph::VertexId;

/// Union-find with union-by-rank and path halving.
///
/// ```
/// use ga_kernels::UnionFind;
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.same(0, 1));
/// assert!(!uf.same(1, 2));
/// assert_eq!(uf.num_sets(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<VertexId>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as VertexId).collect(),
            rank: vec![0; n],
            num_sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: VertexId) -> VertexId {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Representative without path compression (read-only contexts).
    fn find_const(&self, mut x: VertexId) -> VertexId {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: VertexId, b: VertexId) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.num_sets -= 1;
        true
    }

    /// Are `a` and `b` in the same set?
    pub fn same(&mut self, a: VertexId, b: VertexId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Current number of disjoint sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Fully-compressed label array: `labels[v]` = min vertex id in v's set.
    /// Deterministic regardless of union order.
    pub fn labels(&mut self) -> Vec<VertexId> {
        let n = self.parent.len();
        let mut min_of_root: Vec<VertexId> = (0..n as VertexId).collect();
        for v in 0..n as VertexId {
            let r = self.find(v);
            if v < min_of_root[r as usize] {
                min_of_root[r as usize] = v;
            }
        }
        (0..n as VertexId)
            .map(|v| {
                let r = self.find_const(v);
                min_of_root[r as usize]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.num_sets(), 3);
        for i in 0..3 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn chain_unions() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.num_sets(), 3);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
    }

    #[test]
    fn labels_are_min_ids() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(3, 1);
        uf.union(0, 4);
        let labels = uf.labels();
        assert_eq!(labels, vec![0, 1, 2, 1, 0, 1]);
    }

    #[test]
    fn label_determinism_under_union_order() {
        let mut a = UnionFind::new(4);
        a.union(0, 1);
        a.union(2, 3);
        a.union(1, 3);
        let mut b = UnionFind::new(4);
        b.union(3, 0);
        b.union(2, 1);
        b.union(0, 2);
        assert_eq!(a.labels(), b.labels());
    }
}
