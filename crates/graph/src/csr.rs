//! Compressed-sparse-row adjacency and the bidirectional edge index.
//!
//! §III-B: the edge index is built in the declared direction *and* the
//! reverse, "enabling significant flexibility on how to execute a path
//! query: the execution is not restricted to the forward-looking lexical
//! representation".

/// CSR adjacency from `n_src` source vertices: for each source, the
/// (target, edge-id) pairs of its incident edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    edge_ids: Vec<u32>,
}

impl Csr {
    /// Builds a CSR over `(src, tgt)` pairs indexed by `src`; `edge_ids`
    /// are the pair positions, preserved so traversals can recover the
    /// concrete edge instance.
    pub fn build(n_src: usize, src: &[u32], tgt: &[u32]) -> Csr {
        assert_eq!(src.len(), tgt.len());
        let mut counts = vec![0u32; n_src + 1];
        for &s in src {
            counts[s as usize + 1] += 1;
        }
        for i in 0..n_src {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; src.len()];
        let mut edge_ids = vec![0u32; src.len()];
        for (e, (&s, &t)) in src.iter().zip(tgt).enumerate() {
            let pos = cursor[s as usize] as usize;
            targets[pos] = t;
            edge_ids[pos] = e as u32;
            cursor[s as usize] += 1;
        }
        Csr {
            offsets,
            targets,
            edge_ids,
        }
    }

    /// Number of source slots.
    pub fn n_src(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of edges.
    pub fn n_edges(&self) -> usize {
        self.targets.len()
    }

    /// Neighbor targets of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let (a, b) = self.range(v);
        &self.targets[a..b]
    }

    /// Edge ids incident to `v` (parallel to [`Csr::neighbors`]).
    #[inline]
    pub fn edge_ids(&self, v: u32) -> &[u32] {
        let (a, b) = self.range(v);
        &self.edge_ids[a..b]
    }

    #[inline]
    fn range(&self, v: u32) -> (usize, usize) {
        (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        )
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        let (a, b) = self.range(v);
        b - a
    }

    /// Maximum degree over all sources.
    pub fn max_degree(&self) -> usize {
        (0..self.n_src() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// Forward + reverse CSR for one edge type.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    /// Indexed by source vertex (declared direction).
    pub fwd: Csr,
    /// Indexed by target vertex (reverse direction).
    pub rev: Csr,
}

impl EdgeIndex {
    /// Builds both directions from the edge pair lists.
    pub fn build(n_src_vertices: usize, n_tgt_vertices: usize, src: &[u32], tgt: &[u32]) -> Self {
        EdgeIndex {
            fwd: Csr::build(n_src_vertices, src, tgt),
            rev: Csr::build(n_tgt_vertices, tgt, src),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn adjacency_matches_pairs() {
        //   0 -> 1, 0 -> 2, 2 -> 1
        let src = [0, 0, 2];
        let tgt = [1, 2, 1];
        let csr = Csr::build(3, &src, &tgt);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(2), &[1]);
        assert_eq!(csr.edge_ids(0), &[0, 1]);
        assert_eq!(csr.edge_ids(2), &[2]);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.max_degree(), 2);
    }

    #[test]
    fn isolated_tail_vertices_have_empty_slots() {
        let csr = Csr::build(5, &[0], &[4]);
        assert_eq!(csr.n_src(), 5);
        for v in 1..5 {
            assert!(csr.neighbors(v).is_empty());
        }
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::build(0, &[], &[]);
        assert_eq!(csr.n_src(), 0);
        assert_eq!(csr.n_edges(), 0);
        assert_eq!(csr.max_degree(), 0);
    }

    #[test]
    fn index_reverse_is_transpose() {
        let src = [0u32, 0, 1, 2];
        let tgt = [1u32, 1, 0, 1]; // parallel edges 0->1 twice (multigraph)
        let idx = EdgeIndex::build(3, 2, &src, &tgt);
        assert_eq!(idx.fwd.neighbors(0), &[1, 1]);
        assert_eq!(idx.rev.neighbors(1), &[0, 0, 2]);
        assert_eq!(idx.rev.neighbors(0), &[1]);
    }

    proptest! {
        /// fwd/rev duality: edge e appears under src in fwd and tgt in rev.
        #[test]
        fn fwd_rev_duality(pairs in proptest::collection::vec((0u32..40, 0u32..30), 0..200)) {
            let src: Vec<u32> = pairs.iter().map(|p| p.0).collect();
            let tgt: Vec<u32> = pairs.iter().map(|p| p.1).collect();
            let idx = EdgeIndex::build(40, 30, &src, &tgt);
            prop_assert_eq!(idx.fwd.n_edges(), pairs.len());
            prop_assert_eq!(idx.rev.n_edges(), pairs.len());
            for (e, &(s, t)) in pairs.iter().enumerate() {
                let e = e as u32;
                let pos_f = idx.fwd.edge_ids(s).iter().position(|&x| x == e);
                prop_assert!(pos_f.is_some());
                prop_assert_eq!(idx.fwd.neighbors(s)[pos_f.unwrap()], t);
                let pos_r = idx.rev.edge_ids(t).iter().position(|&x| x == e);
                prop_assert!(pos_r.is_some());
                prop_assert_eq!(idx.rev.neighbors(t)[pos_r.unwrap()], s);
            }
            // Degree sums equal edge count in both directions.
            let df: usize = (0..40).map(|v| idx.fwd.degree(v)).sum();
            let dr: usize = (0..30).map(|v| idx.rev.degree(v)).sum();
            prop_assert_eq!(df, pairs.len());
            prop_assert_eq!(dr, pairs.len());
        }
    }
}
