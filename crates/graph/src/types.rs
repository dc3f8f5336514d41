//! Core graph types: node ids, edges and the edge list the whole pipeline
//! consumes.

use rayon::prelude::*;

/// Node identifier. `u32` covers every graph in the paper's evaluation
/// (largest: LiveJournal, 4.85M nodes) with half the memory traffic of
/// `usize` — the construction pipeline is memory-bandwidth bound, so this
/// matters.
pub type NodeId = u32;

/// A directed edge `u → v`.
pub type Edge = (NodeId, NodeId);

/// A directed graph held as a flat edge list — the input format of the
/// paper's pipeline ("a parallel novel implementation to compress a given
/// edge list into CSR").
///
/// Invariant: every endpoint is `< num_nodes`. Constructors enforce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    num_nodes: usize,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Builds an edge list over `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn new(num_nodes: usize, edges: Vec<Edge>) -> Self {
        for &(u, v) in &edges {
            assert!(
                (u as usize) < num_nodes && (v as usize) < num_nodes,
                "edge ({u}, {v}) out of range for {num_nodes} nodes"
            );
        }
        EdgeList { num_nodes, edges }
    }

    /// Builds an edge list, inferring `num_nodes` as `max endpoint + 1`
    /// (0 for an empty list).
    pub fn from_pairs(edges: Vec<Edge>) -> Self {
        let num_nodes = edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0);
        EdgeList { num_nodes, edges }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True if the list holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Consumes the list, returning the raw edges.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Returns a copy sorted by `(source, target)` — the precondition of the
    /// parallel degree computation (Section III-A2 assumes "each chunk
    /// receives a sorted list of edges"). The sort is skipped when the list
    /// is already sorted (the check stops at the first inversion).
    pub fn sorted_by_source(&self) -> EdgeList {
        let mut sorted = self.clone();
        if !sorted.is_sorted_by_source() {
            sorted.sort_by_source();
        }
        sorted
    }

    /// Sorts in place by `(source, target)` with `par_sort_unstable`. The
    /// in-tree rayon shim runs its `par_sort_*` family sequentially, so this
    /// is a one-thread comparison sort until a real rayon is swapped in.
    pub fn sort_by_source(&mut self) {
        self.edges.par_sort_unstable();
    }

    /// True if edges are sorted by `(source, target)`.
    pub fn is_sorted_by_source(&self) -> bool {
        self.edges.windows(2).all(|w| w[0] <= w[1])
    }

    /// Returns a copy with duplicate edges removed (requires no sorting on
    /// the caller's side; sorts internally).
    pub fn deduped(&self) -> EdgeList {
        let mut edges = self.edges.clone();
        edges.par_sort_unstable();
        edges.dedup();
        EdgeList {
            num_nodes: self.num_nodes,
            edges,
        }
    }

    /// Returns a copy with every edge mirrored (`u→v` and `v→u`), the usual
    /// directed encoding of an undirected social network. Self-loops are kept
    /// single.
    pub fn symmetrized(&self) -> EdgeList {
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        edges.extend_from_slice(&self.edges);
        edges.extend(
            self.edges
                .iter()
                .filter(|&&(u, v)| u != v)
                .map(|&(u, v)| (v, u)),
        );
        EdgeList {
            num_nodes: self.num_nodes,
            edges,
        }
    }

    /// In-memory binary size: 8 bytes per edge (two `u32` endpoints). The
    /// "EdgeList Size" comparator used in Table II's fourth column, measured
    /// on the binary representation rather than the paper's text files (see
    /// also [`text_bytes`](Self::text_bytes) for the text-format size).
    pub fn binary_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<Edge>()
    }

    /// Size of the graph when written as SNAP text (`"u\tv\n"` per edge) —
    /// how the paper's edge-list sizes were measured. Computed, not
    /// materialized. Parallel.
    pub fn text_bytes(&self) -> usize {
        fn digits(x: NodeId) -> usize {
            x.checked_ilog10().unwrap_or(0) as usize + 1
        }
        self.edges
            .par_iter()
            .map(|&(u, v)| digits(u) + digits(v) + 2)
            .sum()
    }

    /// The degree (out-degree) of each node, computed sequentially: the
    /// ground truth the parallel degree computation is tested against.
    pub fn degrees_sequential(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes];
        for &(u, _) in &self.edges {
            deg[u as usize] += 1;
        }
        deg
    }

    /// Maximum endpoint id + 1 actually referenced (≤ `num_nodes`).
    pub fn referenced_nodes(&self) -> usize {
        self.edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::new(5, vec![(3, 1), (0, 2), (3, 0), (1, 4), (0, 1)])
    }

    #[test]
    fn new_validates_endpoints() {
        let g = sample();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range() {
        EdgeList::new(3, vec![(0, 3)]);
    }

    #[test]
    fn from_pairs_infers_node_count() {
        let g = EdgeList::from_pairs(vec![(0, 7), (2, 3)]);
        assert_eq!(g.num_nodes(), 8);
        let empty = EdgeList::from_pairs(vec![]);
        assert_eq!(empty.num_nodes(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn sorted_by_source_orders_pairs() {
        let s = sample().sorted_by_source();
        assert!(s.is_sorted_by_source());
        assert_eq!(s.edges(), [(0, 1), (0, 2), (1, 4), (3, 0), (3, 1)]);
        assert!(!sample().is_sorted_by_source());
    }

    #[test]
    fn sorted_input_comes_back_equal() {
        let sorted = sample().sorted_by_source();
        let again = sorted.sorted_by_source();
        assert_eq!(again.edges(), sorted.edges());
        assert_eq!(again.num_nodes(), sorted.num_nodes());
        let empty = EdgeList::new(4, vec![]).sorted_by_source();
        assert!(empty.is_empty());
        assert_eq!(empty.num_nodes(), 4);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let g = EdgeList::new(3, vec![(0, 1), (0, 1), (1, 2), (0, 1)]);
        let d = g.deduped();
        assert_eq!(d.num_edges(), 2);
        assert_eq!(d.edges(), [(0, 1), (1, 2)]);
    }

    #[test]
    fn symmetrize_mirrors_and_keeps_loops_single() {
        let g = EdgeList::new(3, vec![(0, 1), (2, 2)]);
        let s = g.symmetrized();
        let mut e = s.edges().to_vec();
        e.sort_unstable();
        assert_eq!(e, [(0, 1), (1, 0), (2, 2)]);
    }

    #[test]
    fn degrees_sequential_counts_out_edges() {
        let g = sample();
        assert_eq!(g.degrees_sequential(), [2, 1, 0, 2, 0]);
    }

    #[test]
    fn size_accounting() {
        let g = EdgeList::new(11, vec![(0, 1), (10, 9)]);
        assert_eq!(g.binary_bytes(), 16);
        // "0\t1\n" = 4 bytes, "10\t9\n" = 5 bytes.
        assert_eq!(g.text_bytes(), 9);
    }

    #[test]
    fn referenced_nodes_vs_declared() {
        let g = EdgeList::new(100, vec![(0, 5), (3, 2)]);
        assert_eq!(g.referenced_nodes(), 6);
        assert_eq!(g.num_nodes(), 100);
    }
}
