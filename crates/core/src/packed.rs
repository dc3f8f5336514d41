//! Algorithm 4: the bit-packed CSR.
//!
//! Both CSR arrays are compressed with the fixed-width codec of Gopal et al.
//! \[7\], chunk-parallel with a bit-array merge (`parcsr_bitpack::parallel`):
//!
//! * the offset array `iA` packs at `⌈log2(m+1)⌉` bits per entry;
//! * the column array `jA` packs absolute neighbor ids at
//!   `⌈log2(max id + 1)⌉` bits per entry, straight from the CSR targets.
//!
//! Because every `jA` element occupies the same number of bits, row `u`
//! starts at bit `offsets[u] · width` — the property `GetRowFromCSR` \[28\]
//! needs to extract a row straight out of the bit array without touching
//! anything else. That extraction is [`BitPackedCsr::row_into`]. Ids are
//! `u32`, so the column width is at most 32 and whole 64-value blocks of a
//! row decode through the constant-shift kernel of `parcsr_bitpack::cursor`.

use rayon::prelude::*;

use parcsr_bitpack::{bits_needed, pack_parallel_with_width, BlockCursor, BlockIter, PackedArray};
use parcsr_graph::NodeId;

use crate::build::Csr;

/// How the column array is laid out. Raw (absolute ids at one uniform
/// width) is the paper's Algorithm 4 and the only layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackedCsrMode {
    /// Pack absolute neighbor ids.
    Raw,
}

impl PackedCsrMode {
    /// Stable name for bench output.
    pub fn name(self) -> &'static str {
        match self {
            PackedCsrMode::Raw => "raw",
        }
    }
}

/// A CSR with both arrays bit-packed (the output of Algorithm 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPackedCsr {
    num_nodes: usize,
    num_edges: usize,
    /// Packed `iA`: `num_nodes + 1` row offsets.
    offsets: PackedArray,
    /// Packed `jA`: `num_edges` absolute neighbor ids, each row sorted.
    columns: PackedArray,
}

impl BitPackedCsr {
    /// Packs a CSR using `processors` parallel packers per array
    /// (Algorithm 4 runs the bit-pack once for `iA` and once for `jA`).
    /// The output is byte-identical at every processor count. `Raw` is the
    /// only [`PackedCsrMode`], so the mode argument selects nothing.
    pub fn from_csr(csr: &Csr, _mode: PackedCsrMode, processors: usize) -> Self {
        parcsr_obs::span!("pack", edges = csr.num_edges() as u64);
        let offset_width = bits_needed(csr.num_edges() as u64);
        let offsets = parcsr_obs::with_span_args(
            "pack.offsets",
            parcsr_obs::SpanArgs::new().bits(offset_width),
            || pack_parallel_with_width(csr.offsets(), processors, offset_width),
        );

        let columns = parcsr_obs::with_span_args(
            "pack.columns",
            parcsr_obs::SpanArgs::new().edges(csr.num_edges() as u64),
            || {
                let targets = csr.targets();
                let max = targets.par_iter().copied().max().unwrap_or(0);
                pack_parallel_with_width(targets, processors, bits_needed(u64::from(max)))
            },
        );

        BitPackedCsr {
            num_nodes: csr.num_nodes(),
            num_edges: csr.num_edges(),
            offsets,
            columns,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Packing mode of the column array.
    pub fn mode(&self) -> PackedCsrMode {
        PackedCsrMode::Raw
    }

    /// Out-degree of `u`, read from the packed offset array.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let i = u as usize;
        assert!(i < self.num_nodes, "node {u} out of range");
        (self.offsets.get(i + 1) - self.offsets.get(i)) as usize
    }

    /// `GetRowFromCSR` \[28\] as a stream: an iterator over `u`'s sorted
    /// neighbor row, decoded lazily out of the packed bit array. O(1) to
    /// create (two offset probes position a block cursor at element
    /// `offsets[u]`); the iterator drains a 64-value stack buffer that the
    /// block kernel refills. No heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    // LINT: hot — per-lookup decode kernel; must stay allocation-free.
    pub fn row_iter(&self, u: NodeId) -> PackedRowIter<'_> {
        self.row_blocks(u).values()
    }

    /// `u`'s row as a block cursor: chunks of ≤ 64 ids, each ending on a
    /// 64-element boundary of the column array or at the end of the row.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub(crate) fn row_blocks(&self, u: NodeId) -> BlockCursor<'_> {
        let (start, deg) = self.row_range(u);
        self.columns.block_cursor(start, deg)
    }

    /// First column index and degree of `u`'s row.
    #[inline]
    fn row_range(&self, u: NodeId) -> (usize, usize) {
        let i = u as usize;
        assert!(i < self.num_nodes, "node {u} out of range");
        let start = self.offsets.get(i) as usize;
        (start, self.offsets.get(i + 1) as usize - start)
    }

    /// `GetRowFromCSR` \[28\]: decodes `u`'s neighbor row out of the packed
    /// bit array straight into `out` (cleared first). Whole 64-value blocks
    /// go through the constant-shift kernel; only the row's head and tail
    /// are read one value at a time.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn row_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        let (start, deg) = self.row_range(u);
        out.clear();
        out.resize(deg, 0);
        self.columns.decode_range_u32(start, out);
    }

    /// Allocating convenience wrapper over [`row_into`](Self::row_into).
    pub fn row(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.row_into(u, &mut out);
        out
    }

    /// Edge existence straight off the packed bit array — the primitive the
    /// query algorithms batch and split. Rows store sorted absolute ids at a
    /// fixed width, so the row supports O(1) random access and the probe is
    /// a binary search of O(log deg) direct bit reads. No allocation.
    // LINT: hot — per-lookup probe kernel; must stay allocation-free.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (start, deg) = self.row_range(u);
        let target = u64::from(v);
        let (mut lo, mut hi) = (start, start + deg);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.columns.get(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo < start + deg && self.columns.get(lo) == target
    }

    /// Total compact size in bytes (both packed arrays).
    pub fn packed_bytes(&self) -> usize {
        self.offsets.packed_bytes() + self.columns.packed_bytes()
    }

    /// Bits per column entry.
    pub fn column_width(&self) -> u32 {
        self.columns.width()
    }

    /// Bits per offset entry.
    pub fn offset_width(&self) -> u32 {
        self.offsets.width()
    }

    /// The packed offset array (`iA`) — exposed for serialization.
    pub fn offsets_array(&self) -> &PackedArray {
        &self.offsets
    }

    /// The packed column array (`jA`) — exposed for serialization.
    pub fn columns_array(&self) -> &PackedArray {
        &self.columns
    }

    /// Reassembles a packed CSR from its parts (the deserialization path;
    /// callers must have validated the structural invariants).
    pub(crate) fn from_parts(
        num_nodes: usize,
        num_edges: usize,
        offsets: PackedArray,
        columns: PackedArray,
    ) -> Self {
        debug_assert_eq!(offsets.len(), num_nodes + 1);
        debug_assert_eq!(columns.len(), num_edges);
        BitPackedCsr {
            num_nodes,
            num_edges,
            offsets,
            columns,
        }
    }

    /// Reconstructs the full CSR (used by tests to prove losslessness).
    pub fn unpack(&self) -> Csr {
        let mut edges = Vec::with_capacity(self.num_edges);
        let mut row = Vec::new();
        for u in 0..self.num_nodes {
            self.row_into(u as NodeId, &mut row);
            edges.extend(row.iter().map(|&v| (u as NodeId, v)));
        }
        let graph = parcsr_graph::EdgeList::new(self.num_nodes, edges);
        Csr::from_edge_list_sequential(&graph)
    }
}

/// Streaming iterator over one packed neighbor row (the return type of
/// [`BitPackedCsr::row_iter`]): yields the row's sorted neighbor ids as
/// [`NodeId`]s, draining a 64-value buffer that the block kernel refills.
pub type PackedRowIter<'a> = BlockIter<'a>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CsrBuilder;
    use parcsr_graph::gen::{rmat, RmatParams};
    use parcsr_graph::EdgeList;

    fn sample_csr() -> Csr {
        let g = rmat(RmatParams::new(512, 6_000, 21));
        CsrBuilder::new().build(&g)
    }

    #[test]
    fn roundtrip() {
        let csr = sample_csr();
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        assert_eq!(packed.unpack(), csr);
    }

    #[test]
    fn rows_match_unpacked() {
        let csr = sample_csr();
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        for u in 0..csr.num_nodes() as NodeId {
            assert_eq!(packed.row(u), csr.neighbors(u), "row {u}");
            assert_eq!(packed.degree(u), csr.degree(u));
        }
    }

    #[test]
    fn has_edge_agrees_with_csr() {
        let csr = sample_csr();
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 3);
        for u in (0..512u32).step_by(7) {
            for v in (0..512u32).step_by(11) {
                assert_eq!(packed.has_edge(u, v), csr.has_edge(u, v), "({u}, {v})");
            }
        }
    }

    #[test]
    fn packing_compresses() {
        let csr = sample_csr();
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        assert!(
            packed.packed_bytes() < csr.heap_bytes(),
            "{} !< {}",
            packed.packed_bytes(),
            csr.heap_bytes()
        );
        // 512 nodes -> 9-bit columns vs 32-bit raw.
        assert_eq!(packed.column_width(), 9);
    }

    #[test]
    fn processor_count_does_not_change_output() {
        let csr = sample_csr();
        let base = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 1);
        for p in [2, 3, 8, 64] {
            assert_eq!(BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, p), base);
        }
    }

    #[test]
    fn empty_graph() {
        let csr = CsrBuilder::new().build(&EdgeList::new(0, vec![]));
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        assert_eq!(packed.num_nodes(), 0);
        assert_eq!(packed.num_edges(), 0);
    }

    #[test]
    fn graph_with_empty_rows() {
        let g = EdgeList::new(8, vec![(1, 7), (1, 2), (6, 0)]);
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        assert!(packed.row(0).is_empty());
        assert_eq!(packed.row(1), [2, 7]);
        assert!(packed.row(5).is_empty());
        assert_eq!(packed.row(6), [0]);
        assert_eq!(packed.degree(7), 0);
    }

    #[test]
    fn duplicate_neighbors_roundtrip() {
        // Multigraph row with a repeated id.
        let g = EdgeList::new(5, vec![(0, 3), (0, 3), (0, 4)]);
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 2);
        assert_eq!(packed.row(0), [3, 3, 4]);
        assert!(packed.has_edge(0, 3));
    }

    #[test]
    fn single_node_self_loop() {
        let g = EdgeList::new(1, vec![(0, 0)]);
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 2);
        assert_eq!(packed.row(0), [0]);
        assert!(packed.has_edge(0, 0));
    }
}
