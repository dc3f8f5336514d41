//! Streaming construction of the bit-packed CSR.
//!
//! The authors' prior systems (\[3\], \[4\]: "Queryable Compression on
//! Streaming Social Networks") compress the graph *as the edge stream
//! arrives* instead of materializing it first. This module provides that
//! mode for the bit-packed CSR: a [`StreamingCsrPacker`] consumes a
//! source-sorted edge stream and appends each column entry straight into the
//! packed bit array, so the only non-output state is the `O(n)` degree
//! array — the batch pipeline's unpacked CSR (4 bytes per edge of targets)
//! never exists.
//!
//! The output is the batch path's
//! [`PackedCsrMode::Raw`](crate::PackedCsrMode::Raw) layout, except
//! that the column width comes from the node space (`⌈log2(n)⌉`) rather
//! than the largest target, which is unknowable until the stream ends.

use parcsr_bitpack::{bits_needed, BitWriter, PackedArray};
use parcsr_graph::NodeId;
use parcsr_scan::exclusive_scan_seq;

use crate::packed::BitPackedCsr;

/// Errors from feeding a [`StreamingCsrPacker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// An endpoint is `>= num_nodes`.
    NodeOutOfRange {
        /// The offending edge.
        edge: (NodeId, NodeId),
    },
    /// The stream is not sorted by `(source, target)`.
    OutOfOrder {
        /// The previously accepted edge.
        previous: (NodeId, NodeId),
        /// The offending edge.
        edge: (NodeId, NodeId),
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::NodeOutOfRange { edge } => {
                write!(f, "edge {edge:?} references a node out of range")
            }
            StreamError::OutOfOrder { previous, edge } => {
                write!(
                    f,
                    "edge {edge:?} arrived after {previous:?}; stream must be sorted"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Incremental packer: feed sorted edges, finish into a [`BitPackedCsr`].
#[derive(Debug)]
pub struct StreamingCsrPacker {
    num_nodes: usize,
    col_width: u32,
    columns: BitWriter,
    degrees: Vec<u32>,
    previous: Option<(NodeId, NodeId)>,
}

impl StreamingCsrPacker {
    /// Creates a packer for a graph over `num_nodes` nodes. The column
    /// width is fixed up front from the node space (`⌈log2(n)⌉`), which is
    /// what makes per-edge packing possible before the stream ends.
    pub fn new(num_nodes: usize) -> Self {
        StreamingCsrPacker {
            num_nodes,
            col_width: bits_needed(num_nodes.saturating_sub(1) as u64),
            columns: BitWriter::new(),
            degrees: vec![0; num_nodes],
            previous: None,
        }
    }

    /// Accepts the next edge of the sorted stream.
    pub fn push(&mut self, u: NodeId, v: NodeId) -> Result<(), StreamError> {
        if (u as usize) >= self.num_nodes || (v as usize) >= self.num_nodes {
            return Err(StreamError::NodeOutOfRange { edge: (u, v) });
        }
        if let Some(prev) = self.previous {
            if (u, v) < prev {
                return Err(StreamError::OutOfOrder {
                    previous: prev,
                    edge: (u, v),
                });
            }
        }
        self.previous = Some((u, v));
        self.degrees[u as usize] += 1;
        self.columns.write(u64::from(v), self.col_width);
        Ok(())
    }

    /// Edges accepted so far.
    pub fn len(&self) -> usize {
        self.columns.bit_len() / self.col_width as usize
    }

    /// True if no edges have been accepted.
    pub fn is_empty(&self) -> bool {
        self.columns.bit_len() == 0
    }

    /// Finalizes: builds the offset array from the accumulated degrees and
    /// packs it, returning the complete packed CSR.
    pub fn finish(self) -> BitPackedCsr {
        let num_edges = self.len();
        let mut offsets: Vec<u64> = self.degrees.iter().map(|&d| u64::from(d)).collect();
        exclusive_scan_seq(&mut offsets);
        offsets.push(num_edges as u64);
        let offsets = PackedArray::pack_with_width(&offsets, bits_needed(num_edges as u64));
        let columns = PackedArray::from_raw_parts(self.columns.finish(), self.col_width, num_edges);
        BitPackedCsr::from_parts(self.num_nodes, num_edges, offsets, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CsrBuilder;
    use crate::packed::PackedCsrMode;
    use parcsr_graph::gen::{rmat, RmatParams};
    use parcsr_graph::EdgeList;

    #[test]
    fn streaming_equals_batch_raw_packing() {
        let graph = rmat(RmatParams::new(512, 6_000, 13)).sorted_by_source();
        let mut packer = StreamingCsrPacker::new(graph.num_nodes());
        for &(u, v) in graph.edges() {
            packer.push(u, v).unwrap();
        }
        let streamed = packer.finish();

        let csr = CsrBuilder::new().build_from_sorted(&graph).0;
        let batch = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn rejects_out_of_order() {
        let mut packer = StreamingCsrPacker::new(4);
        packer.push(1, 2).unwrap();
        let err = packer.push(0, 3).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrder { .. }), "{err}");
        // Equal duplicate edges are in order and accepted.
        packer.push(1, 2).unwrap();
    }

    #[test]
    fn rejects_out_of_range() {
        let mut packer = StreamingCsrPacker::new(3);
        let err = packer.push(0, 3).unwrap_err();
        assert_eq!(err, StreamError::NodeOutOfRange { edge: (0, 3) });
    }

    #[test]
    fn empty_stream() {
        let packer = StreamingCsrPacker::new(5);
        assert!(packer.is_empty());
        let packed = packer.finish();
        assert_eq!(packed.num_edges(), 0);
        assert_eq!(packed.num_nodes(), 5);
        assert!(packed.row(3).is_empty());
    }

    #[test]
    fn queries_work_on_streamed_structure() {
        let graph = EdgeList::new(6, vec![(0, 2), (0, 5), (2, 1), (5, 0)]);
        let mut packer = StreamingCsrPacker::new(6);
        for &(u, v) in graph.sorted_by_source().edges() {
            packer.push(u, v).unwrap();
        }
        let packed = packer.finish();
        assert_eq!(packed.row(0), [2, 5]);
        assert!(packed.has_edge(5, 0));
        assert!(!packed.has_edge(1, 2));
        assert_eq!(packed.degree(2), 1);
    }

    #[test]
    fn len_tracks_pushes() {
        let mut packer = StreamingCsrPacker::new(4);
        assert_eq!(packer.len(), 0);
        packer.push(0, 1).unwrap();
        packer.push(0, 2).unwrap();
        assert_eq!(packer.len(), 2);
    }
}
