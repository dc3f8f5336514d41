//! The absolute (copy-per-frame) comparator.
//!
//! "Storing the CSR this way is space-consuming, as not all nodes have
//! changed state from one time-frame to another" (Section IV) — this module
//! is that space-consuming baseline: one full bit-packed CSR snapshot per
//! frame. The TCSR benches measure the differential structure against it.

use rayon::prelude::*;

use parcsr::{BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
use parcsr_graph::{EdgeList, NodeId, TemporalEdgeList, Timestamp};

/// One bit-packed CSR snapshot per frame.
#[derive(Debug, Clone)]
pub struct AbsoluteFrames {
    num_nodes: usize,
    frames: Vec<BitPackedCsr>,
}

impl AbsoluteFrames {
    /// Materializes every frame's full snapshot (sequential replay per
    /// frame boundary, parallel CSR build per snapshot).
    pub fn build(events: &TemporalEdgeList, processors: usize) -> Self {
        let num_frames = events.num_frames();
        let frames: Vec<BitPackedCsr> = (0..num_frames as Timestamp)
            .into_par_iter()
            .map(|t| {
                let active = events.snapshot_at(t);
                let graph = EdgeList::new(events.num_nodes(), active);
                let csr = CsrBuilder::new().processors(processors).build(&graph);
                BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, processors)
            })
            .collect();
        AbsoluteFrames {
            num_nodes: events.num_nodes(),
            frames,
        }
    }

    /// Number of frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Whether `(u, v)` is active at frame `t` — O(deg) on one snapshot; no
    /// cross-frame reduction needed, which is the query-time advantage the
    /// copy strategy buys with its storage blow-up.
    pub fn edge_active_at(&self, u: NodeId, v: NodeId, t: Timestamp) -> bool {
        self.frames[t as usize].has_edge(u, v)
    }

    /// Active neighbors of `u` at frame `t`.
    pub fn neighbors_at(&self, u: NodeId, t: Timestamp) -> Vec<NodeId> {
        self.frames[t as usize].row(u)
    }

    /// Full snapshot at frame `t`, as sorted pairs.
    pub fn snapshot_at(&self, t: Timestamp) -> Vec<(NodeId, NodeId)> {
        let csr: Csr = self.frames[t as usize].unpack();
        let mut out = Vec::with_capacity(csr.num_edges());
        for u in 0..csr.num_nodes() as NodeId {
            out.extend(csr.neighbors(u).iter().map(|&v| (u, v)));
        }
        out
    }

    /// Total packed bytes across all snapshots.
    pub fn packed_bytes(&self) -> usize {
        self.frames.iter().map(BitPackedCsr::packed_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TcsrBuilder;
    use parcsr_graph::gen::{temporal_toggles, TemporalParams};

    #[test]
    fn absolute_and_differential_agree_on_every_query() {
        let events = temporal_toggles(TemporalParams::new(64, 600, 6, 8));
        let absolute = AbsoluteFrames::build(&events, 2);
        let diff = TcsrBuilder::new().build(&events);
        assert_eq!(absolute.num_frames(), diff.num_frames());
        for t in 0..absolute.num_frames() as u32 {
            assert_eq!(absolute.snapshot_at(t), diff.snapshot_at(t), "frame {t}");
        }
        for u in (0..64u32).step_by(5) {
            for v in (0..64u32).step_by(7) {
                let t = (absolute.num_frames() - 1) as u32;
                assert_eq!(
                    absolute.edge_active_at(u, v, t),
                    diff.edge_active_at(u, v, t)
                );
            }
            let t = (absolute.num_frames() / 2) as u32;
            assert_eq!(absolute.neighbors_at(u, t), diff.neighbors_at(u, t));
        }
    }

    #[test]
    fn absolute_storage_grows_with_frames() {
        let short =
            temporal_toggles(TemporalParams::new(128, 2_000, 3, 1).with_events_per_frame(8));
        let long =
            temporal_toggles(TemporalParams::new(128, 2_000, 24, 1).with_events_per_frame(8));
        let a_short = AbsoluteFrames::build(&short, 2);
        let a_long = AbsoluteFrames::build(&long, 2);
        assert!(a_long.packed_bytes() > a_short.packed_bytes() * 4);
    }

    #[test]
    fn empty_events_build() {
        let a = AbsoluteFrames::build(&parcsr_graph::TemporalEdgeList::new(3, vec![]), 2);
        assert_eq!(a.num_frames(), 0);
        assert_eq!(a.packed_bytes(), 0);
    }
}
