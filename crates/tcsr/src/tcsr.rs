//! The queryable differential TCSR.
//!
//! Frames hold *differences*; queries recombine them:
//!
//! * a snapshot at frame `t` is the symmetric difference of deltas `0..=t`
//!   (a parallel reduction — associative and commutative, so rayon's
//!   reduce tree is deterministic);
//! * *all* snapshots at once is an inclusive **scan under symmetric
//!   difference**, computed with the paper's chunked-scan structure
//!   (per-chunk scan → serial carry across chunk tails → parallel fix-up),
//!   reusing Algorithm 1's shape on a non-`Copy` monoid;
//! * a point query `edge_active_at(u, v, t)` is a parity fold of the
//!   per-frame memberships — per frame, a packed binary search on the
//!   changed sources and one on `u`'s row, XORed;
//! * `neighbors_at(u, t)` decodes only `u`'s row of each frame.
//!
//! The two one-query calls fold their frames on the calling thread: a
//! point query's per-frame work is two binary searches, far below the cost
//! of opening a parallel region.

use rayon::prelude::*;

use parcsr_graph::{NodeId, Timestamp};
use parcsr_runtime::chunk_ranges;

use crate::frame::{sym_diff, DeltaFrame};

/// A time-evolving graph stored as bit-packed per-frame differences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tcsr {
    num_nodes: usize,
    frames: Vec<DeltaFrame>,
}

impl Tcsr {
    /// Assembles a TCSR from prebuilt frames (used by
    /// [`crate::TcsrBuilder`]).
    pub fn from_frames(num_nodes: usize, frames: Vec<DeltaFrame>) -> Self {
        Tcsr { num_nodes, frames }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// The difference set of frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn frame(&self, t: Timestamp) -> &DeltaFrame {
        &self.frames[t as usize]
    }

    /// Total compact storage across all frames, in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.frames.iter().map(DeltaFrame::packed_bytes).sum()
    }

    /// Whether edge `(u, v)` is active at frame `t` — the parity rule: an
    /// odd number of toggles in frames `0..=t` means active. One packed
    /// membership test per frame, XOR-folded on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn edge_active_at(&self, u: NodeId, v: NodeId, t: Timestamp) -> bool {
        self.check_frame(t);
        self.frames[..=t as usize]
            .iter()
            .fold(false, |active, f| active ^ f.contains(u, v))
    }

    /// The active neighbor set of `u` at frame `t` (sorted): symmetric
    /// difference of the per-frame rows of `u`, folded on the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn neighbors_at(&self, u: NodeId, t: Timestamp) -> Vec<NodeId> {
        self.check_frame(t);
        self.frames[..=t as usize]
            .iter()
            .fold(Vec::new(), |active, f| sym_diff(&active, &f.row(u)))
    }

    /// The full active edge set at frame `t` (sorted pairs): symmetric
    /// difference of deltas `0..=t`, reduced in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn snapshot_at(&self, t: Timestamp) -> Vec<(NodeId, NodeId)> {
        self.check_frame(t);
        self.frames[..=t as usize]
            .par_iter()
            .map(DeltaFrame::decode_keys)
            .reduce(Vec::new, |a, b| sym_diff(&a, &b))
            .into_iter()
            .map(crate::frame::unkey)
            .collect()
    }

    /// Every snapshot at once: an inclusive scan of the frame deltas under
    /// symmetric difference, using the paper's chunked-scan phases
    /// (Algorithm 1 generalized to a set monoid). Output `s[t]` equals
    /// [`snapshot_at`](Self::snapshot_at)`(t)` for every `t`, at `O(total)`
    /// work instead of `O(frames · total)`.
    pub fn snapshots_all(&self, processors: usize) -> Vec<Vec<(NodeId, NodeId)>> {
        let n = self.frames.len();
        if n == 0 {
            return Vec::new();
        }
        let mut sets: Vec<Vec<u64>> = self.frames.iter().map(DeltaFrame::decode_keys).collect();
        let ranges = chunk_ranges(n, processors);

        // Phase 1: per-chunk inclusive scan.
        {
            let mut parts: Vec<&mut [Vec<u64>]> = Vec::with_capacity(ranges.len());
            let mut rest: &mut [Vec<u64>] = &mut sets;
            let mut consumed = 0;
            for r in &ranges {
                let (_, tail) = std::mem::take(&mut rest).split_at_mut(r.start - consumed);
                let (piece, tail) = tail.split_at_mut(r.len());
                parts.push(piece);
                rest = tail;
                consumed = r.end;
            }
            parts.into_par_iter().for_each(|chunk| {
                for i in 1..chunk.len() {
                    chunk[i] = sym_diff(&chunk[i - 1], &chunk[i]);
                }
            });
        }

        // Phase 2: serial carry propagation across chunk tails.
        for w in ranges.windows(2) {
            let carry = sets[w[0].end - 1].clone();
            let tail = &mut sets[w[1].end - 1];
            *tail = sym_diff(&carry, tail);
        }

        // Phase 3: each chunk (except the first) folds the previous chunk's
        // global tail into all but its own last element.
        let carries: Vec<Vec<u64>> = ranges[..ranges.len() - 1]
            .iter()
            .map(|r| sets[r.end - 1].clone())
            .collect();
        {
            let mut parts: Vec<&mut [Vec<u64>]> = Vec::with_capacity(ranges.len());
            let mut rest: &mut [Vec<u64>] = &mut sets;
            let mut consumed = 0;
            for r in &ranges {
                let (_, tail) = std::mem::take(&mut rest).split_at_mut(r.start - consumed);
                let (piece, tail) = tail.split_at_mut(r.len());
                parts.push(piece);
                rest = tail;
                consumed = r.end;
            }
            parts
                .into_par_iter()
                .skip(1)
                .zip(carries.into_par_iter())
                .for_each(|(chunk, carry)| {
                    let last = chunk.len() - 1;
                    for s in &mut chunk[..last] {
                        *s = sym_diff(&carry, s);
                    }
                });
        }

        sets.into_iter()
            .map(|keys| keys.into_iter().map(crate::frame::unkey).collect())
            .collect()
    }

    /// Number of active edges at frame `t`.
    pub fn active_edge_count_at(&self, t: Timestamp) -> usize {
        self.snapshot_at(t).len()
    }

    /// The edges whose state differs between frames `t1` and `t2` (order
    /// irrelevant): the symmetric difference of the deltas strictly between
    /// them — computed without reconstructing either snapshot.
    ///
    /// # Panics
    ///
    /// Panics if either frame is out of range.
    pub fn edges_changed_between(&self, t1: Timestamp, t2: Timestamp) -> Vec<(NodeId, NodeId)> {
        self.check_frame(t1);
        self.check_frame(t2);
        let (lo, hi) = (t1.min(t2), t1.max(t2));
        self.frames[(lo + 1) as usize..=hi as usize]
            .par_iter()
            .map(DeltaFrame::decode_keys)
            .reduce(Vec::new, |a, b| sym_diff(&a, &b))
            .into_iter()
            .map(crate::frame::unkey)
            .collect()
    }

    /// The full activity history of edge `(u, v)`: the frames at which it
    /// toggled, each paired with the state it toggled *into*. Empty if the
    /// edge never appears.
    ///
    /// One packed membership probe per frame, in parallel; parity is
    /// reconstructed by position afterwards.
    pub fn activity_history(&self, u: NodeId, v: NodeId) -> Vec<(Timestamp, bool)> {
        let toggles: Vec<Timestamp> = self
            .frames
            .par_iter()
            .enumerate()
            .filter(|(_, f)| f.contains(u, v))
            .map(|(t, _)| t as Timestamp)
            .collect();
        toggles
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, i % 2 == 0))
            .collect()
    }

    fn check_frame(&self, t: Timestamp) {
        assert!(
            (t as usize) < self.frames.len(),
            "frame {t} out of range ({} frames)",
            self.frames.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TcsrBuilder;
    use parcsr_graph::gen::{temporal_toggles, TemporalParams};
    use parcsr_graph::TemporalEdgeList;

    fn workload(seed: u64) -> TemporalEdgeList {
        temporal_toggles(TemporalParams::new(64, 800, 10, seed))
    }

    #[test]
    fn snapshot_matches_sequential_replay() {
        let events = workload(1);
        let tcsr = TcsrBuilder::new().processors(4).build(&events);
        for t in 0..events.num_frames() as u32 {
            assert_eq!(tcsr.snapshot_at(t), events.snapshot_at(t), "frame {t}");
        }
    }

    #[test]
    fn snapshots_all_matches_per_frame_queries() {
        let events = workload(2);
        let tcsr = TcsrBuilder::new().processors(3).build(&events);
        for p in [1, 2, 5, 16] {
            let all = tcsr.snapshots_all(p);
            assert_eq!(all.len(), tcsr.num_frames());
            for (t, snap) in all.iter().enumerate() {
                assert_eq!(snap, &tcsr.snapshot_at(t as u32), "p={p} frame {t}");
            }
        }
    }

    #[test]
    fn edge_active_matches_snapshot_membership() {
        let events = workload(3);
        let tcsr = TcsrBuilder::new().build(&events);
        let t = (events.num_frames() - 1) as u32;
        let snap = tcsr.snapshot_at(t);
        for u in 0..16u32 {
            for v in 0..16u32 {
                assert_eq!(
                    tcsr.edge_active_at(u, v, t),
                    snap.binary_search(&(u, v)).is_ok(),
                    "({u},{v})"
                );
            }
        }
    }

    #[test]
    fn neighbors_at_matches_snapshot_rows() {
        let events = workload(4);
        let tcsr = TcsrBuilder::new().build(&events);
        let t = (events.num_frames() / 2) as u32;
        let snap = tcsr.snapshot_at(t);
        for u in 0..64u32 {
            let expect: Vec<u32> = snap
                .iter()
                .filter(|&&(s, _)| s == u)
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(tcsr.neighbors_at(u, t), expect, "u={u}");
        }
    }

    #[test]
    fn differential_storage_beats_absolute_on_slow_change() {
        // 20 frames, tiny per-frame churn: differential storage must be far
        // smaller than 20 full snapshots.
        let events =
            temporal_toggles(TemporalParams::new(256, 4_000, 20, 5).with_events_per_frame(16));
        let tcsr = TcsrBuilder::new().build(&events);
        let absolute_total: usize = (0..events.num_frames() as u32)
            .map(|t| tcsr.snapshot_at(t).len() * 8)
            .sum();
        assert!(
            tcsr.packed_bytes() * 2 < absolute_total,
            "diff {} vs absolute {}",
            tcsr.packed_bytes(),
            absolute_total
        );
    }

    #[test]
    fn empty_tcsr() {
        let tcsr = Tcsr::from_frames(3, Vec::new());
        assert_eq!(tcsr.num_frames(), 0);
        assert_eq!(tcsr.packed_bytes(), 0);
        assert!(tcsr.snapshots_all(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn snapshot_out_of_range_panics() {
        let tcsr = Tcsr::from_frames(3, Vec::new());
        tcsr.snapshot_at(0);
    }

    #[test]
    fn edges_changed_between_matches_snapshot_diff() {
        let events = workload(7);
        let tcsr = TcsrBuilder::new().build(&events);
        let last = (events.num_frames() - 1) as u32;
        for (t1, t2) in [(0u32, last), (1, last / 2), (last, 0), (2, 2)] {
            let changed = tcsr.edges_changed_between(t1, t2);
            // Reference: elements in exactly one of the two snapshots.
            let a: std::collections::BTreeSet<_> = tcsr.snapshot_at(t1).into_iter().collect();
            let b: std::collections::BTreeSet<_> = tcsr.snapshot_at(t2).into_iter().collect();
            let want: Vec<_> = a.symmetric_difference(&b).copied().collect();
            assert_eq!(changed, want, "t1={t1} t2={t2}");
        }
    }

    #[test]
    fn activity_history_alternates_and_matches_queries() {
        let events = workload(8);
        let tcsr = TcsrBuilder::new().build(&events);
        // Find an edge with at least two toggles.
        let ev = events.events();
        let (u, v) = (ev[0].u, ev[0].v);
        let history = tcsr.activity_history(u, v);
        assert!(!history.is_empty());
        for (i, &(t, active)) in history.iter().enumerate() {
            assert_eq!(active, i % 2 == 0, "parity alternates");
            assert_eq!(
                tcsr.edge_active_at(u, v, t),
                active,
                "history entry {i} at frame {t}"
            );
        }
        // A never-seen edge has no history.
        assert!(
            tcsr.activity_history(63, 62).is_empty() || !ev.iter().any(|e| e.u == 63 && e.v == 62)
        );
    }

    #[test]
    fn active_edge_count() {
        let events = workload(6);
        let tcsr = TcsrBuilder::new().build(&events);
        let t = (events.num_frames() - 1) as u32;
        assert_eq!(tcsr.active_edge_count_at(t), events.snapshot_at(t).len());
    }
}
