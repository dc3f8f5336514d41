//! Algorithm 5: parallel construction of the differential TCSR.
//!
//! The time-sorted event list is divided into one chunk per processor. Each
//! chunk groups its events by frame and parity-collapses duplicates,
//! producing per-frame difference lists. A frame that straddles a chunk
//! boundary appears in two (or more) chunks — "there could be an overlap
//! similar to that of computation of degree in Section III-A2" — so a merge
//! step concatenates the boundary pieces (still sorted, because events are
//! sorted by `(t, u, v)`) and re-collapses parity across the seam. Each
//! final difference list then becomes the frame's CSR of differences (its
//! changed rows only), bit-packed with Algorithm 4's engine.

use rayon::prelude::*;

use parcsr_graph::{TemporalEdge, TemporalEdgeList, Timestamp};
use parcsr_runtime::{plan_uniform, run_chunked_plan};

use crate::frame::{key, DeltaFrame};
use crate::tcsr::Tcsr;

/// Per-chunk pass of Algorithm 5 over a `(t, u, v)`-sorted event chunk:
/// groups events by frame and parity-collapses duplicates, returning
/// `(frame, sorted collapsed key list)` in frame order.
///
/// Shared between [`TcsrBuilder::build`] and the `cfg(parcsr_check)` model,
/// so the checker exercises the shipped grouping logic.
fn collapse_chunk(chunk: &[TemporalEdge]) -> Vec<(Timestamp, Vec<u64>)> {
    let mut frames: Vec<(Timestamp, Vec<u64>)> = Vec::new();
    let mut i = 0;
    while i < chunk.len() {
        let t = chunk[i].t;
        let mut keys: Vec<u64> = Vec::new();
        while i < chunk.len() && chunk[i].t == t {
            let k = key(chunk[i].u, chunk[i].v);
            // Parity collapse within the chunk: equal events are adjacent
            // (sorted stream).
            let mut count = 0usize;
            while i < chunk.len() && chunk[i].t == t && key(chunk[i].u, chunk[i].v) == k {
                count += 1;
                i += 1;
            }
            if count % 2 == 1 {
                keys.push(k);
            }
        }
        frames.push((t, keys));
    }
    frames
}

/// Appends one chunk's piece of a frame to the frame's accumulated key
/// list, re-collapsing parity across the seam: identical keys meeting at
/// the join cancel in pairs. Both lists are sorted; concatenation keeps
/// them sorted because chunks arrive in stream order.
fn merge_frame_piece(slot: &mut Vec<u64>, mut keys: Vec<u64>) {
    if slot.is_empty() {
        *slot = keys;
        return;
    }
    while let (Some(&last), Some(&first)) = (slot.last(), keys.first()) {
        if last == first {
            slot.pop();
            keys.remove(0);
        } else {
            break;
        }
    }
    slot.append(&mut keys);
}

/// Configurable parallel TCSR builder.
#[derive(Debug, Clone, Copy)]
pub struct TcsrBuilder {
    processors: usize,
}

impl TcsrBuilder {
    /// Defaults: one chunk per current rayon thread.
    pub fn new() -> Self {
        TcsrBuilder {
            processors: rayon::current_num_threads(),
        }
    }

    /// Sets the logical processor count.
    pub fn processors(mut self, p: usize) -> Self {
        self.processors = p.max(1);
        self
    }

    /// Builds the differential TCSR from a time-sorted event list.
    pub fn build(&self, events: &TemporalEdgeList) -> Tcsr {
        let num_frames = events.num_frames();
        let evs = events.events();
        // Events carry no offsets array to weight by: a count split.
        let plan = plan_uniform(evs.len(), self.processors);

        // Per chunk: (frame, sorted parity-collapsed key list) in frame
        // order. Chunks see disjoint event ranges of the (t, u, v)-sorted
        // stream, so each chunk's frames are contiguous and its keys sorted.
        let chunk_frames: Vec<Vec<(Timestamp, Vec<u64>)>> = parcsr_obs::with_span_args(
            "tcsr.collapse",
            parcsr_obs::SpanArgs::new().edges(evs.len() as u64),
            || {
                run_chunked_plan("tcsr.chunk", plan, |chunk| {
                    collapse_chunk(&evs[chunk.range.clone()])
                })
            },
        );
        // collect() is the sync(): all chunk-local CSR pieces exist before
        // the boundary merge.

        // Merge step: concatenate per-frame pieces across chunks. Only the
        // boundary frame of adjacent chunks can collide; concatenation keeps
        // keys sorted, but a key pair split exactly at the seam needs one
        // more parity collapse.
        let mut per_frame: Vec<Vec<u64>> = vec![Vec::new(); num_frames];
        parcsr_obs::with_span("tcsr.merge", || {
            for frames in chunk_frames {
                for (t, keys) in frames {
                    merge_frame_piece(&mut per_frame[t as usize], keys);
                }
            }
        });

        // Turn every frame's sorted keys into its sparse delta rows
        // (parallel over frames; each column pack is itself chunk-parallel
        // for large frames).
        let p = self.processors;
        let frames: Vec<DeltaFrame> = parcsr_obs::with_span("tcsr.pack", || {
            per_frame
                .into_par_iter()
                .map(|keys| DeltaFrame::from_sorted_keys(&keys, p))
                .collect()
        });

        Tcsr::from_frames(events.num_nodes(), frames)
    }
}

impl Default for TcsrBuilder {
    fn default() -> Self {
        TcsrBuilder::new()
    }
}

/// Schedule-checked model of Algorithm 5's chunk pass + boundary-frame
/// merge (compiled only under `--cfg parcsr_check`).
#[cfg(parcsr_check)]
pub mod checked {
    use std::sync::Arc;

    use parcsr_check as check;
    use parcsr_graph::TemporalEdge;
    use parcsr_runtime::chunk_ranges;

    use super::{collapse_chunk, merge_frame_piece};

    /// Known-bad variants of the TCSR build, used to validate the checker.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TcsrFault {
        /// The shipped collect-then-merge structure (must be race-free).
        None,
        /// Skips the sync between the chunk pass and the merge: each chunk
        /// merges its frame pieces into the shared per-frame table itself.
        /// Racy whenever a frame straddles a chunk boundary — the overlap
        /// the paper notes is "similar to that of computation of degree".
        MergeInChunk,
    }

    /// Model of [`super::TcsrBuilder::build`]'s frame-merge structure over
    /// instrumented shared memory: one logical thread per chunk running the
    /// *same* `collapse_chunk` pass as the shipped kernel, with the
    /// per-frame table held in a [`check::Slice`] and joins as the sync
    /// before the coordinator's `merge_frame_piece` loop. Returns the
    /// merged per-frame key lists (bit-packing is per-frame-local and out
    /// of model scope). Must be called inside [`parcsr_check::model`] /
    /// [`parcsr_check::check`].
    pub fn frame_merge_model(
        events: Vec<TemporalEdge>,
        num_frames: usize,
        processors: usize,
        fault: TcsrFault,
    ) -> Vec<Vec<u64>> {
        let ranges = chunk_ranges(events.len(), processors);
        let per_frame =
            check::Slice::new(vec![Vec::<u64>::new(); num_frames]).named("tcsr.per_frame");
        let events = Arc::new(events);

        match fault {
            TcsrFault::None => {
                // Chunk pass: thread-local grouping, results carried back
                // through join (the collect() sync in the real kernel).
                let workers: Vec<_> = ranges
                    .into_iter()
                    .map(|r| {
                        let events = Arc::clone(&events);
                        check::spawn(move || collapse_chunk(&events[r]))
                    })
                    .collect();
                let chunk_frames: Vec<_> = workers.into_iter().map(|h| h.join()).collect();
                // Coordinator merge, ordered after every chunk by the joins.
                for frames in chunk_frames {
                    for (t, keys) in frames {
                        let mut slot = per_frame.read(t as usize);
                        merge_frame_piece(&mut slot, keys);
                        per_frame.write(t as usize, slot);
                    }
                }
            }
            TcsrFault::MergeInChunk => {
                // Seeded race: chunks merge into the shared table without
                // the sync. Two chunks sharing a boundary frame now
                // read-modify-write its slot concurrently.
                let workers: Vec<_> = ranges
                    .into_iter()
                    .map(|r| {
                        let events = Arc::clone(&events);
                        let per_frame = per_frame.clone();
                        check::spawn(move || {
                            for (t, keys) in collapse_chunk(&events[r]) {
                                let mut slot = per_frame.read(t as usize);
                                merge_frame_piece(&mut slot, keys);
                                per_frame.write(t as usize, slot);
                            }
                        })
                    })
                    .collect();
                for h in workers {
                    h.join();
                }
            }
        }
        per_frame.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr_graph::gen::{temporal_toggles, TemporalParams};
    use parcsr_graph::TemporalEdge;

    fn figure_4_events() -> TemporalEdgeList {
        TemporalEdgeList::new(
            5,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 2, 0),
                TemporalEdge::new(2, 3, 0),
                TemporalEdge::new(1, 2, 1), // delete
                TemporalEdge::new(3, 4, 1), // add
                TemporalEdge::new(0, 1, 2), // delete
                TemporalEdge::new(1, 2, 3), // re-add
            ],
        )
    }

    #[test]
    fn builds_figure_4_deltas() {
        let tcsr = TcsrBuilder::new().processors(3).build(&figure_4_events());
        assert_eq!(tcsr.num_frames(), 4);
        assert_eq!(tcsr.frame(0).decode_edges(), [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(tcsr.frame(1).decode_edges(), [(1, 2), (3, 4)]);
        assert_eq!(tcsr.frame(2).decode_edges(), [(0, 1)]);
        assert_eq!(tcsr.frame(3).decode_edges(), [(1, 2)]);
    }

    #[test]
    fn processor_count_does_not_change_structure() {
        let events = temporal_toggles(TemporalParams::new(128, 2_000, 8, 9));
        let base = TcsrBuilder::new().processors(1).build(&events);
        for p in [2, 3, 7, 16, 64] {
            let other = TcsrBuilder::new().processors(p).build(&events);
            assert_eq!(other, base, "p={p}");
        }
    }

    #[test]
    fn within_frame_double_toggle_cancels() {
        // (0,1) toggled twice in frame 0 (possible in raw inputs): parity
        // says it never existed.
        let events = TemporalEdgeList::new(
            2,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 0, 0),
            ],
        );
        let tcsr = TcsrBuilder::new().processors(2).build(&events);
        assert_eq!(tcsr.frame(0).decode_edges(), [(1, 0)]);
    }

    #[test]
    fn seam_collapse_across_chunk_boundary() {
        // Two copies of the same event that end up in different chunks with
        // p = 2 (4 events, boundary after the 2nd): the merge must cancel
        // them.
        let events = TemporalEdgeList::new(
            3,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(0, 2, 0),
                TemporalEdge::new(0, 2, 0),
                TemporalEdge::new(1, 2, 0),
            ],
        );
        let tcsr = TcsrBuilder::new().processors(2).build(&events);
        assert_eq!(tcsr.frame(0).decode_edges(), [(0, 1), (1, 2)]);
    }

    #[test]
    fn empty_events() {
        let tcsr = TcsrBuilder::new().build(&TemporalEdgeList::new(4, vec![]));
        assert_eq!(tcsr.num_frames(), 0);
        assert_eq!(tcsr.num_nodes(), 4);
    }

    #[test]
    fn quiet_frames_are_empty_deltas() {
        let events = TemporalEdgeList::new(
            3,
            vec![TemporalEdge::new(0, 1, 0), TemporalEdge::new(1, 2, 4)],
        );
        let tcsr = TcsrBuilder::new().processors(2).build(&events);
        assert_eq!(tcsr.num_frames(), 5);
        for t in 1..4 {
            assert!(tcsr.frame(t).is_empty(), "frame {t}");
        }
    }
}
