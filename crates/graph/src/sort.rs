//! The counting build's source bucketing: per-chunk source histograms and
//! the parallel scatter of targets into their rows.
//!
//! `parcsr::CsrBuilder::build` builds a CSR straight from an unsorted edge
//! list. It runs the paper's degree → prefix sum → fill in counting-sort
//! form, so the list is neither cloned nor sorted first. Its stages, named
//! as `BuildTimings` reports them:
//!
//! * **degrees** — [`SourceCounts::count`]: each edge chunk counts its
//!   sources into its own histogram, in parallel. Summed over chunks, the
//!   histograms are the degree array ([`SourceCounts::degrees`]).
//! * **scan** — Algorithm 1 turns the degrees into row offsets (in
//!   `parcsr`).
//! * **fill** — [`SourceCounts::scatter`]: each histogram becomes its
//!   chunk's write cursors in place (in row `u`, chunk `c`'s slots follow
//!   chunk `c − 1`'s), then every chunk writes its edges' targets at its
//!   cursors in parallel. Each row holds its targets in input order.
//! * **sort** — every row not already sorted is sorted in place (in
//!   `parcsr`). A source-sorted input leaves every row sorted, so that
//!   stage only checks.
//!
//! Per-chunk histograms cost `chunks · n · 4` bytes, so
//! `histogram_chunks` takes no more chunks than the input has edges per
//! node: the histograms never outweigh the column array they fill.
//!
//! The scatter's parallel writes are this crate's only `unsafe` code. Their
//! disjointness is checked at run time ([`SourceCounts::scatter`] verifies
//! the cursors tile `0..m`) and schedule-checked under
//! `--cfg parcsr_check` (`checked::scatter_pass_model`).

use parcsr_runtime::{plan_uniform, run_chunked, run_chunked_plan, Chunk};

use crate::types::{Edge, NodeId};

/// A raw shared output buffer for the scatter. Writers hold disjoint index
/// sets by construction (each (chunk, node) pair owns the contiguous range
/// its cursor starts in its row), which is what makes the unchecked
/// parallel writes sound.
struct ScatterTarget<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: sharing `ScatterTarget` across threads is sound only under the
// disjoint-index invariant: the per-(chunk, node) cursors start ranges that
// tile the output exactly (`cursors_in_place` checks the counts they come
// from against the row offsets), each range holds exactly that chunk's
// edges out of that node, and each scatter thread writes only inside its
// own chunk's ranges — so no two threads ever write the same index, and
// nobody reads until the scatter's closing join. `T: Send` because values move across threads.
// The invariant is schedule-checked in `checked::scatter_pass_model` (run
// with `--cfg parcsr_check`), including a seeded violation that shares
// cursors.
unsafe impl<T: Send> Sync for ScatterTarget<'_, T> {}

impl<'a, T> ScatterTarget<'a, T> {
    fn new(buf: &'a mut [T]) -> Self {
        ScatterTarget {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// # Safety
    ///
    /// `i` must be in bounds (`i < self.len`) and *owned* by the calling
    /// thread for the duration of the scatter: no other thread may write
    /// index `i`, and no thread may read it until the scatter's closing
    /// join. The scatter upholds this by giving each (chunk, node) cursor a
    /// private range carved out of the row offsets.
    #[inline]
    unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        // SAFETY: caller guarantees `i < self.len`, so the offset stays
        // inside the allocation; caller's disjoint-index invariant rules
        // out concurrent access to the same slot.
        unsafe { self.ptr.add(i).write(value) };
    }
}

/// Histogram chunks for `num_edges` edges over `num_nodes` nodes on
/// `processors` workers: `min(p, max(1, m / n))`. Each chunk's histogram
/// holds `n` counters, so the histograms together never hold more counters
/// than there are edges — an input like `n = 2^24, m = 1` at `p = 64` gets
/// one histogram, not 64.
fn histogram_chunks(num_nodes: usize, num_edges: usize, processors: usize) -> usize {
    let per_node = num_edges / num_nodes.max(1);
    processors.max(1).min(per_node.max(1))
}

/// One chunk's source histogram: `counts[u]` edges of `edges` leave `u`.
///
/// # Panics
///
/// Panics if a source is `>= num_nodes` (the histogram index is
/// bounds-checked).
fn count_sources(edges: &[Edge], num_nodes: usize) -> Vec<u32> {
    let mut counts = vec![0u32; num_nodes];
    for &(u, _) in edges {
        counts[u as usize] += 1;
    }
    counts
}

/// Turns per-chunk histograms into per-chunk write cursors in place:
/// chunk `c`'s cursor for `u` is the count of `u` in chunks `0..c`, the
/// place in row `u` where chunk `c`'s edges out of `u` start. Cursors count
/// from the row start, so they fit `u32` at any edge count (degrees are
/// `u32` throughout the workspace).
///
/// # Panics
///
/// Panics unless the rows tile `0..num_edges` exactly: `offsets` must start
/// at 0, step by each node's summed count, and end at `num_edges`. That
/// also rules out a wrapped counter (the counts would sum short of
/// `num_edges`), so every (chunk, node) range holds exactly its edges.
fn cursors_in_place(counts: &mut [Vec<u32>], offsets: &[u64], num_edges: usize) {
    let n = offsets.len().saturating_sub(1);
    assert!(
        offsets.first() == Some(&0) && offsets[n] == num_edges as u64,
        "row offsets must run from 0 to the edge count"
    );
    for u in 0..n {
        // Every cursor the scatter reaches is at most the row length, so a
        // row that fits `u32` keeps every cursor increment from wrapping.
        let mut within = 0u32;
        for h in counts.iter_mut() {
            let count = h[u];
            h[u] = within;
            within = within
                .checked_add(count)
                .expect("a node with more than u32::MAX edges");
        }
        assert_eq!(
            offsets[u] + u64::from(within),
            offsets[u + 1],
            "row offsets disagree with the counts"
        );
    }
}

/// Writes each edge's target at its source's row start plus cursor,
/// advancing the cursor. Shared by the shipped scatter (an unchecked raw
/// write) and the `cfg(parcsr_check)` model (a checked one), so the checker
/// verifies the cursor arithmetic that ships.
#[inline]
fn scatter_chunk(
    edges: &[Edge],
    offsets: &[u64],
    cursors: &mut [u32],
    mut write: impl FnMut(usize, NodeId),
) {
    for &(u, v) in edges {
        let cursor = &mut cursors[u as usize];
        write((offsets[u as usize] + u64::from(*cursor)) as usize, v);
        *cursor += 1;
    }
}

/// Per-chunk source histograms of one edge list: the degree stage of the
/// counting build, and (through [`SourceCounts::scatter`]) its fill.
#[derive(Debug)]
pub struct SourceCounts<'a> {
    edges: &'a [Edge],
    num_nodes: usize,
    /// The edge chunks, one per histogram.
    plan: Vec<Chunk>,
    /// `counts[c][u]`: edges of chunk `c` leaving `u`.
    counts: Vec<Vec<u32>>,
}

impl<'a> SourceCounts<'a> {
    /// Counts the sources of `edges` in `histogram_chunks` near-equal edge
    /// chunks, one parallel task each.
    ///
    /// # Panics
    ///
    /// Panics if a source is `>= num_nodes`.
    pub fn count(edges: &'a [Edge], num_nodes: usize, processors: usize) -> Self {
        let m = edges.len();
        parcsr_obs::with_span_args(
            "degree",
            parcsr_obs::SpanArgs::new().edges(m as u64),
            || {
                let plan = plan_uniform(m, histogram_chunks(num_nodes, m, processors));
                let counts = run_chunked_plan("degree.chunk", plan.clone(), |chunk| {
                    count_sources(&edges[chunk.range.clone()], num_nodes)
                });
                SourceCounts {
                    edges,
                    num_nodes,
                    plan,
                    counts,
                }
            },
        )
    }

    /// The out-degree of every node: the histograms summed over chunks.
    pub fn degrees(&self) -> Vec<u64> {
        let mut degrees = vec![0u64; self.num_nodes];
        for h in &self.counts {
            for (d, &k) in degrees.iter_mut().zip(h) {
                *d += u64::from(k);
            }
        }
        degrees
    }

    /// The column array: every edge's target, bucketed by source into the
    /// rows `offsets` lays out, each row in input order. Turns the
    /// histograms into cursors in place, then scatters every chunk in
    /// parallel.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` is the exclusive prefix sum of
    /// [`SourceCounts::degrees`] followed by the edge count.
    pub fn scatter(mut self, offsets: &[u64]) -> Vec<NodeId> {
        let m = self.edges.len();
        assert_eq!(offsets.len(), self.num_nodes + 1, "one offset per row");
        parcsr_obs::with_span_args(
            "scatter",
            parcsr_obs::SpanArgs::new().edges(m as u64),
            || {
                cursors_in_place(&mut self.counts, offsets, m);
                let mut targets: Vec<NodeId> = vec![0; m];
                let out = ScatterTarget::new(&mut targets);
                let edges = self.edges;
                let work: Vec<(Chunk, Vec<u32>)> = self.plan.into_iter().zip(self.counts).collect();
                run_chunked("scatter.chunk", work, |chunk, mut cursors: Vec<u32>| {
                    scatter_chunk(
                        &edges[chunk.range.clone()],
                        offsets,
                        &mut cursors,
                        |i, v| {
                            // SAFETY: `cursors_in_place` checked that the
                            // (chunk, node) ranges tile `0..m`, and each holds
                            // exactly this chunk's edges out of that node, so
                            // `i < m` and no other chunk writes `i`.
                            unsafe { out.write(i, v) }
                        },
                    );
                });
                targets
            },
        )
    }
}

/// Schedule-checked model of the counting build's scatter (compiled only
/// under `--cfg parcsr_check`).
#[cfg(parcsr_check)]
pub mod checked {
    use std::sync::Arc;

    use parcsr_check as check;
    use parcsr_runtime::chunk_ranges;

    use super::{count_sources, cursors_in_place, scatter_chunk};
    use crate::types::{Edge, NodeId};

    /// Known-bad variants of the scatter, used to validate the checker.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SortFault {
        /// The shipped per-(chunk, node) cursor layout (must be race-free).
        None,
        /// Every chunk starts from chunk 0's cursors, as if the histograms
        /// had not partitioned each row. Chunks sharing a source node then
        /// write that node's first slots concurrently.
        SharedCursors,
    }

    /// Model of `SourceCounts::scatter` over instrumented shared memory:
    /// the real histogram and cursor arithmetic (`count_sources`,
    /// `cursors_in_place`, `scatter_chunk`) over `chunks` near-equal edge
    /// chunks, with the unsafe `ScatterTarget` writes replaced by checked
    /// [`check::Slice`] writes. Must be called inside
    /// [`parcsr_check::model`] / [`parcsr_check::check`]. Returns the
    /// column array.
    pub fn scatter_pass_model(
        edges: Vec<Edge>,
        num_nodes: usize,
        chunks: usize,
        fault: SortFault,
    ) -> Vec<NodeId> {
        let m = edges.len();
        let ranges = chunk_ranges(m, chunks);

        // Histograms, offsets and cursors are pre-scatter work (the real
        // build computes them in earlier stages, separated from the scatter
        // by a join); the scatter is the phase under test.
        let mut counts: Vec<Vec<u32>> = ranges
            .iter()
            .map(|r| count_sources(&edges[r.clone()], num_nodes))
            .collect();
        let mut offsets = vec![0u64];
        for u in 0..num_nodes {
            let degree: u64 = counts.iter().map(|h| u64::from(h[u])).sum();
            offsets.push(offsets[u] + degree);
        }
        cursors_in_place(&mut counts, &offsets, m);

        let dst = check::Slice::new(vec![0 as NodeId; m]).named("sort.targets");
        let edges = Arc::new(edges);
        let offsets = Arc::new(offsets);
        let counts = Arc::new(counts);
        let workers: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(c, r)| {
                let dst = dst.clone();
                let edges = Arc::clone(&edges);
                let offsets = Arc::clone(&offsets);
                let counts = Arc::clone(&counts);
                check::spawn(move || {
                    let cursor_chunk = match fault {
                        SortFault::None => c,
                        SortFault::SharedCursors => 0,
                    };
                    let mut cursors = counts[cursor_chunk].clone();
                    scatter_chunk(&edges[r], &offsets, &mut cursors, |i, v| dst.write(i, v));
                })
            })
            .collect();
        for h in workers {
            h.join();
        }
        dst.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, RmatParams};

    /// The counting build's column array, stage by stage, with a sequential
    /// offsets scan.
    fn bucket(edges: &[Edge], num_nodes: usize, processors: usize) -> (Vec<u64>, Vec<NodeId>) {
        let counts = SourceCounts::count(edges, num_nodes, processors);
        let mut offsets = vec![0u64];
        for d in counts.degrees() {
            offsets.push(offsets.last().unwrap() + d);
        }
        let targets = counts.scatter(&offsets);
        (offsets, targets)
    }

    /// Stable bucketing by source with std's stable sort: each row in
    /// input order.
    fn reference(edges: &[Edge]) -> Vec<NodeId> {
        let mut v = edges.to_vec();
        v.sort_by_key(|&(u, _)| u);
        v.into_iter().map(|(_, w)| w).collect()
    }

    #[test]
    fn histogram_chunks_respect_the_memory_bound() {
        // m < n: one histogram, whatever p is.
        assert_eq!(histogram_chunks(100, 99, 8), 1);
        assert_eq!(histogram_chunks(1 << 24, 1, 64), 1);
        // m >= p · n: one histogram per processor.
        assert_eq!(histogram_chunks(100, 800, 8), 8);
        assert_eq!(histogram_chunks(100, 10_000, 8), 8);
        // In between: m / n of them.
        assert_eq!(histogram_chunks(100, 350, 8), 3);
        // No edges, no nodes, or p = 0: still at least one.
        assert_eq!(histogram_chunks(100, 0, 8), 1);
        assert_eq!(histogram_chunks(0, 0, 8), 1);
        assert_eq!(histogram_chunks(10, 100, 0), 1);
        for (n, m, p) in [(1usize, 5usize, 4usize), (7, 100, 3), (1000, 999, 64)] {
            let c = histogram_chunks(n, m, p);
            assert!(c >= 1 && c * n <= m.max(n), "n={n} m={m} p={p}");
        }
    }

    #[test]
    fn sorts_small_lists() {
        // Bucketed by source, each row in input order.
        let edges = vec![(3u32, 1u32), (0, 9), (3, 0), (2, 5), (0, 1)];
        for p in [1, 2, 3, 8] {
            let (offsets, targets) = bucket(&edges, 10, p);
            assert_eq!(offsets, [0, 2, 2, 3, 5, 5, 5, 5, 5, 5, 5], "p={p}");
            assert_eq!(targets, [9, 1, 5, 1, 0], "p={p}");
        }
    }

    #[test]
    fn matches_std_sort_on_random_input() {
        // A hub-heavy R-MAT list with many nodes shared between chunks.
        let g = rmat(RmatParams::new(1 << 8, 50_000, 7));
        let want = reference(g.edges());
        for p in [1, 2, 3, 8, 16] {
            let (_, targets) = bucket(g.edges(), g.num_nodes(), p);
            assert_eq!(targets, want, "p={p}");
        }
    }

    #[test]
    fn handles_duplicates_and_extremes() {
        // Duplicate edges stay, and the first and last node ids bucket to
        // the first and last rows.
        let n = 1000;
        let last = n as NodeId - 1;
        let edges = vec![
            (last, last),
            (0, 0),
            (last, 0),
            (0, last),
            (0, 0),
            (last, last),
        ];
        for p in [1, 3] {
            let (offsets, targets) = bucket(&edges, n, p);
            assert_eq!(offsets[1], 3, "p={p}");
            assert_eq!(offsets[n - 1], 3, "p={p}");
            assert_eq!(targets, [0, last, 0, last, 0, last], "p={p}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(bucket(&[], 0, 4), (vec![0], vec![]));
        assert_eq!(bucket(&[], 3, 4), (vec![0, 0, 0, 0], vec![]));
        assert_eq!(
            bucket(&[(5, 6)], 7, 4),
            (vec![0, 0, 0, 0, 0, 0, 1, 1], vec![6])
        );
    }

    #[test]
    fn already_sorted_is_unchanged() {
        // A source-sorted list comes back as its own target column.
        let edges: Vec<Edge> = (0..1000u32).map(|i| (i / 4, i % 4)).collect();
        let want: Vec<NodeId> = edges.iter().map(|&(_, v)| v).collect();
        let (_, targets) = bucket(&edges, 250, 8);
        assert_eq!(targets, want);
    }

    #[test]
    fn chunk_count_larger_than_input() {
        // p = 100 on three edges: one histogram (m / n = 1), one chunk.
        let edges = vec![(2u32, 0u32), (1, 1), (0, 2)];
        assert_eq!(bucket(&edges, 3, 100), (vec![0, 1, 2, 3], vec![2, 1, 0]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn source_out_of_range_panics() {
        SourceCounts::count(&[(0, 0), (5, 0)], 3, 2);
    }

    #[test]
    #[should_panic(expected = "disagree with the counts")]
    fn scatter_rejects_offsets_that_do_not_match() {
        let edges = [(0u32, 1u32), (1, 0), (1, 1)];
        SourceCounts::count(&edges, 2, 1).scatter(&[0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "from 0 to the edge count")]
    fn scatter_rejects_a_short_total() {
        let edges = [(0u32, 1u32), (1, 0)];
        SourceCounts::count(&edges, 2, 1).scatter(&[0, 1, 1]);
    }
}
