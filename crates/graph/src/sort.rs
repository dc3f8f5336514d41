//! Parallel LSD radix sort for edge lists.
//!
//! The paper assumes its input edge lists arrive sorted; in practice the
//! sort dominates preprocessing (compare `BuildTimings::sort_ms` against
//! the rest of the pipeline). Edge pairs are fixed-width 64-bit keys, so a
//! least-significant-digit radix sort applies: four passes of 16-bit
//! digits, each pass a (parallel histogram → prefix sum → parallel scatter)
//! round — the same histogram-plus-prefix-sum shape as the degree/offset
//! computation itself, built on the same `parcsr-scan` machinery.

use rayon::prelude::*;

use parcsr_runtime::chunk_ranges;
use parcsr_scan::exclusive_scan_seq;

use crate::types::Edge;

const DIGIT_BITS: u32 = 16;
const RADIX: usize = 1 << DIGIT_BITS;
const PASSES: u32 = 4;

#[inline]
fn key(e: Edge) -> u64 {
    (u64::from(e.0) << 32) | u64::from(e.1)
}

#[inline]
fn digit(e: Edge, pass: u32) -> usize {
    ((key(e) >> (pass * DIGIT_BITS)) & (RADIX as u64 - 1)) as usize
}

/// A raw shared output buffer for the scatter phase. Writers hold disjoint
/// index sets by construction (each (chunk, digit) pair owns the contiguous
/// range the prefix sum assigned to it), which is what makes the unchecked
/// parallel writes sound.
struct ScatterTarget<'a> {
    ptr: *mut Edge,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [Edge]>,
}

// SAFETY: sharing `ScatterTarget` across threads is sound only under the
// disjoint-index invariant: the exclusive prefix sum over per-(chunk, digit)
// histogram counts assigns every (chunk, digit) bucket a contiguous output
// range, the ranges tile the output exactly, and each scatter thread writes
// only inside its own chunk's buckets — so no two threads ever write the
// same index, and nobody reads until the pass's implicit join. That
// invariant is schedule-checked in `checked::scatter_pass_model` (run with
// `--cfg parcsr_check`), including a seeded violation that shares cursors.
unsafe impl Sync for ScatterTarget<'_> {}

impl<'a> ScatterTarget<'a> {
    fn new(buf: &'a mut [Edge]) -> Self {
        ScatterTarget {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// # Safety
    ///
    /// `i` must be in bounds (`i < self.len`) and *owned* by the calling
    /// thread for the duration of the pass: no other thread may write index
    /// `i`, and no thread may read it until the scatter's closing join. The
    /// sort upholds this by giving each (chunk, digit) cursor a private
    /// range carved out by the exclusive prefix sum.
    #[inline]
    unsafe fn write(&self, i: usize, value: Edge) {
        debug_assert!(i < self.len);
        // SAFETY: caller guarantees `i < self.len`, so the offset stays
        // inside the allocation; caller's disjoint-index invariant rules
        // out concurrent access to the same slot.
        unsafe { self.ptr.add(i).write(value) };
    }
}

/// Sorts edges by `(source, target)` with a parallel LSD radix sort using
/// `chunks` logical processors. Stable and deterministic; output equals
/// `edges.sort_unstable()` (ties are full-key equal, so stability is moot).
pub fn par_radix_sort_edges(edges: &mut Vec<Edge>, chunks: usize) {
    let n = edges.len();
    if n <= 1 {
        return;
    }
    let chunks = chunks.max(1).min(n);
    let mut scratch: Vec<Edge> = vec![(0, 0); n];
    let ranges = chunk_ranges(n, chunks);

    // Each pass reads `edges` and scatters into `scratch`, then the two
    // vectors swap contents (an O(1) pointer swap); PASSES is even, so the
    // final result lands back in `edges`.
    for pass in 0..PASSES {
        let src: &[Edge] = edges;
        let dst: &mut [Edge] = &mut scratch;

        // Parallel per-chunk histograms.
        let histograms: Vec<Vec<u64>> = ranges
            .par_iter()
            .map(|r| {
                let mut h = vec![0u64; RADIX];
                for &e in &src[r.clone()] {
                    h[digit(e, pass)] += 1;
                }
                h
            })
            .collect();

        // Global offsets in (digit, chunk) order: an exclusive prefix sum
        // assigns every (chunk, digit) bucket its contiguous output range.
        let mut offsets = vec![0u64; RADIX * chunks];
        for d in 0..RADIX {
            for (c, h) in histograms.iter().enumerate() {
                offsets[d * chunks + c] = h[d];
            }
        }
        exclusive_scan_seq(&mut offsets);

        // Parallel scatter: chunk c writes bucket d into
        // offsets[d * chunks + c] .. + histograms[c][d] — disjoint ranges.
        let target = ScatterTarget::new(dst);
        ranges.par_iter().enumerate().for_each(|(c, r)| {
            let mut cursors: Vec<u64> = (0..RADIX).map(|d| offsets[d * chunks + c]).collect();
            for &e in &src[r.clone()] {
                let d = digit(e, pass);
                // SAFETY: this (chunk, digit) range is owned exclusively by
                // chunk c; cursors never cross into the next bucket because
                // exactly histograms[c][d] elements carry digit d here.
                unsafe { target.write(cursors[d] as usize, e) };
                cursors[d] += 1;
            }
        });

        std::mem::swap(edges, &mut scratch);
    }
}

/// Schedule-checked model of one radix-sort scatter pass (compiled only
/// under `--cfg parcsr_check`).
#[cfg(parcsr_check)]
pub mod checked {
    use std::sync::Arc;

    use parcsr_check as check;
    use parcsr_runtime::chunk_ranges;
    use parcsr_scan::exclusive_scan_seq;

    use super::{digit, RADIX};
    use crate::types::Edge;

    /// Known-bad variants of the scatter pass, used to validate the checker.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SortFault {
        /// The shipped per-(chunk, digit) cursor layout (must be race-free).
        None,
        /// Every chunk starts its cursors at chunk 0's offsets, as if the
        /// prefix sum had not partitioned the output. Chunks sharing a
        /// digit then write the same destination slots concurrently.
        SharedCursors,
    }

    /// Model of one `par_radix_sort_edges` scatter pass over instrumented
    /// shared memory: the real histogram/offset arithmetic (same `digit`,
    /// same `(digit, chunk)`-order exclusive scan), with the unsafe
    /// `ScatterTarget` writes replaced by checked [`check::Slice`] writes.
    /// Must be called inside [`parcsr_check::model`] /
    /// [`parcsr_check::check`]. Returns the scattered output.
    pub fn scatter_pass_model(
        edges: Vec<Edge>,
        chunks: usize,
        pass: u32,
        fault: SortFault,
    ) -> Vec<Edge> {
        let n = edges.len();
        let chunks = chunks.max(1).min(n.max(1));
        let ranges = chunk_ranges(n, chunks);

        // Histograms and offsets are pre-scatter coordinator work (the real
        // kernel computes them in an earlier rayon phase, separated from
        // the scatter by an implicit sync); the scatter is the phase under
        // test.
        let histograms: Vec<Vec<u64>> = ranges
            .iter()
            .map(|r| {
                let mut h = vec![0u64; RADIX];
                for &e in &edges[r.clone()] {
                    h[digit(e, pass)] += 1;
                }
                h
            })
            .collect();
        let mut offsets = vec![0u64; RADIX * chunks];
        for d in 0..RADIX {
            for (c, h) in histograms.iter().enumerate() {
                offsets[d * chunks + c] = h[d];
            }
        }
        exclusive_scan_seq(&mut offsets);

        let dst = check::Slice::new(vec![(0u32, 0u32); n]).named("sort.scratch");
        let edges = Arc::new(edges);
        let offsets = Arc::new(offsets);
        let workers: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(c, r)| {
                let dst = dst.clone();
                let edges = Arc::clone(&edges);
                let offsets = Arc::clone(&offsets);
                check::spawn(move || {
                    let cursor_chunk = match fault {
                        SortFault::None => c,
                        SortFault::SharedCursors => 0,
                    };
                    let mut cursors: Vec<u64> = (0..RADIX)
                        .map(|d| offsets[d * chunks + cursor_chunk])
                        .collect();
                    for &e in &edges[r.clone()] {
                        let d = digit(e, pass);
                        dst.write(cursors[d] as usize, e);
                        cursors[d] += 1;
                    }
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

    fn reference(mut v: Vec<Edge>) -> Vec<Edge> {
        v.sort_unstable();
        v
    }

    #[test]
    fn sorts_small_lists() {
        let mut edges = vec![(3u32, 1u32), (0, 9), (3, 0), (2, 5), (0, 1)];
        let want = reference(edges.clone());
        par_radix_sort_edges(&mut edges, 2);
        assert_eq!(edges, want);
    }

    #[test]
    fn matches_std_sort_on_random_input() {
        let g = rmat(RmatParams::new(1 << 12, 50_000, 7));
        for chunks in [1, 2, 3, 8, 16] {
            let mut edges = g.edges().to_vec();
            let want = reference(edges.clone());
            par_radix_sort_edges(&mut edges, chunks);
            assert_eq!(edges, want, "chunks={chunks}");
        }
    }

    #[test]
    fn handles_duplicates_and_extremes() {
        let mut edges = vec![
            (u32::MAX, u32::MAX),
            (0, 0),
            (u32::MAX, 0),
            (0, u32::MAX),
            (0, 0),
            (u32::MAX, u32::MAX),
        ];
        let want = reference(edges.clone());
        par_radix_sort_edges(&mut edges, 3);
        assert_eq!(edges, want);
    }

    #[test]
    fn empty_and_singleton() {
        let mut empty: Vec<Edge> = vec![];
        par_radix_sort_edges(&mut empty, 4);
        assert!(empty.is_empty());
        let mut one = vec![(5u32, 6u32)];
        par_radix_sort_edges(&mut one, 4);
        assert_eq!(one, [(5, 6)]);
    }

    #[test]
    fn already_sorted_is_unchanged() {
        let mut edges: Vec<Edge> = (0..1000u32).map(|i| (i / 4, i % 4)).collect();
        let want = edges.clone();
        par_radix_sort_edges(&mut edges, 8);
        assert_eq!(edges, want);
    }

    #[test]
    fn chunk_count_larger_than_input() {
        let mut edges = vec![(2u32, 0u32), (1, 1), (0, 2)];
        par_radix_sort_edges(&mut edges, 100);
        assert_eq!(edges, [(0, 2), (1, 1), (2, 0)]);
    }
}
