#![warn(missing_docs)]

//! Shared parallel-runtime substrate: the single home of chunk planning and
//! span-instrumented chunked execution.
//!
//! The paper's algorithms all start the same way: "divide the array into `p`
//! chunks, one per processor" — and on a social graph that division is
//! exactly where load imbalance is born: a hub row carries orders of
//! magnitude more edges than the median, so equal *element counts* give one
//! worker most of the *work*. This crate makes the split rule explicit,
//! shared, and observable:
//!
//! * [`chunk_ranges`] — near-equal element counts, the uniform-cost split;
//! * [`chunk_ranges_by_prefix_sum`] — near-equal total weight, driven
//!   directly by a CSR-style prefix-sum array (offsets *are* the prefix
//!   sum), allocation-free and `O(chunks · log n)`;
//! * [`plan`] — the row-chunk plan the pipeline stages consume: near-equal
//!   edge counts over the offsets, so hub rows get isolated instead of
//!   dragging a whole chunk ([`plan_uniform`] for stages with no offsets);
//! * [`run_chunked`] / [`run_chunked_plan`] — execute one planned chunk per
//!   parallel task, each wrapped in a span carrying the
//!   `chunk`/`chunk_len`/`edges` payloads, so a trace shows each region's
//!   split and `cargo xtask check-trace` can match chunks to their plan;
//! * [`split_mut_by_ranges`] — hand out disjoint mutable sub-slices matching
//!   a plan;
//! * [`pool::with_processors`] — the cached fixed-width rayon pools the
//!   processor sweep pins each measurement to, next to the planner that
//!   feeds them.
//!
//! Every planner in the workspace routes through here, so the scan,
//! degree-computation, bit-packing, query-batching and TCSR pipelines agree
//! on chunk boundaries. EXPERIMENTS.md records the measured skew of the
//! edge-weighted plan against the count split it replaced.

pub mod pool;

use std::ops::Range;

use rayon::prelude::*;

/// Splits `0..len` into at most `chunks` contiguous, non-empty ranges of
/// near-equal size (sizes differ by at most one, larger chunks first).
///
/// Returns fewer than `chunks` ranges when `len < chunks`, and an empty vector
/// when `len == 0`. `chunks == 0` is treated as `1` so callers can pass a
/// "number of processors" value straight through without special-casing.
///
/// ```
/// use parcsr_runtime::chunk_ranges;
/// assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
/// assert_eq!(chunk_ranges(2, 8).len(), 2);
/// assert!(chunk_ranges(0, 4).is_empty());
/// ```
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.max(1).min(len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

/// Splits `0..n` into at most `chunks` contiguous, non-empty ranges of
/// near-equal total *weight* — the size-aware alternative to
/// [`chunk_ranges`] for skewed inputs (hub rows), where equal element counts
/// leave one chunk with most of the work. The weights are implied by a
/// CSR-style prefix-sum array, without materializing them: element `i`
/// weighs `(prefix[i + 1] − prefix[i]) + 1` — its span of the prefix sum
/// plus a constant charge so long runs of zero-weight elements (empty rows)
/// still spread across chunks.
///
/// Chunk `i`'s target is its fair share of the weight still remaining
/// (`(total − consumed) / chunks_left`), so a hub that blows through several
/// naive fixed targets does not force the following chunks down to one
/// element each. The chunk stops at the element that first crosses its
/// target, except that when stopping *before* the crossing element lands
/// strictly nearer the target, the crossing element is left to the next
/// chunk — so a hub sitting just past a boundary is isolated instead of
/// dragging its predecessors' chunk far over target. Every chunk takes at
/// least one element and leaves at least one for each remaining chunk.
///
/// `prefix` must be non-decreasing with `prefix.len() == n + 1` (exactly the
/// shape of a CSR offsets array); the result covers `0..n`. Planning is
/// allocation-free beyond the result and `O(chunks · log n)`: the cumulative
/// weight of elements `0..e` is `(prefix[e] − prefix[0]) + e`, a strictly
/// increasing function of `e`, so each chunk boundary is a binary search.
///
/// ```
/// use parcsr_runtime::chunk_ranges_by_prefix_sum;
/// // Offsets of 6 rows with degrees 11, 1, 1, 1, 1, 2: row 0 is a hub
/// // carrying most of the weight, so it gets a chunk of its own.
/// let offsets = [0u64, 11, 12, 13, 14, 15, 17];
/// assert_eq!(chunk_ranges_by_prefix_sum(&offsets, 2), vec![0..1, 1..6]);
/// assert!(chunk_ranges_by_prefix_sum(&[0], 4).is_empty());
/// ```
pub fn chunk_ranges_by_prefix_sum(prefix: &[u64], chunks: usize) -> Vec<Range<usize>> {
    let len = prefix.len().saturating_sub(1);
    if len == 0 {
        return Vec::new();
    }
    debug_assert!(
        prefix.windows(2).all(|w| w[0] <= w[1]),
        "prefix sum must be non-decreasing"
    );
    let chunks = chunks.max(1).min(len);
    let cum_at = |e: usize| u128::from(prefix[e] - prefix[0]) + e as u128;
    let total = cum_at(len);
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 0..chunks {
        let remaining = (chunks - i) as u128;
        if remaining == 1 {
            ranges.push(start..len);
            start = len;
            break;
        }
        let cum_start = cum_at(start);
        let target = cum_start + (total - cum_start) / remaining;
        let max_end = len - (chunks - i - 1);
        // First e in [start + 1, max_end] with cum_at(e) >= target; max_end
        // when no such e exists (a light tail under a heavy head).
        let mut end = {
            let (mut lo, mut hi) = (start + 1, max_end);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if cum_at(mid) >= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        };
        // Nearest-boundary rule: if excluding the crossing element lands
        // strictly nearer the target than including it, leave it to the
        // next chunk (ties include).
        if cum_at(end) >= target && end > start + 1 {
            let overshoot = cum_at(end) - target;
            let undershoot = target - cum_at(end - 1);
            if overshoot > undershoot {
                end -= 1;
            }
        }
        ranges.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, len);
    ranges
}

/// Splits a mutable slice into disjoint sub-slices described by `ranges`.
///
/// The ranges must be sorted, non-overlapping and contained in
/// `0..data.len()` — exactly what [`chunk_ranges`] produces. Gaps between
/// ranges are allowed (the gap elements are simply not handed out).
///
/// # Panics
///
/// Panics if the ranges are out of order or exceed the slice length.
pub fn split_mut_by_ranges<'a, T>(
    mut data: &'a mut [T],
    ranges: &[Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0;
    for r in ranges {
        assert!(r.start >= consumed, "ranges must be sorted and disjoint");
        let (_, rest) = data.split_at_mut(r.start - consumed);
        let (piece, rest) = rest.split_at_mut(r.end - r.start);
        out.push(piece);
        data = rest;
        consumed = r.end;
    }
    out
}

/// Plans row chunks for a CSR-shaped `offsets` array (length `n + 1`,
/// non-decreasing): near-equal edge counts per chunk
/// ([`chunk_ranges_by_prefix_sum`], charging `degree + 1` per row so
/// empty-row runs still spread out), so a hub row gets isolated instead of
/// dragging a whole chunk. Returns at most `chunks` non-empty [`Chunk`]s
/// covering `0..n` contiguously; empty when `n == 0`. Planning is
/// allocation-free beyond the returned plan and records a `plan` span whose
/// `chunks` payload is the plan size.
#[must_use]
pub fn plan(offsets: &[u64], chunks: usize) -> Vec<Chunk> {
    let mut span = parcsr_obs::enter("plan");
    let n = offsets.len().saturating_sub(1);
    let plan: Vec<Chunk> = chunk_ranges_by_prefix_sum(offsets, chunks)
        .into_iter()
        .enumerate()
        .map(|(index, range)| {
            let edges = offsets[range.end] - offsets[range.start];
            Chunk {
                index,
                range,
                edges,
            }
        })
        .collect();
    let edges = if n == 0 { 0 } else { offsets[n] - offsets[0] };
    span.set_args(
        parcsr_obs::SpanArgs::new()
            .chunks(plan.len() as u64)
            .edges(edges),
    );
    plan
}

/// The plan for stages whose elements have no prefix sum to weight by
/// (e.g. raw event lists): a near-equal count split ([`chunk_ranges`]), with
/// each chunk's element count as its `edges` payload.
#[must_use]
pub fn plan_uniform(len: usize, chunks: usize) -> Vec<Chunk> {
    let mut span = parcsr_obs::enter("plan");
    let plan: Vec<Chunk> = chunk_ranges(len, chunks)
        .into_iter()
        .enumerate()
        .map(|(index, range)| Chunk {
            index,
            edges: range.len() as u64,
            range,
        })
        .collect();
    span.set_args(
        parcsr_obs::SpanArgs::new()
            .chunks(plan.len() as u64)
            .edges(len as u64),
    );
    plan
}

/// One planned chunk of rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Chunk index within the plan (also the span's `chunk` payload).
    pub index: usize,
    /// Row range covered by this chunk.
    pub range: Range<usize>,
    /// Edges contained in the row range (the span's `edges` payload).
    pub edges: u64,
}

/// Runs `f` once per `(chunk, payload)` pair in parallel, each call wrapped
/// in a span named `span_name` carrying the chunk's `chunk`/`chunk_len`/
/// `edges` payloads. Results come back in chunk order. `span_name` should
/// end in `.chunk` so `cargo xtask check-trace` enforces its payload.
pub fn run_chunked<T, R, F>(span_name: &'static str, work: Vec<(Chunk, T)>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&Chunk, T) -> R + Sync + Send,
{
    work.into_par_iter()
        .map(|(chunk, payload)| {
            parcsr_obs::with_span_args(
                span_name,
                parcsr_obs::SpanArgs::new()
                    .chunk(chunk.index as u64)
                    .chunk_len(chunk.range.len() as u64)
                    .edges(chunk.edges),
                || f(&chunk, payload),
            )
        })
        .collect()
}

/// [`run_chunked`] without per-chunk payloads.
pub fn run_chunked_plan<R, F>(span_name: &'static str, plan: Vec<Chunk>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Chunk) -> R + Sync + Send,
{
    let work: Vec<(Chunk, ())> = plan.into_iter().map(|c| (c, ())).collect();
    run_chunked(span_name, work, |c, ()| f(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        assert_eq!(chunk_ranges(8, 4), vec![0..2, 2..4, 4..6, 6..8]);
    }

    #[test]
    fn uneven_split_puts_extra_in_leading_chunks() {
        assert_eq!(chunk_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn more_chunks_than_elements() {
        let r = chunk_ranges(3, 10);
        assert_eq!(r, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn zero_len_is_empty() {
        assert!(chunk_ranges(0, 5).is_empty());
    }

    #[test]
    fn zero_chunks_treated_as_one() {
        assert_eq!(chunk_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn single_chunk() {
        assert_eq!(chunk_ranges(7, 1), vec![0..7]);
    }

    #[test]
    fn ranges_cover_exactly_once() {
        for len in [1usize, 2, 3, 10, 97, 1000] {
            for chunks in [1usize, 2, 3, 7, 64, 1500] {
                let ranges = chunk_ranges(len, chunks);
                let mut covered = 0;
                let mut prev_end = 0;
                for r in &ranges {
                    assert_eq!(r.start, prev_end, "contiguous");
                    assert!(!r.is_empty(), "non-empty");
                    covered += r.len();
                    prev_end = r.end;
                }
                assert_eq!(covered, len);
                // Sizes differ by at most one.
                let min = ranges.iter().map(|r| r.len()).min().unwrap();
                let max = ranges.iter().map(|r| r.len()).max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    /// The linear-scan planner over materialized weights that
    /// [`chunk_ranges_by_prefix_sum`] replaces with binary searches: the
    /// reference its boundaries must reproduce.
    fn weighted_reference(weights: &[u64], chunks: usize) -> Vec<Range<usize>> {
        let len = weights.len();
        if len == 0 {
            return Vec::new();
        }
        let chunks = chunks.max(1).min(len);
        let total: u64 = weights.iter().sum();
        let (mut ranges, mut start, mut cum) = (Vec::new(), 0, 0);
        for i in 0..chunks - 1 {
            let target = cum + (total - cum) / (chunks - i) as u64;
            let max_end = len - (chunks - i - 1);
            let mut end = start + 1;
            cum += weights[start];
            while end < max_end && cum < target {
                cum += weights[end];
                end += 1;
            }
            let last = weights[end - 1];
            if cum >= target && end > start + 1 && cum - target > target - (cum - last) {
                end -= 1;
                cum -= last;
            }
            ranges.push(start..end);
            start = end;
        }
        ranges.push(start..len);
        ranges
    }

    #[test]
    fn prefix_sum_planner_matches_weighted_planner_exactly() {
        // The prefix-sum planner must reproduce the linear-scan planner
        // over the implied `degree + 1` weights, boundary for boundary.
        let degree_vectors: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![12, 1, 1, 1, 1, 0],
            vec![0, 0, 0, 0, 0],
            vec![99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![38, 99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            (0..500u64).map(|i| (i * 37 + 11) % 23).collect(),
            (0..500u64)
                .map(|i| if i % 97 == 0 { 4000 } else { i % 5 })
                .collect(),
        ];
        for degrees in &degree_vectors {
            let mut prefix = vec![7u64]; // non-zero base: offsets need not start at 0
            for &d in degrees {
                prefix.push(prefix.last().unwrap() + d);
            }
            let weights: Vec<u64> = degrees.iter().map(|&d| d + 1).collect();
            for chunks in [1usize, 2, 3, 7, 64, 1000] {
                assert_eq!(
                    chunk_ranges_by_prefix_sum(&prefix, chunks),
                    weighted_reference(&weights, chunks),
                    "degrees {degrees:?} x{chunks}"
                );
            }
        }
    }

    #[test]
    fn prefix_sum_planner_edge_cases() {
        assert!(chunk_ranges_by_prefix_sum(&[], 4).is_empty());
        assert!(chunk_ranges_by_prefix_sum(&[0], 4).is_empty());
        assert_eq!(chunk_ranges_by_prefix_sum(&[0, 5], 4), vec![0..1]);
        // All-empty rows still split by the constant per-row charge.
        assert_eq!(
            chunk_ranges_by_prefix_sum(&[3, 3, 3, 3, 3], 2),
            vec![0..2, 2..4]
        );
    }

    #[test]
    fn split_mut_matches_ranges() {
        let mut data: Vec<u32> = (0..10).collect();
        let ranges = chunk_ranges(10, 3);
        let parts = split_mut_by_ranges(&mut data, &ranges);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &[0, 1, 2, 3]);
        assert_eq!(parts[1], &[4, 5, 6]);
        assert_eq!(parts[2], &[7, 8, 9]);
    }

    #[test]
    fn split_mut_allows_gaps() {
        let mut data: Vec<u32> = (0..10).collect();
        let parts = split_mut_by_ranges(&mut data, &[1..3, 5..6]);
        assert_eq!(parts[0], &[1, 2]);
        assert_eq!(parts[1], &[5]);
    }

    #[test]
    fn split_mut_pieces_are_writable() {
        let mut data = vec![0u8; 6];
        let ranges = chunk_ranges(6, 2);
        let mut parts = split_mut_by_ranges(&mut data, &ranges);
        for p in parts.iter_mut() {
            for x in p.iter_mut() {
                *x = 9;
            }
        }
        assert_eq!(data, vec![9; 6]);
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn split_mut_rejects_overlap() {
        let mut data = vec![0u8; 6];
        let _ = split_mut_by_ranges(&mut data, &[0..3, 2..5]);
    }

    /// Offsets of a 6-row CSR where row 0 is a hub: degrees 12,1,1,1,1,0.
    const HUB: [u64; 7] = [0, 12, 13, 14, 15, 16, 16];

    #[test]
    fn edge_policy_isolates_the_hub() {
        let plan = plan(&HUB, 2);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].range, 0..1, "hub row gets its own chunk");
        assert_eq!(plan[1].range, 1..6);
        assert_eq!(plan[0].edges, 12);
        assert_eq!(plan[1].edges, 4);
    }

    #[test]
    fn plans_cover_rows_exactly_once() {
        for chunks in [1usize, 2, 3, 7, 64] {
            let plan = plan(&HUB, chunks);
            let mut prev = 0;
            let mut edges = 0;
            for (i, c) in plan.iter().enumerate() {
                assert_eq!(c.index, i);
                assert_eq!(c.range.start, prev);
                assert!(!c.range.is_empty());
                prev = c.range.end;
                edges += c.edges;
            }
            assert_eq!(prev, 6, "x{chunks}");
            assert_eq!(edges, 16);
        }
        assert!(plan(&[0], 4).is_empty());
        assert!(plan(&[], 4).is_empty());
    }

    #[test]
    fn uniform_plan_counts_elements_as_edges() {
        let plan = plan_uniform(10, 3);
        assert_eq!(plan.len(), 3);
        let mut prev = 0;
        for (i, c) in plan.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.range.start, prev);
            assert_eq!(c.edges, c.range.len() as u64);
            prev = c.range.end;
        }
        assert_eq!(prev, 10);
        assert!(plan_uniform(0, 4).is_empty());
    }

    #[test]
    fn run_chunked_preserves_chunk_order() {
        let plan = plan(&HUB, 3);
        let indices = run_chunked_plan("test.chunk", plan.clone(), |c| c.index);
        assert_eq!(indices, (0..plan.len()).collect::<Vec<_>>());

        let sums: Vec<u64> = run_chunked(
            "test.chunk",
            plan.iter().cloned().map(|c| (c, 2u64)).collect(),
            |c, factor| c.edges * factor,
        );
        assert_eq!(sums.iter().sum::<u64>(), 32);
    }
}
