//! The paper's Algorithm 1: chunked two-phase parallel prefix sum.
//!
//! The input array is split into `p` chunks (Figure 2's dotted lines). The
//! algorithm then runs three phases:
//!
//! 1. **Per-chunk scan** (parallel): every processor computes the inclusive
//!    scan of its own chunk (Algorithm 1, lines 2–3).
//! 2. **Carry propagation** (serialized — the paper's `Lock()`/`Unlock()`
//!    region, lines 6–9): walking chunks in order, the *last* element of each
//!    chunk absorbs the last element of the previous chunk, so chunk `c`'s
//!    last element becomes the global prefix up to the end of chunk `c`.
//! 3. **Chunk fix-up** (parallel, lines 11–13): every chunk except the first
//!    adds the previous chunk's (now global) last element to all of its
//!    elements *except the last*, which was already fixed in phase 2.
//!
//! The phases are consecutive rayon parallel regions: the join that ends
//! each region is the paper's `sync()`.

use rayon::prelude::*;

use crate::sequential::inclusive_scan_seq;
use parcsr_runtime::{chunk_ranges, split_mut_by_ranges};

/// In-place inclusive prefix sum (wrapping addition) with the paper's
/// chunked algorithm over `chunks` logical processors.
///
/// Output is identical to [`crate::inclusive_scan_seq`] regardless of
/// `chunks`.
pub fn inclusive_scan_chunked(data: &mut [u64], chunks: usize) {
    let ranges = chunk_ranges(data.len(), chunks);
    if ranges.len() <= 1 {
        inclusive_scan_seq(data);
        return;
    }

    // Phase 1: independent per-chunk scans (Alg. 1 lines 2-3).
    parcsr_obs::with_span("scan.chunk_pass", || {
        let parts = split_mut_by_ranges(data, &ranges);
        parts.into_par_iter().enumerate().for_each(|(i, chunk)| {
            let _span = parcsr_obs::enter_with_args(
                "scan.chunk",
                parcsr_obs::SpanArgs::new()
                    .chunk(i as u64)
                    .chunk_len(chunk.len() as u64),
            );
            inclusive_scan_seq(chunk);
        });
    });
    // Implicit sync(): the parallel iterator completes before we continue.

    // Phase 2: serialized carry propagation across chunk tails
    // (Alg. 1 lines 6-9; inherently a sequential chain).
    parcsr_obs::with_span("scan.carry", || {
        for w in ranges.windows(2) {
            let prev_last = data[w[0].end - 1];
            let cur_last = &mut data[w[1].end - 1];
            *cur_last = prev_last.wrapping_add(*cur_last);
        }
    });

    // Phase 3: each chunk (except the first) adds the previous chunk's global
    // prefix to all but its last element (Alg. 1 lines 11-13).
    parcsr_obs::with_span("scan.fixup", || {
        let carries: Vec<u64> = ranges[..ranges.len() - 1]
            .iter()
            .map(|r| data[r.end - 1])
            .collect();
        let mut parts = split_mut_by_ranges(data, &ranges);
        // Drop the first chunk: it has no incoming carry.
        let rest = parts.split_off(1);
        rest.into_par_iter()
            .zip(carries.into_par_iter())
            .enumerate()
            .for_each(|(i, (chunk, carry))| {
                // Chunk 0 has no incoming carry, so fixup chunks start at 1.
                let _span = parcsr_obs::enter_with_args(
                    "scan.fixup_chunk",
                    parcsr_obs::SpanArgs::new()
                        .chunk(i as u64 + 1)
                        .chunk_len(chunk.len() as u64),
                );
                let last = chunk.len() - 1;
                for x in &mut chunk[..last] {
                    *x = carry.wrapping_add(*x);
                }
            });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(v: &[u64]) -> Vec<u64> {
        let mut r = v.to_vec();
        inclusive_scan_seq(&mut r);
        r
    }

    #[test]
    fn matches_figure_2_structure() {
        // A 16-element array in 4 chunks, as in the paper's Figure 2.
        let input: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
        let mut v = input.clone();
        inclusive_scan_chunked(&mut v, 4);
        assert_eq!(v, reference(&input));
    }

    #[test]
    fn all_chunk_counts_agree() {
        let input: Vec<u64> = (0..103).map(|i| (i * 31 + 7) % 97).collect();
        let want = reference(&input);
        for chunks in [1, 2, 3, 4, 7, 16, 64, 103, 500] {
            let mut v = input.clone();
            inclusive_scan_chunked(&mut v, chunks);
            assert_eq!(v, want, "chunks={chunks}");
        }
    }

    #[test]
    fn empty_and_tiny() {
        let mut v: Vec<u64> = vec![];
        inclusive_scan_chunked(&mut v, 4);
        assert!(v.is_empty());

        let mut v = vec![42u64];
        inclusive_scan_chunked(&mut v, 4);
        assert_eq!(v, [42]);

        let mut v = vec![1u64, 2];
        inclusive_scan_chunked(&mut v, 8);
        assert_eq!(v, [1, 3]);
    }

    #[test]
    fn chunk_of_size_one_each() {
        let input: Vec<u64> = vec![5, 5, 5, 5];
        let mut v = input.clone();
        inclusive_scan_chunked(&mut v, 4);
        assert_eq!(v, [5, 10, 15, 20]);
    }
}
