//! Algorithm 4: chunk-parallel bit packing with a final merge.
//!
//! The paper packs the CSR arrays by splitting them into one chunk per
//! processor, running the bit-pack algorithm of \[7\] on each chunk, storing
//! each resulting bit array "in a global location", and merging them into the
//! final bit array. For the merge to be a plain concatenation the chunks must
//! agree on the element width, so the width is derived from the *global*
//! maximum first (a parallel reduction).

use rayon::prelude::*;

// Per-value cost is uniform (every element packs to `width` bits), so the
// count split is the right plan here; skew-aware planning applies to *rows*,
// not packed values. The shared planner carries the coverage debug-assert a
// private copy once silently dropped.
use parcsr_runtime::chunk_ranges;

use crate::bitbuf::BitBuf;
use crate::fixed::{bits_needed, PackedArray};

/// Packs `values` using `chunks` parallel packers and merges the per-chunk
/// bit arrays (the paper's Algorithm 4). Produces exactly the same
/// [`PackedArray`] as the sequential [`PackedArray::pack`].
pub fn pack_parallel(values: &[u64], chunks: usize) -> PackedArray {
    let max = if values.len() >= 1 << 16 {
        values.par_iter().copied().max().unwrap_or(0)
    } else {
        values.iter().copied().max().unwrap_or(0)
    };
    pack_parallel_with_width(values, chunks, bits_needed(max))
}

/// Packs `values` at an explicit `width` using `chunks` parallel packers.
/// Any unsigned element type packs in place, with no widening copy.
///
/// # Panics
///
/// Panics if any value does not fit in `width` bits.
pub fn pack_parallel_with_width<T: Copy + Into<u64> + Sync>(
    values: &[T],
    chunks: usize,
    width: u32,
) -> PackedArray {
    let ranges = chunk_ranges(values.len(), chunks);
    if ranges.len() <= 1 {
        return PackedArray::pack_with_width(values, width);
    }

    // Each "processor" packs its chunk at the agreed width into its own bit
    // array (Alg. 4 lines 3-4: "The resultant bit array is then stored in a
    // global location").
    let parts: Vec<PackedArray> = ranges
        .into_par_iter()
        .enumerate()
        .map(|(i, r)| {
            let _span = parcsr_obs::enter_with_args(
                "bitpack.chunk",
                parcsr_obs::SpanArgs::new()
                    .chunk(i as u64)
                    .chunk_len(r.len() as u64)
                    .bits(width),
            );
            PackedArray::pack_with_width(&values[r], width)
        })
        .collect();

    // Merge step (Alg. 4 line 5: "merge all bitArrays from global location").
    let merged = parcsr_obs::with_span_args(
        "bitpack.merge",
        parcsr_obs::SpanArgs::new()
            .edges(values.len() as u64)
            .bits(width),
        || {
            let mut merged = BitBuf::with_capacity(values.len() * width as usize);
            for part in &parts {
                merged.extend_from(part.bit_buf());
            }
            merged
        },
    );
    PackedArray::from_raw_parts(merged, width, values.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_equals_sequential() {
        let values: Vec<u64> = (0..10_001).map(|i| (i * 2654435761) % 1_000_000).collect();
        let seq = PackedArray::pack(&values);
        for chunks in [1, 2, 3, 4, 8, 16, 64] {
            let par = pack_parallel(&values, chunks);
            assert_eq!(par, seq, "chunks={chunks}");
        }
    }

    #[test]
    fn empty_input() {
        let p = pack_parallel(&[], 8);
        assert!(p.is_empty());
    }

    #[test]
    fn chunk_boundaries_not_word_aligned() {
        // width 13 with chunk size 7 => per-chunk bit arrays of 91 bits,
        // never word-aligned: exercises the shifted merge path.
        let values: Vec<u64> = (0..70).map(|i| i * 117 % 8000).collect();
        let seq = PackedArray::pack_with_width(&values, 13);
        let par = pack_parallel_with_width(&values, 10, 13);
        assert_eq!(par, seq);
    }

    #[test]
    fn more_chunks_than_values() {
        let values = vec![1u64, 2, 3];
        let par = pack_parallel(&values, 100);
        assert_eq!(par.to_vec(), values);
    }

    #[test]
    fn random_access_after_merge() {
        let values: Vec<u64> = (0..997).map(|i| i % 61).collect();
        let par = pack_parallel(&values, 7);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(par.get(i), v);
        }
    }
}
