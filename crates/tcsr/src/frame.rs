//! One time-frame's difference set, as a sparse delta CSR.
//!
//! A frame delta is the set of edges that changed state in that frame
//! (Figure 4's red deleted edges and dotted added edges, in one set — under
//! the parity rule a deletion and an addition are the same toggle). Section
//! IV stores each frame as a CSR of these differences. A frame here keeps
//! only the rows that changed, so an untouched node costs nothing:
//!
//! * `sources` — the frame's changed source ids, strictly increasing;
//! * `offsets` — `s + 1` row bounds into `columns`, from 0 to `d`;
//! * `columns` — each row's toggled targets, strictly increasing.
//!
//! Each array is packed at the width its own largest value needs.
//! Membership is a binary search on `sources`, then one on the row:
//! O(log s + log d_u) bit reads. A row is one slice decode.

use std::cmp::Ordering;
use std::ops::Range;

use parcsr_bitpack::{bits_needed, pack_parallel_with_width, PackedArray};
use parcsr_graph::NodeId;

/// Edge key `u · 2³² + v`: the builder's sort and parity-collapse order,
/// and the order [`DeltaFrame::decode_keys`] yields.
#[inline]
pub(crate) fn key(u: NodeId, v: NodeId) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

#[inline]
pub(crate) fn unkey(k: u64) -> (NodeId, NodeId) {
    ((k >> 32) as NodeId, k as NodeId)
}

/// A single frame's difference set as three packed arrays (see the module
/// docs). The `.tcsr` reader builds one only after checking every
/// invariant the queries assume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaFrame {
    /// Changed source ids, strictly increasing.
    pub(crate) sources: PackedArray,
    /// `sources.len() + 1` strictly increasing bounds, from 0 to
    /// `columns.len()`.
    pub(crate) offsets: PackedArray,
    /// Row `i`'s targets at `offsets[i]..offsets[i + 1]`, strictly
    /// increasing within the row.
    pub(crate) columns: PackedArray,
}

impl DeltaFrame {
    /// Builds a frame from sorted, duplicate-free edge keys `u · 2³² + v`
    /// in one linear pass; the column array packs with `processors`
    /// packers.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `keys` is not strictly increasing.
    pub fn from_sorted_keys(keys: &[u64], processors: usize) -> Self {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "frame keys must be strictly increasing"
        );
        // Branch-free split: key i writes its source and index into row
        // slot `s`, which is kept only when the source changes. Most rows
        // hold one or two keys, so a branch here would mispredict often.
        let mut sources: Vec<NodeId> = vec![0; keys.len()];
        let mut offsets: Vec<u64> = vec![0; keys.len() + 1];
        let mut columns: Vec<NodeId> = Vec::with_capacity(keys.len());
        let (mut s, mut prev, mut widest_column) = (0, None, 0);
        for (i, &k) in keys.iter().enumerate() {
            let (u, v) = unkey(k);
            sources[s] = u;
            offsets[s] = i as u64;
            s += usize::from(prev != Some(u));
            prev = Some(u);
            widest_column = widest_column.max(v);
            columns.push(v);
        }
        sources.truncate(s);
        offsets[s] = keys.len() as u64;
        offsets.truncate(s + 1);
        let source_width = bits_needed(sources.last().map_or(0, |&u| u64::from(u)));
        DeltaFrame {
            sources: PackedArray::pack_with_width(&sources, source_width),
            offsets: PackedArray::pack_with_width(&offsets, bits_needed(keys.len() as u64)),
            columns: pack_parallel_with_width(
                &columns,
                processors,
                bits_needed(u64::from(widest_column)),
            ),
        }
    }

    /// Number of changed edges in this frame.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if nothing changed in this frame.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Compact size in bytes of the three packed arrays.
    pub fn packed_bytes(&self) -> usize {
        self.sources.packed_bytes() + self.offsets.packed_bytes() + self.columns.packed_bytes()
    }

    /// The column range of `u`'s row, if `u` changed in this frame.
    fn row_range(&self, u: NodeId) -> Option<Range<usize>> {
        let i = search(&self.sources, 0..self.sources.len(), u64::from(u))?;
        Some(self.offsets.get(i) as usize..self.offsets.get(i + 1) as usize)
    }

    /// Whether edge `(u, v)` toggled in this frame.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.row_range(u)
            .is_some_and(|row| search(&self.columns, row, u64::from(v)).is_some())
    }

    /// The toggled neighbors of `u` in this frame (sorted).
    pub fn row(&self, u: NodeId) -> Vec<NodeId> {
        let Some(row) = self.row_range(u) else {
            return Vec::new();
        };
        let mut out = vec![0; row.len()];
        self.columns.decode_range_u32(row.start, &mut out);
        out
    }

    /// Decodes the frame into sorted edge keys `u · 2³² + v`.
    pub fn decode_keys(&self) -> Vec<u64> {
        let mut columns = vec![0; self.columns.len()];
        self.columns.decode_range_u32(0, &mut columns);
        let mut keys = Vec::with_capacity(columns.len());
        let mut start = 0;
        for (u, end) in self.sources.iter().zip(self.offsets.iter().skip(1)) {
            let row = &columns[start..end as usize];
            keys.extend(row.iter().map(|&v| key(u as NodeId, v)));
            start = end as usize;
        }
        keys
    }

    /// Decodes the frame into sorted `(u, v)` pairs.
    pub fn decode_edges(&self) -> Vec<(NodeId, NodeId)> {
        self.decode_keys().into_iter().map(unkey).collect()
    }
}

/// Binary search for `x` among the sorted elements `range` of `array`.
fn search(array: &PackedArray, range: Range<usize>, x: u64) -> Option<usize> {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match array.get(mid).cmp(&x) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Some(mid),
        }
    }
    None
}

/// Symmetric difference of two sorted, duplicate-free lists — the "XOR" of
/// edge sets (or of rows) that turns frame deltas into snapshots.
/// `O(|a| + |b|)`.
pub fn sym_diff<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_of(pairs: &[(u32, u32)]) -> Vec<u64> {
        pairs.iter().map(|&(u, v)| key(u, v)).collect()
    }

    #[test]
    fn key_roundtrip() {
        for &(u, v) in &[(0u32, 0u32), (1, 2), (u32::MAX, 0), (7, u32::MAX)] {
            assert_eq!(unkey(key(u, v)), (u, v));
        }
    }

    #[test]
    fn key_order_matches_pair_order() {
        let mut pairs = vec![(3u32, 1u32), (0, 9), (3, 0), (2, 5)];
        let mut keys: Vec<u64> = pairs.iter().map(|&(u, v)| key(u, v)).collect();
        pairs.sort_unstable();
        keys.sort_unstable();
        assert_eq!(keys.iter().map(|&k| unkey(k)).collect::<Vec<_>>(), pairs);
    }

    #[test]
    fn frame_roundtrip() {
        let keys = keys_of(&[(0, 1), (0, 5), (2, 3), (7, 0)]);
        let f = DeltaFrame::from_sorted_keys(&keys, 2);
        assert_eq!(f.decode_keys(), keys);
        assert_eq!(f.len(), 4);
        assert_eq!(f.sources.to_vec(), [0, 2, 7]);
        assert_eq!(f.offsets.to_vec(), [0, 2, 3, 4]);
        assert_eq!(f.columns.to_vec(), [1, 5, 3, 0]);
    }

    #[test]
    fn contains() {
        let keys = keys_of(&[(0, 1), (0, 5), (2, 3), (7, 0)]);
        let f = DeltaFrame::from_sorted_keys(&keys, 1);
        assert!(f.contains(0, 1));
        assert!(f.contains(0, 5));
        assert!(f.contains(7, 0));
        assert!(!f.contains(0, 2));
        assert!(!f.contains(0, 3), "column of another row");
        assert!(!f.contains(7, 1));
        assert!(!f.contains(1, 1));
        assert!(!f.contains(8, 0));
    }

    #[test]
    fn empty_frame() {
        let f = DeltaFrame::from_sorted_keys(&[], 4);
        assert!(f.is_empty());
        assert!(!f.contains(0, 0));
        assert!(f.decode_edges().is_empty());
        assert!(f.row(3).is_empty());
        assert_eq!(f.offsets.to_vec(), [0]);
    }

    #[test]
    fn row_extraction() {
        let keys = keys_of(&[(1, 0), (1, 7), (2, 2), (5, 1), (5, 3)]);
        let f = DeltaFrame::from_sorted_keys(&keys, 2);
        assert_eq!(f.row(1), [0, 7]);
        assert_eq!(f.row(2), [2]);
        assert_eq!(f.row(5), [1, 3]);
        assert!(f.row(0).is_empty());
        assert!(f.row(6).is_empty());
    }

    #[test]
    fn arrays_pack_at_their_own_widths() {
        // One hub row of 1000 even targets: the sources need 14 bits, the
        // offsets 10 and the columns 11, where a 64-bit key packs at 46.
        let keys: Vec<u64> = (0..1000u32).map(|i| key(12345, i * 2)).collect();
        let f = DeltaFrame::from_sorted_keys(&keys, 2);
        let widths = [&f.sources, &f.offsets, &f.columns].map(PackedArray::width);
        assert_eq!(widths, [14, 10, 11]);
        assert_eq!(f.row(12345).len(), 1000);
        assert!(f.contains(12345, 1998) && !f.contains(12345, 1999));
    }

    #[test]
    fn sym_diff_cases() {
        assert_eq!(sym_diff::<u64>(&[], &[]), Vec::<u64>::new());
        assert_eq!(sym_diff(&[1, 2, 3], &[]), [1, 2, 3]);
        assert_eq!(sym_diff(&[], &[4]), [4]);
        assert_eq!(sym_diff(&[1, 2, 3], &[2]), [1, 3]);
        assert_eq!(sym_diff(&[1, 3], &[2, 4]), [1, 2, 3, 4]);
        assert_eq!(sym_diff(&[5, 6], &[5, 6]), Vec::<u64>::new());
    }

    #[test]
    fn sym_diff_is_xor_like() {
        let a = vec![1u64, 4, 9, 16];
        let b = vec![2u64, 4, 8, 16];
        let d = sym_diff(&a, &b);
        // Self-inverse: (a Δ b) Δ b == a.
        assert_eq!(sym_diff(&d, &b), a);
        // Commutative.
        assert_eq!(d, sym_diff(&b, &a));
    }
}
