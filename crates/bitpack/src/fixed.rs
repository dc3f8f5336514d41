//! Fixed-width bit packing — the codec of Gopal et al. \[7\] that the paper
//! applies to both CSR arrays.
//!
//! Every value is stored with the same number of bits,
//! `width = ⌈log2(max + 1)⌉`, so element `i` lives at bit offset `i * width`
//! and random access is O(1). This is exactly the property `GetRowFromCSR`
//! \[28\] relies on to fetch a node's row from the packed structure without
//! decompressing anything else.

use crate::bitbuf::BitBuf;
use crate::cursor::RowCursor;

/// Number of bits needed to represent `value` (at least 1, so that a packed
/// array of zeros still occupies addressable slots).
///
/// ```
/// use parcsr_bitpack::bits_needed;
/// assert_eq!(bits_needed(0), 1);
/// assert_eq!(bits_needed(1), 1);
/// assert_eq!(bits_needed(2), 2);
/// assert_eq!(bits_needed(255), 8);
/// assert_eq!(bits_needed(256), 9);
/// assert_eq!(bits_needed(u64::MAX), 64);
/// ```
#[inline]
pub fn bits_needed(value: u64) -> u32 {
    (64 - value.leading_zeros()).max(1)
}

/// A `u64` sequence packed at a uniform bit width with O(1) random access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedArray {
    buf: BitBuf,
    width: u32,
    len: usize,
}

impl PackedArray {
    /// Packs `values` at the minimal uniform width for their maximum.
    pub fn pack(values: &[u64]) -> Self {
        let width = bits_needed(values.iter().copied().max().unwrap_or(0));
        Self::pack_with_width(values, width)
    }

    /// Packs `values` at an explicit width (used by the parallel packer,
    /// where the width is agreed globally before chunks pack independently).
    /// Any unsigned element type packs in place, with no widening copy.
    ///
    /// # Panics
    ///
    /// Panics if any value does not fit in `width` bits, or `width` is 0 or
    /// exceeds 64.
    pub fn pack_with_width<T: Copy + Into<u64>>(values: &[T], width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        let mut buf = BitBuf::with_capacity(values.len() * width as usize);
        let limit = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        for &v in values {
            let v: u64 = v.into();
            assert!(v <= limit, "value {v} does not fit in {width} bits");
            buf.push_bits(v, width);
        }
        PackedArray {
            buf,
            width,
            len: values.len(),
        }
    }

    /// Assembles a packed array from parts produced elsewhere (the parallel
    /// merge path).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != len * width`.
    pub fn from_raw_parts(buf: BitBuf, width: u32, len: usize) -> Self {
        assert_eq!(
            buf.len(),
            len * width as usize,
            "bit buffer length must equal len * width"
        );
        PackedArray { buf, width, len }
    }

    /// Number of packed elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per element.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Random access to element `i`. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.buf.read_bits(i * self.width as usize, self.width)
    }

    /// Decodes the whole array.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// Iterates over the packed values in order (a streaming cursor, faster
    /// than repeated [`get`](Self::get) because the position advances
    /// incrementally).
    pub fn iter(&self) -> RowCursor<'_> {
        self.range_cursor(0, self.len)
    }

    /// Streaming cursor over elements `[start, start + count)` — the
    /// allocation-free row-extraction primitive. O(1) to create; seekable
    /// via [`RowCursor::advance`].
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the end of the array.
    pub fn range_cursor(&self, start: usize, count: usize) -> RowCursor<'_> {
        assert!(
            start + count <= self.len,
            "range {start}..{} out of bounds (len {})",
            start + count,
            self.len
        );
        RowCursor::new(&self.buf, self.width, start, count)
    }

    /// Decodes `count` elements starting at index `start` into `out`
    /// (`out` is cleared first). The materializing counterpart of
    /// [`range_cursor`](Self::range_cursor).
    pub fn decode_range_into(&self, start: usize, count: usize, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(count);
        out.extend(self.range_cursor(start, count));
    }

    /// Bytes of bit data when stored compactly.
    pub fn packed_bytes(&self) -> usize {
        self.buf.packed_bytes()
    }

    /// Heap bytes actually held.
    pub fn heap_bytes(&self) -> usize {
        self.buf.heap_bytes()
    }

    /// The underlying bit buffer.
    pub fn bit_buf(&self) -> &BitBuf {
        &self.buf
    }
}

/// Streaming iterator over a whole [`PackedArray`] (a [`RowCursor`] spanning
/// every element).
pub type PackedIter<'a> = RowCursor<'a>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_needed_boundaries() {
        assert_eq!(bits_needed(0), 1);
        for w in 1..=63u32 {
            assert_eq!(bits_needed((1u64 << w) - 1), w.max(1));
            assert_eq!(bits_needed(1u64 << w), w + 1);
        }
    }

    #[test]
    fn pack_roundtrip() {
        let values: Vec<u64> = (0..500).map(|i| i * 997 % 1021).collect();
        let p = PackedArray::pack(&values);
        assert_eq!(p.len(), values.len());
        assert_eq!(p.width(), bits_needed(*values.iter().max().unwrap()));
        assert_eq!(p.to_vec(), values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(p.get(i), v);
        }
    }

    #[test]
    fn pack_empty() {
        let p = PackedArray::pack(&[]);
        assert!(p.is_empty());
        assert_eq!(p.to_vec(), Vec::<u64>::new());
        assert_eq!(p.packed_bytes(), 0);
    }

    #[test]
    fn pack_all_zeros_still_addressable() {
        let p = PackedArray::pack(&[0, 0, 0]);
        assert_eq!(p.width(), 1);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(1), 0);
    }

    #[test]
    fn pack_64_bit_values() {
        let values = vec![u64::MAX, 0, u64::MAX / 2, 1];
        let p = PackedArray::pack(&values);
        assert_eq!(p.width(), 64);
        assert_eq!(p.to_vec(), values);
    }

    #[test]
    fn explicit_width() {
        let p = PackedArray::pack_with_width(&[1u64, 2, 3], 20);
        assert_eq!(p.width(), 20);
        assert_eq!(p.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn value_too_wide_panics() {
        PackedArray::pack_with_width(&[16u64], 4);
    }

    #[test]
    fn decode_range() {
        let values: Vec<u64> = (0..100).collect();
        let p = PackedArray::pack(&values);
        let mut out = Vec::new();
        p.decode_range_into(10, 5, &mut out);
        assert_eq!(out, [10, 11, 12, 13, 14]);
        p.decode_range_into(0, 0, &mut out);
        assert!(out.is_empty());
        p.decode_range_into(99, 1, &mut out);
        assert_eq!(out, [99]);
    }

    #[test]
    fn compression_is_real() {
        // 10k values < 1024 pack at 10 bits: 12.5 kB vs 80 kB raw.
        let values: Vec<u64> = (0..10_000).map(|i| i % 1024).collect();
        let p = PackedArray::pack(&values);
        assert_eq!(p.width(), 10);
        assert!(p.packed_bytes() <= 10_000 * 10 / 8 + 8);
        assert!(p.packed_bytes() * 6 < values.len() * 8);
    }

    #[test]
    fn iter_matches_get() {
        let values: Vec<u64> = (0..77).map(|i| (i * i) % 53).collect();
        let p = PackedArray::pack(&values);
        let via_iter: Vec<u64> = p.iter().collect();
        let via_get: Vec<u64> = (0..p.len()).map(|i| p.get(i)).collect();
        assert_eq!(via_iter, via_get);
        assert_eq!(p.iter().len(), 77);
    }
}
