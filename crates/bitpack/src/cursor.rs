//! Streaming row cursors — allocation-free access to a slice of a packed
//! array.
//!
//! [`RowCursor`] is the zero-copy counterpart of
//! [`PackedArray::decode_range_into`](crate::PackedArray::decode_range_into):
//! a [`BitReader`] positioned at bit `start · width` that yields `count`
//! fixed-width values one at a time. Because every element occupies the same
//! number of bits, positioning is O(1) and the cursor can seek forward
//! ([`RowCursor::advance`], `Iterator::nth`) without decoding the skipped
//! elements — the property `GetRowFromCSR` exploits to pull one row out of
//! the packed structure without touching anything else.

use crate::bitbuf::{BitBuf, BitReader};

/// Streaming cursor over `count` consecutive fixed-width values of a bit
/// buffer, starting at element `start`. Created via
/// [`PackedArray::range_cursor`](crate::PackedArray::range_cursor) (or
/// [`RowCursor::new`] for a raw [`BitBuf`]).
#[derive(Debug, Clone)]
pub struct RowCursor<'a> {
    reader: BitReader<'a>,
    width: u32,
    remaining: usize,
}

impl<'a> RowCursor<'a> {
    /// Creates a cursor over elements `[start, start + count)` of `buf`
    /// interpreted as a packed sequence of `width`-bit values.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64, or if the element range reaches
    /// past the end of the buffer.
    pub fn new(buf: &'a BitBuf, width: u32, start: usize, count: usize) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        let pos = start * width as usize;
        let end = pos + count * width as usize;
        assert!(
            end <= buf.len(),
            "element range {start}..{} out of bounds ({} bits, width {width})",
            start + count,
            buf.len()
        );
        RowCursor {
            reader: BitReader::at(buf, pos),
            width,
            remaining: count,
        }
    }

    /// Elements left to read.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Bits per element.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Seeks forward by `n` elements without decoding them — O(1).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the remaining element count.
    pub fn advance(&mut self, n: usize) {
        assert!(
            n <= self.remaining,
            "advance {n} past end ({} remaining)",
            self.remaining
        );
        self.reader.skip(n * self.width as usize);
        self.remaining -= n;
    }
}

impl Iterator for RowCursor<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.reader.read(self.width))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    fn nth(&mut self, n: usize) -> Option<u64> {
        if n >= self.remaining {
            self.advance(self.remaining);
            return None;
        }
        self.advance(n);
        self.next()
    }
}

impl ExactSizeIterator for RowCursor<'_> {}

#[cfg(test)]
mod tests {
    use crate::fixed::PackedArray;

    #[test]
    fn cursor_yields_range() {
        let values: Vec<u64> = (0..100).map(|i| i * 7 % 64).collect();
        let p = PackedArray::pack(&values);
        let got: Vec<u64> = p.range_cursor(10, 25).collect();
        assert_eq!(got, &values[10..35]);
    }

    #[test]
    fn cursor_whole_and_empty() {
        let values: Vec<u64> = (0..9).collect();
        let p = PackedArray::pack(&values);
        assert_eq!(p.range_cursor(0, 9).collect::<Vec<_>>(), values);
        assert_eq!(p.range_cursor(4, 0).count(), 0);
        assert_eq!(p.range_cursor(9, 0).count(), 0);
    }

    #[test]
    fn cursor_is_exact_size() {
        let p = PackedArray::pack(&[1, 2, 3, 4, 5]);
        let mut c = p.range_cursor(1, 3);
        assert_eq!(c.len(), 3);
        c.next();
        assert_eq!(c.len(), 2);
        assert_eq!(c.remaining(), 2);
    }

    #[test]
    fn cursor_seeks_without_decoding() {
        let values: Vec<u64> = (0..50).map(|i| i * i % 97).collect();
        let p = PackedArray::pack(&values);
        let mut c = p.range_cursor(0, 50);
        c.advance(20);
        assert_eq!(c.next(), Some(values[20]));
        assert_eq!(c.nth(5), Some(values[26]));
        assert_eq!(c.nth(1000), None);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cursor_range_past_end_panics() {
        let p = PackedArray::pack(&[1, 2, 3]);
        p.range_cursor(2, 2);
    }
}
