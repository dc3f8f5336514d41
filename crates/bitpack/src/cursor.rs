//! Streaming row cursors and the 64-value block decode kernel —
//! allocation-free access to a slice of a packed array.
//!
//! Because every element occupies the same number of bits, positioning is
//! O(1) — the property `GetRowFromCSR` exploits to pull one row out of the
//! packed structure without touching anything else. Two readers build on it:
//!
//! * [`RowCursor`]: a [`BitReader`] positioned at bit `start · width` that
//!   yields `count` values of any width ≤ 64 one at a time and seeks
//!   forward ([`RowCursor::advance`], `Iterator::nth`) without decoding the
//!   skipped elements. The generic `u64` arrays (CSR offsets, a temporal
//!   frame's sources and offsets) read through it.
//! * The block kernel, for arrays of width ≤ 32 (the column array). Element
//!   `64·k` starts on word `k · width`, so a block of [`BLOCK_LEN`] values is
//!   exactly `width` words and [`unpack_block`] decodes it with constant
//!   shifts (the fixed-width layout of Lemire & Boytsov, arXiv:1209.2137).
//!   [`PackedArray::decode_range_u32`](crate::PackedArray::decode_range_u32)
//!   and [`BlockCursor`] read a range's head one value at a time up to the
//!   next block boundary, unpack whole blocks, then read the tail.

use crate::bitbuf::{BitBuf, BitReader};

/// Values per block. A block of 64 `width`-bit values spans exactly `width`
/// words, so every block is word-aligned.
pub const BLOCK_LEN: usize = 64;

/// Unpacks one word-aligned block of 64 `W`-bit values (`W` in 1..=32).
/// The 64 extractions are written out one by one, so every word index and
/// shift is a compile-time constant and no index is checked at run time.
#[inline(always)]
pub fn unpack_block<const W: usize>(words: &[u64; W], out: &mut [u32; BLOCK_LEN]) {
    const { assert!(W >= 1 && W <= 32, "block width must be in 1..=32") };
    macro_rules! extract_all {
        ($($i:literal)*) => { $( out[$i] = extract::<W>(words, $i); )* };
    }
    extract_all!(
        0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
        32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60
        61 62 63
    );
}

/// Value `i` of a block: a constant word index and shift once `i` is a
/// literal. A value that straddles two words takes its high bits from the
/// next one (the block's last value never straddles).
#[inline(always)]
fn extract<const W: usize>(words: &[u64; W], i: usize) -> u32 {
    let (word, shift) = (i * W / 64, i * W % 64);
    let mut v = words[word] >> shift;
    if shift + W > 64 {
        v |= words[word + 1] << (64 - shift);
    }
    (v & (u64::MAX >> (64 - W))) as u32
}

/// Unpacks consecutive blocks: block `k` of `out` from words
/// `[k·W, (k+1)·W)` of `words`.
#[inline]
fn unpack_blocks<const W: usize>(words: &[u64], out: &mut [[u32; BLOCK_LEN]]) {
    let (src, _) = words.as_chunks::<W>();
    assert!(src.len() >= out.len(), "block words out of bounds");
    for (s, o) in src.iter().zip(out) {
        unpack_block::<W>(s, o);
    }
}

/// [`unpack_block`] over `out.len()` consecutive blocks at a runtime
/// `width`, dispatched once by a single `match`. Panics if `width` is not in
/// 1..=32 or `words` holds fewer than `out.len() · width` words.
fn unpack_blocks_at(width: u32, words: &[u64], out: &mut [[u32; BLOCK_LEN]]) {
    assert!(
        (1..=32).contains(&width),
        "block width {width} not in 1..=32"
    );
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width {
                $($w => unpack_blocks::<$w>(words, out),)*
                _ => {}
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
}

/// Asserts that `width` suits the block kernel and that elements
/// `[start, end)` lie inside `buf`.
fn assert_block_range(buf: &BitBuf, width: u32, start: usize, end: usize) {
    assert!(
        (1..=32).contains(&width),
        "block width {width} not in 1..=32"
    );
    assert!(
        end * width as usize <= buf.len(),
        "element range {start}..{end} out of bounds ({} bits, width {width})",
        buf.len()
    );
}

/// Reads elements `[start, start + out.len())` one at a time (a range's
/// head and tail, which never span a whole block). A value of width ≤ 32
/// spans at most two words; it is cut out of their 128-bit concatenation.
#[inline]
fn read_each(buf: &BitBuf, width: u32, start: usize, out: &mut [u32]) {
    for (i, slot) in (start..).zip(out) {
        *slot = read_one(buf.words(), width, i);
    }
}

/// Element `i` of the `width`-bit values (width ≤ 32) in `words`.
#[inline(always)]
fn read_one(words: &[u64], width: u32, i: usize) -> u32 {
    let pos = i * width as usize;
    let (word, shift) = (pos / 64, pos % 64);
    let lo = u128::from(words[word]);
    let hi = u128::from(words.get(word + 1).copied().unwrap_or(0));
    ((hi << 64 | lo) >> shift) as u32 & (u32::MAX >> (32 - width))
}

/// Decodes elements `[start, start + out.len())` of the `width`-bit values
/// in `buf` into `out`: the head one value at a time up to the next
/// 64-element boundary, whole blocks through [`unpack_block`], then the
/// tail.
///
/// # Panics
///
/// Panics if `width` is not in 1..=32 or the range reaches past the end of
/// the buffer.
pub(crate) fn decode_range(buf: &BitBuf, width: u32, start: usize, out: &mut [u32]) {
    assert_block_range(buf, width, start, start + out.len());
    let head = (start.next_multiple_of(BLOCK_LEN) - start).min(out.len());
    let (head_out, rest) = out.split_at_mut(head);
    read_each(buf, width, start, head_out);
    let first = start + head;
    let (blocks, tail) = rest.as_chunks_mut::<BLOCK_LEN>();
    let tail_start = first + blocks.len() * BLOCK_LEN;
    unpack_blocks_at(
        width,
        &buf.words()[first / BLOCK_LEN * width as usize..],
        blocks,
    );
    read_each(buf, width, tail_start, tail);
}

/// Streaming cursor over `count` consecutive values of width ≤ 32 that
/// decodes up to one 64-value block per call. Every chunk it yields ends on
/// a 64-element boundary of the array or at the end of the range, so all but
/// a range's head and tail go through [`unpack_block`]. Created via
/// [`PackedArray::block_cursor`](crate::PackedArray::block_cursor).
#[derive(Debug, Clone)]
pub struct BlockCursor<'a> {
    buf: &'a BitBuf,
    width: u32,
    pos: usize,
    end: usize,
}

impl<'a> BlockCursor<'a> {
    /// Creates a cursor over elements `[start, start + count)` of `buf`
    /// interpreted as a packed sequence of `width`-bit values.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in 1..=32, or if the element range reaches
    /// past the end of the buffer.
    pub(crate) fn new(buf: &'a BitBuf, width: u32, start: usize, count: usize) -> Self {
        let end = start + count;
        assert_block_range(buf, width, start, end);
        BlockCursor {
            buf,
            width,
            pos: start,
            end,
        }
    }

    /// Elements left to decode.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// Decodes the values up to the next 64-element boundary (or the end of
    /// the range) into `out` and returns them. Empty once the range is
    /// exhausted.
    #[inline]
    pub fn next_block<'o>(&mut self, out: &'o mut [u32; BLOCK_LEN]) -> &'o [u32] {
        let len = (BLOCK_LEN - self.pos % BLOCK_LEN).min(self.end - self.pos);
        if len == BLOCK_LEN {
            let first = self.pos / BLOCK_LEN * self.width as usize;
            unpack_blocks_at(
                self.width,
                &self.buf.words()[first..],
                std::slice::from_mut(out),
            );
        } else {
            read_each(self.buf, self.width, self.pos, &mut out[..len]);
        }
        self.pos += len;
        &out[..len]
    }

    /// The remaining values one at a time (see [`BlockIter`]).
    pub fn values(self) -> BlockIter<'a> {
        BlockIter {
            blocks: self,
            buf: [0; BLOCK_LEN],
            pos: 0,
            filled: 0,
        }
    }
}

/// Iterator over a [`BlockCursor`]'s values: drains a 64-value buffer that
/// the block kernel refills, so a value costs a buffer read, not a bit
/// extraction. Created via [`BlockCursor::values`].
#[derive(Debug, Clone)]
pub struct BlockIter<'a> {
    blocks: BlockCursor<'a>,
    buf: [u32; BLOCK_LEN],
    /// Next unread slot of `buf`.
    pos: usize,
    /// Slots of `buf` the last refill decoded.
    filled: usize,
}

impl BlockIter<'_> {
    /// Decodes the next chunk into the drained buffer; false once the range
    /// is exhausted. Kept out of line so that `next` stays small enough to
    /// inline into the caller's loop.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        self.filled = self.blocks.next_block(&mut self.buf).len();
        self.pos = 0;
        self.filled > 0
    }

    /// Takes up to `max` of the next values as one slice of the buffer,
    /// refilling it first if it is drained. Shorter than `max` at a block
    /// boundary; empty once the range is exhausted.
    #[inline]
    pub fn next_run(&mut self, max: usize) -> &[u32] {
        if self.pos == self.filled {
            self.refill();
        }
        let run = max.min(self.filled - self.pos);
        self.pos += run;
        &self.buf[self.pos - run..self.pos]
    }
}

impl Iterator for BlockIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.pos == self.filled && !self.refill() {
            return None;
        }
        let v = self.buf.get(self.pos).copied();
        self.pos += 1;
        v
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.filled - self.pos + self.blocks.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for BlockIter<'_> {}

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
    use super::BLOCK_LEN;
    use crate::fixed::PackedArray;

    /// 400 pseudo-random values spanning the full `width` range.
    fn sample(width: u32) -> PackedArray {
        let mask = u64::MAX >> (64 - width);
        let values: Vec<u64> = (0..400u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) & mask)
            .collect();
        PackedArray::pack_with_width(&values, width)
    }

    #[test]
    fn range_decoder_matches_get() {
        // Every width, every start offset mod 64 and lengths 0..=200: covers
        // head-only, block-only and head + blocks + tail ranges.
        let mut out = vec![0u32; 200];
        for width in 1..=32 {
            let p = sample(width);
            for start in 0..BLOCK_LEN {
                for len in 0..=200 {
                    p.decode_range_u32(start, &mut out[..len]);
                    for (i, &v) in out[..len].iter().enumerate() {
                        assert_eq!(
                            u64::from(v),
                            p.get(start + i),
                            "width {width} start {start} len {len} index {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_cursor_chunks_end_on_block_boundaries() {
        let mut block = [0u32; BLOCK_LEN];
        for width in [1, 7, 19, 32] {
            let p = sample(width);
            for (start, count) in [
                (0, 0),
                (0, 64),
                (5, 3),
                (5, 59),
                (5, 300),
                (64, 200),
                (63, 2),
            ] {
                let mut c = p.block_cursor(start, count);
                let mut got = Vec::new();
                let mut pos = start;
                loop {
                    let chunk = c.next_block(&mut block);
                    if chunk.is_empty() {
                        break;
                    }
                    pos += chunk.len();
                    assert!(
                        pos % BLOCK_LEN == 0 || pos == start + count,
                        "chunk ends at {pos}"
                    );
                    got.extend(chunk.iter().map(|&v| u64::from(v)));
                    assert_eq!(c.remaining(), start + count - pos);
                }
                let want: Vec<u64> = p.range_cursor(start, count).collect();
                assert_eq!(got, want, "width {width} range {start}+{count}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in 1..=32")]
    fn block_decode_rejects_wide_arrays() {
        let p = PackedArray::pack(&[u64::MAX]);
        p.decode_range_u32(0, &mut [0]);
    }

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
