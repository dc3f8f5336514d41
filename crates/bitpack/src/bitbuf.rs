//! A growable bit array with arbitrary-offset, arbitrary-width access.
//!
//! Bits are stored little-endian within `u64` words: bit `i` of the buffer is
//! bit `i % 64` of word `i / 64`. A value written with width `w` occupies bits
//! `[pos, pos + w)` and is recovered by reading the same range, regardless of
//! word-boundary crossings.

/// An owned bit array. The unit the paper's Algorithm 4 produces per chunk
/// ("the resultant bit array is then stored in a global location") and merges
/// at the end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitBuf {
    words: Vec<u64>,
    /// Length in bits.
    len: usize,
}

impl BitBuf {
    /// Creates an empty bit buffer.
    pub fn new() -> Self {
        BitBuf::default()
    }

    /// Creates an empty bit buffer with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitBuf {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits have been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes used by the bit data (capacity-based, what a size report
    /// should count).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Bytes needed to store exactly `len` bits.
    pub fn packed_bytes(&self) -> usize {
        self.len.div_ceil(8)
    }

    /// The backing words (last word zero-padded past `len`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits set above `width`.
    #[inline]
    pub fn push_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} > 64");
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("bit>0 implies a word exists") |= value << bit;
            let spill = bit + width as usize;
            if spill > 64 {
                self.words.push(value >> (64 - bit));
            }
        }
        self.len += width as usize;
        // Clear any garbage above len in the last word (push of a full word
        // already leaves it clean; the shift paths can't set bits above len).
    }

    /// Reads `width` bits starting at bit offset `pos`.
    ///
    /// # Panics
    ///
    /// Panics if the range `[pos, pos + width)` is out of bounds or
    /// `width > 64`.
    #[inline]
    pub fn read_bits(&self, pos: usize, width: u32) -> u64 {
        assert!(width <= 64, "width {width} > 64");
        assert!(
            pos + width as usize <= self.len,
            "bit range {pos}..{} out of bounds (len {})",
            pos + width as usize,
            self.len
        );
        if width == 0 {
            return 0;
        }
        let word = pos / 64;
        let bit = pos % 64;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let lo = self.words[word] >> bit;
        if bit + width as usize <= 64 {
            lo & mask
        } else {
            let hi = self.words[word + 1] << (64 - bit);
            (lo | hi) & mask
        }
    }

    /// Appends all bits of `other` — the bit-level concatenation used by
    /// Algorithm 4's merge step. `O(other.len / 64)`.
    pub fn extend_from(&mut self, other: &BitBuf) {
        let shift = self.len % 64;
        self.words.reserve(other.words.len());
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for (i, &w) in other.words.iter().enumerate() {
                *self
                    .words
                    .last_mut()
                    .expect("non-word-aligned buffer has words") |= w << shift;
                let remaining_bits = other.len - i * 64;
                if shift + remaining_bits > 64 {
                    self.words.push(w >> (64 - shift));
                }
            }
        }
        self.len += other.len;
        self.truncate_words();
    }

    /// Drops trailing words that hold no live bits (can appear after merges).
    fn truncate_words(&mut self) {
        let needed = self.len.div_ceil(64);
        self.words.truncate(needed);
    }

    /// Reads a single bit.
    #[inline]
    pub fn get_bit(&self, pos: usize) -> bool {
        assert!(pos < self.len, "bit {pos} out of bounds (len {})", self.len);
        (self.words[pos / 64] >> (pos % 64)) & 1 == 1
    }
}

/// Streaming cursor reading consecutive values from a [`BitBuf`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a BitBuf,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at bit 0.
    pub fn new(buf: &'a BitBuf) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Creates a reader positioned at `pos` bits.
    pub fn at(buf: &'a BitBuf, pos: usize) -> Self {
        assert!(pos <= buf.len(), "start {pos} past end {}", buf.len());
        BitReader { buf, pos }
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads the next `width` bits and advances.
    #[inline]
    pub fn read(&mut self, width: u32) -> u64 {
        let v = self.buf.read_bits(self.pos, width);
        self.pos += width as usize;
        v
    }

    /// Skips `bits` bits.
    pub fn skip(&mut self, bits: usize) {
        assert!(self.pos + bits <= self.buf.len(), "skip past end");
        self.pos += bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_values() {
        for (v, w) in [
            (0u64, 1u32),
            (1, 1),
            (5, 3),
            (255, 8),
            (u64::MAX, 64),
            (1 << 33, 40),
        ] {
            let mut b = BitBuf::new();
            b.push_bits(v, w);
            assert_eq!(b.read_bits(0, w), v, "v={v} w={w}");
            assert_eq!(b.len(), w as usize);
        }
    }

    #[test]
    fn word_boundary_crossing() {
        let mut b = BitBuf::new();
        b.push_bits(0x3FF, 10); // occupies bits 0..10
        b.push_bits(0x1FFFFFFFFFFFFF, 53); // bits 10..63
        b.push_bits(0b101, 3); // bits 63..66 — crosses into word 1
        assert_eq!(b.read_bits(0, 10), 0x3FF);
        assert_eq!(b.read_bits(10, 53), 0x1FFFFFFFFFFFFF);
        assert_eq!(b.read_bits(63, 3), 0b101);
    }

    #[test]
    fn zero_width_is_noop() {
        let mut b = BitBuf::new();
        b.push_bits(0, 0);
        assert!(b.is_empty());
        b.push_bits(7, 3);
        assert_eq!(b.read_bits(0, 0), 0);
        assert_eq!(b.read_bits(3, 0), 0);
    }

    #[test]
    fn writer_reader_stream() {
        let mut buf = BitBuf::new();
        let values: Vec<(u64, u32)> = (0..200)
            .map(|i| {
                (
                    (i * 2654435761u64) % (1 << (i % 37 + 1)),
                    (i % 37 + 1) as u32,
                )
            })
            .collect();
        for &(v, width) in &values {
            buf.push_bits(v, width);
        }
        let mut r = BitReader::new(&buf);
        for &(v, width) in &values {
            assert_eq!(r.read(width), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn extend_from_word_aligned() {
        let mut a = BitBuf::new();
        a.push_bits(u64::MAX, 64);
        let mut b = BitBuf::new();
        b.push_bits(0b1011, 4);
        a.extend_from(&b);
        assert_eq!(a.len(), 68);
        assert_eq!(a.read_bits(64, 4), 0b1011);
    }

    #[test]
    fn extend_from_unaligned() {
        let mut a = BitBuf::new();
        a.push_bits(0b101, 3);
        let mut b = BitBuf::new();
        for i in 0..10u64 {
            b.push_bits(i, 17);
        }
        a.extend_from(&b);
        assert_eq!(a.len(), 3 + 170);
        assert_eq!(a.read_bits(0, 3), 0b101);
        for i in 0..10u64 {
            assert_eq!(a.read_bits(3 + 17 * i as usize, 17), i);
        }
    }

    #[test]
    fn extend_from_empty_both_ways() {
        let mut a = BitBuf::new();
        let empty = BitBuf::new();
        a.extend_from(&empty);
        assert!(a.is_empty());
        a.push_bits(3, 2);
        a.extend_from(&empty);
        assert_eq!(a.len(), 2);

        let mut e = BitBuf::new();
        let mut b = BitBuf::new();
        b.push_bits(9, 5);
        e.extend_from(&b);
        assert_eq!(e.read_bits(0, 5), 9);
    }

    #[test]
    fn extend_chain_equals_single_writer() {
        // Merging per-chunk buffers must equal writing everything in order —
        // the correctness contract of Algorithm 4's merge.
        let values: Vec<u64> = (0..137).map(|i| i * 31 % 8192).collect();
        let width = 13;
        let mut whole = BitBuf::new();
        for &v in &values {
            whole.push_bits(v, width);
        }
        let mut merged = BitBuf::new();
        for chunk in values.chunks(29) {
            let mut part = BitBuf::new();
            for &v in chunk {
                part.push_bits(v, width);
            }
            merged.extend_from(&part);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn get_bit() {
        let mut b = BitBuf::new();
        b.push_bits(0b1001101, 7);
        let bits: Vec<bool> = (0..7).map(|i| b.get_bit(i)).collect();
        assert_eq!(bits, [true, false, true, true, false, false, true]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_past_end_panics() {
        let mut b = BitBuf::new();
        b.push_bits(1, 1);
        b.read_bits(0, 2);
    }

    #[test]
    fn size_reporting() {
        let mut b = BitBuf::with_capacity(100);
        for i in 0..10u64 {
            b.push_bits(i, 10);
        }
        assert_eq!(b.packed_bytes(), 13); // 100 bits -> 13 bytes
        assert!(b.heap_bytes() >= 16);
    }

    #[test]
    fn reader_at_offset_and_skip() {
        let mut b = BitBuf::new();
        for i in 0..8u64 {
            b.push_bits(i, 9);
        }
        let mut r = BitReader::at(&b, 18);
        assert_eq!(r.read(9), 2);
        r.skip(9);
        assert_eq!(r.read(9), 4);
        assert_eq!(r.position(), 45);
    }
}
