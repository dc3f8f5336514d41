//! Packed sections: how the on-disk formats (`.pcsr`, `.tcsr`) store a
//! [`PackedArray`], and the one reader both formats share.
//!
//! A section is the array's bit length (`u64`, little-endian) followed by
//! `ceil(bits / 64)` little-endian words. The width and element count live
//! in the format's own header, so the reader takes them as arguments and
//! checks the bit length against `len * width`. Padding bits past the end
//! must be zero, and the buffer grows only as words arrive: a header alone
//! never sizes an allocation.

use std::io::{self, Read, Write};

use crate::bitbuf::BitBuf;
use crate::fixed::PackedArray;

/// Errors from deserializing a packed artifact.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure (a truncated file ends here).
    Io(io::Error),
    /// Not the expected file type, or an unsupported format version.
    BadMagic([u8; 8]),
    /// Structurally invalid header or payload.
    Corrupt(&'static str),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::BadMagic(m) => write!(f, "bad magic/version {m:02x?}"),
            ReadError::Corrupt(what) => write!(f, "corrupt file: {what}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Writes `array`'s section: its bit length, then its words.
pub fn write_section<W: Write>(w: &mut W, array: &PackedArray) -> io::Result<()> {
    let buf = array.bit_buf();
    w.write_all(&(buf.len() as u64).to_le_bytes())?;
    for &word in buf.words() {
        w.write_all(&word.to_le_bytes())?;
    }
    Ok(())
}

/// Reads one section holding `len` elements at `width` bits (the caller
/// has checked `width` against its format's range).
pub fn read_section<R: Read>(r: &mut R, width: u32, len: u64) -> Result<PackedArray, ReadError> {
    let bits = read_u64(r)?;
    let expected = len
        .checked_mul(u64::from(width))
        .ok_or(ReadError::Corrupt("len * width overflows"))?;
    if bits != expected {
        return Err(ReadError::Corrupt("bit length does not match len * width"));
    }
    let bits = usize::try_from(bits).map_err(|_| ReadError::Corrupt("bit length overflows"))?;
    // Grows as words arrive: the header alone never sizes an allocation.
    let mut buf = BitBuf::new();
    let mut scratch = [0u8; 8];
    let mut remaining = bits;
    while remaining > 0 {
        r.read_exact(&mut scratch)?;
        let word = u64::from_le_bytes(scratch);
        let take = remaining.min(64) as u32;
        if take < 64 && (word >> take) != 0 {
            return Err(ReadError::Corrupt("padding bits must be zero"));
        }
        buf.push_bits(word, take);
        remaining -= take as usize;
    }
    Ok(PackedArray::from_raw_parts(buf, width, len as usize))
}

/// Reads 8 bytes and checks them against the format's `magic`.
pub fn read_magic<R: Read>(r: &mut R, magic: [u8; 8]) -> Result<(), ReadError> {
    let mut found = [0u8; 8];
    r.read_exact(&mut found)?;
    if found != magic {
        return Err(ReadError::BadMagic(found));
    }
    Ok(())
}

/// Reads one byte.
pub fn read_u8<R: Read>(r: &mut R) -> Result<u8, ReadError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Reads a little-endian `u32`.
pub fn read_u32<R: Read>(r: &mut R) -> Result<u32, ReadError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a little-endian `u64`.
pub fn read_u64<R: Read>(r: &mut R) -> Result<u64, ReadError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_bits_must_be_zero() {
        // Two 3-bit values, then a stray bit at position 6 of the word.
        let mut bytes = 6u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(1u64 << 6 | 0b101_011).to_le_bytes());
        assert!(matches!(
            read_section(&mut bytes.as_slice(), 3, 2),
            Err(ReadError::Corrupt("padding bits must be zero"))
        ));
        bytes[0] = 7;
        let back = read_section(&mut bytes.as_slice(), 7, 1).unwrap();
        assert_eq!(back.to_vec(), [0b1_101_011]);
    }
}
