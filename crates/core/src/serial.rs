//! On-disk serialization of the bit-packed CSR.
//!
//! A compressed graph store is only useful if the compressed form is what
//! travels: this module defines a small, versioned, little-endian binary
//! format so a graph packed once (Table II's fifth column) can be memory-
//! loaded and queried without ever materializing the edge list again.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   8 B   "PARCSR\0\1"           (includes format version)
//! mode    1 B   0 = raw (1 = gap, no longer written or read)
//! n       8 B   num_nodes
//! m       8 B   num_edges
//! off_w   4 B   offset width (bits)    off_n  8 B  offset entry count
//! col_w   4 B   column width (bits)    col_n  8 B  column entry count
//! off_bits 8 B  offset bit length,     then ceil(off_bits/64) words
//! col_bits 8 B  column bit length,     then ceil(col_bits/64) words
//! ```

use std::io::{self, Read, Write};

use parcsr_bitpack::{BitBuf, PackedArray};
use parcsr_graph::NodeId;

use crate::packed::BitPackedCsr;

/// Magic + format version.
const MAGIC: [u8; 8] = *b"PARCSR\0\x01";

/// Mode byte of the packed layout (absolute column ids).
const MODE_RAW: u8 = 0;

/// Mode byte older writers used for gap-coded columns; rejected on read.
const MODE_GAP: u8 = 1;

/// Errors from deserializing a packed CSR.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a parcsr file, or an unsupported format version.
    BadMagic([u8; 8]),
    /// Structurally invalid header or payload.
    Corrupt(&'static str),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::BadMagic(m) => write!(f, "bad magic/version {m:02x?}"),
            ReadError::Corrupt(what) => write!(f, "corrupt packed CSR: {what}"),
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

impl BitPackedCsr {
    /// Serializes into `w`. The format is deterministic: equal structures
    /// produce byte-identical output.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&[MODE_RAW])?;
        w.write_all(&(self.num_nodes() as u64).to_le_bytes())?;
        w.write_all(&(self.num_edges() as u64).to_le_bytes())?;
        for arr in [self.offsets_array(), self.columns_array()] {
            w.write_all(&arr.width().to_le_bytes())?;
            w.write_all(&(arr.len() as u64).to_le_bytes())?;
        }
        for arr in [self.offsets_array(), self.columns_array()] {
            let buf = arr.bit_buf();
            w.write_all(&(buf.len() as u64).to_le_bytes())?;
            for &word in buf.words() {
                w.write_all(&word.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Deserializes from `r`, validating the header and every invariant the
    /// query kernels assume before constructing the value: offsets start at
    /// 0, never decrease and end at `num_edges`; every column id is below
    /// `num_nodes`; every row is sorted (non-decreasing — duplicate ids of a
    /// multigraph are legal). Buffers grow only as payload words arrive, so
    /// a header cannot make the reader allocate more than the input holds.
    pub fn read_from<R: Read>(r: &mut R) -> Result<BitPackedCsr, ReadError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(ReadError::BadMagic(magic));
        }
        match read_u8(r)? {
            MODE_RAW => {}
            MODE_GAP => return Err(ReadError::Corrupt("gap mode files are no longer supported")),
            _ => return Err(ReadError::Corrupt("unknown mode byte")),
        }
        let n = read_u64(r)?;
        let m = read_u64(r)?;
        let off_w = read_u32(r)?;
        let off_n = read_u64(r)?;
        let col_w = read_u32(r)?;
        let col_n = read_u64(r)?;
        if n.checked_add(1) != Some(off_n) {
            return Err(ReadError::Corrupt("offset count must be num_nodes + 1"));
        }
        if n > u64::from(NodeId::MAX) + 1 {
            return Err(ReadError::Corrupt("num_nodes exceeds the node id range"));
        }
        if col_n != m {
            return Err(ReadError::Corrupt("column count must be num_edges"));
        }
        if !(1..=64).contains(&off_w) || !(1..=64).contains(&col_w) {
            return Err(ReadError::Corrupt("widths must be in 1..=64"));
        }
        let offsets = read_packed(r, off_w, off_n)?;
        let columns = read_packed(r, col_w, col_n)?;

        // One pass over both arrays: offsets are a monotone ramp from 0 to
        // m, and each row they delimit holds sorted ids below n.
        let mut offs = offsets.iter();
        if offs.next() != Some(0) {
            return Err(ReadError::Corrupt("first offset must be 0"));
        }
        let mut cols = columns.iter();
        let mut start = 0u64;
        for end in offs {
            if end < start {
                return Err(ReadError::Corrupt("offsets must be non-decreasing"));
            }
            if end > m {
                return Err(ReadError::Corrupt("last offset must equal num_edges"));
            }
            let mut prev = 0u64;
            for v in cols.by_ref().take((end - start) as usize) {
                if v >= n {
                    return Err(ReadError::Corrupt("column id must be below num_nodes"));
                }
                if v < prev {
                    return Err(ReadError::Corrupt("rows must be sorted"));
                }
                prev = v;
            }
            start = end;
        }
        if start != m {
            return Err(ReadError::Corrupt("last offset must equal num_edges"));
        }

        Ok(BitPackedCsr::from_parts(
            n as usize, m as usize, offsets, columns,
        ))
    }
}

/// Reads one packed array of `len` elements at `width` bits.
fn read_packed<R: Read>(r: &mut R, width: u32, len: u64) -> Result<PackedArray, ReadError> {
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

fn read_u8<R: Read>(r: &mut R) -> Result<u8, ReadError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, ReadError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, ReadError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CsrBuilder;
    use crate::packed::PackedCsrMode;
    use parcsr_graph::gen::{rmat, RmatParams};
    use parcsr_graph::EdgeList;

    fn sample() -> BitPackedCsr {
        let g = rmat(RmatParams::new(512, 5_000, 3));
        let csr = CsrBuilder::new().build(&g);
        BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4)
    }

    /// Rows `0: [1, 3]`, `1: [4]`, `2: [0, 2]`, `3: []`, `4: []`.
    fn tiny() -> BitPackedCsr {
        let g = EdgeList::new(5, vec![(0, 1), (0, 3), (1, 4), (2, 0), (2, 2)]);
        BitPackedCsr::from_csr(&CsrBuilder::new().build(&g), PackedCsrMode::Raw, 1)
    }

    /// `tiny()` as `parcsr compress --mode raw --procs 1` wrote it while the
    /// gap codec still existed: 3-bit offsets and 3-bit columns.
    const TINY_PCSR: [u8; 81] = [
        80, 65, 82, 67, 83, 82, 0, 1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0,
        0, 6, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 18, 0, 0, 0, 0, 0, 0, 0,
        208, 218, 2, 0, 0, 0, 0, 0, 15, 0, 0, 0, 0, 0, 0, 0, 25, 33, 0, 0, 0, 0, 0, 0,
    ];
    // Byte offsets of fields in `TINY_PCSR`.
    const MODE_AT: usize = 8;
    const N_AT: usize = 9;
    const M_AT: usize = 17;
    const OFF_N_AT: usize = 29;
    const COL_W_AT: usize = 37;
    const COL_N_AT: usize = 41;
    const COL_BITS_AT: usize = 65;
    const COLUMNS_AT: usize = 73;

    fn patch_u64(bytes: &mut [u8], at: usize, value: u64) {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Overwrites the 3-bit column entry `i` of `TINY_PCSR`-shaped bytes.
    fn set_column(bytes: &mut [u8], i: usize, value: u64) {
        for k in 0..3 {
            let bit = i * 3 + k;
            let (byte, mask) = (COLUMNS_AT + bit / 8, 1u8 << (bit % 8));
            if value >> k & 1 == 1 {
                bytes[byte] |= mask;
            } else {
                bytes[byte] &= !mask;
            }
        }
    }

    fn read(bytes: &[u8]) -> Result<BitPackedCsr, ReadError> {
        BitPackedCsr::read_from(&mut &bytes[..])
    }

    fn corrupt_reason(bytes: &[u8]) -> &'static str {
        match read(bytes) {
            Err(ReadError::Corrupt(what)) => what,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip() {
        let packed = sample();
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        let back = BitPackedCsr::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, packed);
    }

    #[test]
    fn raw_file_format_is_unchanged() {
        let packed = tiny();
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        assert_eq!(bytes, TINY_PCSR);
        let back = read(&TINY_PCSR).unwrap();
        assert_eq!(back, packed);
        assert_eq!(back.row(0), [1, 3]);
        assert!(back.has_edge(2, 2) && !back.has_edge(2, 1));
    }

    #[test]
    fn gap_mode_byte_rejected() {
        let mut bytes = TINY_PCSR;
        bytes[MODE_AT] = 1;
        assert!(corrupt_reason(&bytes).contains("gap"));
        bytes[MODE_AT] = 2;
        assert_eq!(corrupt_reason(&bytes), "unknown mode byte");
    }

    #[test]
    fn column_past_num_nodes_rejected() {
        // Row 2 becomes [0, 6]: still sorted, but 6 >= n = 5.
        let mut bytes = TINY_PCSR;
        set_column(&mut bytes, 4, 6);
        assert_eq!(corrupt_reason(&bytes), "column id must be below num_nodes");
    }

    #[test]
    fn unsorted_row_rejected() {
        // Row 0 becomes [3, 1].
        let mut bytes = TINY_PCSR;
        set_column(&mut bytes, 0, 3);
        set_column(&mut bytes, 1, 1);
        assert_eq!(corrupt_reason(&bytes), "rows must be sorted");
    }

    #[test]
    fn duplicate_ids_in_a_row_accepted() {
        // Row 0 becomes the multigraph row [1, 1].
        let mut bytes = TINY_PCSR;
        set_column(&mut bytes, 1, 1);
        let back = read(&bytes).unwrap();
        assert_eq!(back.row(0), [1, 1]);
        assert!(back.has_edge(0, 1) && !back.has_edge(0, 3));
    }

    #[test]
    fn num_nodes_plus_one_overflow_rejected() {
        // n + 1 wraps to the declared offset count 0 without a checked add.
        let mut bytes = TINY_PCSR;
        patch_u64(&mut bytes, N_AT, u64::MAX);
        patch_u64(&mut bytes, OFF_N_AT, 0);
        assert_eq!(corrupt_reason(&bytes), "offset count must be num_nodes + 1");
    }

    #[test]
    fn num_nodes_past_node_id_range_rejected() {
        let mut bytes = TINY_PCSR;
        patch_u64(&mut bytes, N_AT, 1 << 33);
        patch_u64(&mut bytes, OFF_N_AT, (1 << 33) + 1);
        assert_eq!(
            corrupt_reason(&bytes),
            "num_nodes exceeds the node id range"
        );
    }

    #[test]
    fn len_times_width_overflow_rejected() {
        let mut bytes = TINY_PCSR;
        patch_u64(&mut bytes, M_AT, 1 << 60);
        patch_u64(&mut bytes, COL_N_AT, 1 << 60);
        bytes[COL_W_AT..COL_W_AT + 4].copy_from_slice(&64u32.to_le_bytes());
        assert_eq!(corrupt_reason(&bytes), "len * width overflows");
    }

    #[test]
    fn declared_size_is_not_allocated_up_front() {
        // A consistent header declaring 2^50 column bits (128 TiB) over a
        // one-word payload: the reader must run out of input, not memory.
        let mut bytes = TINY_PCSR;
        patch_u64(&mut bytes, M_AT, 1 << 46);
        patch_u64(&mut bytes, COL_N_AT, 1 << 46);
        bytes[COL_W_AT..COL_W_AT + 4].copy_from_slice(&16u32.to_le_bytes());
        patch_u64(&mut bytes, COL_BITS_AT, 1 << 50);
        assert!(matches!(read(&bytes), Err(ReadError::Io(_))));
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = sample();
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        a.write_to(&mut b1).unwrap();
        a.write_to(&mut b2).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn file_size_tracks_packed_size() {
        let packed = sample();
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        // Header is ~70 bytes; payload within a word of packed_bytes.
        assert!(bytes.len() <= packed.packed_bytes() + 128);
    }

    #[test]
    fn empty_graph_roundtrip() {
        let csr = CsrBuilder::new().build(&EdgeList::new(0, vec![]));
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 1);
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        let back = BitPackedCsr::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, packed);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = BitPackedCsr::read_from(&mut &b"NOTPARCS rest"[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadMagic(_)), "{err}");
    }

    #[test]
    fn truncation_rejected() {
        let packed = sample();
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        for cut in [4usize, 20, bytes.len() / 2, bytes.len() - 1] {
            let err = BitPackedCsr::read_from(&mut &bytes[..cut]).unwrap_err();
            assert!(matches!(err, ReadError::Io(_)), "cut={cut}: {err}");
        }
    }

    #[test]
    fn corrupt_offsets_rejected() {
        let packed = sample();
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        // Flip bits inside the offsets payload (past the 57-byte header).
        bytes[80] ^= 0xFF;
        let result = BitPackedCsr::read_from(&mut bytes.as_slice());
        assert!(
            matches!(result, Err(ReadError::Corrupt(_))),
            "corruption must not produce a structure silently"
        );
    }

    #[test]
    fn queries_work_after_roundtrip() {
        let packed = sample();
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        let back = BitPackedCsr::read_from(&mut bytes.as_slice()).unwrap();
        for u in (0..512u32).step_by(31) {
            assert_eq!(back.row(u), packed.row(u));
        }
    }
}
