//! On-disk serialization of the differential TCSR.
//!
//! Format (little-endian):
//!
//! ```text
//! magic     8 B  "PARTCSR\x02"
//! n         8 B  num_nodes
//! frames    8 B  frame count
//! per frame, three packed arrays in order — sources (s ids), offsets
//! (s + 1 row bounds), columns (d ids) — each as:
//!   width   4 B  bits per entry, 1..=32
//!   len     8 B  entry count
//!   bits    8 B  bit length, then ceil(bits/64) u64 words
//! ```
//!
//! The bit length and words are the array's packed section, read and
//! written by [`parcsr_bitpack::section`] as `.pcsr` files are. Version-1
//! files (64-bit edge keys) get [`ReadError::BadMagic`].

use std::io::{self, Read, Write};

use parcsr_bitpack::section::{read_magic, read_section, read_u32, read_u64, write_section};
use parcsr_bitpack::PackedArray;
pub use parcsr_bitpack::ReadError;

use crate::frame::DeltaFrame;
use crate::tcsr::Tcsr;

const MAGIC: [u8; 8] = *b"PARTCSR\x02";

impl Tcsr {
    /// Serializes into `w`. Deterministic byte output.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&(self.num_nodes() as u64).to_le_bytes())?;
        w.write_all(&(self.num_frames() as u64).to_le_bytes())?;
        for t in 0..self.num_frames() {
            let frame = self.frame(t as u32);
            for array in [&frame.sources, &frame.offsets, &frame.columns] {
                w.write_all(&array.width().to_le_bytes())?;
                w.write_all(&(array.len() as u64).to_le_bytes())?;
                write_section(w, array)?;
            }
        }
        Ok(())
    }

    /// Deserializes from `r`, validating the header and every frame
    /// invariant the queries assume. The frame list and every buffer grow
    /// only as their bytes arrive, so a header cannot make the reader
    /// allocate more than the input holds.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Tcsr, ReadError> {
        read_magic(r, MAGIC)?;
        let num_nodes = read_u64(r)?;
        let num_frames = read_u64(r)?;
        let mut frames = Vec::new();
        for _ in 0..num_frames {
            frames.push(read_frame(r, num_nodes)?);
        }
        Ok(Tcsr::from_frames(num_nodes as usize, frames))
    }
}

/// Reads one packed array: width, length, then its section.
fn read_array<R: Read>(r: &mut R) -> Result<PackedArray, ReadError> {
    let width = read_u32(r)?;
    // Every entry is a u32 id or a row bound below 2^32.
    if !(1..=32).contains(&width) {
        return Err(ReadError::Corrupt("widths must be in 1..=32"));
    }
    let len = read_u64(r)?;
    read_section(r, width, len)
}

/// Reads one frame and checks it in one pass: sources strictly increasing
/// and below `num_nodes`; offsets from 0, strictly increasing (a listed
/// source changed at least once) and ending at the column count; each row
/// strictly increasing, with ids below `num_nodes`.
fn read_frame<R: Read>(r: &mut R, num_nodes: u64) -> Result<DeltaFrame, ReadError> {
    let sources = read_array(r)?;
    let offsets = read_array(r)?;
    let columns = read_array(r)?;
    if offsets.len() != sources.len() + 1 {
        return Err(ReadError::Corrupt("offset count must be source count + 1"));
    }
    let mut bounds = offsets.iter();
    if bounds.next() != Some(0) {
        return Err(ReadError::Corrupt("first offset must be 0"));
    }
    let d = columns.len() as u64;
    let mut cols = columns.block_cursor(0, columns.len()).values();
    let (mut start, mut prev_source) = (0u64, None);
    for (u, end) in sources.iter().zip(bounds) {
        if prev_source.is_some_and(|p| u <= p) {
            return Err(ReadError::Corrupt("sources must be strictly increasing"));
        }
        if u >= num_nodes {
            return Err(ReadError::Corrupt("source id must be below num_nodes"));
        }
        prev_source = Some(u);
        if end <= start {
            return Err(ReadError::Corrupt("offsets must be strictly increasing"));
        }
        if end > d {
            return Err(ReadError::Corrupt(
                "last offset must equal the column count",
            ));
        }
        let (mut left, mut prev) = ((end - start) as usize, None);
        while left > 0 {
            // Rows end at most at d, so a run is never empty here.
            let run = cols.next_run(left);
            for &v in run {
                if prev.is_some_and(|p| v <= p) {
                    return Err(ReadError::Corrupt("rows must be strictly increasing"));
                }
                if u64::from(v) >= num_nodes {
                    return Err(ReadError::Corrupt("column id must be below num_nodes"));
                }
                prev = Some(v);
            }
            left -= run.len();
        }
        start = end;
    }
    if start != d {
        return Err(ReadError::Corrupt(
            "last offset must equal the column count",
        ));
    }
    Ok(DeltaFrame {
        sources,
        offsets,
        columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TcsrBuilder;
    use parcsr_bitpack::bits_needed;
    use parcsr_graph::gen::{temporal_toggles, TemporalParams};

    fn sample() -> Tcsr {
        let events = temporal_toggles(TemporalParams::new(128, 1_500, 10, 3));
        TcsrBuilder::new().build(&events)
    }

    #[test]
    fn tcsr_roundtrip() {
        let tcsr = sample();
        let mut bytes = Vec::new();
        tcsr.write_to(&mut bytes).unwrap();
        let back = Tcsr::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, tcsr);
    }

    #[test]
    fn queries_after_roundtrip() {
        let tcsr = sample();
        let mut bytes = Vec::new();
        tcsr.write_to(&mut bytes).unwrap();
        let back = Tcsr::read_from(&mut bytes.as_slice()).unwrap();
        let last = (tcsr.num_frames() - 1) as u32;
        assert_eq!(back.snapshot_at(last), tcsr.snapshot_at(last));
        assert_eq!(
            back.edge_active_at(3, 7, last),
            tcsr.edge_active_at(3, 7, last)
        );
    }

    #[test]
    fn bad_magic() {
        let err = Tcsr::read_from(&mut &b"NOTATCSR rest of it"[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadMagic(_)));
    }

    #[test]
    fn version_1_is_bad_magic() {
        let mut bytes = Vec::new();
        sample().write_to(&mut bytes).unwrap();
        bytes[7] = 1;
        assert!(matches!(
            Tcsr::read_from(&mut bytes.as_slice()),
            Err(ReadError::BadMagic(m)) if m == *b"PARTCSR\x01"
        ));
    }

    #[test]
    fn corruption_detected() {
        let tcsr = sample();
        let mut bytes = Vec::new();
        tcsr.write_to(&mut bytes).unwrap();
        // The first frame's sources array starts at offset 24 (after
        // magic, n, frame count): width 4 B, len 8 B, bit length 8 B.
        let mut bad_width = bytes.clone();
        bad_width[24] = 33;
        assert_eq!(corrupt_reason(&bad_width), "widths must be in 1..=32");

        let mut bad_len = bytes.clone();
        bad_len[28] ^= 1;
        assert!(Tcsr::read_from(&mut bad_len.as_slice()).is_err());

        let mut bad_bits = bytes.clone();
        bad_bits[36] ^= 0xFF;
        assert_eq!(
            corrupt_reason(&bad_bits),
            "bit length does not match len * width"
        );
    }

    #[test]
    fn truncation_detected() {
        let tcsr = sample();
        let mut bytes = Vec::new();
        tcsr.write_to(&mut bytes).unwrap();
        for cut in [4usize, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(Tcsr::read_from(&mut &bytes[..cut]), Err(ReadError::Io(_))),
                "cut={cut}"
            );
        }
    }

    /// Appends one packed array at `width` bits to `bytes`.
    fn push_array(bytes: &mut Vec<u8>, values: &[u64], width: u32) {
        let array = PackedArray::pack_with_width(values, width);
        bytes.extend_from_slice(&width.to_le_bytes());
        bytes.extend_from_slice(&(values.len() as u64).to_le_bytes());
        write_section(bytes, &array).unwrap();
    }

    /// A one-frame file over `num_nodes` nodes holding these raw arrays,
    /// each packed at the width of its largest value.
    fn frame_file(num_nodes: u64, sources: &[u64], offsets: &[u64], columns: &[u64]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&num_nodes.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        for values in [sources, offsets, columns] {
            let width = bits_needed(values.iter().copied().max().unwrap_or(0));
            push_array(&mut bytes, values, width);
        }
        bytes
    }

    fn corrupt_reason(bytes: &[u8]) -> &'static str {
        match Tcsr::read_from(&mut &bytes[..]) {
            Err(ReadError::Corrupt(what)) => what,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn hand_built_frame_is_accepted() {
        // Rows 0: [1, 3] and 2: [0].
        let bytes = frame_file(4, &[0, 2], &[0, 2, 3], &[1, 3, 0]);
        let tcsr = Tcsr::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(tcsr.snapshot_at(0), [(0, 1), (0, 3), (2, 0)]);
        assert_eq!(tcsr.neighbors_at(0, 0), [1, 3]);
        let empty = frame_file(4, &[], &[0], &[]);
        assert!(Tcsr::read_from(&mut empty.as_slice())
            .unwrap()
            .frame(0)
            .is_empty());
    }

    #[test]
    fn non_increasing_sources_rejected() {
        for sources in [[2, 0], [1, 1]] {
            assert_eq!(
                corrupt_reason(&frame_file(4, &sources, &[0, 1, 2], &[1, 2])),
                "sources must be strictly increasing"
            );
        }
    }

    #[test]
    fn source_past_num_nodes_rejected() {
        assert_eq!(
            corrupt_reason(&frame_file(4, &[0, 4], &[0, 1, 2], &[1, 2])),
            "source id must be below num_nodes"
        );
    }

    #[test]
    fn offset_count_must_follow_sources() {
        assert_eq!(
            corrupt_reason(&frame_file(4, &[0, 2], &[0, 2], &[1, 3])),
            "offset count must be source count + 1"
        );
    }

    #[test]
    fn first_offset_must_be_zero() {
        assert_eq!(
            corrupt_reason(&frame_file(4, &[0, 2], &[1, 2, 3], &[1, 3, 0])),
            "first offset must be 0"
        );
    }

    #[test]
    fn empty_row_rejected() {
        // Source 2 is listed with no change: offsets 2, 2.
        assert_eq!(
            corrupt_reason(&frame_file(4, &[0, 2, 3], &[0, 2, 2, 3], &[1, 3, 0])),
            "offsets must be strictly increasing"
        );
        assert_eq!(
            corrupt_reason(&frame_file(4, &[0, 2], &[0, 3, 2], &[1, 2, 3])),
            "offsets must be strictly increasing"
        );
    }

    #[test]
    fn last_offset_must_equal_column_count() {
        // Past the columns, and short of them.
        assert_eq!(
            corrupt_reason(&frame_file(4, &[0, 2], &[0, 2, 4], &[1, 3, 0])),
            "last offset must equal the column count"
        );
        assert_eq!(
            corrupt_reason(&frame_file(4, &[0, 2], &[0, 1, 2], &[1, 3, 0])),
            "last offset must equal the column count"
        );
    }

    #[test]
    fn out_of_range_endpoint_before_the_last_key_rejected() {
        // Column 9 >= n sits before the frame's last column, so checking
        // the last one alone would miss it.
        assert_eq!(
            corrupt_reason(&frame_file(4, &[0, 2], &[0, 2, 3], &[1, 9, 0])),
            "column id must be below num_nodes"
        );
    }

    #[test]
    fn non_increasing_keys_rejected() {
        for row in [[3, 1], [2, 2]] {
            let columns = [row[0], row[1], 0];
            assert_eq!(
                corrupt_reason(&frame_file(4, &[0, 2], &[0, 2, 3], &columns)),
                "rows must be strictly increasing"
            );
        }
        // A row may start below the previous row's last column.
        assert!(
            Tcsr::read_from(&mut frame_file(4, &[0, 2], &[0, 2, 3], &[1, 3, 0]).as_slice()).is_ok()
        );
    }

    #[test]
    fn widths_past_32_rejected() {
        for width in [0, 33, 64] {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&4u64.to_le_bytes());
            bytes.extend_from_slice(&1u64.to_le_bytes());
            push_array(&mut bytes, &[], width.max(1));
            bytes[24..28].copy_from_slice(&u32::to_le_bytes(width));
            assert_eq!(
                corrupt_reason(&bytes),
                "widths must be in 1..=32",
                "{width}"
            );
        }
    }

    #[test]
    fn len_times_width_overflow_rejected() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&32u32.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 60).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(corrupt_reason(&bytes), "len * width overflows");
    }

    #[test]
    fn declared_size_is_not_allocated_up_front() {
        // 44 bytes declaring 2^40 sources at 16 bits (2 TiB) with no
        // payload: the reader must run out of input, not memory.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&16u32.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 44).to_le_bytes());
        assert_eq!(bytes.len(), 44);
        assert!(matches!(
            Tcsr::read_from(&mut bytes.as_slice()),
            Err(ReadError::Io(_))
        ));
    }

    #[test]
    fn declared_frame_count_is_not_allocated_up_front() {
        // A 24-byte header declaring 2^40 frames and no frame.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            Tcsr::read_from(&mut bytes.as_slice()),
            Err(ReadError::Io(_))
        ));
    }

    #[test]
    fn empty_tcsr_roundtrip() {
        let tcsr = Tcsr::from_frames(5, Vec::new());
        let mut bytes = Vec::new();
        tcsr.write_to(&mut bytes).unwrap();
        let back = Tcsr::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.num_frames(), 0);
        assert_eq!(back.num_nodes(), 5);
    }
}
