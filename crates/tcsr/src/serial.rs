//! On-disk serialization of the differential TCSR.
//!
//! Format (little-endian):
//!
//! ```text
//! magic     8 B  "PARTCSR\x01"
//! n         8 B  num_nodes
//! frames    8 B  frame count
//! per frame:
//!   mode    1 B  0 = random, 1 = gap
//!   head    9 B  presence flag (0/1) + u64 head key (gap mode; 0 otherwise)
//!   width   4 B  packed width        len 8 B  packed entry count
//!   bits    8 B  bit length, then ceil(bits/64) u64 words
//! ```

use std::io::{self, Read, Write};

use parcsr_bitpack::{BitBuf, PackedArray};

use crate::frame::{unkey, DeltaFrame, FrameMode};
use crate::tcsr::Tcsr;

const MAGIC: [u8; 8] = *b"PARTCSR\x01";

/// Errors from deserializing a TCSR.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a TCSR file or unsupported version.
    BadMagic([u8; 8]),
    /// Structurally invalid content.
    Corrupt(&'static str),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::BadMagic(m) => write!(f, "bad magic/version {m:02x?}"),
            ReadError::Corrupt(what) => write!(f, "corrupt tcsr: {what}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl Tcsr {
    /// Serializes into `w`. Deterministic byte output.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&(self.num_nodes() as u64).to_le_bytes())?;
        w.write_all(&(self.num_frames() as u64).to_le_bytes())?;
        for t in 0..self.num_frames() {
            self.frame(t as u32).write_to(w)?;
        }
        Ok(())
    }

    /// Deserializes from `r`, validating headers and frame invariants.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Tcsr, ReadError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(ReadError::BadMagic(magic));
        }
        let num_nodes = read_u64(r)?;
        let num_frames = read_u64(r)? as usize;
        let mut frames = Vec::with_capacity(num_frames.min(1 << 20));
        for _ in 0..num_frames {
            let frame = DeltaFrame::read_from(r)?;
            check_keys(&frame, num_nodes)?;
            frames.push(frame);
        }
        Ok(Tcsr::from_frames(num_nodes as usize, frames))
    }
}

impl DeltaFrame {
    fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let (mode_byte, head) = match self.mode() {
            FrameMode::Random => (0u8, None),
            FrameMode::Gap => (1u8, self.head_key()),
        };
        w.write_all(&[mode_byte])?;
        w.write_all(&[u8::from(head.is_some())])?;
        w.write_all(&head.unwrap_or(0).to_le_bytes())?;
        let keys = self.packed_keys();
        w.write_all(&keys.width().to_le_bytes())?;
        w.write_all(&(keys.len() as u64).to_le_bytes())?;
        let buf = keys.bit_buf();
        w.write_all(&(buf.len() as u64).to_le_bytes())?;
        for &word in buf.words() {
            w.write_all(&word.to_le_bytes())?;
        }
        Ok(())
    }

    fn read_from<R: Read>(r: &mut R) -> Result<DeltaFrame, ReadError> {
        let mode = match read_u8(r)? {
            0 => FrameMode::Random,
            1 => FrameMode::Gap,
            _ => return Err(ReadError::Corrupt("unknown frame mode")),
        };
        let has_head = match read_u8(r)? {
            0 => false,
            1 => true,
            _ => return Err(ReadError::Corrupt("bad head flag")),
        };
        let head_raw = read_u64(r)?;
        if mode == FrameMode::Random && has_head {
            return Err(ReadError::Corrupt("random-mode frame cannot carry a head"));
        }
        let width = read_u32(r)?;
        if !(1..=64).contains(&width) {
            return Err(ReadError::Corrupt("width must be in 1..=64"));
        }
        let len = read_u64(r)?;
        let bits = read_u64(r)?;
        let expected = len
            .checked_mul(u64::from(width))
            .ok_or(ReadError::Corrupt("len * width overflows"))?;
        if bits != expected {
            return Err(ReadError::Corrupt("bit length mismatch"));
        }
        let len = usize::try_from(len).map_err(|_| ReadError::Corrupt("len overflows"))?;
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
        let keys = PackedArray::from_raw_parts(buf, width, len);
        DeltaFrame::from_raw_parts(mode, has_head.then_some(head_raw), keys)
            .ok_or(ReadError::Corrupt("inconsistent head/keys combination"))
    }
}

/// One decode pass over a frame's keys: they must strictly increase, and
/// every key's endpoints must fit the node space.
fn check_keys(frame: &DeltaFrame, num_nodes: u64) -> Result<(), ReadError> {
    let mut prev = None;
    let mut check = |key: u64| {
        if prev.is_some_and(|p| key <= p) {
            return Err(ReadError::Corrupt("frame keys must be strictly increasing"));
        }
        prev = Some(key);
        let (u, v) = unkey(key);
        if u64::from(u) >= num_nodes || u64::from(v) >= num_nodes {
            return Err(ReadError::Corrupt("frame references out-of-range node"));
        }
        Ok(())
    };
    let mut packed = frame.packed_keys().iter();
    match (frame.mode(), frame.head_key()) {
        (FrameMode::Random, _) => packed.try_for_each(check),
        (FrameMode::Gap, None) => Ok(()),
        (FrameMode::Gap, Some(head)) => {
            check(head)?;
            let mut key = head;
            for gap in packed {
                key = key
                    .checked_add(gap)
                    .ok_or(ReadError::Corrupt("frame key overflows"))?;
                check(key)?;
            }
            Ok(())
        }
    }
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
    use crate::builder::TcsrBuilder;
    use parcsr_graph::gen::{temporal_toggles, TemporalParams};

    fn sample(mode: FrameMode) -> Tcsr {
        let events = temporal_toggles(TemporalParams::new(128, 1_500, 10, 3));
        TcsrBuilder::new().frame_mode(mode).build(&events)
    }

    #[test]
    fn roundtrip_both_modes() {
        for mode in [FrameMode::Random, FrameMode::Gap] {
            let tcsr = sample(mode);
            let mut bytes = Vec::new();
            tcsr.write_to(&mut bytes).unwrap();
            let back = Tcsr::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, tcsr, "{}", mode.name());
        }
    }

    #[test]
    fn queries_after_roundtrip() {
        let tcsr = sample(FrameMode::Gap);
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
    fn truncation_detected() {
        let tcsr = sample(FrameMode::Random);
        let mut bytes = Vec::new();
        tcsr.write_to(&mut bytes).unwrap();
        for cut in [4usize, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(Tcsr::read_from(&mut &bytes[..cut]), Err(ReadError::Io(_))),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let tcsr = sample(FrameMode::Random);
        let mut bytes = Vec::new();
        tcsr.write_to(&mut bytes).unwrap();

        // Invalid mode byte on the first frame (offset 24: after magic, n,
        // frame count).
        let mut bad_mode = bytes.clone();
        bad_mode[24] = 7;
        assert!(matches!(
            Tcsr::read_from(&mut bad_mode.as_slice()),
            Err(ReadError::Corrupt("unknown frame mode"))
        ));

        // A head on a random-mode frame (offset 25: the head flag).
        let mut bad_head = bytes.clone();
        bad_head[25] = 1;
        assert!(matches!(
            Tcsr::read_from(&mut bad_head.as_slice()),
            Err(ReadError::Corrupt(_))
        ));

        // Inconsistent bit length (offset 24 + 1 + 1 + 8 + 4 + 8 = 46).
        let mut bad_bits = bytes.clone();
        bad_bits[46] ^= 0xFF;
        assert!(Tcsr::read_from(&mut bad_bits.as_slice()).is_err());
    }

    /// A one-frame random-mode file over `num_nodes` nodes whose frame
    /// header declares `len` keys at `width` bits and `bits` payload bits,
    /// followed by `words`.
    fn one_frame(num_nodes: u64, width: u32, len: u64, bits: u64, words: &[u64]) -> Vec<u8> {
        frame_file(num_nodes, None, width, len, bits, words)
    }

    /// [`one_frame`] in gap mode when `head` is set.
    fn frame_file(
        num_nodes: u64,
        head: Option<u64>,
        width: u32,
        len: u64,
        bits: u64,
        words: &[u64],
    ) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&num_nodes.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&[u8::from(head.is_some()), u8::from(head.is_some())]);
        bytes.extend_from_slice(&head.unwrap_or(0).to_le_bytes());
        bytes.extend_from_slice(&width.to_le_bytes());
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&bits.to_le_bytes());
        for word in words {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes
    }

    /// [`one_frame`] holding exactly `keys`, packed at 64 bits.
    fn keys_frame(num_nodes: u64, keys: &[u64]) -> Vec<u8> {
        let packed = PackedArray::pack_with_width(keys, 64);
        let buf = packed.bit_buf();
        one_frame(
            num_nodes,
            64,
            keys.len() as u64,
            buf.len() as u64,
            buf.words(),
        )
    }

    fn corrupt_reason(bytes: &[u8]) -> &'static str {
        match Tcsr::read_from(&mut &bytes[..]) {
            Err(ReadError::Corrupt(what)) => what,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn len_times_width_overflow_rejected() {
        let bytes = one_frame(4, 64, 1 << 60, 0, &[]);
        assert_eq!(corrupt_reason(&bytes), "len * width overflows");
    }

    #[test]
    fn declared_size_is_not_allocated_up_front() {
        // 54 bytes declaring 2^40 keys at 16 bits (2 TiB) with no payload:
        // the reader must run out of input, not memory.
        let bytes = one_frame(4, 16, 1 << 40, 1 << 44, &[]);
        assert_eq!(bytes.len(), 54);
        assert!(matches!(
            Tcsr::read_from(&mut bytes.as_slice()),
            Err(ReadError::Io(_))
        ));
    }

    #[test]
    fn non_increasing_keys_rejected() {
        let (a, b) = (crate::frame::key(0, 1), crate::frame::key(2, 3));
        for keys in [[b, a], [a, a]] {
            assert_eq!(
                corrupt_reason(&keys_frame(4, &keys)),
                "frame keys must be strictly increasing"
            );
        }
        assert!(Tcsr::read_from(&mut keys_frame(4, &[a, b]).as_slice()).is_ok());
    }

    #[test]
    fn out_of_range_endpoint_before_the_last_key_rejected() {
        // (0, 9) sorts before (1, 2), so the last key alone looks in range.
        let keys = [crate::frame::key(0, 9), crate::frame::key(1, 2)];
        assert_eq!(
            corrupt_reason(&keys_frame(4, &keys)),
            "frame references out-of-range node"
        );
    }

    #[test]
    fn gap_key_overflow_rejected() {
        // Head (2^32 - 1, 2^32 - 2) is in range of 2^33 nodes; the gap of 5
        // after it overflows u64.
        let bytes = frame_file(1 << 33, Some(u64::MAX - 1), 3, 1, 3, &[5]);
        assert_eq!(corrupt_reason(&bytes), "frame key overflows");
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
