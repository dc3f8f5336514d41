//! Property tests for the bit-packing substrate: every codec round-trips on
//! arbitrary inputs, and the parallel pack-and-merge path is bit-identical to
//! the sequential packer.

use proptest::prelude::*;

use parcsr_bitpack::{
    bits_needed, pack_parallel, pack_parallel_with_width, varint_decode_stream,
    varint_encode_stream, BitBuf, PackedArray,
};

proptest! {
    #[test]
    fn packed_array_roundtrip(values in prop::collection::vec(any::<u64>(), 0..1000)) {
        let p = PackedArray::pack(&values);
        prop_assert_eq!(p.to_vec(), values);
    }

    #[test]
    fn packed_array_random_access(values in prop::collection::vec(0u64..1_000_000, 1..500)) {
        let p = PackedArray::pack(&values);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(p.get(i), v);
        }
    }

    #[test]
    fn packed_width_is_minimal(values in prop::collection::vec(any::<u64>(), 1..200)) {
        let p = PackedArray::pack(&values);
        let max = *values.iter().max().unwrap();
        prop_assert_eq!(p.width(), bits_needed(max));
        // One bit narrower could not represent the maximum.
        if p.width() > 1 {
            let limit = if p.width() - 1 == 64 { u64::MAX } else { (1u64 << (p.width() - 1)) - 1 };
            prop_assert!(max > limit);
        }
    }

    #[test]
    fn parallel_pack_equals_sequential(
        values in prop::collection::vec(any::<u64>(), 0..2000),
        chunks in 1usize..32,
    ) {
        let seq = PackedArray::pack(&values);
        let par = pack_parallel(&values, chunks);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn u32_values_pack_like_their_u64_widening(
        values in prop::collection::vec(any::<u32>(), 0..2000),
        chunks in 1usize..32,
    ) {
        let wide: Vec<u64> = values.iter().map(|&v| u64::from(v)).collect();
        let width = bits_needed(wide.iter().copied().max().unwrap_or(0));
        let want = PackedArray::pack_with_width(&wide, width);
        prop_assert_eq!(&PackedArray::pack_with_width(&values, width), &want);
        prop_assert_eq!(&pack_parallel_with_width(&values, chunks, width), &want);
    }

    #[test]
    fn varint_roundtrip(values in prop::collection::vec(any::<u64>(), 0..500)) {
        let bytes = varint_encode_stream(&values);
        prop_assert_eq!(varint_decode_stream(&bytes), values);
    }

    #[test]
    fn bitbuf_write_read(entries in prop::collection::vec((any::<u64>(), 1u32..=64), 0..300)) {
        let mut buf = BitBuf::new();
        let mut masked = Vec::with_capacity(entries.len());
        for &(v, w) in &entries {
            let m = if w == 64 { v } else { v & ((1u64 << w) - 1) };
            buf.push_bits(m, w);
            masked.push((m, w));
        }
        let mut pos = 0usize;
        for &(v, w) in &masked {
            prop_assert_eq!(buf.read_bits(pos, w), v);
            pos += w as usize;
        }
        prop_assert_eq!(buf.len(), pos);
    }

    #[test]
    fn bitbuf_extend_equals_inline(
        a_entries in prop::collection::vec((any::<u64>(), 1u32..=64), 0..100),
        b_entries in prop::collection::vec((any::<u64>(), 1u32..=64), 0..100),
    ) {
        let fill = |entries: &[(u64, u32)]| {
            let mut b = BitBuf::new();
            for &(v, w) in entries {
                let m = if w == 64 { v } else { v & ((1u64 << w) - 1) };
                b.push_bits(m, w);
            }
            b
        };
        let mut joined = fill(&a_entries);
        joined.extend_from(&fill(&b_entries));

        let mut inline = fill(&a_entries);
        for &(v, w) in &b_entries {
            let m = if w == 64 { v } else { v & ((1u64 << w) - 1) };
            inline.push_bits(m, w);
        }
        prop_assert_eq!(joined, inline);
    }

    #[test]
    fn packed_bytes_bound(values in prop::collection::vec(0u64..1_000_000, 1..500)) {
        // Compact size is exactly ceil(len * width / 8).
        let p = PackedArray::pack(&values);
        prop_assert_eq!(p.packed_bytes(), (p.len() * p.width() as usize).div_ceil(8));
    }
}
