#![warn(missing_docs)]

//! Bit-packing compression substrate.
//!
//! The paper compresses both CSR arrays ("our novel technique to store the
//! integer numbers associated with both the degree array iA and the edge
//! column array jA", Section III-A3) with the fixed-width bit-packing scheme
//! of Gopal et al. \[7\], applied chunk-parallel with a final merge of the
//! per-chunk bit arrays (Algorithm 4). This crate is that engine:
//!
//! * [`bitbuf`] — a growable bit array ([`BitBuf`]) and its streaming
//!   [`BitReader`] that append and read arbitrary-width (≤ 64 bit) values at
//!   arbitrary bit offsets, including across word boundaries.
//! * [`fixed`] — [`PackedArray`]: an unsigned sequence packed at a uniform
//!   width `⌈log2(max+1)⌉`, with O(1) random access — what the packed
//!   `iA`/`jA` arrays are made of.
//! * [`cursor`] — [`RowCursor`]: an allocation-free, seekable stream over a
//!   range of a packed array; and the 64-value block kernel
//!   ([`unpack_block`]) behind [`BlockCursor`] and
//!   [`PackedArray::decode_range_u32`], which decode one CSR row a block at
//!   a time.
//! * [`section`] — how the on-disk formats store a packed array (bit
//!   length, then words), with the one section reader and [`ReadError`]
//!   that `.pcsr` and `.tcsr` share.
//! * [`varint`] — LEB128 variable-length integers, the byte-aligned codec
//!   behind the EveLog/EdgeLog-style temporal logs of the related work.
//! * [`parallel`] — Algorithm 4: split the input into one chunk per
//!   processor, pack every chunk at the globally agreed width, then merge the
//!   resulting bit arrays by bit-level concatenation.
//!
//! # Example
//!
//! ```
//! use parcsr_bitpack::{PackedArray, pack_parallel};
//!
//! let values = vec![3u64, 7, 1, 100, 42, 0, 99];
//! let packed = PackedArray::pack(&values);
//! assert_eq!(packed.width(), 7); // 100 needs 7 bits
//! assert_eq!(packed.get(3), 100);
//! assert_eq!(packed.to_vec(), values);
//!
//! // Same result through the parallel chunk-and-merge path:
//! assert_eq!(pack_parallel(&values, 4).to_vec(), values);
//! ```

pub mod bitbuf;
pub mod cursor;
pub mod fixed;
pub mod parallel;
pub mod section;
pub mod varint;

pub use bitbuf::{BitBuf, BitReader};
pub use cursor::{unpack_block, BlockCursor, BlockIter, RowCursor, BLOCK_LEN};
pub use fixed::{bits_needed, PackedArray};
pub use parallel::{pack_parallel, pack_parallel_with_width};
pub use section::ReadError;
pub use varint::{varint_decode, varint_decode_stream, varint_encode, varint_encode_stream};
