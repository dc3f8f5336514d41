#![warn(missing_docs)]

//! Parallel prefix sum (scan) over `u64`.
//!
//! This crate implements the one scan the paper builds its CSR construction
//! pipeline on (Section III-A1, Algorithm 1, Figure 2):
//!
//! * [`chunked`] — the paper's Algorithm 1: split the array into one chunk per
//!   processor, scan each chunk independently, serially propagate each chunk's
//!   last element into the next chunk's last element (the paper's
//!   `Lock()`/`Unlock()` region), then in parallel add the carried-in prefix to
//!   the remaining elements of every chunk.
//! * [`sequential`] — the single-threaded inclusive scan, the oracle the
//!   chunked scan is tested against.
//!
//! Addition wraps, so the scan is total for every input and its result does
//! not depend on the chunking. The chunked scan is *deterministic*: for a
//! fixed input it produces bit-identical output regardless of chunk count,
//! and is property-tested against the sequential scan.
//!
//! # Example
//!
//! ```
//! use parcsr_scan::{inclusive_scan_chunked, inclusive_scan_seq};
//!
//! let mut degrees = vec![1u64, 2, 1, 2, 1, 1, 1, 2, 2, 1];
//! let mut expected = degrees.clone();
//! inclusive_scan_chunked(&mut degrees, 4);
//! assert_eq!(degrees, [1, 3, 4, 6, 7, 8, 9, 11, 13, 14]);
//!
//! inclusive_scan_seq(&mut expected);
//! assert_eq!(degrees, expected);
//! ```

#[cfg(parcsr_check)]
pub mod checked;
pub mod chunked;
pub mod sequential;

pub use chunked::inclusive_scan_chunked;
pub use sequential::inclusive_scan_seq;
