#![warn(missing_docs)]

//! Parallel prefix-sum (scan) primitives.
//!
//! This crate implements the scan algorithms the paper builds its CSR
//! construction pipeline on (Section III-A1, Algorithm 1, Figure 2):
//!
//! * [`sequential`] — the baseline single-threaded inclusive/exclusive scans.
//! * [`chunked`] — the paper's Algorithm 1: split the array into one chunk per
//!   processor, scan each chunk independently, serially propagate each chunk's
//!   last element into the next chunk's last element (the paper's
//!   `Lock()`/`Unlock()` region), then in parallel add the carried-in prefix to
//!   the remaining elements of every chunk.
//! * [`blelloch`] — Blelloch's work-efficient tree scan (up-sweep/down-sweep),
//!   `O(n)` work and `O(log n)` depth, cited by the paper as [12].
//! * [`two_pass`] — the idiomatic rayon two-pass scan (per-chunk totals first,
//!   tiny serial scan of the totals, then per-chunk scan with an initial
//!   carry). Used as an engineering comparison point in the benches.
//! * [`segmented`] — independent scans/reductions over CSR-style segments
//!   (Blelloch's canonical derived operation; what batch-decoding gap-coded
//!   rows amounts to).
//!
//! All algorithms are generic over a [`ScanOp`] monoid, so the same machinery
//! computes degree-array prefix sums (`AddOp`), running maxima (`MaxOp`), and
//! the XOR parity scans used by the time-evolving differential CSR (`XorOp`).
//!
//! Every parallel implementation is *deterministic*: for a fixed input and
//! operator it produces bit-identical output regardless of thread count, and
//! is property-tested against the sequential scan.
//!
//! # Example
//!
//! ```
//! use parcsr_scan::{inclusive_scan_chunked, Scanner, ScanAlgorithm};
//!
//! let mut degrees = vec![1u64, 2, 1, 2, 1, 1, 1, 2, 2, 1];
//! inclusive_scan_chunked(&mut degrees, 4);
//! assert_eq!(degrees, [1, 3, 4, 6, 7, 8, 9, 11, 13, 14]);
//!
//! let scanner = Scanner::new(ScanAlgorithm::Blelloch);
//! let offsets = scanner.exclusive_scan(&[1u64, 2, 1, 2]);
//! assert_eq!(offsets, [0, 1, 3, 4]);
//! ```

pub mod blelloch;
#[cfg(parcsr_check)]
pub mod checked;
pub mod chunked;
pub mod op;
pub mod scanner;
pub mod segmented;
pub mod sequential;
pub mod two_pass;

pub use blelloch::{
    exclusive_scan_blelloch, exclusive_scan_blelloch_by, inclusive_scan_blelloch,
    inclusive_scan_blelloch_by,
};
pub use chunked::{
    inclusive_scan_chunked, inclusive_scan_chunked_by, inclusive_scan_chunked_lockstep,
    inclusive_scan_chunked_lockstep_by,
};
pub use op::{AddOp, MaxOp, MinOp, ScanOp, XorOp};
pub use scanner::{ScanAlgorithm, Scanner};
pub use segmented::{
    segmented_inclusive_scan, segmented_inclusive_scan_by, segmented_reduce_by, segmented_sum,
};
pub use sequential::{
    exclusive_scan_seq, exclusive_scan_seq_by, inclusive_scan_seq, inclusive_scan_seq_by,
};
pub use two_pass::{inclusive_scan_two_pass, inclusive_scan_two_pass_by};
