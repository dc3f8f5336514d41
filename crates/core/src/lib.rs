#![warn(missing_docs)]

//! `parcsr` — parallel construction, bit-packed compression and parallel
//! querying of Compressed Sparse Row graphs.
//!
//! This crate is the paper's primary contribution (Sections III and V):
//!
//! * [`degree`] — Algorithms 2–3: parallel degree computation over a sorted
//!   edge list, with the per-chunk side array (`globalTempDegree`) that
//!   resolves chunk-boundary overlaps without synchronization on the hot
//!   path, plus the atomic-increment ablation comparator.
//! * [`build`] — the parallel CSR constructor: sort → parallel degrees →
//!   prefix-sum offsets (Algorithm 1's chunked scan) → parallel column
//!   fill, with per-stage timings for the evaluation harness.
//! * [`packed`] — Algorithm 4: the bit-packed CSR (`iA` and `jA` compressed
//!   with the fixed-width codec of \[7\], chunk-parallel with merge) and the
//!   `GetRowFromCSR` row extraction of \[28\].
//! * [`query`] — Algorithms 6–9: batch neighborhood queries, batch
//!   edge-existence queries, and single-edge existence with the neighbor
//!   list itself split across processors (including the binary-search
//!   refinement the paper suggests).
//! * [`with_processors`] — explicit "number of processors" control
//!   (re-exported from `parcsr_runtime`): every parallel routine here can be
//!   pinned to a `p`-thread pool, which is how the Table II processor sweep
//!   is produced.
//!
//! Beyond the paper's minimal pipeline, [`serial`] is a versioned on-disk
//! format for the packed CSR.
//!
//! # Quickstart
//!
//! ```
//! use parcsr::{CsrBuilder, BitPackedCsr, PackedCsrMode};
//! use parcsr::query::{neighbors_batch, edges_exist_batch};
//! use parcsr_graph::gen::{rmat, RmatParams};
//!
//! // A deterministic synthetic social network.
//! let graph = rmat(RmatParams::new(1 << 10, 16 << 10, 42));
//!
//! // Parallel CSR construction.
//! let csr = CsrBuilder::new().build(&graph);
//! assert_eq!(csr.num_edges(), graph.num_edges());
//!
//! // Bit-packed compression (Algorithm 4).
//! let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
//! assert!(packed.packed_bytes() < csr.heap_bytes());
//!
//! // Parallel querying (Algorithms 6, 7).
//! let hoods = neighbors_batch(&packed, &[0, 1, 2], 2);
//! assert_eq!(hoods[0], csr.neighbors(0));
//! let exists = edges_exist_batch(&packed, &[(0, 1), (5, 9)], 2);
//! assert_eq!(exists.len(), 2);
//! ```

pub mod build;
pub mod degree;
pub mod packed;
pub mod query;
pub mod serial;

pub use build::{BuildTimings, Csr, CsrBuilder};
pub use degree::{degrees_atomic, degrees_parallel};
pub use packed::{BitPackedCsr, PackedCsrMode, PackedRowIter};
pub use query::NeighborSource;
pub use serial::ReadError;

pub use parcsr_runtime::pool::with_processors;
pub use parcsr_runtime::{run_chunked, run_chunked_plan, Chunk};
