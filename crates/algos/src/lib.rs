#![warn(missing_docs)]

//! Graph analytics over the (compressed) CSR.
//!
//! The paper's introduction motivates compression with downstream analyses —
//! influence, spread of infection, routing. This crate supplies three such
//! consumers, running on anything that implements
//! [`parcsr::NeighborSource`] (so the same analysis runs on the plain CSR
//! and the bit-packed one, quantifying the compressed structure's query
//! overhead in a realistic workload):
//!
//! * [`bfs`] — sequential and level-synchronous parallel breadth-first
//!   search;
//! * [`pagerank`](mod@pagerank) — pull-based power iteration
//!   (deterministic: each node sums its in-neighbor contributions in a
//!   fixed order);
//! * [`triangles`] — triangle counting by sorted-row intersection.
//!
//! Every parallel routine has a sequential reference implementation and is
//! property-tested against it.

pub mod bfs;
pub mod pagerank;
pub mod triangles;

pub use bfs::{bfs_parallel, bfs_sequential, UNREACHABLE};
pub use pagerank::{pagerank, PageRankConfig};
pub use triangles::{
    count_triangles, count_triangles_oriented, count_triangles_sequential, orient,
};
