#![warn(missing_docs)]

//! `parcsr-succinct` — the compressed-graph structures of the paper's
//! related work (Section II), built so the benches can position the
//! bit-packed CSR against the structures the paper cites:
//!
//! * [`bitvector`] — a rank/select bitvector, the primitive everything else
//!   in this family stands on;
//! * [`k2tree`] — the k²-tree of Brisaboa, Ladra, Navarro \[18\]: the
//!   adjacency matrix as a recursively subdivided quadtree over a bit
//!   vector, with both row and column queries.
//!
//! # Example
//!
//! ```
//! use parcsr_succinct::K2Tree;
//!
//! let edges = vec![(0u32, 5u32), (3, 1), (7, 7)];
//! let tree = K2Tree::from_edges(8, &edges);
//! assert!(tree.has_edge(3, 1));
//! assert!(!tree.has_edge(1, 3));
//! assert_eq!(tree.row(3), vec![1]);
//! assert_eq!(tree.column(7), vec![7]);
//! ```

pub mod bitvector;
pub mod k2tree;

pub use bitvector::RankSelect;
pub use k2tree::K2Tree;
