#![warn(missing_docs)]

//! `parcsr-temporal` — parallel time-evolving differential CSR (TCSR).
//!
//! Section IV of the paper: a time-evolving graph arrives as time-sorted
//! toggle triplets `(u, v, T)`. The TCSR stores, per time-frame, the
//! *difference* against the previous frame — the edges added or deleted —
//! rather than a full snapshot, with the parity rule deciding activity: an
//! edge toggled an even number of times within an interval is inactive, odd
//! is active.
//!
//! * [`frame`] — [`DeltaFrame`]: one frame's difference set as a sparse
//!   delta CSR (changed sources, row offsets, toggled columns; three packed
//!   arrays with O(log s + log d_u) membership and one-slice rows), plus
//!   sorted-set symmetric difference.
//! * [`builder`] — Algorithm 5: chunk the event stream across processors,
//!   build each chunk's per-frame difference lists, merge the frame that
//!   straddles each chunk boundary (the same overlap-merge shape as the
//!   degree computation), and parity-collapse.
//! * [`tcsr`] — the queryable structure: snapshot reconstruction is an
//!   (inclusive) *scan under symmetric difference* across frames — the
//!   paper's prefix-sum machinery with XOR semantics — and point queries are
//!   parity reductions over the per-frame memberships.
//! * [`absolute`] — the comparator that stores a full CSR per frame, used by
//!   the benches to quantify what differential storage saves.
//! * [`logs`] — the related-work "log of events" baselines (EveLog and
//!   EdgeLog, Section II of the paper) with the same query API.
//!
//! # Example
//!
//! ```
//! use parcsr_temporal::TcsrBuilder;
//! use parcsr_graph::{TemporalEdge, TemporalEdgeList};
//!
//! let events = TemporalEdgeList::new(4, vec![
//!     TemporalEdge::new(0, 1, 0),
//!     TemporalEdge::new(1, 2, 0),
//!     TemporalEdge::new(0, 1, 1), // deletes (0,1)
//!     TemporalEdge::new(2, 3, 1),
//! ]);
//! let tcsr = TcsrBuilder::new().processors(2).build(&events);
//! assert!(tcsr.edge_active_at(0, 1, 0));
//! assert!(!tcsr.edge_active_at(0, 1, 1));
//! assert_eq!(tcsr.snapshot_at(1), vec![(1, 2), (2, 3)]);
//! ```

pub mod absolute;
pub mod builder;
pub mod frame;
pub mod logs;
pub mod serial;
pub mod tcsr;

pub use absolute::AbsoluteFrames;
pub use builder::TcsrBuilder;
pub use frame::{sym_diff, DeltaFrame};
pub use logs::{EdgeLog, EveLog};
pub use tcsr::Tcsr;
