//! Deterministic synthetic graph generators.
//!
//! These stand in for the SNAP datasets (DESIGN.md §2): the construction
//! pipeline's behaviour depends on edge count, node count and degree skew,
//! all of which the generators control. Every generator is seeded and
//! deterministic — the same `(params, seed)` produces the same graph on every
//! machine and thread count, because parallel generation seeds one
//! independent PRNG per output chunk.
//!
//! * [`rmat`] — recursive-matrix (Kronecker-like) sampler; power-law-ish
//!   degree distributions matching social networks. The default dataset
//!   stand-in.
//! * [`erdos_renyi`] — uniform G(n, m); the unskewed control.
//! * [`barabasi_albert`] — preferential attachment; an alternative heavy-tail
//!   model (sequential by nature).
//! * [`temporal_toggles`] — a time-evolving workload for the TCSR pipeline:
//!   edges toggling on/off across frames.

mod ba;
mod er;
mod rmat;
mod temporal;

pub use ba::{barabasi_albert, BaParams};
pub use er::{erdos_renyi, ErParams};
pub use rmat::{rmat, RmatParams};
pub use temporal::{temporal_toggles, TemporalParams};
