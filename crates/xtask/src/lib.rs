//! Library surface of the workspace automation driver: the hand-rolled
//! Rust lexer, the static-analysis passes built on it, the fixture
//! corpus harness that keeps the passes honest, and the artifact
//! validators (`check-trace`'s semantic rules, and the baseline gates
//! behind `smoke`, `stage-diff` and `slo-check`). The `cargo xtask`
//! binary (`src/main.rs`) drives these; integration tests exercise them
//! directly.

pub mod fixtures;
pub mod gate;
pub mod lexer;
pub mod lints;
pub mod trace_check;
pub mod trace_read;
