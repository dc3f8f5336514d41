#![warn(missing_docs)]

//! Benchmark harness regenerating the paper's evaluation (Section VI).
//!
//! One sweep, the `table2` binary, prints all three of the paper's
//! artifacts from one [`run_experiment_traced`] result:
//!
//! * Table II: per dataset, edge-list size, packed-CSR size, and
//!   construction time/speed-up for each processor count;
//! * Figure 6: construction time vs. processor count series;
//! * Figure 7: speed-up percentage vs. processor count series.
//!
//! With `--json` it prints the machine-readable record instead.
//!
//! The `benches/` directory holds Criterion microbenches per pipeline stage
//! plus the ablations listed in DESIGN.md §4.
//!
//! By default the harness synthesizes profile-matched stand-ins at 1/16 of
//! the published sizes (laptop-friendly); `--scale 1.0` reproduces full-size
//! runs, and `--data <dir>` reads real SNAP files named `<dataset>.txt`
//! instead of synthesizing.
//!
//! Built with `--features obs`, every binary also accepts `--trace <file>`
//! (Chrome `chrome://tracing` JSON of the per-stage pipeline spans) and
//! `--metrics` (per-stage/per-worker summary plus the heap section on
//! stderr); the JSON output then carries a `stages` breakdown per
//! (dataset, processor-count) sample.

pub mod closed_loop;
pub mod experiment;
pub mod histogram;
pub mod json;
pub mod options;
pub mod report;
pub mod serve;
pub mod trace;

pub use experiment::{run_experiment, run_experiment_traced, DatasetResult, ProcessorSample};
pub use json::{results_to_json_pretty, Json, ToJson};
pub use options::Options;
pub use report::{format_bytes, print_fig6, print_fig7, print_table2};
