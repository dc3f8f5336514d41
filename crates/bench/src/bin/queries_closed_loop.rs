//! Closed-loop serving load driver: N logical clients issue Zipf-skewed,
//! degree-correlated query mixes (Algorithms 6/7/8 at 45/25/20/10)
//! against the packed hub graph, reporting the run's qps and latency
//! percentiles overall, per query kind and per degree class.
//!
//! ```text
//! cargo run --release -p parcsr-bench --bin queries_closed_loop -- \
//!     --clients 8 --duration-ms 2000 --json
//! ```
//!
//! `--json` output holds the run's rollups and its slowest queries; `cargo
//! xtask slo-check` grades it. Built with `--features obs`, `--trace <file>`
//! writes the run's spans and `mem.*` counters like every other binary
//! (served one-query batches record no span, so the spans are the graph
//! build's), and `--metrics` prints the stage and heap summary.

use parcsr_bench::closed_loop::{render_table, run, DriverOptions};
use parcsr_bench::{trace, ToJson};

// Counting allocator: heap accounting while --trace/--metrics record.
// Registered only in obs builds, so default builds keep the plain system
// allocator.
#[cfg(feature = "obs")]
#[global_allocator]
static ALLOC: parcsr_obs::mem::CountingAlloc = parcsr_obs::mem::CountingAlloc::new();

fn main() {
    let opts = DriverOptions::from_env();
    trace::setup(opts.trace.as_deref(), opts.metrics);

    let report = run(&opts);

    if opts.json {
        eprint!("{}", render_table(&report));
        println!("{}", report.to_json().pretty());
    } else {
        print!("{}", render_table(&report));
    }
    trace::finish(opts.trace.as_deref(), opts.metrics, &parcsr_obs::drain());
}
