//! Closed-loop serving load driver: N logical clients issue Zipf-skewed,
//! degree-correlated query mixes (Algorithms 6/7/8 in configurable ratios)
//! against a packed CSR, with per-window qps and latency percentiles.
//!
//! ```text
//! cargo run --release -p parcsr-bench --bin queries_closed_loop -- \
//!     --graph hub --clients 8 --duration-ms 2000 --window-ms 250 --json
//! ```
//!
//! `--json` output lists every window; `cargo xtask slo-check` grades it.
//! `--trace <file>` exports the same windows, the driver's own timings of
//! each query call, as `query.win.*` and `query.exemplar.*` counter events
//! for `chrome://tracing` / `cargo xtask check-trace`; built with
//! `--features obs`, the trace also holds the run's spans.

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
    trace::finish(
        opts.trace.as_deref(),
        opts.metrics,
        &parcsr_obs::drain(),
        &report.history,
    );
}
