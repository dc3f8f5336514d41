//! Closed-loop serving load driver: N logical clients issue Zipf-skewed,
//! degree-correlated query mixes (Algorithms 6/7/8 in configurable ratios)
//! against a packed CSR, with per-window qps and latency percentiles and an
//! achieved-vs-target SLO verdict.
//!
//! ```text
//! cargo run --release -p parcsr-bench --bin queries_closed_loop -- \
//!     --graph hub --clients 8 --duration-ms 2000 --window-ms 250 --json
//! ```
//!
//! `--json` output lists every window and is consumed by `cargo xtask
//! slo-check`. `--trace <file>` exports the same windows, the driver's own
//! client-side measurements, as `query.win.*`, `query.phase.*` and
//! `query.exemplar.*` counter events for `chrome://tracing` / `cargo xtask
//! check-trace`; built with `--features obs`, the trace also holds the
//! run's spans and metrics.

use parcsr_bench::closed_loop::{render_table, run, DriverOptions};
use parcsr_bench::{trace, Options, ToJson};

// Counting allocator behind --mem-metrics; registered only in obs builds,
// so default builds keep the plain system allocator.
#[cfg(feature = "obs")]
#[global_allocator]
static ALLOC: parcsr_obs::mem::CountingAlloc = parcsr_obs::mem::CountingAlloc::new();

fn main() {
    let opts = DriverOptions::from_env();
    // The shared obs wiring (sampling periods, runtime switch, trace file)
    // reads the harness Options shape; mirror the relevant flags into one.
    let obs_opts = Options {
        trace: opts.trace.clone(),
        metrics: opts.metrics,
        trace_sample: opts.trace_sample,
        ..Options::default()
    };
    trace::setup(&obs_opts);

    let report = run(&opts);

    if opts.json {
        eprint!("{}", render_table(&report));
        println!("{}", report.to_json().pretty());
    } else {
        print!("{}", render_table(&report));
    }
    trace::finish(&obs_opts, &parcsr_obs::drain(), &report.history);
    if report.slo.met == Some(false) {
        std::process::exit(1);
    }
}
