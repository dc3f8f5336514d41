//! Regenerates the paper's evaluation from one sweep: Table II
//! (compression results per dataset and processor count, with the paper's
//! published numbers alongside), then Figure 6 (construction time vs.
//! processors) and Figure 7 (speed-up %), each as CSV plus a terminal
//! plot. `--json` prints the sweep's record instead.
//!
//! ```text
//! cargo run -p parcsr-bench --release --bin table2 -- [--scale 1.0] [--procs 1,4,8,16,64]
//! ```

use parcsr_bench::{print_fig6, print_fig7, print_table2, run_experiment_traced, trace, Options};

// Counting allocator: heap accounting while --trace/--metrics record.
// Registered only in obs builds, so default builds keep the plain system
// allocator.
#[cfg(feature = "obs")]
#[global_allocator]
static ALLOC: parcsr_obs::mem::CountingAlloc = parcsr_obs::mem::CountingAlloc::new();

fn main() {
    let opts = Options::from_env();
    eprintln!(
        "table2: scale={} procs={:?} reps={} seed={} (host parallelism: {})",
        opts.scale,
        opts.processors,
        opts.reps,
        opts.seed,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    trace::setup(opts.trace.as_deref(), opts.metrics);
    let (results, spans) = run_experiment_traced(&opts);
    if opts.json {
        println!("{}", parcsr_bench::results_to_json_pretty(&results));
    } else {
        print!("{}", print_table2(&results));
        print!("\n{}", print_fig6(&results));
        print!("\n{}", print_fig7(&results));
    }
    trace::finish(opts.trace.as_deref(), opts.metrics, &spans);
}
