//! Regenerates Figure 7: speed-up percentage gained from multiprocessing,
//! one series per dataset (CSV plus a terminal bar plot).
//!
//! ```text
//! cargo run -p parcsr-bench --release --bin fig7 -- [--scale 1.0]
//! ```

use parcsr_bench::{print_fig7, run_experiment_traced, trace, Options};

// Counting allocator: heap accounting while --trace/--metrics record.
// Registered only in obs builds, so default builds keep the plain system
// allocator.
#[cfg(feature = "obs")]
#[global_allocator]
static ALLOC: parcsr_obs::mem::CountingAlloc = parcsr_obs::mem::CountingAlloc::new();

fn main() {
    let opts = Options::from_env();
    eprintln!(
        "fig7: scale={} procs={:?} reps={} seed={}",
        opts.scale, opts.processors, opts.reps, opts.seed
    );
    trace::setup(opts.trace.as_deref(), opts.metrics);
    let (results, spans) = run_experiment_traced(&opts);
    if opts.json {
        println!("{}", parcsr_bench::results_to_json_pretty(&results));
    } else {
        print!("{}", print_fig7(&results));
    }
    trace::finish(opts.trace.as_deref(), opts.metrics, &spans, &[]);
}
