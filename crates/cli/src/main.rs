//! `parcsr` binary entry point: parse, execute, print.

// Counting allocator: heap accounting while --trace/--metrics record.
// Registered only in obs builds, so default builds keep the plain system
// allocator.
#[cfg(feature = "obs")]
#[global_allocator]
static ALLOC: parcsr_obs::mem::CountingAlloc = parcsr_obs::mem::CountingAlloc::new();

fn main() {
    match parcsr_cli::run(std::env::args().skip(1)) {
        Ok(report) => println!("{report}"),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
