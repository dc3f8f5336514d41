#![warn(missing_docs)]

//! `parcsr` command-line tool: the operational wrapper around the library —
//! generate a synthetic social network, compress a SNAP file into the packed
//! CSR format, inspect the result, and query it, all without writing Rust.
//!
//! ```text
//! parcsr generate --model rmat --nodes 65536 --edges 1048576 --out g.txt
//! parcsr stats g.txt
//! parcsr compress g.txt --out g.pcsr
//! parcsr info g.pcsr
//! parcsr query g.pcsr --neighbors 0,1,2
//! parcsr query g.pcsr --edge 0,42
//! ```
//!
//! Every command is a pure function from arguments to a report string, so
//! the whole surface is unit-testable; `main` only prints.

pub mod commands;
pub mod parse;

pub use commands::execute;
pub use parse::{Command, ObsOptions, ParseError};

/// Parses and executes an argument list, returning the report to print.
///
/// The global `--trace FILE` / `--metrics` / `--trace-sample N` /
/// `--mem-metrics` / `--mem-sample N` switches (valid anywhere on the
/// command line, in any order) wrap the run in observability collection;
/// they need a binary built with the `obs` feature to record anything.
pub fn run<I>(args: I) -> Result<String, String>
where
    I: IntoIterator<Item = String>,
{
    let (obs, rest) = ObsOptions::extract(args).map_err(|e| e.to_string())?;
    if obs.active() {
        if !parcsr_obs::compiled() {
            eprintln!(
                "warning: --trace/--metrics/--mem-metrics/--mem-sample need a build with the \
                 obs feature (cargo run -p parcsr-cli --features obs ...); nothing will be \
                 recorded"
            );
        }
        let sample = obs.trace_sample.or_else(|| {
            std::env::var("PARCSR_TRACE_SAMPLE")
                .ok()
                .and_then(|s| s.trim().parse().ok())
        });
        parcsr_obs::set_trace_sample(sample.unwrap_or(1));
        let mem_sample = obs.mem_sample.or_else(|| {
            std::env::var("PARCSR_MEM_SAMPLE")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .filter(|&n| n > 0)
        });
        parcsr_obs::mem::set_sample_period(mem_sample.unwrap_or(0));
        // Intra-span peak sampling observes the live-byte counter, so it
        // implies memory accounting even without --mem-metrics.
        parcsr_obs::mem::set_enabled(obs.mem_metrics || mem_sample.is_some());
        parcsr_obs::set_enabled(true);
    }
    let command = Command::parse(rest).map_err(|e| e.to_string())?;
    let result = execute(&command).map_err(|e| e.to_string());
    if obs.active() {
        parcsr_obs::mem::publish_gauges();
        parcsr_obs::set_enabled(false);
        let spans = parcsr_obs::drain();
        let metrics = parcsr_obs::metrics::snapshot();
        let mem = parcsr_obs::mem::snapshot();
        if let Some(path) = &obs.trace {
            match parcsr_obs::export::write_chrome_trace(
                std::path::Path::new(path),
                &spans,
                &metrics,
                mem,
                &[],
            ) {
                Ok(()) => eprintln!("trace: wrote {} spans to {path}", spans.len()),
                Err(e) => eprintln!("trace: failed to write {path}: {e}"),
            }
        }
        if obs.metrics || obs.mem_metrics {
            eprint!(
                "{}",
                parcsr_obs::export::summary_table(&spans, &metrics, mem)
            );
        }
    }
    result
}
