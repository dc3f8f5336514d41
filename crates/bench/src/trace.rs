//! `--trace` / `--metrics` wiring shared by the harness binaries.
//!
//! The flags are always parsed and compose in any order, but spans and
//! memory are only recorded when the binary was built with the `obs`
//! feature (which turns on `parcsr-obs/enabled` and registers the counting
//! allocator); without it [`setup`] warns and the run proceeds
//! uninstrumented. Either switch records both: heap accounting follows
//! recording.

use std::path::Path;

use parcsr_obs::SpanRecord;

/// Switches runtime span and memory recording on when `--trace` or
/// `--metrics` was given. Call once, before the measured work.
pub fn setup(trace: Option<&str>, metrics: bool) {
    if trace.is_none() && !metrics {
        return;
    }
    if !parcsr_obs::compiled() {
        eprintln!(
            "warning: --trace/--metrics need a build with the obs feature (cargo run -p \
             parcsr-bench --features obs ...); nothing will be recorded"
        );
    }
    parcsr_obs::set_enabled(true);
}

/// Writes the Chrome trace file (spans and memory counter events) and/or
/// prints the stage + memory summary, per the switches. Call once, after
/// the measured work and while recording is still on, with the collected
/// spans. Exits non-zero if a requested trace file cannot be written.
pub fn finish(trace: Option<&str>, metrics: bool, spans: &[SpanRecord]) {
    let mem = parcsr_obs::mem::snapshot();
    if let Some(path) = trace {
        match parcsr_obs::export::write_chrome_trace(Path::new(path), spans, mem) {
            Ok(()) => eprintln!("trace: wrote {} spans to {path}", spans.len()),
            Err(e) => {
                eprintln!("trace: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if metrics {
        eprint!("{}", parcsr_obs::export::summary_table(spans, mem));
    }
}
