//! `--trace` / `--metrics` wiring shared by the harness binaries.
//!
//! The flags are always parsed and compose in any order, but spans and
//! memory are only recorded when the binary was built with the `obs`
//! feature (which turns on `parcsr-obs/enabled` and registers the counting
//! allocator); without it [`setup`] warns and the run proceeds
//! uninstrumented. Either switch records both: heap accounting follows
//! recording. The serving windows a run keeps (the closed-loop driver's)
//! are its own data, so `--trace` writes them either way.

use std::path::Path;

use parcsr_obs::serve::HistoryWindow;
use parcsr_obs::SpanRecord;

/// Switches runtime span and memory recording on when `--trace` or
/// `--metrics` was given. Call once, before the measured work.
pub fn setup(trace: Option<&str>, metrics: bool) {
    if trace.is_none() && !metrics {
        return;
    }
    if !parcsr_obs::compiled() {
        eprintln!(
            "warning: spans and memory need a build with the obs feature (cargo run -p \
             parcsr-bench --features obs ...); neither will be recorded, and a --trace file \
             holds only the serving windows the run keeps"
        );
    }
    parcsr_obs::set_enabled(true);
}

/// Writes the Chrome trace file (spans, memory counter events and the
/// serving windows in `history`) and/or prints the stage + memory summary,
/// per the switches. Call once, after the measured work and while
/// recording is still on, with the collected spans and the run's rotated
/// serving windows (the closed-loop driver's
/// [`DriverReport::history`](crate::closed_loop::DriverReport::history);
/// `&[]` for the build-side binaries, which rotate none). Exits non-zero
/// if a requested trace file cannot be written.
pub fn finish(trace: Option<&str>, metrics: bool, spans: &[SpanRecord], history: &[HistoryWindow]) {
    let mem = parcsr_obs::mem::snapshot();
    if let Some(path) = trace {
        match parcsr_obs::export::write_chrome_trace(Path::new(path), spans, mem, history) {
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
