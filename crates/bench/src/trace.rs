//! `--trace` / `--metrics` / `--mem-metrics` / `--mem-sample` /
//! `--imbalance` wiring shared by the harness binaries.
//!
//! The flags are always parsed and compose in any order, but spans and
//! memory are only recorded when the binary was built with the `obs`
//! feature (which turns on `parcsr-obs/enabled` and registers the counting
//! allocator); without it [`setup`] warns and the run proceeds
//! uninstrumented. The serving windows a run keeps (the closed-loop
//! driver's) are its own data, so `--trace` writes them either way.

use std::path::Path;

use parcsr_obs::serve::HistoryWindow;
use parcsr_obs::SpanRecord;

use crate::options::Options;

/// The mid-span memory sampling period a run will use: the `--mem-sample`
/// flag wins, then the `PARCSR_MEM_SAMPLE` environment variable, then 0
/// (off). Invalid env values are ignored.
#[must_use]
pub fn resolve_mem_sample(opts: &Options) -> u64 {
    opts.mem_sample
        .or_else(|| {
            std::env::var("PARCSR_MEM_SAMPLE")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or(0)
}

/// Switches runtime span/memory recording on when the options ask for it
/// and applies the memory sampling period. Call once, before the measured
/// work.
pub fn setup(opts: &Options) {
    if opts.trace.is_none()
        && !opts.metrics
        && !opts.mem_metrics
        && !opts.imbalance
        && opts.mem_sample.is_none()
    {
        return;
    }
    if !parcsr_obs::compiled() {
        eprintln!(
            "warning: spans and memory need a build with the obs feature (cargo run -p \
             parcsr-bench --features obs ...); neither will be recorded, and a --trace file \
             holds only the serving windows the run keeps"
        );
    }
    // Intra-span peak sampling observes the live-byte counter, so it
    // implies memory accounting even without --mem-metrics.
    let mem_sample = resolve_mem_sample(opts);
    parcsr_obs::mem::set_sample_period(mem_sample);
    parcsr_obs::mem::set_enabled(opts.mem_metrics || mem_sample > 0);
    parcsr_obs::set_enabled(true);
}

/// Writes the Chrome trace file (spans, memory counter events and the
/// serving windows in `history`) and/or prints the stage + memory summary,
/// per the options. Call once, after the measured work, with the
/// collected spans and the run's rotated serving windows (the closed-loop
/// driver's [`DriverReport::history`](crate::closed_loop::DriverReport::history);
/// `&[]` for the build-side binaries, which rotate none). Exits non-zero
/// if a requested trace file cannot be written.
pub fn finish(opts: &Options, spans: &[SpanRecord], history: &[HistoryWindow]) {
    let mem = parcsr_obs::mem::snapshot();
    if let Some(path) = &opts.trace {
        match parcsr_obs::export::write_chrome_trace(Path::new(path), spans, mem, history) {
            Ok(()) => eprintln!("trace: wrote {} spans to {path}", spans.len()),
            Err(e) => {
                eprintln!("trace: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if opts.metrics || opts.mem_metrics {
        eprint!("{}", parcsr_obs::export::summary_table(spans, mem));
    }
}
