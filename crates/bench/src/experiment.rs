//! The Table II / Figure 6 / Figure 7 experiment: construct the bit-packed
//! CSR for every dataset at every processor count, timing construction.
//!
//! Methodology notes (mirroring the paper where it is explicit and standard
//! practice where it is not):
//!
//! * Construction is timed from the **time-sorted edge list** — Table II's
//!   single-processor LiveJournal time (164 ms for 69M edges) is only
//!   reachable if the sort is outside the timed region, matching the paper's
//!   "we assume that the datasets are sorted" setup.
//! * The timed region covers the parallel degree computation, the prefix-sum
//!   offset construction and the column fill, plus the Algorithm 4 bit
//!   packing of both arrays — i.e. "time to compress the graph to CSR".
//! * Each cell runs `reps` times; the minimum is reported (wall-clock noise
//!   is one-sided).

use std::time::Instant;

use parcsr::{with_processors, BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::{paper_datasets, DatasetProfile, EdgeList};
use parcsr_obs::export::{aggregate_stages, StageAgg};
use parcsr_obs::SpanRecord;

use crate::options::Options;

/// One processor-count measurement.
#[derive(Debug, Clone)]
pub struct ProcessorSample {
    /// Processor count (chunks and pool width).
    pub processors: usize,
    /// Construction time, milliseconds (min over reps).
    pub time_ms: f64,
    /// Speed-up vs. the 1-processor row, percent: `(t1 - tp) / t1 · 100`.
    pub speedup_percent: f64,
    /// The paper's published time for this cell, if any.
    pub paper_time_ms: Option<f64>,
    /// The paper's published speed-up for this cell, if any.
    pub paper_speedup_percent: Option<f64>,
    /// Per-stage wall-clock breakdown of the rep that produced `time_ms`
    /// (top-level pipeline spans: degree, scan, scatter, pack). Empty unless
    /// obs recording is compiled in and switched on.
    pub stages: Vec<StageAgg>,
    /// Peak live heap bytes over the reported rep's top-level stages. `None`
    /// unless memory accounting ran (`--trace` or `--metrics` on an obs
    /// build).
    pub mem_peak_bytes: Option<u64>,
}

/// One dataset's full Table II row group.
#[derive(Debug, Clone)]
pub struct DatasetResult {
    /// Dataset name.
    pub name: &'static str,
    /// Whether the real SNAP file was used (vs. the synthetic stand-in).
    pub real_data: bool,
    /// Node count of the measured graph.
    pub nodes: usize,
    /// Edge count of the measured graph.
    pub edges: usize,
    /// Edge list size in SNAP text form, bytes (the paper's 4th column).
    pub edgelist_text_bytes: usize,
    /// Edge list size in binary form (8 B/edge), bytes.
    pub edgelist_binary_bytes: usize,
    /// Bit-packed CSR size, bytes (the paper's 5th column).
    pub csr_packed_bytes: usize,
    /// Uncompressed CSR size, bytes (context the paper omits).
    pub csr_raw_bytes: usize,
    /// Per-processor-count samples, in sweep order.
    pub samples: Vec<ProcessorSample>,
}

/// Runs the full experiment for the given options.
pub fn run_experiment(opts: &Options) -> Vec<DatasetResult> {
    run_experiment_traced(opts).0
}

/// Runs the full experiment and also returns the spans of every reported
/// (minimum-time) rep — the input for the Chrome trace writer. The span list
/// is empty unless obs recording is compiled in and switched on.
pub fn run_experiment_traced(opts: &Options) -> (Vec<DatasetResult>, Vec<SpanRecord>) {
    let mut trace = Vec::new();
    let results = paper_datasets()
        .into_iter()
        .filter(|d| {
            opts.only
                .as_deref()
                .is_none_or(|needle| d.name.to_lowercase().contains(&needle.to_lowercase()))
        })
        .map(|profile| run_dataset(&profile, opts, &mut trace))
        .collect();
    (results, trace)
}

fn load_graph(profile: &DatasetProfile, opts: &Options) -> (EdgeList, bool) {
    if let Some(dir) = &opts.data_dir {
        let path = std::path::Path::new(dir).join(format!("{}.txt", profile.name));
        if path.exists() {
            match parcsr_graph::io::read_edge_list_file(&path) {
                Ok(g) => return (g, true),
                Err(e) => eprintln!(
                    "warning: failed to read {}: {e}; falling back to synthetic stand-in",
                    path.display()
                ),
            }
        }
    }
    (profile.synthesize(opts.scale, opts.seed), false)
}

fn run_dataset(
    profile: &DatasetProfile,
    opts: &Options,
    trace: &mut Vec<SpanRecord>,
) -> DatasetResult {
    let (graph, real_data) = load_graph(profile, opts);
    let sorted = graph.sorted_by_source();

    // Sizes (independent of processor count; packed once at default width).
    let reference_csr = CsrBuilder::new().build_from_sorted(&sorted).0;
    let packed = BitPackedCsr::from_csr(&reference_csr, PackedCsrMode::Raw, 4);
    // Discard the sizing pre-pass spans: the trace carries timed reps only.
    let _ = parcsr_obs::drain();

    let mut samples = Vec::with_capacity(opts.processors.len());
    let mut t1 = None;
    for &p in &opts.processors {
        let (time_ms, best_spans) = with_processors(p, || {
            let builder = CsrBuilder::new().processors(p);
            let mut best = f64::INFINITY;
            let mut best_spans = Vec::new();
            for _ in 0..opts.reps {
                let t = Instant::now();
                let (csr, _) = builder.build_from_sorted(&sorted);
                let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, p);
                let elapsed = t.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(&packed);
                // Draining per rep keeps only this rep's spans, so the
                // reported breakdown belongs to the reported (minimum) time.
                let spans = parcsr_obs::drain();
                if elapsed < best {
                    best = elapsed;
                    best_spans = spans;
                }
            }
            (best, best_spans)
        });
        let t1_ms = *t1.get_or_insert(time_ms);
        let stages = aggregate_stages(&best_spans, true);
        let mem_peak_bytes = stages
            .iter()
            .map(|s| s.mem_peak_bytes)
            .max()
            .filter(|&m| m > 0);
        trace.extend(best_spans);
        samples.push(ProcessorSample {
            processors: p,
            time_ms,
            speedup_percent: (t1_ms - time_ms) / t1_ms * 100.0,
            paper_time_ms: profile.paper_time_at(p),
            paper_speedup_percent: profile.paper_speedup_percent(p),
            stages,
            mem_peak_bytes,
        });
    }

    DatasetResult {
        name: profile.name,
        real_data,
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        edgelist_text_bytes: graph.text_bytes(),
        edgelist_binary_bytes: graph.binary_bytes(),
        csr_packed_bytes: packed.packed_bytes(),
        csr_raw_bytes: reference_csr.heap_bytes(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> Options {
        Options {
            scale: 0.002,
            processors: vec![1, 2],
            reps: 1,
            seed: 7,
            data_dir: None,
            only: Some("WebNotreDame".into()),
            json: false,
            trace: None,
            metrics: false,
        }
    }

    #[test]
    fn experiment_runs_end_to_end() {
        let results = run_experiment(&tiny_options());
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.name, "WebNotreDame");
        assert!(!r.real_data);
        assert_eq!(r.samples.len(), 2);
        assert_eq!(r.samples[0].processors, 1);
        assert_eq!(r.samples[0].speedup_percent, 0.0);
        assert!(r.samples.iter().all(|s| s.time_ms > 0.0));
        assert!(r.csr_packed_bytes > 0);
        assert!(r.csr_packed_bytes < r.edgelist_binary_bytes);
    }

    #[test]
    fn only_filter_is_case_insensitive() {
        let mut o = tiny_options();
        o.only = Some("pokec".into());
        o.scale = 0.001;
        let results = run_experiment(&o);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].name, "Pokec");
    }

    #[test]
    fn paper_reference_columns_attach() {
        let results = run_experiment(&tiny_options());
        let s = &results[0].samples[0];
        assert_eq!(s.paper_time_ms, Some(7.13));
    }

    // Gated off under the obs feature: the traced test flips the global
    // runtime switch, and the two would race in a parallel test run.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn stages_are_empty_when_recording_is_off() {
        // Default build: the breakdown must not materialize.
        let results = run_experiment(&tiny_options());
        assert!(results[0].samples.iter().all(|s| s.stages.is_empty()));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn traced_experiment_reports_pipeline_stages() {
        parcsr_obs::set_enabled(true);
        let (results, spans) = run_experiment_traced(&tiny_options());
        parcsr_obs::set_enabled(false);
        assert!(!spans.is_empty());
        for sample in &results[0].samples {
            // The top-level coordinator spans are recorded on this thread,
            // so they cannot be lost to (or polluted by) concurrent tests.
            let names: Vec<&str> = sample.stages.iter().map(|s| s.name).collect();
            for want in ["degree", "scan", "scatter", "pack"] {
                assert!(names.contains(&want), "missing {want} in {names:?}");
            }
        }
    }

    #[test]
    fn real_data_path_falls_back_when_missing() {
        let mut o = tiny_options();
        o.data_dir = Some("/nonexistent-dir".into());
        let results = run_experiment(&o);
        assert!(!results[0].real_data);
    }
}
