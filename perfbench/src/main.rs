//! Fixed-work benchmark of the parcsr ingest and serve paths.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|serve_hub|serve_uniform> --seed N --seconds S --trace <0|1>
//! ```
//!
//! A run generates its inputs from the seed five times (`setup_s` is the
//! median), then repeats rounds until `--seconds` have gone by. A round
//! ingests the workload's SNAP text with `parcsr compress --procs 2` and
//! reads the `.pcsr` back, then serves the workload's fixed query stream a
//! few times, each time on a fresh `read_from` of that file. Every read-back
//! and every answer is checked against a plain CSR built outside the timed
//! regions. `--trace 0` reports the end-to-end metrics. `--trace 1` adds a
//! layer-by-layer ingest to each round, probes the serve-path layers at the
//! end and reports the per-layer metrics. The last line of standard output
//! is the JSON result; progress goes to standard error.

mod ingest;
mod serve;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use parcsr::{BitPackedCsr, PackedCsrMode};

use ingest::Layers;
use serve::ServePass;
use stats::{median, percentile_band, Metrics};
use workload::{Inputs, Scale, Spec, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <ingest|serve_hub|serve_uniform> --seed N --seconds S --trace <0|1>";

struct Config {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Rounds run however short `seconds` is.
    min_rounds: usize,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::named(&workload, Scale::Full).ok_or_else(|| {
        format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    Ok(Config {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        min_rounds: 3,
    })
}

/// A scratch directory for the run's files, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What a run's repeated rounds measured.
#[derive(Default)]
struct Samples {
    /// Wall seconds of each untraced ingest.
    ingest_s: Vec<f64>,
    /// Layer times of each traced ingest.
    traced: Vec<Layers>,
    serve: Vec<ServePass>,
    /// Lowest latency each query of the stream had over all serve passes, ns.
    best_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    /// Ingests the text (through the command, or layer by layer when
    /// `traced` gives the column mode) and checks the read-back. Returns the
    /// column mode the read-back has.
    fn ingest(&mut self, inputs: &Inputs, traced: Option<PackedCsrMode>) -> Option<PackedCsrMode> {
        let packed = match traced {
            None => {
                let (secs, packed) = ingest::ingest_cli(inputs);
                self.ingest_s.push(secs);
                packed
            }
            Some(mode) => {
                let (layers, packed) = ingest::ingest_traced(inputs, mode);
                self.traced.push(layers);
                packed
            }
        };
        self.attempted += 1;
        match packed {
            Ok(packed) => Some(packed.mode()),
            Err(e) => {
                eprintln!("ingest failed: {e}");
                self.failed += 1;
                None
            }
        }
    }

    /// Opens the `.pcsr` the last ingest wrote, each time into fresh memory,
    /// and serves the stream on it.
    fn serve(&mut self, inputs: &Inputs) -> Option<BitPackedCsr> {
        let queries = inputs.stream.len() as u64;
        self.attempted += 1 + queries;
        match ingest::open(&inputs.pcsr) {
            Ok(packed) => {
                let pass = serve::serve_pass(&packed, &inputs.stream, &mut self.best_ns);
                self.failed += pass.failed;
                self.serve.push(pass);
                Some(packed)
            }
            Err(e) => {
                // Nothing to serve: the open and every query count as failed.
                eprintln!("opening the .pcsr failed: {e}");
                self.failed += 1 + queries;
                None
            }
        }
    }

    // The end-to-end timings are best-of-N: other tenants of the host only
    // ever slow a pass down, and how much drifts from minute to minute, so
    // the fastest pass is the steadiest reading of what the code costs. The
    // latencies take the best per query rather than per pass: every pass
    // serves the same stream, and the tail of a single pass is set by the
    // few queries that interference happened to hit.

    /// The fastest serve pass's stream length over its wall time.
    fn best_qps(&self, queries: usize) -> f64 {
        self.serve
            .iter()
            .map(|p| queries as f64 / p.wall_s)
            .fold(f64::NAN, f64::max)
    }

    /// Percentile `q` of the queries' best latencies, ns.
    fn best_latency_ns(&self, q: f64) -> f64 {
        let mut sorted = self.best_ns.clone();
        sorted.sort_unstable();
        percentile_band(&sorted, q)
    }

    fn best_ingest_s(&self) -> f64 {
        self.ingest_s.iter().copied().fold(f64::NAN, f64::min)
    }
}

/// Calls `round` until another round would overrun `seconds`, and at least
/// `min` times.
fn rounds(seconds: f64, min: usize, mut round: impl FnMut()) {
    let start = Instant::now();
    for done in 0.. {
        let spent = start.elapsed().as_secs_f64();
        if done >= min && spent + spent / done as f64 > seconds {
            return;
        }
        round();
    }
}

/// Runs one workload; returns the result line.
fn run(cfg: &Config) -> Result<String, String> {
    let dir = WorkDir::new(cfg.spec.name)?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        // Free the previous set-up's inputs before generating the next.
        drop(inputs.take());
        let (generated, secs) = Inputs::generate(&cfg.spec, cfg.seed, &dir.0)
            .map_err(|e| format!("setting up {}: {e}", cfg.spec.name))?;
        setup_s.push(secs);
        inputs = Some(generated);
    }
    let inputs = inputs.expect("SETUPS > 0");
    let m = inputs.oracle.num_edges() as f64;
    let n = inputs.oracle.num_nodes() as f64;
    let queries = inputs.stream.len();
    eprintln!(
        "{}: {n} nodes, {m} edges, {queries} queries per serve pass, setup {:.2} s",
        cfg.spec.name,
        median(&mut setup_s.clone())
    );

    let mut samples = Samples {
        best_ns: vec![u64::MAX; queries],
        ..Samples::default()
    };
    let mut metrics = Metrics::default();
    if !cfg.trace {
        let rss_base = stats::reset_peak_rss()?;
        rounds(cfg.seconds, cfg.min_rounds, || {
            samples.ingest(&inputs, None);
            for _ in 0..cfg.spec.serves_per_ingest {
                samples.serve(&inputs);
            }
        });
        let rss_peak = stats::peak_rss_kb()?;
        let bytes = std::fs::metadata(&inputs.pcsr)
            .map_err(|e| format!("{}: {e}", inputs.pcsr.display()))?
            .len();
        metrics.push("setup_s", median(&mut setup_s), "s");
        metrics.push(
            "ingest_ns_per_edge",
            samples.best_ingest_s() * 1e9 / m,
            "ns/edge",
        );
        metrics.push("bits_per_edge", bytes as f64 * 8.0 / m, "bit/edge");
        metrics.push(
            "peak_rss_mb",
            rss_peak.saturating_sub(rss_base) as f64 * 1024.0 / 1e6,
            "MB",
        );
        metrics.push("qps", samples.best_qps(queries), "1/s");
        metrics.push("latency_p50_us", samples.best_latency_ns(0.50) / 1e3, "us");
        metrics.push("latency_p99_us", samples.best_latency_ns(0.99) / 1e3, "us");
    } else {
        // Each round ingests once untraced and once traced, so drift in the
        // host hits both alike; the traced ingest packs in the column mode
        // the command chose. Serving is not traced: its layers are probed
        // directly afterwards, on the last opened read-back.
        let (mut mode, mut packed) = (None, None);
        rounds(cfg.seconds, cfg.min_rounds, || {
            mode = samples.ingest(&inputs, None).or(mode);
            if let Some(mode) = mode {
                samples.ingest(&inputs, Some(mode));
            }
            for _ in 0..cfg.spec.serves_per_ingest {
                drop(packed.take());
                packed = samples.serve(&inputs);
            }
        });
        // Means, not medians, so the layers and the unattributed share add
        // up to the traced ingest wall time exactly.
        let layers = &samples.traced;
        let mean = |f: fn(&Layers) -> f64| layers.iter().map(f).sum::<f64>() / layers.len() as f64;
        let wall = mean(|l| l.wall);
        let per = |secs: f64, count: f64| secs * 1e9 / count;
        metrics.push(
            "graph.io.parse_ns_per_edge",
            per(mean(|l| l.parse), m),
            "ns/edge",
        );
        metrics.push(
            "graph.sort_ns_per_edge",
            per(mean(|l| l.sort), m),
            "ns/edge",
        );
        metrics.push(
            "core.degree_ns_per_edge",
            per(mean(|l| l.degree), m),
            "ns/edge",
        );
        metrics.push("scan.ns_per_node", per(mean(|l| l.scan), n), "ns/node");
        metrics.push(
            "core.build.fill_ns_per_edge",
            per(mean(|l| l.fill), m),
            "ns/edge",
        );
        metrics.push(
            "bitpack.pack_ns_per_edge",
            per(mean(|l| l.pack), m),
            "ns/edge",
        );
        metrics.push(
            "core.serial.write_ns_per_edge",
            per(mean(|l| l.write), m),
            "ns/edge",
        );
        metrics.push(
            "core.serial.read_ns_per_edge",
            per(mean(|l| l.read), m),
            "ns/edge",
        );
        metrics.push(
            "ingest.unattributed_frac",
            (wall - mean(Layers::attributed)) / wall,
            "ratio",
        );
        let plain = samples.ingest_s.iter().sum::<f64>() / samples.ingest_s.len() as f64;
        metrics.push("trace_overhead_frac", (wall - plain) / plain, "ratio");
        eprintln!("  mean ingest: traced {wall:.3} s, untraced {plain:.3} s");

        let packed = packed.ok_or("the last serve pass opened no .pcsr")?;
        let (attempted, failed) = serve::probe_layers(&packed, &inputs, &mut metrics);
        samples.attempted += attempted;
        samples.failed += failed;
        for (name, value, unit) in &metrics.0 {
            eprintln!("  {name:<32} {value:>14.4} {unit}");
        }
        diagnose(&metrics, &samples, queries);
    }
    eprintln!(
        "  ingest s: {:.3?}\n  qps per serve pass: {:.0?}",
        samples.ingest_s,
        samples
            .serve
            .iter()
            .map(|p| queries as f64 / p.wall_s)
            .collect::<Vec<_>>()
    );
    if let Some((name, value, _)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    eprintln!(
        "{} operations, {} failed",
        samples.attempted, samples.failed
    );
    Ok(metrics.to_json(samples.failed == 0, samples.attempted, samples.failed))
}

/// Prints, for the traced run, the shares that confirm which layer each
/// workload stresses.
fn diagnose(metrics: &Metrics, samples: &Samples, queries: usize) {
    let value = |name: &str| {
        metrics
            .0
            .iter()
            .find(|(n, ..)| n == name)
            .map_or(f64::NAN, |e| e.1)
    };
    let total_ns: u64 = samples.serve.iter().map(|p| p.total_ns).sum();
    let hub_ns: u64 = samples.serve.iter().map(|p| p.hub_ns).sum();
    let mean_ns = total_ns as f64 / (queries * samples.serve.len()) as f64;
    let decode = value("bitpack.decode_ns_per_edge") * value("query.edges_per_query");
    eprintln!(
        "  per query: mean {mean_ns:.0} ns, of which rows of degree >= 1024 take {:.1}% \
         and row decode {decode:.0} ns ({:.0}%)",
        hub_ns as f64 * 100.0 / total_ns as f64,
        decode * 100.0 / mean_ns
    );
    // Compared with a probe taken at the same time, so host drift cancels.
    let direct = value("query.overhead_ns") + value("core.packed.probe_ns");
    let low = value("query.exec_ns.neighbors.low");
    eprintln!(
        "  batch-driver overhead + offset probe {direct:.0} ns = {:.0}% of a low-row neighbors query ({low:.0} ns)",
        direct * 100.0 / low
    );
}

fn main() {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use parcsr::Csr;
    use parcsr_graph::EdgeList;

    use super::*;
    use workload::Kind;

    /// `(name, unit)` of each metric one list of `BENCHMARK.json` declares.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let body = &text[text.find(&format!("\"{list}\"")).expect(list)..];
        let body = &body[..body.find(']').expect("end of list")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
            entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
        };
        let mut out: Vec<_> = body
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect();
        out.sort();
        out
    }

    /// `(name, unit)` of each metric a result line reports.
    fn reported(line: &str) -> Vec<(String, String)> {
        let metrics = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
        let mut out: Vec<_> = metrics
            .split("}, ")
            .map(|entry| {
                let entry = entry.trim_start_matches('"');
                let unit_at = entry.find("\"unit\": \"").expect("unit") + 9;
                (
                    entry[..entry.find('"').expect("name")].to_string(),
                    entry[unit_at..unit_at + entry[unit_at..].find('"').expect("unit end")]
                        .to_string(),
                )
            })
            .collect();
        out.sort();
        out
    }

    fn tiny(name: &str, trace: bool) -> Config {
        Config {
            spec: Spec::named(name, Scale::Tiny).expect("known workload"),
            seed: 7,
            seconds: 0.001,
            trace,
            min_rounds: 1,
        }
    }

    #[test]
    fn every_workload_reports_every_declared_metric_without_failures() {
        for name in WORKLOADS {
            for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let line = run(&tiny(name, trace)).expect("tiny run");
                assert!(
                    line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
                    "{name}: {line}"
                );
                assert_eq!(reported(&line), declared(list), "{name}, trace {trace}");
            }
        }
    }

    #[test]
    fn a_wrong_answer_counts_as_a_failed_operation() {
        let spec = Spec::named("serve_hub", Scale::Tiny).expect("known workload");
        let dir = WorkDir::new("wrong-answer").expect("work dir");
        let (mut inputs, _) = Inputs::generate(&spec, 7, &dir.0).expect("inputs");
        let (_, packed) = ingest::ingest_cli(&inputs);
        let packed = packed.expect("valid read-back");
        let mut best_ns = vec![u64::MAX; inputs.stream.len()];
        assert_eq!(
            serve::serve_pass(&packed, &inputs.stream, &mut best_ns).failed,
            0
        );

        // One wrong neighbor row and one wrong edge answer in the oracle.
        for neighbors in [true, false] {
            let q = inputs
                .stream
                .iter_mut()
                .find(|q| (q.kind == Kind::Neighbors) == neighbors)
                .expect("query of that kind");
            q.expect ^= 1;
        }
        assert_eq!(
            serve::serve_pass(&packed, &inputs.stream, &mut best_ns).failed,
            2
        );

        // A read-back that differs from the oracle fails the ingest.
        inputs.oracle = Csr::from_edge_list_sequential(&EdgeList::from_pairs(vec![(0, 1)]));
        assert!(ingest::ingest_cli(&inputs).1.is_err());
    }
}
