//! Closed-loop serving load driver (the harness side of DESIGN.md §8).
//!
//! `N` logical clients issue single queries back-to-back against a built
//! [`BitPackedCsr`] of the hub graph ([`hub_graph`]): each client picks a
//! query kind from the fixed Algorithm 6/7/8 [`MIX`], picks the queried
//! node Zipf-skewed ([`ZIPF_S`]) *by degree rank*
//! (rank 1 = highest-degree node, so the skew is degree-correlated the way
//! real serving traffic is), times the query call with a wall clock, and
//! records the latency into its own [`QuerySlab`]. The main thread sleeps
//! `--duration-ms`, raises the stop flag, and merges the slabs the
//! clients return at join into one run record: throughput and latency
//! percentiles overall, per query kind and per degree class, plus the
//! run's slowest queries.
//!
//! Closed-loop means each client waits for its own previous query — offered
//! load adapts to service time, so the reported qps is the *sustained*
//! throughput at the observed latencies, the quantity an SLO is written
//! against (`cargo xtask slo-check` grades the JSON this module emits).
//!
//! The slabs are the one measurement of a served query: one latency, an
//! `Instant` taken right before and right after the kernel call (the
//! interval perfbench times too), with or without the obs feature.
//! Picking the query and classifying its source happen before the first
//! stamp; dropping the answer and recording happen after the second.
//!
//! Each client wraps its loop in [`with_processors`]`(1, ..)`: the rayon
//! shim runs width-1 pools inline on the calling thread, so a length-1
//! batch costs no thread spawn and the measured latency is the query, not
//! the pool.

// ORDERING: the only atomic is the clients' stop flag — a pure
// advisory signal with no data published alongside it, so Relaxed
// everywhere in this file.
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{Duration, Instant};

use rand::distr::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use parcsr::query::{
    edge_exists_split, edges_exist_batch, edges_exist_batch_binary, neighbors_batch,
};
use parcsr::{with_processors, BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::{EdgeList, NodeId};

use crate::histogram::HistogramSummary;
use crate::json::{Json, ToJson};
use crate::serve::{DegreeClass, Exemplar, QueryKind, QuerySlab};

/// Result-JSON schema tag; bump when the shape changes incompatibly.
pub const SCHEMA: &str = "parcsr.closed_loop.v2";

/// Query-mix weights for [`QueryKind::ALL`], in that order: neighbors
/// (Alg 6), edge_scan (Alg 7), edge_binary (Alg 7 binary), split (Alg 8).
pub const MIX: [u32; 4] = [45, 25, 20, 10];

/// Zipf exponent of the degree-rank skew: a hub-heavy stream.
pub const ZIPF_S: f64 = 1.0;

/// Driver options (`queries_closed_loop` flags).
#[derive(Debug, Clone, PartialEq)]
pub struct DriverOptions {
    /// Size fraction: scales the hub graph's node count and hub degree.
    pub scale: f64,
    /// Logical closed-loop clients (one OS thread each).
    pub clients: usize,
    /// Total driving time in milliseconds.
    pub duration_ms: u64,
    /// RNG seed (each client derives its own stream).
    pub seed: u64,
    /// Emit the result as JSON on stdout (the human table moves to stderr).
    pub json: bool,
    /// Write a Chrome trace of the run's spans and heap (needs
    /// `--features obs`).
    pub trace: Option<String>,
    /// Print the obs stage and heap summary to stderr (needs
    /// `--features obs`).
    pub metrics: bool,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            scale: 1.0,
            clients: 4,
            duration_ms: 2_000,
            seed: 42,
            json: false,
            trace: None,
            metrics: false,
        }
    }
}

impl DriverOptions {
    /// Parses `--flag value` style arguments; returns an error message
    /// naming the offending flag on failure.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<DriverOptions, String> {
        let mut opts = DriverOptions::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "--scale" => {
                    opts.scale = value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?;
                    if !opts.scale.is_finite() || opts.scale <= 0.0 {
                        return Err("--scale must be positive".into());
                    }
                }
                "--clients" => {
                    opts.clients = value("--clients")?
                        .parse()
                        .map_err(|e| format!("--clients: {e}"))?;
                    if opts.clients == 0 {
                        return Err("--clients must be at least 1".into());
                    }
                }
                "--duration-ms" => {
                    opts.duration_ms = value("--duration-ms")?
                        .parse()
                        .map_err(|e| format!("--duration-ms: {e}"))?;
                    if opts.duration_ms == 0 {
                        return Err("--duration-ms must be at least 1".into());
                    }
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--json" => opts.json = true,
                "--trace" => opts.trace = Some(value("--trace")?),
                "--metrics" => opts.metrics = true,
                "--help" | "-h" => return Err(HELP.to_string()),
                other => return Err(format!("unknown flag {other} (try --help)")),
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments, exiting with the message on error.
    pub fn from_env() -> DriverOptions {
        match DriverOptions::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(if msg == HELP { 0 } else { 2 });
            }
        }
    }
}

/// `--help` text (public so the bin's exit-status test can compare).
pub const HELP: &str = "\
Closed-loop serving load driver: N clients issue Zipf(1.0)-skewed
neighbors/edge_scan/edge_binary/split queries (45/25/20/10) against the
packed hub graph (64 hub rows, ~half the edges); reports the run's qps and
latency percentiles per query kind and degree class, plus its slowest
queries.

Flags:
  --scale <f>         size fraction (default 1.0 = ~2.02M-edge hub graph)
  --clients <n>       logical closed-loop clients (default 4)
  --duration-ms <n>   total driving time (default 2000)
  --seed <n>          RNG seed (default 42)
  --json              emit the result JSON on stdout (table moves to stderr)
  --trace <file>      write a Chrome trace of the spans and heap
  --metrics           print the obs stage and heap summary to stderr
                      (both need a build with --features obs)

Grade a run with `cargo xtask slo-check` on its --json output.";

/// Hub-graph shape constants at scale 1.0: the graph of EXPERIMENTS.md's
/// imbalance study, whose edge-skew bound `tests/skew_invariance.rs` holds
/// on the same shape.
const HUB_NODES: u32 = 200_000;
const HUB_PER_NODE: u32 = 5;
const HUB_ROWS: u32 = 64;
const HUB_DEGREE: u32 = 16_000;

/// Deterministic skewed hub graph, scaled: every node emits `HUB_PER_NODE`
/// edges to LCG-scattered targets and the first `HUB_ROWS` nodes each fan
/// out to `scale * HUB_DEGREE` extra targets, so the hub block keeps its
/// ~50% edge share at any scale.
#[must_use]
pub fn hub_graph(scale: f64) -> EdgeList {
    let nodes = (((HUB_NODES as f64) * scale) as u32).max(HUB_ROWS * 2);
    let hub_degree = (((HUB_DEGREE as f64) * scale) as u32)
        .max(16)
        .min(nodes - 1);
    let mut edges = Vec::with_capacity((nodes * HUB_PER_NODE + HUB_ROWS * hub_degree) as usize);
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = |bound: u32| {
        // MMIX LCG; the top bits scatter targets well enough for a
        // synthetic workload.
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % u64::from(bound)) as u32
    };
    for u in 0..nodes {
        for _ in 0..HUB_PER_NODE {
            edges.push((u, next(nodes)));
        }
    }
    for hub in 0..HUB_ROWS {
        for i in 0..hub_degree {
            edges.push((hub, (hub + 1 + i) % nodes));
        }
    }
    EdgeList::new(nodes as usize, edges)
}

/// One rolled-up latency cell (a query kind or a degree class) of the run.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Cell name (`neighbors`, …, or `low`/`mid`/`hub`).
    pub name: &'static str,
    /// Observations in the cell.
    pub count: u64,
    /// Total time spent in the cell, ns (lets consumers compute the share
    /// of query time a kind or class accounts for).
    pub sum_ns: u64,
    /// Latency percentiles, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Exact maximum, ns.
    pub max_ns: u64,
}

impl CellReport {
    fn from_summary(name: &'static str, s: &HistogramSummary) -> CellReport {
        CellReport {
            name,
            count: s.count,
            sum_ns: s.sum,
            p50_ns: s.p50,
            p95_ns: s.p95,
            p99_ns: s.p99,
            max_ns: s.max,
        }
    }
}

impl ToJson for CellReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".into(), Json::Str(self.name.into())),
            ("count".into(), Json::Int(self.count as i64)),
            ("sum_ns".into(), Json::Int(self.sum_ns as i64)),
            ("p50_ns".into(), Json::Int(self.p50_ns as i64)),
            ("p95_ns".into(), Json::Int(self.p95_ns as i64)),
            ("p99_ns".into(), Json::Int(self.p99_ns as i64)),
            ("max_ns".into(), Json::Int(self.max_ns as i64)),
        ])
    }
}

impl ToJson for Exemplar {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("kind".into(), Json::Str(self.kind.name().into())),
            ("class".into(), Json::Str(self.class.name().into())),
            ("source".into(), Json::Int(self.source as i64)),
            ("total_ns".into(), Json::Int(self.ns as i64)),
        ])
    }
}

/// The whole run's throughput and latency rollup.
#[derive(Debug, Clone)]
pub struct Overall {
    /// Queries completed.
    pub requests: u64,
    /// Completed queries per second of the measured run length.
    pub qps: f64,
    /// Latency percentiles over every query, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Non-empty per-kind rollups; their counts sum to `requests`.
    pub kinds: Vec<CellReport>,
    /// Non-empty per-degree-class rollups; their counts sum to `requests`.
    pub classes: Vec<CellReport>,
}

impl Overall {
    /// The rollup of `slab`, recorded over `elapsed_ns`.
    fn of(slab: &QuerySlab, elapsed_ns: u64) -> Overall {
        let all = slab.summary(None, None);
        let kinds = QueryKind::ALL
            .iter()
            .filter_map(|&k| {
                let s = slab.summary(Some(k), None);
                (s.count > 0).then(|| CellReport::from_summary(k.name(), &s))
            })
            .collect();
        let classes = DegreeClass::ALL
            .iter()
            .filter_map(|&c| {
                let s = slab.summary(None, Some(c));
                (s.count > 0).then(|| CellReport::from_summary(c.name(), &s))
            })
            .collect();
        let qps = if elapsed_ns > 0 {
            all.count as f64 * 1e9 / elapsed_ns as f64
        } else {
            0.0
        };
        Overall {
            requests: all.count,
            qps,
            p50_ns: all.p50,
            p95_ns: all.p95,
            p99_ns: all.p99,
            kinds,
            classes,
        }
    }
}

impl ToJson for Overall {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("requests".into(), Json::Int(self.requests as i64)),
            ("qps".into(), Json::Float(self.qps)),
            ("p50_ns".into(), Json::Int(self.p50_ns as i64)),
            ("p95_ns".into(), Json::Int(self.p95_ns as i64)),
            ("p99_ns".into(), Json::Int(self.p99_ns as i64)),
            ("kinds".into(), self.kinds.as_slice().to_json()),
            ("classes".into(), self.classes.as_slice().to_json()),
        ])
    }
}

/// Whole driver run: config echo, measured length, rollup, tail exemplars.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Graph display name (`hub@<scale>`).
    pub graph: String,
    /// Node count served.
    pub nodes: usize,
    /// Edge count served.
    pub edges: usize,
    /// Client count.
    pub clients: usize,
    /// Seed as configured.
    pub seed: u64,
    /// Measured run length, ms: from the clients' start until the last
    /// one joined.
    pub elapsed_ms: f64,
    /// The run's rollup.
    pub overall: Overall,
    /// The run's [`EXEMPLARS_PER_SHARD`](crate::serve::EXEMPLARS_PER_SHARD)
    /// slowest queries, slowest first.
    pub exemplars: Vec<Exemplar>,
}

impl ToJson for DriverReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("graph".into(), Json::Str(self.graph.clone())),
            ("nodes".into(), Json::Int(self.nodes as i64)),
            ("edges".into(), Json::Int(self.edges as i64)),
            ("clients".into(), Json::Int(self.clients as i64)),
            (
                "mix".into(),
                Json::Array(MIX.iter().map(|&w| Json::Int(w as i64)).collect()),
            ),
            ("zipf_s".into(), Json::Float(ZIPF_S)),
            ("seed".into(), Json::Int(self.seed as i64)),
            ("elapsed_ms".into(), Json::Float(self.elapsed_ms)),
            ("overall".into(), self.overall.to_json()),
            ("exemplars".into(), self.exemplars.as_slice().to_json()),
        ])
    }
}

/// Runs the closed loop: builds the graph and packed CSR, drives it for
/// `opts.duration_ms`, and returns the report. Deterministic in the query
/// *sequence* per client (seeded RNG); the measured latencies obviously are
/// not.
#[must_use]
pub fn run(opts: &DriverOptions) -> DriverReport {
    let edges = hub_graph(opts.scale);
    let csr = CsrBuilder::new().build(&edges);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
    let n = csr.num_nodes();

    // Degree-descending rank table: rank r = the (r+1)-th highest-degree
    // node (ties broken by node id for determinism). Zipf rank 1 → ranks[0].
    let mut ranks: Vec<NodeId> = (0..n as NodeId).collect();
    ranks.sort_by_key(|&u| (std::cmp::Reverse(csr.degree(u)), u));
    let zipf = Zipf::new(n, ZIPF_S);
    // Split searches (Algorithm 8) target the hottest rows — that is the
    // query the paper splits across processors precisely because hub rows
    // are long.
    let hub_pool = ranks.len().min(HUB_ROWS as usize);
    let total_weight: u32 = MIX.iter().sum();

    // One client's closed loop: queries back-to-back until the stop flag
    // rises, then hands its slab back through the join.
    let stop = AtomicBool::new(false);
    let drive = |client: usize| {
        let mut slab = QuerySlab::default();
        let mut rng = SmallRng::seed_from_u64(
            opts.seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        // Width-1 install: the shim runs width-1 pools inline on this
        // thread, so length-1 batches cost no thread spawn.
        with_processors(1, || {
            while !stop.load(Relaxed) {
                let mut pick = rng.gen_range(0..total_weight);
                let kind = QueryKind::ALL
                    .iter()
                    .zip(MIX)
                    .find_map(|(&k, w)| {
                        if pick < w {
                            Some(k)
                        } else {
                            pick -= w;
                            None
                        }
                    })
                    .unwrap_or(QueryKind::Neighbors);
                let u = match kind {
                    QueryKind::SplitSearch => ranks[rng.gen_range(0..hub_pool)],
                    _ => ranks[zipf.sample_index(&mut rng)],
                };
                let deg = packed.degree(u);
                let ns = match kind {
                    QueryKind::Neighbors => time_call(|| neighbors_batch(&packed, &[u], 1)),
                    QueryKind::EdgeScan => {
                        let v = rng.gen_range(0..n as NodeId);
                        time_call(|| edges_exist_batch(&packed, &[(u, v)], 1))
                    }
                    QueryKind::EdgeBinary => {
                        let v = rng.gen_range(0..n as NodeId);
                        time_call(|| edges_exist_batch_binary(&packed, &[(u, v)], 1))
                    }
                    QueryKind::SplitSearch => {
                        let v = rng.gen_range(0..n as NodeId);
                        time_call(|| edge_exists_split(&packed, u, v, 1))
                    }
                };
                slab.record_query(Exemplar {
                    kind,
                    class: DegreeClass::classify(deg),
                    source: u64::from(u),
                    ns,
                });
            }
        });
        slab
    };

    let run_start = Instant::now();
    let slab = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..opts.clients)
            .map(|client| scope.spawn(move || drive(client)))
            .collect();
        std::thread::sleep(Duration::from_millis(opts.duration_ms));
        stop.store(true, Relaxed);
        clients
            .into_iter()
            .map(|client| client.join().expect("closed-loop client panicked"))
            .reduce(|mut run, slab| {
                run.merge(&slab);
                run
            })
            .unwrap_or_default()
    });
    let elapsed_ns = run_start.elapsed().as_nanos() as u64;
    DriverReport {
        graph: format!("hub@{}", opts.scale),
        nodes: n,
        edges: csr.num_edges(),
        clients: opts.clients,
        seed: opts.seed,
        elapsed_ms: elapsed_ns as f64 / 1e6,
        overall: Overall::of(&slab, elapsed_ns),
        exemplars: slab.exemplars(),
    }
}

/// Runs one query call and returns its latency in ns: an `Instant` right
/// before and right after `call`, the answer dropped after the second one.
#[inline]
fn time_call<T>(call: impl FnOnce() -> T) -> u64 {
    let t0 = Instant::now();
    let answer = std::hint::black_box(call());
    let ns = t0.elapsed().as_nanos() as u64;
    drop(answer);
    ns
}

/// Renders the human summary: the overall rollup, the per-kind and
/// per-class rollups, and the slowest query.
#[must_use]
pub fn render_table(report: &DriverReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "closed loop: {} ({} nodes / {} edges), {} clients, mix {:?}, zipf_s {}",
        report.graph, report.nodes, report.edges, report.clients, MIX, ZIPF_S
    );
    let us = |ns: u64| ns as f64 / 1_000.0;
    let o = &report.overall;
    let _ = writeln!(
        out,
        "overall: {} requests in {:.0} ms — {:.0} q/s, p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs",
        o.requests,
        report.elapsed_ms,
        o.qps,
        us(o.p50_ns),
        us(o.p95_ns),
        us(o.p99_ns),
    );
    for cell in o.kinds.iter().chain(&o.classes) {
        let _ = writeln!(
            out,
            "  {:>11}: {:>8} q, p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs, max {:.1} µs",
            cell.name,
            cell.count,
            us(cell.p50_ns),
            us(cell.p95_ns),
            us(cell.p99_ns),
            us(cell.max_ns),
        );
    }
    if let Some(slowest) = report.exemplars.first() {
        let _ = writeln!(
            out,
            "slowest query: {} {} source {} — {:.1} µs",
            slowest.kind.name(),
            slowest.class.name(),
            slowest.source,
            us(slowest.ns),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::EXEMPLARS_PER_SHARD;

    fn parse(args: &[&str]) -> Result<DriverOptions, String> {
        DriverOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, 1.0);
        assert_eq!(o.clients, 4);
        assert_eq!(o.duration_ms, 2_000);
        assert_eq!(o.trace, None);
    }

    #[test]
    fn parses_the_full_flag_set() {
        let o = parse(&[
            "--scale",
            "0.1",
            "--clients",
            "8",
            "--duration-ms",
            "500",
            "--seed",
            "7",
            "--json",
        ])
        .unwrap();
        assert_eq!(o.scale, 0.1);
        assert_eq!(o.clients, 8);
        assert_eq!(o.duration_ms, 500);
        assert_eq!(o.seed, 7);
        assert!(o.json);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&["--clients", "0"]).is_err());
        assert!(parse(&["--duration-ms", "0"]).is_err());
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--admin-port", "9184"]).is_err());
        // The driver grades nothing itself: `cargo xtask slo-check` does.
        // The graph, mix and skew are the fixed workload, not flags.
        for flag in ["--p99-ns", "--min-qps", "--graph", "--mix", "--zipf-s"] {
            let err = parse(&[flag, "1"]).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{flag}: {err}");
        }
        // `--trace` and `--metrics` are the only obs switches: spans are not
        // sampled, and heap accounting follows recording. The run is one
        // record, so there is no reporting window to size.
        for args in [
            &["--window-ms", "100"][..],
            &["--trace-sample", "64"],
            &["--trace-sample"],
            &["--mem-metrics"],
            &["--mem-sample", "4"],
            &["--imbalance"],
        ] {
            let err = parse(args).unwrap_err();
            let prefix = format!("unknown flag {} ", args[0]);
            assert!(err.starts_with(&prefix), "{err}");
        }
    }

    #[test]
    fn help_is_the_error_payload() {
        assert_eq!(parse(&["--help"]).unwrap_err(), HELP);
    }

    #[test]
    fn hub_graph_scales_and_keeps_the_hub_block() {
        let g = hub_graph(0.01);
        assert_eq!(g.num_nodes(), 2_000);
        // 2000*5 ordinary + 64*160 hub edges.
        assert_eq!(g.num_edges(), 2_000 * 5 + 64 * 160);
        // Hub rows dominate: node 0 has at least its planted fan-out.
        let hub_edges = g.edges().iter().filter(|&&(u, _)| u < 64).count();
        assert!(hub_edges >= 64 * 160);
    }

    #[test]
    fn smoke_run_accounts_every_query_and_parses_back() {
        let opts = DriverOptions {
            scale: 0.01,
            clients: 2,
            duration_ms: 120,
            ..DriverOptions::default()
        };
        let report = run(&opts);
        let all = &report.overall;
        assert!(all.requests > 0);
        assert!(report.elapsed_ms >= opts.duration_ms as f64);
        // Every query lands in exactly one kind and one class: the slabs
        // merge after the clients join, so the sums are exact.
        let by_kind: u64 = all.kinds.iter().map(|c| c.count).sum();
        let by_class: u64 = all.classes.iter().map(|c| c.count).sum();
        assert_eq!((by_kind, by_class), (all.requests, all.requests));
        // Exemplars: the run's slowest queries, at most K, slowest first,
        // each no slower than its kind cell's exact maximum.
        assert!(!report.exemplars.is_empty());
        assert!(report.exemplars.len() <= EXEMPLARS_PER_SHARD);
        for pair in report.exemplars.windows(2) {
            assert!(pair[0].ns >= pair[1].ns);
        }
        for e in &report.exemplars {
            let cell = all.kinds.iter().find(|c| c.name == e.kind.name()).unwrap();
            assert!(e.ns <= cell.max_ns, "{e:?} vs {cell:?}");
        }
        // The slowest exemplar is the run's maximum.
        let max = all.kinds.iter().map(|c| c.max_ns).max().unwrap();
        assert_eq!(report.exemplars[0].ns, max);

        // JSON round-trips those numbers and carries the schema tag.
        let parsed = Json::parse(&report.to_json().pretty()).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let int = |j: &Json, key| j.get(key).unwrap().as_i64().unwrap() as u64;
        let overall = parsed.get("overall").unwrap();
        assert_eq!(int(overall, "requests"), all.requests);
        let counts = |key| -> Vec<u64> {
            let cells = overall.get(key).unwrap().as_array().unwrap();
            cells.iter().map(|c| int(c, "count")).collect()
        };
        let want = |cells: &[CellReport]| cells.iter().map(|c| c.count).collect::<Vec<_>>();
        assert_eq!(counts("kinds"), want(&all.kinds));
        assert_eq!(counts("classes"), want(&all.classes));
        let json_exemplars: Vec<[u64; 2]> = parsed
            .get("exemplars")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|e| [int(e, "source"), int(e, "total_ns")])
            .collect();
        let want: Vec<[u64; 2]> = report.exemplars.iter().map(|e| [e.source, e.ns]).collect();
        assert_eq!(json_exemplars, want);

        // The human table renders the rollup plus the slowest query.
        let table = render_table(&report);
        assert!(table.contains("overall:"));
        assert!(table.contains("slowest query:"));
    }
}
