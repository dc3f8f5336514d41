//! Closed-loop serving load driver (the harness side of DESIGN.md §8).
//!
//! `N` logical clients issue single queries back-to-back against a built
//! [`BitPackedCsr`]: each client picks a query kind from a configurable
//! Algorithm 6/7/8 mix, picks the queried node Zipf-skewed *by degree rank*
//! (rank 1 = highest-degree node, so the skew is degree-correlated the way
//! real serving traffic is), times the query call with a wall clock, and
//! records the latency into a driver-owned [`QuerySlabs`] shard. A
//! reporter on the main thread rotates the slab windows every
//! `--window-ms` and snapshots per-window throughput and latency
//! percentiles, per query kind and per degree class.
//!
//! Closed-loop means each client waits for its own previous query — offered
//! load adapts to service time, so the reported qps is the *sustained*
//! throughput at the observed latencies, the quantity an SLO is written
//! against (`cargo xtask slo-check` grades the JSON this module emits).
//!
//! The driver's slabs are the one measurement of a served query: one
//! latency, an `Instant` taken right before and right after the kernel
//! call (the interval perfbench times too), with or without the obs
//! feature. Picking the query and classifying its source happen before
//! the first stamp; dropping the answer and recording happen after the
//! second. Each window keeps its slowest queries as tail exemplars. At
//! each rotation the reporter turns the completed window into one
//! [`HistoryWindow`], its bounds stamped on the span clock ([`now_ns`]).
//! That list is the report's window series, its exemplar block, and, under
//! `--trace`, the `query.win.*` / `query.exemplar.*` counter events that
//! `cargo xtask check-trace` validates.
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
use parcsr_obs::metrics::HistogramSummary;
use parcsr_obs::serve::{
    DegreeClass, Exemplar, HistoryWindow, QueryKind, QuerySlabs, EXEMPLARS_PER_SHARD,
};
use parcsr_obs::span::now_ns;

use crate::json::{Json, ToJson};

/// Result-JSON schema tag; bump when the shape changes incompatibly.
pub const SCHEMA: &str = "parcsr.closed_loop.v1";

/// Schema tag of the tail-exemplar block inside the result JSON.
pub const EXEMPLAR_SCHEMA: &str = "parcsr.exemplars.v1";

/// Which graph the driver serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// The imbalance study's hub graph: 64 hub rows carry ~half the edges
    /// (~2.02M edges at scale 1.0) — the adversarial serving shape.
    Hub,
    /// The WebNotreDame profile stand-in (power-law, no planted hub block).
    Web,
}

impl GraphKind {
    /// Parses `hub` / `web`.
    pub fn parse(s: &str) -> Result<GraphKind, String> {
        match s {
            "hub" => Ok(GraphKind::Hub),
            "web" => Ok(GraphKind::Web),
            other => Err(format!("unknown graph {other:?} (hub|web)")),
        }
    }

    /// Stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Hub => "hub",
            GraphKind::Web => "web",
        }
    }
}

/// Driver options (`queries_closed_loop` flags).
#[derive(Debug, Clone, PartialEq)]
pub struct DriverOptions {
    /// Which graph to serve.
    pub graph: GraphKind,
    /// Size fraction: scales the hub graph's node count and hub degree, or
    /// the WebNotreDame published size.
    pub scale: f64,
    /// Logical closed-loop clients (one OS thread each).
    pub clients: usize,
    /// Total driving time in milliseconds.
    pub duration_ms: u64,
    /// Reporting window length in milliseconds.
    pub window_ms: u64,
    /// Query-mix weights for [`QueryKind::ALL`], in that order: neighbors
    /// (Alg 6), edge_scan (Alg 7), edge_binary (Alg 7 binary), split
    /// (Alg 8). They need not sum to 100.
    pub mix: [u32; 4],
    /// Zipf exponent of the degree-rank skew (`0` = uniform).
    pub zipf_s: f64,
    /// RNG seed (each client derives its own stream).
    pub seed: u64,
    /// Emit the result as JSON on stdout (the human table moves to stderr).
    pub json: bool,
    /// Write a Chrome trace of the run: its serving windows, plus spans
    /// when built with `--features obs`.
    pub trace: Option<String>,
    /// Print the obs stage and heap summary to stderr (needs
    /// `--features obs`).
    pub metrics: bool,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            graph: GraphKind::Hub,
            scale: 1.0,
            clients: 4,
            duration_ms: 2_000,
            window_ms: 250,
            mix: [45, 25, 20, 10],
            zipf_s: 1.0,
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
                "--graph" => opts.graph = GraphKind::parse(&value("--graph")?)?,
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
                "--window-ms" => {
                    opts.window_ms = value("--window-ms")?
                        .parse()
                        .map_err(|e| format!("--window-ms: {e}"))?;
                    if opts.window_ms == 0 {
                        return Err("--window-ms must be at least 1".into());
                    }
                }
                "--mix" => {
                    let raw = value("--mix")?;
                    let parts: Vec<u32> = raw
                        .split(',')
                        .map(|s| s.trim().parse::<u32>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("--mix: {e}"))?;
                    let mix: [u32; 4] = parts.try_into().map_err(|_| {
                        "--mix needs exactly 4 comma-separated weights \
                                      (neighbors,edge_scan,edge_binary,split)"
                            .to_string()
                    })?;
                    if mix.iter().all(|&w| w == 0) {
                        return Err("--mix needs at least one positive weight".into());
                    }
                    opts.mix = mix;
                }
                "--zipf-s" => {
                    opts.zipf_s = value("--zipf-s")?
                        .parse()
                        .map_err(|e| format!("--zipf-s: {e}"))?;
                    if !opts.zipf_s.is_finite() || opts.zipf_s < 0.0 {
                        return Err("--zipf-s must be finite and non-negative".into());
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
Closed-loop serving load driver: N clients issue Zipf-skewed query mixes
against a packed CSR; reports per-window qps and latency percentiles.

Flags:
  --graph <hub|web>   graph to serve (default hub: 64 hub rows, ~half the edges)
  --scale <f>         size fraction (default 1.0 = ~2.02M-edge hub graph)
  --clients <n>       logical closed-loop clients (default 4)
  --duration-ms <n>   total driving time (default 2000)
  --window-ms <n>     reporting window length (default 250)
  --mix <a,b,c,d>     weights for neighbors,edge_scan,edge_binary,split
                      (default 45,25,20,10; need not sum to 100)
  --zipf-s <f>        Zipf exponent of the degree-rank skew (default 1.0; 0 = uniform)
  --seed <n>          RNG seed (default 42)
  --json              emit the result JSON on stdout (table moves to stderr)
  --trace <file>      write a Chrome trace with query.win.* counter events
  --metrics           print the obs stage and heap summary to stderr
                      (spans and heap need a build with --features obs)

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

/// Builds the graph the options ask for; returns `(display name, edges)`.
#[must_use]
pub fn build_graph(opts: &DriverOptions) -> (String, EdgeList) {
    match opts.graph {
        GraphKind::Hub => (format!("hub@{}", opts.scale), hub_graph(opts.scale)),
        GraphKind::Web => {
            let profile = &parcsr_graph::paper_datasets()[3]; // WebNotreDame
            (
                format!("{}@{}", profile.name, opts.scale),
                profile.synthesize(opts.scale.min(0.5), opts.seed),
            )
        }
    }
}

/// One rolled-up latency cell (a query kind or a degree class) of a window
/// or of the whole run.
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

/// The exemplar block entry of one window: its ordinal and its tail
/// exemplars, slowest first.
fn window_exemplars_json(w: &HistoryWindow) -> Json {
    Json::Object(vec![
        ("window".into(), Json::Int(w.window as i64)),
        (
            "exemplars".into(),
            Json::Array(
                w.exemplars
                    .iter()
                    .map(|e| {
                        Json::Object(vec![
                            ("kind".into(), Json::Str(e.kind.name().into())),
                            ("class".into(), Json::Str(e.class.name().into())),
                            ("source".into(), Json::Int(e.source as i64)),
                            ("total_ns".into(), Json::Int(e.ns as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One completed reporting window.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window ordinal (0-based; a trailing partial window may follow the
    /// last full one).
    pub window: u64,
    /// Window open, ms since the run started.
    pub start_ms: f64,
    /// Window length, ms (wall-clock measured, not the nominal flag value).
    pub dur_ms: f64,
    /// Queries completed in the window.
    pub requests: u64,
    /// Completed queries per second.
    pub qps: f64,
    /// Overall latency percentiles for the window, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Non-empty per-kind rollups.
    pub kinds: Vec<CellReport>,
    /// Non-empty per-degree-class rollups.
    pub classes: Vec<CellReport>,
}

impl ToJson for WindowReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("window".into(), Json::Int(self.window as i64)),
            ("start_ms".into(), Json::Float(self.start_ms)),
            ("dur_ms".into(), Json::Float(self.dur_ms)),
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

/// Whole driver run: config echo, per-window series, lifetime rollup.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Graph display name (`hub@1` / `WebNotreDame@0.25`).
    pub graph: String,
    /// Node count served.
    pub nodes: usize,
    /// Edge count served.
    pub edges: usize,
    /// Client count.
    pub clients: usize,
    /// Query-mix weights as configured.
    pub mix: [u32; 4],
    /// Zipf exponent as configured.
    pub zipf_s: f64,
    /// Seed as configured.
    pub seed: u64,
    /// Measured run length, ms.
    pub elapsed_ms: f64,
    /// Completed reporting windows (last entry may be a partial tail).
    pub windows: Vec<WindowReport>,
    /// Lifetime rollup across all windows.
    pub overall: WindowReport,
    /// The record of each entry of `windows`, same order: its cells and its
    /// tail exemplars, on the span clock. The JSON exemplar block and the
    /// trace's serving series render it.
    pub history: Vec<HistoryWindow>,
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
                Json::Array(self.mix.iter().map(|&w| Json::Int(w as i64)).collect()),
            ),
            ("zipf_s".into(), Json::Float(self.zipf_s)),
            ("seed".into(), Json::Int(self.seed as i64)),
            ("elapsed_ms".into(), Json::Float(self.elapsed_ms)),
            ("windows".into(), self.windows.as_slice().to_json()),
            ("overall".into(), self.overall.to_json()),
            (
                "exemplars".into(),
                Json::Object(vec![
                    ("schema".into(), Json::Str(EXEMPLAR_SCHEMA.into())),
                    ("per_shard".into(), Json::Int(EXEMPLARS_PER_SHARD as i64)),
                    (
                        "windows".into(),
                        Json::Array(
                            self.history
                                .iter()
                                .filter(|w| !w.exemplars.is_empty())
                                .map(window_exemplars_json)
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }
}

/// Rotates `slabs` and returns the record of the completed window, open
/// since `opened_ns` and closed now, on the span clock.
fn close_window(slabs: &QuerySlabs, opened_ns: u64) -> HistoryWindow {
    let completed = slabs.rotate();
    HistoryWindow::new(
        completed,
        opened_ns,
        now_ns(),
        slabs.window_cells(completed),
        slabs.completed_exemplars(),
    )
}

/// Builds the [`WindowReport`] of `w`, a window just rotated out of
/// `slabs`. Its bounds, request count and qps are `w`'s, so the JSON window
/// and the trace's window agree.
fn window_report(slabs: &QuerySlabs, w: &HistoryWindow, run_start_ns: u64) -> WindowReport {
    let epoch = w.window;
    let all = slabs.window_summary(epoch, None, None);
    let kinds = QueryKind::ALL
        .iter()
        .filter_map(|&k| {
            let s = slabs.window_summary(epoch, Some(k), None);
            (s.count > 0).then(|| CellReport::from_summary(k.name(), &s))
        })
        .collect();
    let classes = DegreeClass::ALL
        .iter()
        .filter_map(|&c| {
            let s = slabs.window_summary(epoch, None, Some(c));
            (s.count > 0).then(|| CellReport::from_summary(c.name(), &s))
        })
        .collect();
    WindowReport {
        window: epoch,
        start_ms: w.start_ns.saturating_sub(run_start_ns) as f64 / 1e6,
        dur_ms: w.dur_ns as f64 / 1e6,
        requests: w.queries,
        qps: w.qps,
        p50_ns: all.p50,
        p95_ns: all.p95,
        p99_ns: all.p99,
        kinds,
        classes,
    }
}

/// Runs the closed loop: builds the graph and packed CSR, drives it for
/// `opts.duration_ms`, and returns the report. Deterministic in the query
/// *sequence* per client (seeded RNG); the measured latencies obviously are
/// not.
#[must_use]
pub fn run(opts: &DriverOptions) -> DriverReport {
    let (graph_name, edges) = build_graph(opts);
    let csr = CsrBuilder::new().build(&edges);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
    let n = csr.num_nodes();

    // Degree-descending rank table: rank r = the (r+1)-th highest-degree
    // node (ties broken by node id for determinism). Zipf rank 1 → ranks[0].
    let mut ranks: Vec<NodeId> = (0..n as NodeId).collect();
    ranks.sort_by_key(|&u| (std::cmp::Reverse(csr.degree(u)), u));
    let zipf = Zipf::new(n, opts.zipf_s);
    // Split searches (Algorithm 8) target the hottest rows — that is the
    // query the paper splits across processors precisely because hub rows
    // are long.
    let hub_pool = ranks.len().min(HUB_ROWS as usize);
    let total_weight: u32 = opts.mix.iter().sum();

    // The reporter reads each window right after rotating it, so the live
    // window and the one just completed are all the slabs need to keep.
    let slabs = QuerySlabs::new(opts.clients, 2);
    let stop = AtomicBool::new(false);
    let run_start_ns = now_ns();
    let windows_target = opts.duration_ms.div_ceil(opts.window_ms);
    let mut windows: Vec<WindowReport> = Vec::new();
    let mut history: Vec<HistoryWindow> = Vec::new();

    std::thread::scope(|scope| {
        for client in 0..opts.clients {
            let (slabs, stop, packed, ranks, zipf) = (&slabs, &stop, &packed, &ranks, &zipf);
            let opts = opts.clone();
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(
                    opts.seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                // Width-1 install: the shim runs width-1 pools inline on
                // this thread, so length-1 batches cost no thread spawn.
                with_processors(1, || {
                    while !stop.load(Relaxed) {
                        let mut pick = rng.gen_range(0..total_weight);
                        let kind = QueryKind::ALL
                            .iter()
                            .zip(opts.mix)
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
                            QueryKind::Neighbors => time_call(|| neighbors_batch(packed, &[u], 1)),
                            QueryKind::EdgeScan => {
                                let v = rng.gen_range(0..n as NodeId);
                                time_call(|| edges_exist_batch(packed, &[(u, v)], 1))
                            }
                            QueryKind::EdgeBinary => {
                                let v = rng.gen_range(0..n as NodeId);
                                time_call(|| edges_exist_batch_binary(packed, &[(u, v)], 1))
                            }
                            QueryKind::SplitSearch => {
                                let v = rng.gen_range(0..n as NodeId);
                                time_call(|| edge_exists_split(packed, u, v, 1))
                            }
                        };
                        slabs.record_query(
                            client,
                            Exemplar {
                                kind,
                                class: DegreeClass::classify(deg),
                                source: u64::from(u),
                                ns,
                            },
                        );
                    }
                });
            });
        }

        // Reporter: the single rotator. Window 0 opens at the run start;
        // each later window opens where the previous one closed.
        for ordinal in 0..windows_target {
            let deadline_ns = opts
                .window_ms
                .saturating_mul(1_000_000)
                .saturating_mul(ordinal + 1)
                .saturating_add(run_start_ns);
            let now = now_ns();
            if deadline_ns > now {
                std::thread::sleep(Duration::from_nanos(deadline_ns - now));
            }
            let w = close_window(&slabs, history.last().map_or(run_start_ns, |w| w.end_ns));
            windows.push(window_report(&slabs, &w, run_start_ns));
            history.push(w);
        }
        stop.store(true, Relaxed);
    });

    // Clients have joined; anything recorded after the last rotation forms
    // a short tail window (kept only if it saw traffic).
    let tail = close_window(&slabs, history.last().map_or(run_start_ns, |w| w.end_ns));
    let elapsed_ms = tail.end_ns.saturating_sub(run_start_ns) as f64 / 1e6;
    if tail.queries > 0 {
        windows.push(window_report(&slabs, &tail, run_start_ns));
        history.push(tail);
    }

    let all = slabs.overall_summary(None, None);
    let overall_kinds = QueryKind::ALL
        .iter()
        .filter_map(|&k| {
            let s = slabs.overall_summary(Some(k), None);
            (s.count > 0).then(|| CellReport::from_summary(k.name(), &s))
        })
        .collect();
    let overall_classes = DegreeClass::ALL
        .iter()
        .filter_map(|&c| {
            let s = slabs.overall_summary(None, Some(c));
            (s.count > 0).then(|| CellReport::from_summary(c.name(), &s))
        })
        .collect();
    let qps = if elapsed_ms > 0.0 {
        all.count as f64 * 1_000.0 / elapsed_ms
    } else {
        0.0
    };
    let overall = WindowReport {
        window: 0,
        start_ms: 0.0,
        dur_ms: elapsed_ms,
        requests: all.count,
        qps,
        p50_ns: all.p50,
        p95_ns: all.p95,
        p99_ns: all.p99,
        kinds: overall_kinds,
        classes: overall_classes,
    };
    DriverReport {
        graph: graph_name,
        nodes: n,
        edges: csr.num_edges(),
        clients: opts.clients,
        mix: opts.mix,
        zipf_s: opts.zipf_s,
        seed: opts.seed,
        elapsed_ms,
        windows,
        overall,
        history,
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

/// Renders the human window table (one line per window, then the lifetime
/// rollup, per-kind/per-class rollups, and the slowest query).
#[must_use]
pub fn render_table(report: &DriverReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "closed loop: {} ({} nodes / {} edges), {} clients, mix {:?}, zipf_s {}",
        report.graph, report.nodes, report.edges, report.clients, report.mix, report.zipf_s
    );
    let _ = writeln!(
        out,
        "| window | span (ms) | requests | qps | p50 (µs) | p95 (µs) | p99 (µs) |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|---:|");
    let us = |ns: u64| ns as f64 / 1_000.0;
    for w in &report.windows {
        let _ = writeln!(
            out,
            "| {} | {:.0}–{:.0} | {} | {:.0} | {:.1} | {:.1} | {:.1} |",
            w.window,
            w.start_ms,
            w.start_ms + w.dur_ms,
            w.requests,
            w.qps,
            us(w.p50_ns),
            us(w.p95_ns),
            us(w.p99_ns),
        );
    }
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
    if let Some(slowest) = report
        .history
        .iter()
        .flat_map(|w| &w.exemplars)
        .max_by_key(|e| e.ns)
    {
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

    fn parse(args: &[&str]) -> Result<DriverOptions, String> {
        DriverOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.graph, GraphKind::Hub);
        assert_eq!(o.clients, 4);
        assert_eq!(o.mix, [45, 25, 20, 10]);
        assert_eq!(o.window_ms, 250);
        assert_eq!(o.trace, None);
    }

    #[test]
    fn parses_the_full_flag_set() {
        let o = parse(&[
            "--graph",
            "web",
            "--scale",
            "0.1",
            "--clients",
            "8",
            "--duration-ms",
            "500",
            "--window-ms",
            "100",
            "--mix",
            "1, 2,3,4",
            "--zipf-s",
            "0.8",
            "--seed",
            "7",
            "--json",
        ])
        .unwrap();
        assert_eq!(o.graph, GraphKind::Web);
        assert_eq!(o.scale, 0.1);
        assert_eq!(o.clients, 8);
        assert_eq!(o.duration_ms, 500);
        assert_eq!(o.window_ms, 100);
        assert_eq!(o.mix, [1, 2, 3, 4]);
        assert_eq!(o.zipf_s, 0.8);
        assert_eq!(o.seed, 7);
        assert!(o.json);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&["--graph", "nope"]).is_err());
        assert!(parse(&["--clients", "0"]).is_err());
        assert!(parse(&["--duration-ms", "0"]).is_err());
        assert!(parse(&["--window-ms", "0"]).is_err());
        assert!(parse(&["--mix", "1,2,3"]).is_err());
        assert!(parse(&["--mix", "0,0,0,0"]).is_err());
        assert!(parse(&["--zipf-s", "-1"]).is_err());
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--admin-port", "9184"]).is_err());
        // The driver grades nothing itself: `cargo xtask slo-check` does.
        for flag in ["--p99-ns", "--min-qps"] {
            let err = parse(&[flag, "1"]).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{flag}: {err}");
        }
        // `--trace` and `--metrics` are the only obs switches: spans are not
        // sampled, and heap accounting follows recording.
        for args in [
            &["--trace-sample", "64"][..],
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
    fn smoke_run_reports_windows_and_parses_back() {
        let opts = DriverOptions {
            scale: 0.01,
            clients: 2,
            duration_ms: 220,
            window_ms: 60,
            ..DriverOptions::default()
        };
        let report = run(&opts);
        assert!(
            report.windows.len() >= 4,
            "windows: {}",
            report.windows.len()
        );
        assert!(report.overall.requests > 0);
        // Window ordinals are dense and every full window saw traffic (a
        // 60 ms window on a 2k-node graph answers thousands of queries).
        for (i, w) in report.windows.iter().enumerate() {
            assert_eq!(w.window, i as u64);
        }
        assert!(report.windows[0].requests > 0);
        // Lifetime rollup equals the sum of the windows up to boundary
        // smear: a client mid-record across a rotation may land its sample
        // in a completed slot after the reporter read it (at most one
        // in-flight record per client per rotation, per the serve-module
        // concurrency contract), so the window sum may trail slightly.
        let sum: u64 = report.windows.iter().map(|w| w.requests).sum();
        assert!(sum <= report.overall.requests);
        let smear_bound = opts.clients as u64 * (report.windows.len() as u64 + 1);
        assert!(
            report.overall.requests - sum <= smear_bound,
            "lost {} records to rotation smear (bound {smear_bound})",
            report.overall.requests - sum
        );
        // Every query lands in exactly one kind and one class.
        let all = &report.overall;
        let by_kind: u64 = all.kinds.iter().map(|c| c.count).sum();
        let by_class: u64 = all.classes.iter().map(|c| c.count).sum();
        assert_eq!((by_kind, by_class), (all.requests, all.requests));
        // Exemplars: every rotated window that saw traffic kept its slowest
        // queries, slowest first.
        assert_eq!(report.history.len(), report.windows.len());
        for (we, w) in report.history.iter().zip(&report.windows) {
            assert_eq!(we.window, w.window);
            assert_eq!(we.exemplars.is_empty(), w.requests == 0);
            for pair in we.exemplars.windows(2) {
                assert!(pair[0].ns >= pair[1].ns);
            }
        }
        // JSON round-trips and carries the schema tags.
        let parsed = Json::parse(&report.to_json().pretty()).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA),);
        let windows = parsed.get("windows").unwrap().as_array().unwrap();
        assert_eq!(windows.len(), report.windows.len());
        assert!(windows[0].get("kinds").unwrap().as_array().unwrap().len() >= 2);
        let ex = parsed.get("exemplars").unwrap();
        assert_eq!(
            ex.get("schema").and_then(Json::as_str),
            Some(EXEMPLAR_SCHEMA)
        );
        let json_exemplars = ex.get("windows").unwrap().as_array().unwrap();
        assert!(!json_exemplars.is_empty());

        // The trace renders the same windows: one `query.win.qps` point per
        // JSON window with traffic (same ordinal, same request count) and
        // one `query.exemplar.*` point per JSON exemplar, in order.
        let trace = parcsr_obs::export::chrome_trace_with_counters(&[], None, &report.history);
        let events = trace.as_array().unwrap();
        let arg = |e: &Json, key: &str| e.get("args").unwrap().get(key).unwrap().as_f64().unwrap();
        let named = |prefix: &'static str| {
            events
                .iter()
                .filter(move |e| e.get("name").unwrap().as_str().unwrap().starts_with(prefix))
        };
        let trace_windows: Vec<(u64, u64)> = named("query.win.qps")
            .map(|e| (arg(e, "window") as u64, arg(e, "queries") as u64))
            .collect();
        let json_windows: Vec<(u64, u64)> = windows
            .iter()
            .map(|w| {
                let field = |key| w.get(key).unwrap().as_f64().unwrap() as u64;
                (field("window"), field("requests"))
            })
            .filter(|&(_, requests)| requests > 0)
            .collect();
        assert_eq!(trace_windows, json_windows);
        let trace_exemplars: Vec<[u64; 3]> = named("query.exemplar.")
            .map(|e| ["window", "source", "total"].map(|k| arg(e, k) as u64))
            .collect();
        let json_exemplars: Vec<[u64; 3]> = json_exemplars
            .iter()
            .flat_map(|w| {
                let window = w.get("window").unwrap().as_f64().unwrap() as u64;
                w.get("exemplars")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(move |e| {
                        let field = |key| e.get(key).unwrap().as_f64().unwrap() as u64;
                        [window, field("source"), field("total_ns")]
                    })
            })
            .collect();
        assert_eq!(trace_exemplars, json_exemplars);

        // The human table renders every window plus the slowest query.
        let table = render_table(&report);
        assert!(table.contains("overall:"));
        assert!(table.contains("slowest query:"));
    }

    #[test]
    fn trace_window_zero_opens_at_the_run_start() {
        let opts = DriverOptions {
            scale: 0.01,
            clients: 2,
            duration_ms: 120,
            window_ms: 60,
            ..DriverOptions::default()
        };
        // The span clock is already running; the graph build happens after
        // this stamp and before the run starts.
        let before = now_ns();
        let report = run(&opts);
        let (w0, j0) = (&report.history[0], &report.windows[0]);
        assert!(
            w0.start_ns > before,
            "window 0 opens at the run start ({} ns), not at the clock epoch \
             (before the run: {before} ns)",
            w0.start_ns
        );
        assert_eq!(j0.start_ms, 0.0);
        assert_eq!(w0.dur_ns as f64 / 1e6, j0.dur_ms);
        // Query count and qps match JSON window 0 within the rotation-smear
        // bound (one in-flight record per client).
        assert!(w0.queries > 0);
        assert!(w0.queries.abs_diff(j0.requests) <= opts.clients as u64);
        let smear_qps = opts.clients as f64 * 1e9 / w0.dur_ns as f64;
        assert!(
            (w0.qps - j0.qps).abs() <= smear_qps,
            "{} vs {}",
            w0.qps,
            j0.qps
        );
    }
}
