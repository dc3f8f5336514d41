//! Load-imbalance study on a skewed hub graph: measure per-stage worker
//! utilization with `parcsr_obs::analyze`, then A/B the column-fill
//! (`scatter`) chunk policy — split rows by *row count* (the historical
//! default) vs. by *edge count* — and report the straggler gap the hubs
//! cause.
//!
//! The graph is adversarial on purpose: a block of 64 hub rows carries
//! about half of all edges, so an equal-rows split hands one worker the
//! whole hub block plus its share of ordinary rows while the rest finish
//! early and idle at the join. An edge-count split spreads the hub block
//! across workers.
//!
//! A second section runs the same A/B over a hub-heavy Algorithm 6/7
//! query mix: a batch front-loaded with hub-row queries, split by query
//! count vs. by per-query `degree + 1` weight.
//!
//! ```text
//! cargo run --release -p parcsr --features parcsr-obs/enabled --example imbalance
//! ```
//!
//! Without the obs feature the pipeline still runs, but no spans are
//! recorded and the analyzer has nothing to report. Measured results are
//! recorded in EXPERIMENTS.md ("Chunk-policy imbalance study").

use std::time::Instant;

use parcsr::query::{edges_exist_batch_binary_with_chunking, neighbors_batch_with_chunking};
use parcsr::{with_processors, BitPackedCsr, ChunkPolicy, CsrBuilder, PackedCsrMode};
use parcsr_graph::{EdgeList, NodeId};
use parcsr_obs::analyze::{analyze_records, chunk_stats, ChunkStats, TraceAnalysis};

/// Nodes in the graph.
const NODES: u32 = 200_000;
/// Out-degree of every ordinary node.
const PER_NODE: u32 = 5;
/// Hub rows (nodes `0..HUB_ROWS`), packed at the front of row space.
const HUB_ROWS: u32 = 64;
/// Extra out-edges per hub row; the block totals ~50% of all edges.
const HUB_DEGREE: u32 = 16_000;
/// Timing repetitions per cell; the fastest rep's spans are analyzed.
const REPS: usize = 3;
/// Queries per batch in the Algorithm 6/7 mix.
const QUERY_BATCH: usize = 2_048;

/// Deterministic skewed graph: every node emits `PER_NODE` edges to
/// LCG-scattered targets, and each of the first `HUB_ROWS` nodes
/// additionally fans out to `HUB_DEGREE` distinct targets.
fn hub_graph() -> EdgeList {
    let mut edges = Vec::with_capacity((NODES * PER_NODE + HUB_ROWS * HUB_DEGREE) as usize);
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = |bound: u32| {
        // MMIX LCG; the top bits scatter targets well enough for a
        // synthetic workload.
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % u64::from(bound)) as u32
    };
    for u in 0..NODES {
        for _ in 0..PER_NODE {
            edges.push((u, next(NODES)));
        }
    }
    for hub in 0..HUB_ROWS {
        for i in 0..HUB_DEGREE {
            edges.push((hub, (hub + 1 + i) % NODES));
        }
    }
    EdgeList::new(NODES as usize, edges)
}

/// One measured cell: fastest-of-`REPS` build+pack, with the fastest rep's
/// spans analyzed. Returns (pipeline wall ms, analysis).
fn measure(sorted: &EdgeList, p: usize, policy: ChunkPolicy) -> (f64, TraceAnalysis) {
    with_processors(p, || {
        let mut best = f64::INFINITY;
        let mut best_spans = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            let (csr, _) = CsrBuilder::new()
                .processors(p)
                .chunk_policy(policy)
                .build_from_sorted(sorted);
            let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, p);
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(&packed);
            let spans = parcsr_obs::drain();
            if elapsed < best {
                best = elapsed;
                best_spans = spans;
            }
        }
        (best, analyze_records(&best_spans))
    })
}

/// Hub-heavy Algorithm 6/7 batch: every hub row is queried four times at
/// the front of the batch, the tail samples ordinary nodes. A count split
/// hands the entire hub prefix to the first workers; the `degree + 1`
/// weighted split spreads it.
fn hub_heavy_queries() -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
    let hub_prefix = HUB_ROWS as usize * 4;
    let mut neighbors = Vec::with_capacity(QUERY_BATCH);
    for i in 0..QUERY_BATCH {
        if i < hub_prefix {
            neighbors.push(i as u32 % HUB_ROWS);
        } else {
            neighbors.push(HUB_ROWS + (i as u32 * 97) % (NODES - HUB_ROWS));
        }
    }
    let edges = neighbors
        .iter()
        .map(|&u| (u, (u.wrapping_mul(31).wrapping_add(7)) % NODES))
        .collect();
    (neighbors, edges)
}

/// One measured query cell: fastest-of-`REPS` runs of an Algorithm 6
/// neighborhood batch plus an Algorithm 7 binary edge-existence batch on
/// the packed CSR, with the fastest rep's spans analyzed.
fn measure_queries(
    packed: &BitPackedCsr,
    neighbor_queries: &[NodeId],
    edge_queries: &[(NodeId, NodeId)],
    p: usize,
    policy: ChunkPolicy,
) -> (f64, TraceAnalysis) {
    with_processors(p, || {
        let mut best = f64::INFINITY;
        let mut best_spans = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            let rows = neighbors_batch_with_chunking(packed, neighbor_queries, p, policy);
            let exist = edges_exist_batch_binary_with_chunking(packed, edge_queries, p, policy);
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box((&rows, &exist));
            let spans = parcsr_obs::drain();
            if elapsed < best {
                best = elapsed;
                best_spans = spans;
            }
        }
        (best, analyze_records(&best_spans))
    })
}

/// Chunk statistics of one kind of chunk span, pooled over the instances of
/// one stage. Narrower than the analyzer's stage-level stats, which pool
/// every chunk span inside the instance window (e.g. the fixed-width
/// `bitpack.chunk` spans inside `pack`, which the policy does not touch).
fn pooled_chunk_stats(
    analysis: &TraceAnalysis,
    stage: &str,
    chunk_name: &str,
) -> Option<ChunkStats> {
    let obs: Vec<_> = analysis
        .instances
        .iter()
        .filter(|i| i.name == stage)
        .flat_map(|i| i.chunks.iter())
        .filter(|c| c.name == chunk_name)
        .cloned()
        .collect();
    chunk_stats(&obs)
}

/// Edge-count skew of one kind of chunk span: max/mean of the `edges`
/// payload. Purely a function of how the policy cut the work, so it is
/// deterministic even when chunk *durations* are noisy (e.g. oversubscribed
/// cores).
fn edge_payload_skew(analysis: &TraceAnalysis, stage: &str, chunk_name: &str) -> Option<f64> {
    let edges: Vec<f64> = analysis
        .instances
        .iter()
        .filter(|i| i.name == stage)
        .flat_map(|i| i.chunks.iter())
        .filter(|c| c.name == chunk_name)
        .filter_map(|c| c.edges)
        .map(|e| e as f64)
        .collect();
    if edges.is_empty() {
        return None;
    }
    let mean = edges.iter().sum::<f64>() / edges.len() as f64;
    let max = edges.iter().cloned().fold(0.0f64, f64::max);
    (mean > 0.0).then(|| max / mean)
}

/// Column-fill chunk statistics (the spans the build-side policy controls).
fn fill_chunk_stats(analysis: &TraceAnalysis) -> Option<ChunkStats> {
    pooled_chunk_stats(analysis, "scatter", "scatter.chunk")
}

/// Column-fill edge skew.
fn edge_skew(analysis: &TraceAnalysis) -> Option<f64> {
    edge_payload_skew(analysis, "scatter", "scatter.chunk")
}

fn print_cell(p: usize, policy: ChunkPolicy, wall_ms: f64, analysis: &TraceAnalysis) {
    println!("p={p} policy={:<5} pipeline {wall_ms:.2} ms", policy.name());
    for stage in &analysis.stages {
        print!(
            "  {:<10} util {:.3}  cp {:.3}",
            stage.name, stage.utilization, stage.critical_path_ratio
        );
        if let Some(c) = &stage.chunks {
            print!(
                "  chunks: cv {:.2}, max {:.2} ms (t{} c{})",
                c.cv,
                c.max_ns as f64 / 1e6,
                c.straggler_tid,
                c.straggler_chunk
            );
        }
        println!();
    }
    if let Some(c) = fill_chunk_stats(analysis) {
        print!(
            "  fill chunks: cv {:.2}, mean {:.2} ms, straggler {:.2} ms (t{} c{})",
            c.cv,
            c.mean_ns / 1e6,
            c.max_ns as f64 / 1e6,
            c.straggler_tid,
            c.straggler_chunk
        );
        if let Some(r) = c.corr_edges {
            print!(", r(edges) {r:+.2}");
        }
        if let Some(skew) = edge_skew(analysis) {
            print!(", edge skew {skew:.2}x");
        }
        println!();
    }
}

fn print_query_cell(p: usize, policy: ChunkPolicy, wall_ms: f64, analysis: &TraceAnalysis) {
    println!(
        "p={p} policy={:<5} query batches {wall_ms:.2} ms",
        policy.name()
    );
    for (stage, chunk) in [
        ("query.neighbors", "query.neighbors.chunk"),
        ("query.edges", "query.edges.chunk"),
    ] {
        if let (Some(c), Some(skew)) = (
            pooled_chunk_stats(analysis, stage, chunk),
            edge_payload_skew(analysis, stage, chunk),
        ) {
            println!(
                "  {stage:<16} chunks: cv {:.2}, straggler {:.2} ms (t{} c{}), edge skew {skew:.2}x",
                c.cv,
                c.max_ns as f64 / 1e6,
                c.straggler_tid,
                c.straggler_chunk,
            );
        }
    }
}

fn main() {
    if !parcsr_obs::compiled() {
        eprintln!(
            "note: built without span recording; rerun with \
             --features parcsr-obs/enabled to measure utilization"
        );
    }
    parcsr_obs::set_enabled(true);

    let graph = hub_graph();
    let sorted = graph.sorted_by_source();
    let _ = parcsr_obs::drain();
    println!(
        "hub graph: {} nodes, {} edges, {} hub rows carrying {:.1}% of edges\n",
        graph.num_nodes(),
        graph.num_edges(),
        HUB_ROWS,
        f64::from(HUB_ROWS * HUB_DEGREE) / graph.num_edges() as f64 * 100.0
    );

    for p in [2usize, 8] {
        let mut cells = Vec::new();
        for policy in [ChunkPolicy::Rows, ChunkPolicy::Edges] {
            let (wall_ms, analysis) = measure(&sorted, p, policy);
            print_cell(p, policy, wall_ms, &analysis);
            cells.push((fill_chunk_stats(&analysis), edge_skew(&analysis)));
        }
        match &cells[..] {
            [(Some(c_rows), Some(s_rows)), (Some(c_edges), Some(s_edges))] => {
                println!(
                    "  -> fill straggler {:.2} ms (rows) vs {:.2} ms (edges), \
                     edge skew {s_rows:.2}x vs {s_edges:.2}x\n",
                    c_rows.max_ns as f64 / 1e6,
                    c_edges.max_ns as f64 / 1e6,
                );
            }
            _ => println!("  -> no scatter spans recorded (obs feature off?)\n"),
        }
    }

    // Query-side A/B on the same graph: a hub-heavy Algorithm 6/7 mix
    // against the packed CSR. The batch split is the only variable; the
    // results are policy-invariant (see tests/chunk_policy_equivalence.rs).
    let (csr, _) = CsrBuilder::new().build_from_sorted(&sorted);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 8);
    let (neighbor_queries, edge_queries) = hub_heavy_queries();
    let _ = parcsr_obs::drain();
    println!(
        "query mix: {} neighborhood + {} edge-existence queries, hub rows front-loaded\n",
        neighbor_queries.len(),
        edge_queries.len()
    );
    for p in [2usize, 8] {
        let mut skews = Vec::new();
        for policy in [ChunkPolicy::Rows, ChunkPolicy::Edges] {
            let (wall_ms, analysis) =
                measure_queries(&packed, &neighbor_queries, &edge_queries, p, policy);
            print_query_cell(p, policy, wall_ms, &analysis);
            skews.push((
                edge_payload_skew(&analysis, "query.neighbors", "query.neighbors.chunk"),
                edge_payload_skew(&analysis, "query.edges", "query.edges.chunk"),
            ));
        }
        match &skews[..] {
            [(Some(n_rows), Some(e_rows)), (Some(n_edges), Some(e_edges))] => println!(
                "  -> neighbors edge skew {n_rows:.2}x vs {n_edges:.2}x, \
                 edge-exists {e_rows:.2}x vs {e_edges:.2}x (rows vs edges)\n"
            ),
            _ => println!("  -> no query spans recorded (obs feature off?)\n"),
        }
    }
    parcsr_obs::set_enabled(false);
}
