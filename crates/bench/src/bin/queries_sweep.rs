//! Supplementary query-throughput sweep for Section V: batch neighborhood
//! queries (Algorithm 6), batch edge-existence queries (Algorithm 7), and
//! the single-edge split search on a hub row (Algorithm 8), each across the
//! processor counts of Table II — the quantitative version of the paper's
//! "the time required to search reduces" claim.
//!
//! ```text
//! cargo run -p parcsr-bench --release --bin queries_sweep -- [--scale 0.05] [--procs 1,4,8]
//! ```

use std::time::Instant;

use parcsr::query::{edge_exists_split, edges_exist_batch_binary, neighbors_batch};
use parcsr::{with_processors, BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_bench::{trace, Options};
use parcsr_graph::NodeId;

// Counting allocator: heap accounting while --trace/--metrics record.
// Registered only in obs builds, so default builds keep the plain system
// allocator.
#[cfg(feature = "obs")]
#[global_allocator]
static ALLOC: parcsr_obs::mem::CountingAlloc = parcsr_obs::mem::CountingAlloc::new();

const BATCH: usize = 1 << 14;

fn main() {
    let opts = Options::from_env();
    trace::setup(opts.trace.as_deref(), opts.metrics);
    let profile = &parcsr_graph::paper_datasets()[3]; // WebNotreDame profile
    let graph = profile.synthesize(opts.scale.min(0.5), opts.seed);
    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
    let n = csr.num_nodes() as u32;
    eprintln!(
        "queries_sweep: {} stand-in, {} nodes / {} edges, batch {BATCH}",
        profile.name,
        csr.num_nodes(),
        csr.num_edges()
    );

    let node_queries: Vec<NodeId> = (0..BATCH)
        .map(|i| ((i * 48271) % n as usize) as u32)
        .collect();
    let edge_queries: Vec<(NodeId, NodeId)> = (0..BATCH)
        .map(|i| {
            if i % 2 == 0 {
                graph.edges()[(i * 31) % graph.num_edges()]
            } else {
                (
                    ((i * 16807) % n as usize) as u32,
                    ((i * 69621) % n as usize) as u32,
                )
            }
        })
        .collect();
    let hub = (0..n).max_by_key(|&u| csr.degree(u)).expect("non-empty");
    let target = *csr.neighbors(hub).last().expect("hub has neighbors");

    println!(
        "| p | neighbors (kq/s) | edge-exist (kq/s) | single split on hub deg {} (µs) |",
        csr.degree(hub)
    );
    println!("|---:|---:|---:|---:|");
    for &p in &opts.processors {
        let (nq, eq, sq) = with_processors(p, || {
            let t = Instant::now();
            for _ in 0..opts.reps {
                std::hint::black_box(neighbors_batch(&packed, &node_queries, p));
            }
            let nq = (BATCH * opts.reps) as f64 / t.elapsed().as_secs_f64() / 1e3;

            let t = Instant::now();
            for _ in 0..opts.reps {
                std::hint::black_box(edges_exist_batch_binary(&packed, &edge_queries, p));
            }
            let eq = (BATCH * opts.reps) as f64 / t.elapsed().as_secs_f64() / 1e3;

            let single_reps = 2_000 * opts.reps;
            let t = Instant::now();
            for _ in 0..single_reps {
                std::hint::black_box(edge_exists_split(&packed, hub, target, p));
            }
            let sq = t.elapsed().as_secs_f64() * 1e6 / single_reps as f64;
            (nq, eq, sq)
        });
        println!("| {p} | {nq:.1} | {eq:.1} | {sq:.2} |");
    }
    trace::finish(
        opts.trace.as_deref(),
        opts.metrics,
        &parcsr_obs::drain(),
        &[],
    );
}
