//! Supplementary size table: every structure in the workspace on every
//! dataset profile — the expanded version of Table II's two size columns,
//! including the related-work structures of Section II.
//!
//! ```text
//! cargo run -p parcsr-bench --release --bin sizes -- [--scale 0.05]
//! ```

use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_baseline::{AdjacencyList, EdgeListStore, GraphStore};
use parcsr_bench::{format_bytes, trace, Options};
use parcsr_succinct::K2Tree;

// Counting allocator: heap accounting while --trace/--metrics record.
// Registered only in obs builds, so default builds keep the plain system
// allocator.
#[cfg(feature = "obs")]
#[global_allocator]
static ALLOC: parcsr_obs::mem::CountingAlloc = parcsr_obs::mem::CountingAlloc::new();

fn main() {
    let opts = Options::from_env();
    eprintln!("sizes: scale={} seed={}", opts.scale, opts.seed);
    trace::setup(opts.trace.as_deref(), opts.metrics);
    println!("| Graph | Edges | EdgeList text | EdgeList bin | AdjList | CSR | Packed | k2-tree |");
    println!("|---|---:|---:|---:|---:|---:|---:|---:|");
    for profile in parcsr_graph::paper_datasets() {
        if let Some(only) = &opts.only {
            if !profile.name.to_lowercase().contains(&only.to_lowercase()) {
                continue;
            }
        }
        let graph = profile.synthesize(opts.scale, opts.seed).deduped();
        let csr = CsrBuilder::new().build(&graph);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        let adj = AdjacencyList::from_edge_list(&graph);
        let flat = EdgeListStore::from_edge_list(&graph);
        let k2 = K2Tree::from_edges(graph.num_nodes(), graph.edges());
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            profile.name,
            graph.num_edges(),
            format_bytes(graph.text_bytes()),
            format_bytes(flat.heap_bytes()),
            format_bytes(adj.heap_bytes()),
            format_bytes(csr.heap_bytes()),
            format_bytes(packed.packed_bytes()),
            format_bytes(k2.packed_bytes()),
        );
    }
    trace::finish(
        opts.trace.as_deref(),
        opts.metrics,
        &parcsr_obs::drain(),
        &[],
    );
}
