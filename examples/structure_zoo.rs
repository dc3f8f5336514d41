//! The structure zoo: one graph, every representation in the workspace.
//!
//! Builds the same synthetic social network into the paper's structures
//! (CSR, bit-packed CSR) and the related-work structures from Section II
//! (adjacency matrix/list, flat edge list, k²-tree), then prints a
//! size/latency comparison — the time-space trade-off landscape the paper
//! is positioned in.
//!
//! ```text
//! cargo run --release -p parcsr --example structure_zoo
//! ```

use std::time::Instant;

use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_baseline::{AdjacencyList, AdjacencyMatrix, EdgeListStore, GraphStore};
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_succinct::K2Tree;

fn main() {
    let n = 1 << 13;
    let m = 1 << 17;
    let graph = rmat(RmatParams::new(n, m, 42)).deduped();
    println!(
        "one graph, every structure: {} nodes, {} distinct edges\n",
        graph.num_nodes(),
        graph.num_edges()
    );

    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, rayon::current_num_threads());
    let adj = AdjacencyList::from_edge_list(&graph);
    let matrix = AdjacencyMatrix::from_edge_list(&graph);
    let flat = EdgeListStore::from_edge_list(&graph);
    let k2 = K2Tree::from_edges(graph.num_nodes(), graph.edges());

    // A probe workload: 100k edge-existence checks, half hits.
    let probes: Vec<(u32, u32)> = (0..100_000usize)
        .map(|i| {
            if i % 2 == 0 {
                graph.edges()[(i * 31) % graph.num_edges()]
            } else {
                (((i * 48271) % n) as u32, ((i * 16807) % n) as u32)
            }
        })
        .collect();

    println!("{:<22} {:>12} {:>14}", "structure", "bytes", "100k probes");
    row("adjacency matrix", matrix.heap_bytes(), || {
        probes
            .iter()
            .filter(|&&(u, v)| matrix.has_edge(u, v))
            .count()
    });
    row("adjacency list", adj.heap_bytes(), || {
        probes.iter().filter(|&&(u, v)| adj.has_edge(u, v)).count()
    });
    row("edge list (sorted)", flat.heap_bytes(), || {
        probes.iter().filter(|&&(u, v)| flat.has_edge(u, v)).count()
    });
    row("csr", csr.heap_bytes(), || {
        probes.iter().filter(|&&(u, v)| csr.has_edge(u, v)).count()
    });
    row("bit-packed csr", packed.packed_bytes(), || {
        probes
            .iter()
            .filter(|&&(u, v)| packed.has_edge(u, v))
            .count()
    });
    row("k2-tree", k2.packed_bytes(), || {
        probes.iter().filter(|&&(u, v)| k2.has_edge(u, v)).count()
    });
}

fn row(name: &str, bytes: usize, probe: impl FnOnce() -> usize) {
    let t = Instant::now();
    let hits = probe();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(hits);
    println!("{name:<22} {bytes:>12} {ms:>11.1} ms");
}
