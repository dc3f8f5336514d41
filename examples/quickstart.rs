//! Quickstart: generate a synthetic social network, build the CSR in
//! parallel, compress it, and run the three parallel query algorithms.
//!
//! ```text
//! cargo run --release -p parcsr --example quickstart
//! ```

use parcsr::query::{edge_exists_split, edges_exist_batch, neighbors_batch};
use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::gen::{rmat, RmatParams};

fn main() {
    // 1. A deterministic R-MAT graph standing in for a social-network crawl:
    //    64k nodes, 1M directed edges, heavy-tailed degrees.
    let graph = rmat(RmatParams::new(1 << 16, 1 << 20, 42));
    println!(
        "graph: {} nodes, {} edges, {} as binary edge list",
        graph.num_nodes(),
        graph.num_edges(),
        human(graph.binary_bytes())
    );

    // 2. Parallel CSR construction (sort -> parallel degrees -> prefix-sum
    //    offsets -> parallel fill), with per-stage timings.
    let (csr, timings) = CsrBuilder::new().build_timed(&graph);
    println!(
        "csr built in {:.2} ms (sort {:.2} + degrees {:.2} + scan {:.2} + fill {:.2}), {}",
        timings.total_ms(),
        timings.sort_ms,
        timings.degree_ms,
        timings.scan_ms,
        timings.fill_ms,
        human(csr.heap_bytes())
    );

    // 3. Bit-packed compression (Algorithm 4).
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, rayon::current_num_threads());
    println!(
        "packed csr: {} ({}-bit columns, {}-bit offsets) — {:.1}% of the raw CSR",
        human(packed.packed_bytes()),
        packed.column_width(),
        packed.offset_width(),
        packed.packed_bytes() as f64 / csr.heap_bytes() as f64 * 100.0
    );

    // 4. Parallel queries against the *compressed* structure.
    let p = rayon::current_num_threads();
    let who: Vec<u32> = (0..8).collect();
    let hoods = neighbors_batch(&packed, &who, p);
    for (u, hood) in who.iter().zip(&hoods) {
        let preview: Vec<u32> = hood.iter().copied().take(8).collect();
        println!(
            "  neighbors({u}) = {preview:?}{}",
            if hood.len() > 8 { " …" } else { "" }
        );
    }

    let probes = vec![(0u32, 1u32), (1, 0), (100, 200), (42, 4242)];
    let exists = edges_exist_batch(&packed, &probes, p);
    for (q, e) in probes.iter().zip(&exists) {
        println!("  edge {q:?} exists: {e}");
    }

    // 5. Single-edge query with the neighbor list split across processors
    //    (Algorithm 8) — the hub-node specialty.
    let hub = (0..graph.num_nodes() as u32)
        .max_by_key(|&u| csr.degree(u))
        .expect("non-empty graph");
    let target = csr.neighbors(hub).last().copied().unwrap_or(0);
    println!(
        "  hub {hub} (degree {}): split search for {target} -> {}",
        csr.degree(hub),
        edge_exists_split(&packed, hub, target, p)
    );
}

fn human(bytes: usize) -> String {
    if bytes >= 1_000_000 {
        format!("{:.2} MB", bytes as f64 / 1e6)
    } else if bytes >= 1_000 {
        format!("{:.2} KB", bytes as f64 / 1e3)
    } else {
        format!("{bytes} B")
    }
}
