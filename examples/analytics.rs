//! Graph analytics directly on the compressed structure — the downstream
//! workloads the paper's introduction motivates (influence, reachability,
//! clustering), run on both the plain and the bit-packed CSR to show the
//! compressed structure is genuinely usable, not just storable.
//!
//! ```text
//! cargo run --release -p parcsr --example analytics
//! ```

use std::time::Instant;

use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_algos::{bfs_parallel, count_triangles, pagerank, PageRankConfig, UNREACHABLE};
use parcsr_graph::gen::{rmat, RmatParams};

fn main() {
    let n = 1 << 15;
    let m = 1 << 19;
    println!("analytics over a {n}-node / {m}-edge synthetic social network\n");
    let graph = rmat(RmatParams::new(n, m, 42)).symmetrized();
    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, rayon::current_num_threads());
    println!(
        "structures: csr {:.2} MB, packed {:.2} MB\n",
        csr.heap_bytes() as f64 / 1e6,
        packed.packed_bytes() as f64 / 1e6
    );

    // Reachability (epidemic-spread style): BFS from the biggest hub.
    let hub = (0..csr.num_nodes() as u32)
        .max_by_key(|&u| csr.degree(u))
        .expect("non-empty");
    let t = Instant::now();
    let dist_plain = bfs_parallel(&csr, hub);
    let plain_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let dist_packed = bfs_parallel(&packed, hub);
    let packed_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(dist_plain, dist_packed, "packed BFS must match plain BFS");
    let reached = dist_plain.iter().filter(|&&d| d != UNREACHABLE).count();
    let ecc = dist_plain
        .iter()
        .filter(|&&d| d != UNREACHABLE)
        .max()
        .unwrap();
    println!(
        "BFS from hub {hub} (degree {}): reaches {reached}/{} nodes, eccentricity {ecc}",
        csr.degree(hub),
        csr.num_nodes()
    );
    println!("  plain csr: {plain_ms:.1} ms, packed csr: {packed_ms:.1} ms (identical output)\n");

    // Influence: PageRank.
    let t = Instant::now();
    let (ranks, iters) = pagerank(&csr, PageRankConfig::default());
    let mut top: Vec<(u32, f64)> = ranks
        .iter()
        .copied()
        .enumerate()
        .map(|(u, r)| (u as u32, r))
        .collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "PageRank converged in {iters} iterations ({:.1} ms); top influencers:",
        t.elapsed().as_secs_f64() * 1e3
    );
    for (u, r) in top.iter().take(5) {
        println!("  node {u:>6}  rank {r:.6}  degree {}", csr.degree(*u));
    }
    println!();

    // Cohesion: triangles.
    let t = Instant::now();
    let tri = count_triangles(&graph);
    println!(
        "triangles: {tri} ({:.1} ms) — heavy clustering, as a social graph should show",
        t.elapsed().as_secs_f64() * 1e3
    );
}
