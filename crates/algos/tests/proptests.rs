//! Property tests: parallel analytics equal their sequential references on
//! arbitrary graphs, and run identically on plain and packed CSRs.

use proptest::prelude::*;

use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_algos::{
    bfs_parallel, bfs_sequential, count_triangles, count_triangles_sequential, pagerank,
    PageRankConfig,
};
use parcsr_graph::EdgeList;

fn arb_graph(max_node: u32, max_edges: usize) -> impl Strategy<Value = EdgeList> {
    prop::collection::vec((0..max_node, 0..max_node), 1..max_edges).prop_map(|edges| {
        let n = edges.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap();
        EdgeList::new(n as usize, edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bfs_parallel_equals_sequential(g in arb_graph(60, 200), source in 0u32..60) {
        let csr = CsrBuilder::new().build(&g);
        let source = source % g.num_nodes() as u32;
        prop_assert_eq!(bfs_parallel(&csr, source), bfs_sequential(&csr, source));
    }

    #[test]
    fn bfs_on_packed_equals_plain(g in arb_graph(50, 150), source in 0u32..50) {
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        let source = source % g.num_nodes() as u32;
        prop_assert_eq!(bfs_parallel(&packed, source), bfs_sequential(&csr, source));
    }

    #[test]
    fn triangles_parallel_equals_sequential(g in arb_graph(40, 200)) {
        prop_assert_eq!(count_triangles(&g), count_triangles_sequential(&g));
    }

    #[test]
    fn pagerank_sums_to_one_and_is_positive(g in arb_graph(50, 150)) {
        let csr = CsrBuilder::new().build(&g);
        let (r, _) = pagerank(&csr, PageRankConfig::default());
        let total: f64 = r.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "sum={}", total);
        prop_assert!(r.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn bfs_distances_respect_edges(g in arb_graph(40, 120), source in 0u32..40) {
        // Triangle inequality on edges: dist[v] <= dist[u] + 1 for (u, v).
        let csr = CsrBuilder::new().build(&g);
        let source = source % g.num_nodes() as u32;
        let dist = bfs_parallel(&csr, source);
        for &(u, v) in g.edges() {
            if dist[u as usize] != parcsr_algos::UNREACHABLE {
                prop_assert!(dist[v as usize] <= dist[u as usize] + 1, "edge ({}, {})", u, v);
            }
        }
    }
}
