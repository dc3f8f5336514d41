//! Property tests: parallel analytics equal their sequential references on
//! arbitrary graphs, and run identically on plain and packed CSRs.

use proptest::prelude::*;

use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode, WeightedCsr};
use parcsr_algos::{
    betweenness_parallel, betweenness_sequential, bfs_parallel, bfs_sequential,
    connected_components_parallel, connected_components_sequential, count_triangles,
    count_triangles_sequential, dijkstra, kcore_parallel, kcore_sequential, pagerank,
    parallel_sssp, spgemm_bool, PageRankConfig,
};
use parcsr_graph::{EdgeList, WeightedEdgeList};

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
    fn components_parallel_equals_sequential(g in arb_graph(60, 150)) {
        let csr = CsrBuilder::new().build(&g);
        prop_assert_eq!(
            connected_components_parallel(&csr),
            connected_components_sequential(&csr)
        );
    }

    #[test]
    fn component_labels_are_canonical_minima(g in arb_graph(40, 100)) {
        let csr = CsrBuilder::new().build(&g);
        let labels = connected_components_parallel(&csr);
        for (u, &l) in labels.iter().enumerate() {
            // The label is a member of the component...
            prop_assert_eq!(labels[l as usize], l, "label of {} not a root", u);
            // ...and no smaller than any other member's label.
            prop_assert!(l as usize <= u);
        }
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
    fn kcore_parallel_equals_sequential(g in arb_graph(50, 200)) {
        let csr = CsrBuilder::new().build(&g);
        prop_assert_eq!(kcore_parallel(&csr), kcore_sequential(&csr));
    }

    #[test]
    fn betweenness_parallel_equals_sequential(g in arb_graph(35, 100)) {
        let csr = CsrBuilder::new().build(&g);
        let seq = betweenness_sequential(&csr);
        let par = betweenness_parallel(&csr);
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "node {}: {} vs {}", i, a, b);
        }
    }

    #[test]
    fn sssp_parallel_equals_dijkstra(g in arb_graph(40, 150), source in 0u32..40) {
        let weighted = WeightedEdgeList::from_unweighted(&g, 50);
        let wcsr = WeightedCsr::from_edge_list(&weighted, 3);
        let source = source % g.num_nodes() as u32;
        prop_assert_eq!(parallel_sssp(&wcsr, source), dijkstra(&wcsr, source));
    }

    #[test]
    fn spgemm_matches_dense_reference(
        a_edges in prop::collection::vec((0u32..25, 0u32..25), 1..80),
        b_edges in prop::collection::vec((0u32..25, 0u32..25), 1..80),
    ) {
        let a = CsrBuilder::new().build(&EdgeList::new(25, a_edges));
        let b = CsrBuilder::new().build(&EdgeList::new(25, b_edges));
        let c = spgemm_bool(&a, &b);
        for u in 0..25u32 {
            let mut expect: Vec<u32> = Vec::new();
            for &v in a.neighbors(u) {
                expect.extend_from_slice(b.neighbors(v));
            }
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(c.neighbors(u), &expect[..], "row {}", u);
        }
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
