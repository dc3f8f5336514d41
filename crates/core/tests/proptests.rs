//! Property tests for the core pipeline: construction equivalence, packed
//! round-trips, and query correctness on arbitrary graphs.

use proptest::prelude::*;

use parcsr::query::{
    edge_exists_split, edge_exists_split_binary, edges_exist_batch, edges_exist_batch_binary,
    neighbors_batch,
};
use parcsr::{degrees_parallel, BitPackedCsr, Csr, CsrBuilder, NeighborSource, PackedCsrMode};
use parcsr_graph::EdgeList;

fn arb_graph(max_node: u32, max_edges: usize) -> impl Strategy<Value = EdgeList> {
    (
        1..max_node,
        prop::collection::vec((0u32..max_node, 0u32..max_node), 0..max_edges),
    )
        .prop_map(|(n_extra, edges)| {
            let n = edges
                .iter()
                .map(|&(u, v)| u.max(v) + 1)
                .max()
                .unwrap_or(0)
                .max(n_extra);
            let edges = edges
                .into_iter()
                .map(|(u, v)| (u % n, v % n))
                .collect::<Vec<_>>();
            EdgeList::new(n as usize, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_build_equals_sequential(g in arb_graph(300, 600), p in 1usize..17) {
        let want = Csr::from_edge_list_sequential(&g);
        let got = CsrBuilder::new().processors(p).build(&g);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn degrees_parallel_equals_histogram(g in arb_graph(200, 500), p in 1usize..33) {
        let sorted = g.sorted_by_source();
        let got = degrees_parallel(sorted.edges(), sorted.num_nodes(), p);
        prop_assert_eq!(got, g.degrees_sequential());
    }

    #[test]
    fn csr_neighbors_is_sorted_multiset_of_targets(g in arb_graph(150, 400)) {
        let csr = CsrBuilder::new().build(&g);
        prop_assert_eq!(csr.validate(), Ok(()));
        for u in 0..g.num_nodes() as u32 {
            let mut expect: Vec<u32> = g
                .edges()
                .iter()
                .filter(|&&(s, _)| s == u)
                .map(|&(_, t)| t)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(csr.neighbors(u), &expect[..]);
        }
    }

    #[test]
    fn packed_roundtrip(g in arb_graph(200, 500), p in 1usize..9) {
        let csr = CsrBuilder::new().build(&g);
        let mode = PackedCsrMode::Raw;
        let packed = BitPackedCsr::from_csr(&csr, mode, p);
        let mut row = Vec::new();
        for u in 0..csr.num_nodes() as u32 {
            packed.row_into(u, &mut row);
            prop_assert_eq!(&row[..], csr.neighbors(u), "mode {} node {}", mode.name(), u);
        }
        prop_assert_eq!(packed.packed_bytes() > 0, csr.num_edges() > 0 || csr.num_nodes() > 0);
    }

    #[test]
    fn batch_queries_agree_with_ground_truth(
        g in arb_graph(120, 300),
        queries in prop::collection::vec((0u32..120, 0u32..120), 0..80),
        p in 1usize..9,
    ) {
        let csr = CsrBuilder::new().build(&g);
        let n = csr.num_nodes() as u32;
        let queries: Vec<(u32, u32)> = queries.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let want: Vec<bool> = queries.iter().map(|&(u, v)| csr.has_edge(u, v)).collect();

        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, p);
        prop_assert_eq!(edges_exist_batch(&csr, &queries, p), want.clone());
        prop_assert_eq!(edges_exist_batch(&packed, &queries, p), want.clone());
        prop_assert_eq!(edges_exist_batch_binary(&packed, &queries, p), want);
    }

    #[test]
    fn neighborhood_batch_agrees(
        g in arb_graph(100, 250),
        raw_queries in prop::collection::vec(0u32..100, 0..60),
        p in 1usize..9,
    ) {
        let csr = CsrBuilder::new().build(&g);
        let n = csr.num_nodes() as u32;
        let queries: Vec<u32> = raw_queries.into_iter().map(|u| u % n).collect();
        let got = neighbors_batch(&csr, &queries, p);
        prop_assert_eq!(got.len(), queries.len());
        for (i, &u) in queries.iter().enumerate() {
            prop_assert_eq!(&got[i][..], csr.neighbors(u));
        }
    }

    #[test]
    fn single_edge_split_agrees(
        g in arb_graph(80, 300),
        u in 0u32..80,
        v in 0u32..80,
        p in 1usize..9,
    ) {
        let csr = CsrBuilder::new().build(&g);
        let n = csr.num_nodes() as u32;
        let (u, v) = (u % n, v % n);
        let want = csr.has_edge(u, v);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 2);
        prop_assert_eq!(edge_exists_split(&packed, u, v, p), want);
        prop_assert_eq!(edge_exists_split_binary(&packed, u, v, p), want);
    }

    #[test]
    fn row_iter_equals_row_into_equals_neighbors(g in arb_graph(200, 500)) {
        // The streaming cursor, the materializing decode, and the plain CSR
        // must agree row by row, no matter how many processors packed the
        // structure.
        let csr = CsrBuilder::new().build(&g);
        let mut row = Vec::new();
        let mode = PackedCsrMode::Raw;
        for p in [1usize, 2, 7, 64] {
            let packed = BitPackedCsr::from_csr(&csr, mode, p);
            for u in 0..csr.num_nodes() as u32 {
                let streamed: Vec<u32> = packed.row_iter(u).collect();
                packed.row_into(u, &mut row);
                prop_assert_eq!(&streamed[..], &row[..], "iter vs into: mode {} p {} node {}", mode.name(), p, u);
                prop_assert_eq!(&streamed[..], csr.neighbors(u), "iter vs csr: mode {} p {} node {}", mode.name(), p, u);
                prop_assert_eq!(packed.row_iter(u).len(), csr.degree(u));
            }
        }
    }

    #[test]
    fn streaming_visitor_equals_row_into(g in arb_graph(150, 400), p in 1usize..9, stop in 1usize..4) {
        // The slice visitor on both sources: non-empty slices (at most one
        // 64-value block on the packed CSR) that concatenate to the row, and
        // no further slice once the visitor has returned `false`.
        let csr = CsrBuilder::new().build(&g);
        let mode = PackedCsrMode::Raw;
        let packed = BitPackedCsr::from_csr(&csr, mode, p);
        for u in 0..csr.num_nodes() as u32 {
            let sources: [(&dyn NeighborSource, usize); 2] = [(&csr, usize::MAX), (&packed, 64)];
            for (source, max_len) in sources {
                let mut visited = Vec::new();
                let mut slices_ok = true;
                source.for_each_block_while(u, &mut |block| {
                    slices_ok &= !block.is_empty() && block.len() <= max_len;
                    visited.extend_from_slice(block);
                    true
                });
                prop_assert!(slices_ok, "slice shape: mode {} node {}", mode.name(), u);
                prop_assert_eq!(&visited[..], csr.neighbors(u), "mode {} node {}", mode.name(), u);

                let (mut calls, mut after_false) = (0usize, 0usize);
                source.for_each_block_while(u, &mut |_| {
                    if calls >= stop {
                        after_false += 1;
                    }
                    calls += 1;
                    calls < stop
                });
                prop_assert_eq!(after_false, 0, "slice after false: node {}", u);
            }
        }
    }

    #[test]
    fn hub_row_block_paths_agree(
        lead in prop::collection::vec(0u32..2000, 0..130),
        hub in prop::collection::vec(0u32..2000, 1000..1300),
        p in 1usize..5,
    ) {
        // One packed row of degree >= 1000, starting at any column offset
        // mod 64 (node 0's `lead` row comes first): head, whole blocks and
        // tail all decode, through every row access path.
        let mut edges: Vec<(u32, u32)> = lead.iter().map(|&v| (0, v)).collect();
        edges.extend(hub.iter().map(|&v| (1, v)));
        let csr = CsrBuilder::new().build(&EdgeList::new(2000, edges));
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, p);
        let want = csr.neighbors(1);
        let streamed: Vec<u32> = packed.row_iter(1).collect();
        prop_assert_eq!(&streamed[..], want);
        prop_assert_eq!(&packed.row(1)[..], want);
        let mut visited = Vec::new();
        packed.for_each_block_while(1, &mut |block| {
            visited.extend_from_slice(block);
            true
        });
        prop_assert_eq!(&visited[..], want);
        prop_assert_eq!(&neighbors_batch(&packed, &[1, 0, 1], p)[0][..], want);
        let probes: Vec<(u32, u32)> = (0..2000).step_by(7).map(|v| (1, v)).collect();
        let truth: Vec<bool> = probes.iter().map(|&(u, v)| csr.has_edge(u, v)).collect();
        prop_assert_eq!(edges_exist_batch(&packed, &probes, p), truth.clone());
        prop_assert_eq!(edges_exist_batch_binary(&packed, &probes, p), truth);
    }

    #[test]
    fn packed_has_edge_equals_csr(g in arb_graph(100, 300), p in 1usize..5) {
        let csr = CsrBuilder::new().build(&g);
        let n = csr.num_nodes() as u32;
        let mode = PackedCsrMode::Raw;
        let packed = BitPackedCsr::from_csr(&csr, mode, p);
        for u in (0..n).step_by(3) {
            for v in (0..n).step_by(5) {
                prop_assert_eq!(
                    packed.has_edge(u, v),
                    csr.has_edge(u, v),
                    "mode {} ({}, {})", mode.name(), u, v
                );
            }
        }
    }
}

/// Deterministic edge-shape cases the random generator is unlikely to pin
/// down exactly: empty rows, a hub row, and repeated ids from duplicate
/// neighbors (multigraph rows).
#[test]
fn row_iter_edge_shapes() {
    // Hub node 0 with every other node as a neighbor, node 1 with duplicate
    // neighbors, nodes 2.. empty.
    let mut edges: Vec<(u32, u32)> = (0..500u32).map(|v| (0, v)).collect();
    edges.extend([(1, 7), (1, 7), (1, 7), (1, 9)]);
    let g = EdgeList::new(500, edges);
    let csr = CsrBuilder::new().build(&g);
    let mode = PackedCsrMode::Raw;
    for p in [1usize, 2, 7, 64] {
        let packed = BitPackedCsr::from_csr(&csr, mode, p);
        let hub: Vec<u32> = packed.row_iter(0).collect();
        assert_eq!(hub, csr.neighbors(0), "hub: mode {} p {p}", mode.name());
        let dup: Vec<u32> = packed.row_iter(1).collect();
        assert_eq!(dup, [7, 7, 7, 9], "dup: mode {} p {p}", mode.name());
        assert!(packed.has_edge(1, 7) && packed.has_edge(1, 9));
        assert!(!packed.has_edge(1, 8));
        for empty in [2u32, 250, 499] {
            assert_eq!(packed.row_iter(empty).count(), 0);
            assert!(!packed.has_edge(empty, 0));
        }
    }
}

/// A sorted edge list dominated by one hub node whose neighbor run is long
/// enough to straddle two or more chunk boundaries at p = 7 (and ~20 at
/// p = 64): `pre` single-edge nodes, then the hub's run, then `post`
/// single-edge nodes.
fn arb_hub_edges() -> impl Strategy<Value = (Vec<(u32, u32)>, usize)> {
    (0usize..40, 300usize..800, 0usize..40).prop_map(|(pre, hub_run, post)| {
        let hub = pre as u32;
        let num_nodes = pre + 1 + post;
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(pre + hub_run + post);
        for u in 0..pre as u32 {
            edges.push((u, u % num_nodes as u32));
        }
        for j in 0..hub_run as u32 {
            edges.push((hub, j % num_nodes as u32));
        }
        for k in 0..post as u32 {
            edges.push((hub + 1 + k, k % num_nodes as u32));
        }
        (edges, num_nodes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 2/3's side-array merge must accumulate every in-chunk head
    /// count of a hub whose run spans many chunks — at every paper-relevant
    /// processor count, the result equals the serial histogram.
    #[test]
    fn hub_straddling_degrees_match_serial((edges, num_nodes) in arb_hub_edges()) {
        let mut want = vec![0u32; num_nodes];
        for &(u, _) in &edges {
            want[u as usize] += 1;
        }
        for p in [1usize, 2, 7, 64] {
            let got = degrees_parallel(&edges, num_nodes, p);
            prop_assert_eq!(&got, &want, "p={}", p);
        }
    }

    /// The full parallel CSR build (degrees → offsets scan → fill) over the
    /// same hub shape equals the sequential builder.
    #[test]
    fn hub_straddling_build_matches_serial((edges, num_nodes) in arb_hub_edges()) {
        let g = EdgeList::new(num_nodes, edges);
        let want = Csr::from_edge_list_sequential(&g);
        for p in [1usize, 2, 7, 64] {
            let got = CsrBuilder::new().processors(p).build(&g);
            prop_assert_eq!(&got, &want, "p={}", p);
        }
    }
}
