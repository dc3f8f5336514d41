//! Chunk-policy equivalence: every build and query path must produce
//! bit-identical output under [`ChunkPolicy::Rows`] and
//! [`ChunkPolicy::Edges`] at every processor count — the property that
//! makes flipping the workspace default to edge-weighted chunking a pure
//! load-balance change.
//!
//! The generator is skew-biased on purpose: graphs can carry hub rows
//! (one node owning most edges), duplicate edges (multigraph rows), and
//! empty-node headroom, the three shapes where a weighted plan diverges
//! most from the count split.

use proptest::prelude::*;

use parcsr::query::{
    edges_exist_batch_binary_with_chunking, edges_exist_batch_with_chunking,
    neighbors_batch_with_chunking,
};
use parcsr::{degrees_parallel, BitPackedCsr, ChunkPolicy, Csr, CsrBuilder, PackedCsrMode};
use parcsr_graph::{EdgeList, NodeId, TemporalEdge, TemporalEdgeList};
use parcsr_temporal::TcsrBuilder;

/// The sweep the acceptance criteria pin: serial, small, odd, and
/// oversubscribed chunk counts.
const SWEEP: [usize; 4] = [1, 2, 7, 64];

/// Random edges plus up to two hub rows and a run of duplicate edges —
/// skew and multigraph rows in one generator. Can come out empty.
fn arb_skewed_graph() -> impl Strategy<Value = EdgeList> {
    (
        1u32..120,
        prop::collection::vec((0u32..120, 0u32..120), 0..250),
        0usize..3,
        0usize..100,
        0usize..20,
    )
        .prop_map(|(n_extra, edges, hubs, hub_degree, duplicates)| {
            let n = edges
                .iter()
                .map(|&(u, v)| u.max(v) + 1)
                .max()
                .unwrap_or(0)
                .max(n_extra);
            let mut edges: Vec<(NodeId, NodeId)> =
                edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
            for hub in 0..hubs as u32 {
                let hub = hub % n;
                edges.extend((0..hub_degree).map(|i| (hub, i as u32 % n)));
            }
            if let Some(&(u, v)) = edges.first() {
                edges.extend(std::iter::repeat_n((u, v), duplicates));
            }
            EdgeList::new(n as usize, edges)
        })
}

fn build(g: &EdgeList, p: usize, policy: ChunkPolicy) -> Csr {
    CsrBuilder::new()
        .processors(p)
        .chunk_policy(policy)
        .build(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR construction (degree + scan + scatter) is policy-invariant.
    #[test]
    fn csr_build_is_policy_invariant(g in arb_skewed_graph()) {
        let want = Csr::from_edge_list_sequential(&g);
        for p in SWEEP {
            prop_assert_eq!(&build(&g, p, ChunkPolicy::Rows), &want, "rows p={}", p);
            prop_assert_eq!(&build(&g, p, ChunkPolicy::Edges), &want, "edges p={}", p);
        }
    }

    /// The parallel degree pass feeding the scan agrees with the
    /// sequential histogram regardless of how the CSR around it chunks.
    #[test]
    fn degree_pass_is_policy_invariant(g in arb_skewed_graph()) {
        let sorted = g.sorted_by_source();
        let want = g.degrees_sequential();
        for p in SWEEP {
            prop_assert_eq!(
                degrees_parallel(sorted.edges(), sorted.num_nodes(), p),
                want.clone(),
                "p={}", p
            );
        }
    }

    /// The build-then-pack pipeline is policy-invariant: a CSR built under
    /// either policy at `p` packs at `p` to the sequential result.
    #[test]
    fn packed_build_is_policy_invariant(g in arb_skewed_graph()) {
        let want = BitPackedCsr::from_csr(&build(&g, 1, ChunkPolicy::Rows), PackedCsrMode::Raw, 1);
        for p in SWEEP {
            for policy in [ChunkPolicy::Rows, ChunkPolicy::Edges] {
                prop_assert_eq!(
                    &BitPackedCsr::from_csr(&build(&g, p, policy), PackedCsrMode::Raw, p),
                    &want,
                    "p={} policy={}", p, policy.name()
                );
            }
        }
    }

    /// TCSR construction is policy-invariant (events fall back to the
    /// count split either way, but the knob must not change the output).
    #[test]
    fn tcsr_build_is_policy_invariant(
        events in prop::collection::vec((0u32..40, 0u32..40, 0u32..12), 0..300)
    ) {
        let events = TemporalEdgeList::new(
            40,
            events.into_iter().map(|(u, v, t)| TemporalEdge::new(u, v, t)).collect(),
        );
        let want = TcsrBuilder::new()
            .processors(1)
            .chunk_policy(ChunkPolicy::Rows)
            .build(&events);
        for p in SWEEP {
            for policy in [ChunkPolicy::Rows, ChunkPolicy::Edges] {
                let got = TcsrBuilder::new()
                    .processors(p)
                    .chunk_policy(policy)
                    .build(&events);
                prop_assert_eq!(&got, &want, "p={} policy={}", p, policy.name());
            }
        }
    }

    /// Query batches — neighborhoods and both edge-existence drivers — are
    /// policy-invariant on both the plain and the packed CSR, including
    /// batches front-loaded with hub queries.
    #[test]
    fn query_batches_are_policy_invariant(g in arb_skewed_graph()) {
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        let n = csr.num_nodes() as u32;
        // Hub-first query order maximizes the divergence between the
        // count split and the weighted split.
        let mut neighbor_queries: Vec<NodeId> = (0..n).collect();
        neighbor_queries.sort_by_key(|&u| std::cmp::Reverse(csr.degree(u)));
        let edge_queries: Vec<(NodeId, NodeId)> = neighbor_queries
            .iter()
            .map(|&u| (u, (u.wrapping_mul(31).wrapping_add(1)) % n.max(1)))
            .collect();

        let want_rows = neighbors_batch_with_chunking(&csr, &neighbor_queries, 1, ChunkPolicy::Rows);
        let want_exist =
            edges_exist_batch_with_chunking(&csr, &edge_queries, 1, ChunkPolicy::Rows);
        for p in SWEEP {
            for policy in [ChunkPolicy::Rows, ChunkPolicy::Edges] {
                let label = policy.name();
                prop_assert_eq!(
                    &neighbors_batch_with_chunking(&csr, &neighbor_queries, p, policy),
                    &want_rows, "csr neighbors p={} {}", p, label
                );
                prop_assert_eq!(
                    &neighbors_batch_with_chunking(&packed, &neighbor_queries, p, policy),
                    &want_rows, "packed neighbors p={} {}", p, label
                );
                prop_assert_eq!(
                    &edges_exist_batch_with_chunking(&csr, &edge_queries, p, policy),
                    &want_exist, "csr exist p={} {}", p, label
                );
                prop_assert_eq!(
                    &edges_exist_batch_with_chunking(&packed, &edge_queries, p, policy),
                    &want_exist, "packed exist p={} {}", p, label
                );
                prop_assert_eq!(
                    &edges_exist_batch_binary_with_chunking(&packed, &edge_queries, p, policy),
                    &want_exist, "packed binary p={} {}", p, label
                );
            }
        }
    }
}

/// The pinned degenerate shapes, outside proptest so they always run
/// exactly: empty graph, pure hub, duplicate-only rows.
#[test]
fn pinned_degenerate_graphs_are_policy_invariant() {
    let hub: Vec<(NodeId, NodeId)> = (0..500).map(|v| (0, v % 64)).collect();
    let graphs = [
        EdgeList::new(0, vec![]),
        EdgeList::new(64, vec![]),
        EdgeList::new(64, hub),
        EdgeList::new(3, vec![(1, 2); 40]),
    ];
    for (i, g) in graphs.iter().enumerate() {
        let want = Csr::from_edge_list_sequential(g);
        for p in SWEEP {
            for policy in [ChunkPolicy::Rows, ChunkPolicy::Edges] {
                let csr = build(g, p, policy);
                assert_eq!(csr, want, "graph {i} p={p} {}", policy.name());
                let queries: Vec<NodeId> = (0..g.num_nodes() as u32).collect();
                let rows = neighbors_batch_with_chunking(&csr, &queries, p, policy);
                for (u, row) in queries.iter().zip(&rows) {
                    assert_eq!(row, csr.neighbors(*u), "graph {i} p={p} u={u}");
                }
            }
        }
    }
}
