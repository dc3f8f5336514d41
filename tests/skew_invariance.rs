//! Skew invariance: every build and query path produces bit-identical
//! output at every processor count on graphs built to stress the
//! edge-weighted chunk plan, and that plan keeps its edge skew bounded on
//! a hub graph.
//!
//! The generator is skew-biased on purpose: graphs can carry hub rows
//! (one node owning most edges), duplicate edges (multigraph rows), and
//! empty-node headroom, the three shapes where a weighted plan diverges
//! most from a count split.

use proptest::prelude::*;

use parcsr::query::{edges_exist_batch, edges_exist_batch_binary, neighbors_batch};
use parcsr::{degrees_parallel, BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
use parcsr_graph::{EdgeList, NodeId, TemporalEdge, TemporalEdgeList};
use parcsr_runtime::{plan, Chunk};
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

fn build(g: &EdgeList, p: usize) -> Csr {
    CsrBuilder::new().processors(p).build(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR construction (degree + scan + scatter) matches the sequential
    /// counting-sort build.
    #[test]
    fn csr_build_is_skew_invariant(g in arb_skewed_graph()) {
        let want = Csr::from_edge_list_sequential(&g);
        for p in SWEEP {
            prop_assert_eq!(&build(&g, p), &want, "p={}", p);
        }
    }

    /// The parallel degree pass feeding the scan agrees with the
    /// sequential histogram.
    #[test]
    fn degree_pass_is_skew_invariant(g in arb_skewed_graph()) {
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

    /// The build-then-pack pipeline at `p` packs to the `p = 1` result.
    #[test]
    fn packed_build_is_skew_invariant(g in arb_skewed_graph()) {
        let want = BitPackedCsr::from_csr(&build(&g, 1), PackedCsrMode::Raw, 1);
        for p in SWEEP {
            prop_assert_eq!(
                &BitPackedCsr::from_csr(&build(&g, p), PackedCsrMode::Raw, p),
                &want,
                "p={}", p
            );
        }
    }

    /// TCSR construction (a count split over events) matches `p = 1`.
    #[test]
    fn tcsr_build_is_skew_invariant(
        events in prop::collection::vec((0u32..40, 0u32..40, 0u32..12), 0..300)
    ) {
        let events = TemporalEdgeList::new(
            40,
            events.into_iter().map(|(u, v, t)| TemporalEdge::new(u, v, t)).collect(),
        );
        let want = TcsrBuilder::new().processors(1).build(&events);
        for p in SWEEP {
            let got = TcsrBuilder::new().processors(p).build(&events);
            prop_assert_eq!(&got, &want, "p={}", p);
        }
    }

    /// Query batches — neighborhoods and both edge-existence drivers —
    /// match `p = 1` on both the plain and the packed CSR, including
    /// batches front-loaded with hub queries.
    #[test]
    fn query_batches_are_skew_invariant(g in arb_skewed_graph()) {
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        let n = csr.num_nodes() as u32;
        // Hub-first query order is where the weighted split cuts the batch
        // furthest from a count split.
        let mut neighbor_queries: Vec<NodeId> = (0..n).collect();
        neighbor_queries.sort_by_key(|&u| std::cmp::Reverse(csr.degree(u)));
        let edge_queries: Vec<(NodeId, NodeId)> = neighbor_queries
            .iter()
            .map(|&u| (u, (u.wrapping_mul(31).wrapping_add(1)) % n.max(1)))
            .collect();

        let want_rows = neighbors_batch(&csr, &neighbor_queries, 1);
        let want_exist = edges_exist_batch(&csr, &edge_queries, 1);
        for p in SWEEP {
            prop_assert_eq!(
                &neighbors_batch(&csr, &neighbor_queries, p),
                &want_rows, "csr neighbors p={}", p
            );
            prop_assert_eq!(
                &neighbors_batch(&packed, &neighbor_queries, p),
                &want_rows, "packed neighbors p={}", p
            );
            prop_assert_eq!(
                &edges_exist_batch(&csr, &edge_queries, p),
                &want_exist, "csr exist p={}", p
            );
            prop_assert_eq!(
                &edges_exist_batch(&packed, &edge_queries, p),
                &want_exist, "packed exist p={}", p
            );
            prop_assert_eq!(
                &edges_exist_batch_binary(&packed, &edge_queries, p),
                &want_exist, "packed binary p={}", p
            );
        }
    }
}

/// The pinned degenerate shapes, outside proptest so they always run
/// exactly: empty graph, pure hub, duplicate-only rows.
#[test]
fn pinned_degenerate_graphs_are_skew_invariant() {
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
            let csr = build(g, p);
            assert_eq!(csr, want, "graph {i} p={p}");
            let queries: Vec<NodeId> = (0..g.num_nodes() as u32).collect();
            let rows = neighbors_batch(&csr, &queries, p);
            for (u, row) in queries.iter().zip(&rows) {
                assert_eq!(row, csr.neighbors(*u), "graph {i} p={p} u={u}");
            }
        }
    }
}

/// Nodes of the hub graph the skew bound is held on.
const HUB_NODES: usize = 200_000;
/// Out-degree of every node.
const PER_NODE: u64 = 5;
/// Hub rows (nodes `0..HUB_ROWS`), packed at the front of row space.
const HUB_ROWS: usize = 64;
/// Extra out-edges per hub row; the hub block holds about half the edges.
const HUB_DEGREE: u64 = 16_000;
/// The edge skew (max/mean chunk `edges`) the plan is held to.
const MAX_SKEW: f64 = 1.3;

fn hub_degree(u: usize) -> u64 {
    PER_NODE + if u < HUB_ROWS { HUB_DEGREE } else { 0 }
}

/// A prefix sum of per-element degrees: CSR offsets, or a query batch's
/// degree prefix.
fn prefix(degrees: impl Iterator<Item = u64>) -> Vec<u64> {
    std::iter::once(0)
        .chain(degrees.scan(0, |cum, d| {
            *cum += d;
            Some(*cum)
        }))
        .collect()
}

/// Max over mean of the chunks' `edges` payloads.
fn edge_skew(plan: &[Chunk]) -> f64 {
    let max = plan.iter().map(|c| c.edges).max().unwrap_or(0) as f64;
    let mean = plan.iter().map(|c| c.edges).sum::<u64>() as f64 / plan.len() as f64;
    max / mean
}

/// The edge-weighted plan keeps the fill stage's chunks within
/// [`MAX_SKEW`] on a graph whose first 64 rows hold half the edges, where
/// a near-equal row split would hand one chunk the whole hub block.
#[test]
fn build_plan_bounds_edge_skew_on_a_hub_graph() {
    let offsets = prefix((0..HUB_NODES).map(hub_degree));
    let m = *offsets.last().unwrap();
    let hub_share = (HUB_ROWS as u64 * HUB_DEGREE) as f64 / m as f64;
    assert!((0.45..0.55).contains(&hub_share), "hub share {hub_share}");
    for p in [2, 8] {
        let plan = plan(&offsets, p);
        assert_eq!(plan.len(), p);
        let skew = edge_skew(&plan);
        assert!(skew <= MAX_SKEW, "p={p}: edge skew {skew:.2}x");
    }
}

/// The same bound on a hub-first query batch: every hub row queried four
/// times at the front of 2048 queries, the tail sampling ordinary rows —
/// the batch the drivers plan over its subject nodes' degree prefix.
#[test]
fn query_plan_bounds_edge_skew_on_a_hub_first_batch() {
    let hub_prefix = HUB_ROWS * 4;
    let queries = (0..2_048).map(|i| {
        if i < hub_prefix {
            i % HUB_ROWS
        } else {
            HUB_ROWS + (i * 97) % (HUB_NODES - HUB_ROWS)
        }
    });
    let degrees = prefix(queries.map(hub_degree));
    for p in [2, 8] {
        let plan = plan(&degrees, p);
        assert_eq!(plan.len(), p);
        let skew = edge_skew(&plan);
        assert!(skew <= MAX_SKEW, "p={p}: edge skew {skew:.2}x");
    }
}
