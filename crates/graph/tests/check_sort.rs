//! Schedule-exploration tests for the counting build's source scatter.
//! Compiled (and run) only under `RUSTFLAGS="--cfg parcsr_check"`.
#![cfg(parcsr_check)]

use parcsr_check as check;
use parcsr_graph::sort::checked::{scatter_pass_model, SortFault};
use parcsr_graph::{Edge, NodeId};

/// The scatter's output: targets bucketed by source, each row in input
/// order (a stable sort by source).
fn reference(edges: &[Edge]) -> Vec<NodeId> {
    let mut v = edges.to_vec();
    v.sort_by_key(|&(u, _)| u);
    v.into_iter().map(|(_, w)| w).collect()
}

/// The per-(chunk, node) cursor layout is race-free in every interleaving
/// at p = 2, even when both chunks carry the same source, and every
/// schedule produces the stable bucket-by-source order.
#[test]
fn scatter_race_free_p2_with_shared_node() {
    let edges: Vec<Edge> = vec![(0, 5), (0, 7), (0, 5), (0, 9)];
    let want = reference(&edges);
    let report = check::model(|| {
        let got = scatter_pass_model(edges.clone(), 1, 2, SortFault::None);
        assert_eq!(got, want);
    });
    // Two chunks × two writes each: C(4, 2) = 6 interleavings.
    assert!(report.executions >= 6, "executions = {}", report.executions);
}

/// Same at p = 3, with unsorted sources spread across every chunk and
/// every node shared by two of them.
#[test]
fn scatter_race_free_p3_unsorted() {
    let edges: Vec<Edge> = vec![(2, 0), (0, 1), (2, 1), (1, 2), (0, 0), (1, 1)];
    let want = reference(&edges);
    assert_eq!(want, [1, 0, 2, 1, 0, 1]);
    check::model(|| {
        let got = scatter_pass_model(edges.clone(), 3, 3, SortFault::None);
        assert_eq!(got, want);
    });
}

/// Empty rows between the filled ones, and chunks with no node in common.
#[test]
fn scatter_race_free_with_empty_rows() {
    let edges: Vec<Edge> = vec![(6, 3), (1, 2), (4, 1), (4, 0)];
    let want = reference(&edges);
    check::model(|| {
        let got = scatter_pass_model(edges.clone(), 8, 2, SortFault::None);
        assert_eq!(got, want);
    });
}

/// Seeded race: chunk 1 reuses chunk 0's cursors, so both chunks write the
/// first slot of the one source they share (node 1, whose row starts at
/// slot 1). The unsafe `ScatterTarget` writes would alias there, and the
/// checker must say so at that slot.
#[test]
fn shared_cursors_race_at_the_shared_node() {
    // Chunk 0: (0, 5), (1, 7). Chunk 1: (1, 6), (2, 9). Offsets 0, 1, 3, 4.
    let edges: Vec<Edge> = vec![(0, 5), (1, 7), (1, 6), (2, 9)];
    let err = check::check(|| {
        scatter_pass_model(edges.clone(), 3, 2, SortFault::SharedCursors);
    })
    .expect_err("shared cursors must produce a write-write race");
    assert_eq!(err.location, "sort.targets");
    assert_eq!(err.kind, "write-write");
    assert_eq!(err.index, 1, "{err}");
}

/// The same fault on a hub: every edge leaves node 2, whose row starts at
/// slot 0 once nodes 0 and 1 turn out empty.
#[test]
fn shared_cursors_race_on_a_hub_row() {
    let edges: Vec<Edge> = vec![(2, 1), (2, 1), (2, 0), (2, 2)];
    let err = check::check(|| {
        scatter_pass_model(edges.clone(), 3, 2, SortFault::SharedCursors);
    })
    .expect_err("shared cursors on one row must race");
    assert_eq!(err.location, "sort.targets");
    assert_eq!(err.index, 0, "{err}");
}

/// Conversely, when no source node spans two chunks, chunk 0's cursors for
/// chunk 1's nodes are still zero — the same as chunk 1's own — so even the
/// faulty variant is race-free and exact: the verdict tracks the overlap.
#[test]
fn shared_cursors_without_shared_nodes_is_race_free() {
    let edges: Vec<Edge> = vec![(0, 1), (0, 2), (1, 0), (1, 1)];
    let want = reference(&edges);
    check::model(|| {
        let got = scatter_pass_model(edges.clone(), 2, 2, SortFault::SharedCursors);
        assert_eq!(got, want);
    });
}
