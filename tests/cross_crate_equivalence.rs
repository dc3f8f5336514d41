//! Cross-crate equivalence: every structure in the workspace that can
//! answer a query must answer it identically — CSR, bit-packed CSR,
//! adjacency list, bit matrix, and flat edge list.

use parcsr::{BitPackedCsr, CsrBuilder, NeighborSource, PackedCsrMode};
use parcsr_baseline::{AdjacencyList, AdjacencyMatrix, EdgeListStore, GraphStore};
use parcsr_graph::gen::{barabasi_albert, erdos_renyi, rmat, BaParams, ErParams, RmatParams};
use parcsr_graph::EdgeList;

fn check_all_structures(graph: &EdgeList, label: &str) {
    // The matrix collapses duplicate edges, so compare on the deduped graph.
    let graph = graph.deduped();
    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
    let adj = AdjacencyList::from_edge_list(&graph);
    let matrix = AdjacencyMatrix::from_edge_list(&graph);
    let flat = EdgeListStore::from_edge_list(&graph);

    let n = graph.num_nodes() as u32;
    let mut rows = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for u in (0..n).step_by((n as usize / 64).max(1)) {
        NeighborSource::row_into(&csr, u, &mut rows[0]);
        packed.row_into(u, &mut rows[1]);
        GraphStore::row_into(&adj, u, &mut rows[2]);
        GraphStore::row_into(&flat, u, &mut rows[3]);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r, &rows[0], "{label}: structure {i} row {u}");
        }
        let mut mrow = Vec::new();
        GraphStore::row_into(&matrix, u, &mut mrow);
        assert_eq!(mrow, rows[0], "{label}: matrix row {u}");

        for v in (0..n).step_by((n as usize / 48).max(1)) {
            let want = csr.has_edge(u, v);
            assert_eq!(packed.has_edge(u, v), want, "{label} ({u},{v}) packed");
            assert_eq!(
                GraphStore::has_edge(&adj, u, v),
                want,
                "{label} ({u},{v}) adj"
            );
            assert_eq!(
                GraphStore::has_edge(&matrix, u, v),
                want,
                "{label} ({u},{v}) mat"
            );
            assert_eq!(
                GraphStore::has_edge(&flat, u, v),
                want,
                "{label} ({u},{v}) flat"
            );
        }
    }
}

#[test]
fn equivalence_on_rmat() {
    let g = rmat(RmatParams::new(1 << 10, 12_000, 11));
    check_all_structures(&g, "rmat");
}

#[test]
fn equivalence_on_erdos_renyi() {
    let g = erdos_renyi(ErParams::new(900, 9_000, 13));
    check_all_structures(&g, "er");
}

#[test]
fn equivalence_on_barabasi_albert() {
    let g = barabasi_albert(BaParams::new(800, 4, 17));
    check_all_structures(&g, "ba");
}

#[test]
fn equivalence_on_symmetrized_graph() {
    // Undirected social-network encoding: every edge mirrored.
    let g = rmat(RmatParams::new(512, 4_000, 23)).symmetrized();
    check_all_structures(&g, "symmetrized");
}

#[test]
fn size_ordering_matches_the_papers_story() {
    // On a sparse million-edge-scale graph: matrix >> adjacency list >
    // raw CSR > packed CSR. This is the quantitative claim behind Table II's
    // size columns.
    let g = rmat(RmatParams::new(1 << 13, 1 << 17, 29)).deduped();
    let csr = CsrBuilder::new().build(&g);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
    let adj = AdjacencyList::from_edge_list(&g);
    let matrix = AdjacencyMatrix::from_edge_list(&g);

    assert!(matrix.heap_bytes() > adj.heap_bytes());
    assert!(adj.heap_bytes() > csr.heap_bytes());
    assert!(csr.heap_bytes() > packed.packed_bytes());
}
