//! Boolean sparse matrix–matrix multiplication on (compressed) CSR.
//!
//! The paper's `GetRowFromCSR` primitive comes from the authors' SpGEMM work
//! \[28\] ("On large-scale matrix-matrix multiplication on compressed
//! structures"): multiplying adjacency structures directly out of the
//! compressed representation. This module implements the boolean (pattern)
//! SpGEMM `C = A·B` with the classic row-merge (Gustavson) formulation —
//! `C`'s row `u` is the union of `B`'s rows selected by `A`'s row `u` — over
//! any [`NeighborSource`], so it runs on the bit-packed CSR by pulling each
//! needed row with the same row extraction the query algorithms use.
//!
//! `A·A` of an adjacency structure is the 2-hop reachability graph —
//! "friends of friends", the canonical social-network derived relation.

use rayon::prelude::*;

use parcsr::{Csr, CsrBuilder, NeighborSource};
use parcsr_graph::{EdgeList, NodeId};

/// Computes the boolean product `C = A·B`: `C[u][w] = 1` iff there exists
/// `v` with `A[u][v] = 1` and `B[v][w] = 1`. Rows are computed in parallel;
/// the result is a plain CSR with sorted, duplicate-free rows.
///
/// # Panics
///
/// Panics if `A`'s column space does not match `B`'s row space
/// (`a.num_nodes() != b.num_nodes()` — adjacency structures are square).
pub fn spgemm_bool<A, B>(a: &A, b: &B) -> Csr
where
    A: NeighborSource,
    B: NeighborSource,
{
    assert_eq!(
        a.num_nodes(),
        b.num_nodes(),
        "dimension mismatch: A is over {} nodes, B over {}",
        a.num_nodes(),
        b.num_nodes()
    );
    let n = a.num_nodes();
    // Per-row union via a sort-dedup merge; a dense marker array would be
    // O(n) per worker, which the sort avoids for sparse rows.
    let rows: Vec<Vec<NodeId>> = (0..n as NodeId)
        .into_par_iter()
        .map_init(
            || (Vec::new(), Vec::new()),
            |(arow, brow), u| {
                a.row_into(u, arow);
                let mut out: Vec<NodeId> = Vec::new();
                for &v in arow.iter() {
                    b.row_into(v, brow);
                    out.extend_from_slice(brow);
                }
                out.sort_unstable();
                out.dedup();
                out
            },
        )
        .collect();

    let mut edges = Vec::with_capacity(rows.iter().map(Vec::len).sum());
    for (u, row) in rows.iter().enumerate() {
        edges.extend(row.iter().map(|&w| (u as NodeId, w)));
    }
    CsrBuilder::new().build(&EdgeList::new(n, edges))
}

/// Convenience: the 2-hop ("friends of friends") structure `A·A`.
pub fn two_hop<A: NeighborSource>(a: &A) -> Csr {
    spgemm_bool(a, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr::{BitPackedCsr, PackedCsrMode};
    use parcsr_graph::gen::{erdos_renyi, rmat, ErParams, RmatParams};

    fn csr_of(n: usize, edges: Vec<(u32, u32)>) -> Csr {
        CsrBuilder::new().build(&EdgeList::new(n, edges))
    }

    /// O(n³) dense boolean reference.
    fn dense_reference(a: &Csr, b: &Csr) -> Vec<Vec<bool>> {
        let n = a.num_nodes();
        let mut c = vec![vec![false; n]; n];
        for u in 0..n as u32 {
            for &v in a.neighbors(u) {
                for &w in b.neighbors(v) {
                    c[u as usize][w as usize] = true;
                }
            }
        }
        c
    }

    fn assert_matches_dense(c: &Csr, dense: &[Vec<bool>]) {
        for u in 0..c.num_nodes() as u32 {
            let expect: Vec<u32> = dense[u as usize]
                .iter()
                .enumerate()
                .filter(|&(_, &x)| x)
                .map(|(w, _)| w as u32)
                .collect();
            assert_eq!(c.neighbors(u), &expect[..], "row {u}");
        }
    }

    #[test]
    fn path_squared_is_two_hop() {
        // 0 -> 1 -> 2 -> 3; squared: 0 -> 2, 1 -> 3.
        let a = csr_of(4, vec![(0, 1), (1, 2), (2, 3)]);
        let c = two_hop(&a);
        assert_eq!(c.neighbors(0), [2]);
        assert_eq!(c.neighbors(1), [3]);
        assert!(c.neighbors(2).is_empty());
    }

    #[test]
    fn matches_dense_reference_on_random_graphs() {
        for seed in 0..4u64 {
            let ga = erdos_renyi(ErParams::new(60, 250, seed));
            let gb = erdos_renyi(ErParams::new(60, 250, seed + 100));
            let a = CsrBuilder::new().build(&ga);
            let b = CsrBuilder::new().build(&gb);
            let c = spgemm_bool(&a, &b);
            assert_matches_dense(&c, &dense_reference(&a, &b));
        }
    }

    #[test]
    fn runs_identically_on_packed_inputs() {
        let g = rmat(RmatParams::new(128, 1_200, 5));
        let a = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&a, PackedCsrMode::Raw, 4);
        assert_eq!(spgemm_bool(&packed, &packed), spgemm_bool(&a, &a));
    }

    #[test]
    fn identity_behaviour_of_self_loops() {
        // I·A = A when I is the identity (self-loops only).
        let n = 5;
        let i = csr_of(n, (0..n as u32).map(|u| (u, u)).collect());
        let g = erdos_renyi(ErParams::new(n, 12, 3));
        let a = CsrBuilder::new().build(&g.deduped());
        let c = spgemm_bool(&i, &a);
        for u in 0..n as u32 {
            assert_eq!(c.neighbors(u), a.neighbors(u));
        }
    }

    #[test]
    fn empty_inputs() {
        let a = csr_of(3, vec![]);
        let c = two_hop(&a);
        assert_eq!(c.num_edges(), 0);
        let e = csr_of(0, vec![]);
        assert_eq!(two_hop(&e).num_nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dimensions_panic() {
        let a = csr_of(3, vec![(0, 1)]);
        let b = csr_of(4, vec![(0, 1)]);
        spgemm_bool(&a, &b);
    }
}
