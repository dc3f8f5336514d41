//! Triangle counting by sorted-row intersection.
//!
//! Treats the graph as undirected and simple (symmetrize + dedup happen
//! internally). For every edge `(u, v)` with `u < v`, triangles through it
//! are `|N⁺(u) ∩ N⁺(v)|` on the *oriented* graph where every edge points
//! from the lower-degree endpoint to the higher — the standard
//! work-efficient node-iterator, `O(m^{3/2})`. The sorted CSR rows the
//! construction pipeline guarantees are exactly what the merge-intersection
//! needs.

use rayon::prelude::*;

use parcsr::{Csr, CsrBuilder, NeighborSource};
use parcsr_graph::{EdgeList, NodeId};

/// Counts triangles in the undirected simplification of `graph`.
/// Parallel over nodes.
pub fn count_triangles(graph: &EdgeList) -> u64 {
    count_triangles_oriented(&orient(graph))
}

/// Counts triangles over an already degree-oriented [`NeighborSource`]
/// (every edge pointing from the lower-rank endpoint; see [`orient`]) —
/// runs directly on a bit-packed oriented CSR. Per worker, one reusable
/// buffer holds the current node's row; the counterpart row of each
/// neighbor is *streamed* through the source's visitor and co-scanned
/// against that buffer, so the inner loop never touches the heap.
pub fn count_triangles_oriented<S: NeighborSource>(oriented: &S) -> u64 {
    (0..oriented.num_nodes() as NodeId)
        .into_par_iter()
        .map_init(Vec::new, |nu, u| {
            oriented.row_into(u, nu);
            let mut count = 0u64;
            for &v in nu.iter() {
                count += streamed_intersection_size(nu, oriented, v);
            }
            count
        })
        .sum()
}

/// `|nu ∩ N(v)|` with `N(v)` streamed from the source: a sorted-merge scan
/// that early-exits once the stream passes the end of `nu`.
fn streamed_intersection_size<S: NeighborSource>(nu: &[NodeId], source: &S, v: NodeId) -> u64 {
    let mut i = 0usize;
    let mut count = 0u64;
    source.for_each_neighbor_while(v, &mut |w| {
        while i < nu.len() && nu[i] < w {
            i += 1;
        }
        if i == nu.len() {
            return false;
        }
        if nu[i] == w {
            count += 1;
            i += 1;
        }
        true
    });
    count
}

/// Sequential reference: brute-force over node triples via adjacency sets.
/// `O(n·deg²)`; for tests only.
pub fn count_triangles_sequential(graph: &EdgeList) -> u64 {
    let simple = simple_undirected(graph);
    let csr = CsrBuilder::new().build(&simple);
    let mut count = 0u64;
    for u in 0..csr.num_nodes() as NodeId {
        for &v in csr.neighbors(u) {
            if v <= u {
                continue;
            }
            for &w in csr.neighbors(v) {
                if w <= v {
                    continue;
                }
                if csr.has_edge(u, w) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Undirected, loop-free, duplicate-free version of the input.
fn simple_undirected(graph: &EdgeList) -> EdgeList {
    let mut edges: Vec<(NodeId, NodeId)> = graph
        .edges()
        .iter()
        .filter(|&&(u, v)| u != v)
        .flat_map(|&(u, v)| [(u, v), (v, u)])
        .collect();
    edges.sort_unstable();
    edges.dedup();
    EdgeList::new(graph.num_nodes(), edges)
}

/// Degree-ordered orientation: keep `(u, v)` iff
/// `(deg(u), u) < (deg(v), v)`. Bounds every oriented out-degree by
/// `O(√m)` on simple graphs. Public so callers can pack the oriented
/// structure (e.g. into a `BitPackedCsr`) and count on the compressed form
/// via [`count_triangles_oriented`].
pub fn orient(graph: &EdgeList) -> Csr {
    let simple = simple_undirected(graph);
    let degrees = simple.degrees_sequential();
    let rank = |x: NodeId| (degrees[x as usize], x);
    let oriented: Vec<(NodeId, NodeId)> = simple
        .edges()
        .iter()
        .copied()
        .filter(|&(u, v)| rank(u) < rank(v))
        .collect();
    CsrBuilder::new().build(&EdgeList::new(simple.num_nodes(), oriented))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr_graph::gen::{erdos_renyi, rmat, ErParams, RmatParams};

    #[test]
    fn single_triangle() {
        let g = EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]);
        assert_eq!(count_triangles(&g), 1);
        assert_eq!(count_triangles_sequential(&g), 1);
    }

    #[test]
    fn complete_graph_k5() {
        // K5 has C(5,3) = 10 triangles.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = EdgeList::new(5, edges);
        assert_eq!(count_triangles(&g), 10);
        assert_eq!(count_triangles_sequential(&g), 10);
    }

    #[test]
    fn triangle_free_bipartite() {
        // K_{3,3} is triangle-free.
        let mut edges = Vec::new();
        for u in 0..3u32 {
            for v in 3..6u32 {
                edges.push((u, v));
            }
        }
        let g = EdgeList::new(6, edges);
        assert_eq!(count_triangles(&g), 0);
    }

    #[test]
    fn self_loops_and_duplicates_ignored() {
        let g = EdgeList::new(3, vec![(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 0)]);
        assert_eq!(count_triangles(&g), 1);
    }

    #[test]
    fn parallel_equals_sequential_on_random_graphs() {
        for seed in 0..4u64 {
            let g = erdos_renyi(ErParams::new(80, 500, seed));
            assert_eq!(
                count_triangles(&g),
                count_triangles_sequential(&g),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn parallel_equals_sequential_on_rmat() {
        let g = rmat(RmatParams::new(128, 1_200, 23));
        assert_eq!(count_triangles(&g), count_triangles_sequential(&g));
    }

    #[test]
    fn rmat_has_more_triangles_than_er_at_equal_density() {
        // Clustering: the skewed model closes far more triangles — the
        // structural property that makes social graphs compressible.
        let rm = rmat(RmatParams::new(1 << 10, 1 << 14, 31));
        let er = erdos_renyi(ErParams::new(1 << 10, 1 << 14, 31));
        assert!(count_triangles(&rm) > 4 * count_triangles(&er));
    }

    #[test]
    fn empty_graph() {
        assert_eq!(count_triangles(&EdgeList::new(0, vec![])), 0);
    }

    #[test]
    fn counts_on_packed_oriented_structure() {
        use parcsr::{BitPackedCsr, PackedCsrMode};
        let g = rmat(RmatParams::new(128, 1_500, 41));
        let want = count_triangles(&g);
        let oriented = orient(&g);
        let packed = BitPackedCsr::from_csr(&oriented, PackedCsrMode::Raw, 4);
        assert_eq!(count_triangles_oriented(&packed), want);
    }
}
