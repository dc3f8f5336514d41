//! PageRank by pull-based power iteration.
//!
//! Pull formulation: each node sums `rank[v] / outdeg[v]` over its
//! *in*-neighbors, read from the transposed CSR. Pulling (rather than
//! scattering) keeps the computation deterministic — every node accumulates
//! its contributions in a fixed order, so no atomic floating-point adds are
//! needed and results are bit-reproducible across thread counts.

use rayon::prelude::*;

use parcsr::{Csr, CsrBuilder, NeighborSource};
use parcsr_graph::{EdgeList, NodeId};

/// PageRank parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (typically 0.85).
    pub damping: f64,
    /// Maximum power iterations.
    pub max_iterations: usize,
    /// L1 convergence threshold.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-9,
        }
    }
}

/// Computes PageRank over any [`NeighborSource`] — the plain CSR or the
/// bit-packed one, whose rows are streamed during the one-time transpose
/// without decompressing the structure. Returns `(ranks, iterations_used)`.
/// Dangling nodes (out-degree 0) redistribute uniformly, so ranks always
/// sum to ~1.
pub fn pagerank<S: NeighborSource>(graph: &S, config: PageRankConfig) -> (Vec<f64>, usize) {
    let n = graph.num_nodes();
    if n == 0 {
        return (Vec::new(), 0);
    }
    assert!(
        config.damping >= 0.0 && config.damping < 1.0,
        "damping must be in [0, 1)"
    );

    // Transpose: in-neighbors of every node, for the pull step.
    let transposed = transpose(graph);
    let out_deg: Vec<u64> = (0..n).map(|u| graph.degree(u as NodeId) as u64).collect();

    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let base = (1.0 - config.damping) / n as f64;

    for iter in 0..config.max_iterations {
        // Dangling mass is shared uniformly (sequential sum for
        // determinism; n is small relative to m).
        let dangling: f64 = rank
            .iter()
            .zip(&out_deg)
            .filter(|&(_, &d)| d == 0)
            .map(|(r, _)| r)
            .sum();
        let dangling_share = config.damping * dangling / n as f64;

        next.par_iter_mut().enumerate().for_each(|(u, slot)| {
            let mut sum = 0.0;
            for &v in transposed.neighbors(u as NodeId) {
                sum += rank[v as usize] / out_deg[v as usize] as f64;
            }
            *slot = base + dangling_share + config.damping * sum;
        });

        let delta: f64 = rank
            .par_iter()
            .zip(next.par_iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < config.tolerance {
            return (rank, iter + 1);
        }
    }
    (rank, config.max_iterations)
}

/// Builds the transposed CSR (in-edges become out-edges), streaming the
/// source's rows.
fn transpose<S: NeighborSource>(graph: &S) -> Csr {
    let mut edges = Vec::new();
    for u in 0..graph.num_nodes() as NodeId {
        graph.for_each_block_while(u, &mut |block| {
            edges.extend(block.iter().map(|&v| (v, u)));
            true
        });
    }
    CsrBuilder::new().build(&EdgeList::new(graph.num_nodes(), edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr::with_processors;
    use parcsr_graph::gen::{rmat, RmatParams};

    fn ranks(g: &EdgeList) -> Vec<f64> {
        let csr = CsrBuilder::new().build(g);
        pagerank(&csr, PageRankConfig::default()).0
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = rmat(RmatParams::new(256, 2_000, 3));
        let r = ranks(&g);
        let total: f64 = r.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum={total}");
    }

    #[test]
    fn cycle_is_uniform() {
        let g = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let r = ranks(&g);
        for &x in &r {
            assert!((x - 0.25).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn star_center_dominates() {
        // Everyone points at node 0.
        let g = EdgeList::new(5, vec![(1, 0), (2, 0), (3, 0), (4, 0)]);
        let r = ranks(&g);
        for leaf in 1..5 {
            assert!(r[0] > 3.0 * r[leaf], "center {} leaf {}", r[0], r[leaf]);
        }
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // Node 1 is dangling.
        let g = EdgeList::new(3, vec![(0, 1), (2, 0)]);
        let r = ranks(&g);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = rmat(RmatParams::new(512, 6_000, 7));
        let csr = CsrBuilder::new().build(&g);
        let base = with_processors(1, || pagerank(&csr, PageRankConfig::default()));
        for p in [2, 4, 8] {
            let other = with_processors(p, || pagerank(&csr, PageRankConfig::default()));
            assert_eq!(base.0, other.0, "p={p}: bitwise equality expected");
            assert_eq!(base.1, other.1);
        }
    }

    #[test]
    fn converges_before_max_iterations() {
        let g = rmat(RmatParams::new(128, 1_000, 9));
        let csr = CsrBuilder::new().build(&g);
        let (_, iters) = pagerank(
            &csr,
            PageRankConfig {
                tolerance: 1e-7,
                ..Default::default()
            },
        );
        assert!(iters < 100, "iters={iters}");
    }

    #[test]
    fn empty_graph() {
        let csr = CsrBuilder::new().build(&EdgeList::new(0, vec![]));
        let (r, iters) = pagerank(&csr, PageRankConfig::default());
        assert!(r.is_empty());
        assert_eq!(iters, 0);
    }

    #[test]
    fn identical_on_packed_csr() {
        use parcsr::{BitPackedCsr, PackedCsrMode};
        let g = rmat(RmatParams::new(256, 3_000, 11));
        let csr = CsrBuilder::new().build(&g);
        let base = pagerank(&csr, PageRankConfig::default());
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        assert_eq!(pagerank(&packed, PageRankConfig::default()), base);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn rejects_bad_damping() {
        let csr = CsrBuilder::new().build(&EdgeList::new(2, vec![(0, 1)]));
        pagerank(
            &csr,
            PageRankConfig {
                damping: 1.5,
                ..Default::default()
            },
        );
    }
}
