//! Betweenness centrality (Brandes' algorithm).
//!
//! The paper's introduction names "the edge betweenness of the highways
//! connecting major cities" as a motivating analysis; this module supplies
//! node betweenness over unweighted graphs via Brandes' dependency
//! accumulation. Exact computation runs one BFS + back-propagation per
//! source — embarrassingly parallel over sources, which is exactly how
//! [`betweenness_parallel`] distributes it (each worker owns its accumulator
//! and the per-source results are summed deterministically at the end).
//! [`betweenness_sampled`] trades exactness for time on large graphs by
//! processing a seeded subset of sources.

use rayon::prelude::*;

use parcsr::NeighborSource;
use parcsr_graph::NodeId;

/// Brandes' single-source dependency pass: returns this source's
/// contribution to every node's betweenness.
fn brandes_pass<S: NeighborSource>(
    graph: &S,
    source: NodeId,
    row_buf: &mut Vec<NodeId>,
) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut sigma = vec![0.0f64; n]; // shortest-path counts
    let mut dist = vec![-1i64; n];
    let mut order: Vec<NodeId> = Vec::new(); // BFS order (for reverse sweep)
    let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];

    sigma[source as usize] = 1.0;
    dist[source as usize] = 0;
    let mut frontier = std::collections::VecDeque::from([source]);
    while let Some(u) = frontier.pop_front() {
        order.push(u);
        graph.row_into(u, row_buf);
        for &v in row_buf.iter() {
            if dist[v as usize] < 0 {
                dist[v as usize] = dist[u as usize] + 1;
                frontier.push_back(v);
            }
            if dist[v as usize] == dist[u as usize] + 1 {
                sigma[v as usize] += sigma[u as usize];
                preds[v as usize].push(u);
            }
        }
    }

    // Dependency accumulation in reverse BFS order.
    let mut delta = vec![0.0f64; n];
    let mut contribution = vec![0.0f64; n];
    for &w in order.iter().rev() {
        for &u in &preds[w as usize] {
            delta[u as usize] +=
                (sigma[u as usize] / sigma[w as usize]) * (1.0 + delta[w as usize]);
        }
        if w != source {
            contribution[w as usize] = delta[w as usize];
        }
    }
    contribution
}

/// Exact betweenness centrality: one Brandes pass per source, sequential.
/// `O(n·m)`. The ground truth for the parallel and sampled variants.
pub fn betweenness_sequential<S: NeighborSource>(graph: &S) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut total = vec![0.0f64; n];
    let mut row = Vec::new();
    for source in 0..n as NodeId {
        for (slot, c) in total.iter_mut().zip(brandes_pass(graph, source, &mut row)) {
            *slot += c;
        }
    }
    total
}

/// Exact betweenness, parallel over sources. Per-source contributions are
/// reduced with a fixed-shape tree over the source index space, so results
/// are deterministic up to floating-point associativity of the reduction —
/// pinned in tests against the sequential sum within 1e-9 relative error.
pub fn betweenness_parallel<S: NeighborSource>(graph: &S) -> Vec<f64> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    (0..n as NodeId)
        .into_par_iter()
        .map_init(Vec::new, |row, source| brandes_pass(graph, source, row))
        .reduce(
            || vec![0.0f64; n],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        )
}

/// Approximate betweenness from `samples` seeded random sources, scaled by
/// `n / samples`. Deterministic per seed.
pub fn betweenness_sampled<S: NeighborSource>(graph: &S, samples: usize, seed: u64) -> Vec<f64> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let n = graph.num_nodes();
    if n == 0 || samples == 0 {
        return vec![0.0; n];
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let sources: Vec<NodeId> = (0..samples)
        .map(|_| rng.gen_range(0..n) as NodeId)
        .collect();
    let scale = n as f64 / samples as f64;
    let mut total = sources
        .par_iter()
        .map_init(Vec::new, |row, &source| brandes_pass(graph, source, row))
        .reduce(
            || vec![0.0f64; n],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
    for x in &mut total {
        *x *= scale;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr::{BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
    use parcsr_graph::gen::{erdos_renyi, ErParams};
    use parcsr_graph::EdgeList;

    fn csr_of(n: usize, edges: Vec<(u32, u32)>) -> Csr {
        CsrBuilder::new().build(&EdgeList::new(n, edges).symmetrized())
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "i={i}: {x} vs {y}");
        }
    }

    #[test]
    fn path_graph_center_is_most_between() {
        // Undirected path 0-1-2-3-4: node 2 lies on the most shortest paths.
        let csr = csr_of(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let b = betweenness_sequential(&csr);
        // Known values for P5 (directed counts, both directions): ends 0.
        assert_eq!(b[0], 0.0);
        assert_eq!(b[4], 0.0);
        assert!(b[2] > b[1] && b[2] > b[3]);
        // Symmetric graph: symmetric scores.
        assert!((b[1] - b[3]).abs() < 1e-12);
    }

    #[test]
    fn star_center_carries_everything() {
        let csr = csr_of(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]);
        let b = betweenness_sequential(&csr);
        // Every pair of leaves routes through the center: 4·3 = 12 ordered
        // pairs.
        assert!((b[0] - 12.0).abs() < 1e-12, "center {}", b[0]);
        for &leaf_score in &b[1..5] {
            assert_eq!(leaf_score, 0.0);
        }
    }

    #[test]
    fn equal_split_on_parallel_paths() {
        // Diamond: 0-1-3 and 0-2-3, two equal shortest paths; 1 and 2 each
        // carry half of the 0→3 and 3→0 flow.
        let csr = csr_of(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let b = betweenness_sequential(&csr);
        assert!((b[1] - 1.0).abs() < 1e-12, "{b:?}");
        assert!((b[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = erdos_renyi(ErParams::new(120, 600, 3));
        let csr = CsrBuilder::new().build(&g.symmetrized());
        let seq = betweenness_sequential(&csr);
        let par = betweenness_parallel(&csr);
        assert_close(&seq, &par, 1e-9);
    }

    #[test]
    fn packed_input_matches_plain() {
        let g = erdos_renyi(ErParams::new(80, 400, 9));
        let csr = CsrBuilder::new().build(&g.symmetrized());
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 2);
        assert_close(
            &betweenness_parallel(&csr),
            &betweenness_parallel(&packed),
            1e-12,
        );
    }

    #[test]
    fn full_sampling_equals_exact_up_to_scale_noise() {
        // With samples == n (with replacement) the estimator is unbiased but
        // noisy; just check it is well-correlated: top node agrees.
        let csr = csr_of(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]);
        let exact = betweenness_sequential(&csr);
        let approx = betweenness_sampled(&csr, 64, 7);
        let top_exact = exact
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let top_approx = approx
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(top_exact, top_approx);
    }

    #[test]
    fn empty_graph() {
        let csr = CsrBuilder::new().build(&EdgeList::new(0, vec![]));
        assert!(betweenness_parallel(&csr).is_empty());
        assert!(betweenness_sampled(&csr, 4, 1).is_empty());
    }
}
