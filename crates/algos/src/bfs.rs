//! Breadth-first search: the canonical neighborhood-query workload — a BFS
//! is nothing but repeated batched neighborhood queries, which is why the
//! paper's Algorithm 6 batching matters for analytics.

// ORDERING: Relaxed throughout — level claims are first-writer-wins
// compare-exchanges on independent cells, and each level's stores are
// published to the next round by the parallel iterator's join barrier.
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use rayon::prelude::*;

use parcsr::NeighborSource;
use parcsr_graph::NodeId;

/// Distance value for nodes not reached from the source.
pub const UNREACHABLE: u32 = u32::MAX;

/// Sequential BFS returning hop distances from `source`
/// (`UNREACHABLE` where no path exists). The ground truth.
pub fn bfs_sequential<S: NeighborSource>(graph: &S, source: NodeId) -> Vec<u32> {
    let n = graph.num_nodes();
    assert!((source as usize) < n, "source {source} out of range");
    let mut dist = vec![UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            graph.for_each_block_while(u, &mut |block| {
                for &v in block {
                    if dist[v as usize] == UNREACHABLE {
                        dist[v as usize] = level;
                        next.push(v);
                    }
                }
                true
            });
        }
        frontier = next;
    }
    dist
}

/// Level-synchronous parallel BFS. Each level expands the frontier in
/// parallel chunks; first-writer-wins claims via compare-exchange keep every
/// node at its true level, so the distance array is identical to the
/// sequential result (the *frontier order* may differ run to run, the
/// distances cannot).
pub fn bfs_parallel<S: NeighborSource>(graph: &S, source: NodeId) -> Vec<u32> {
    let n = graph.num_nodes();
    assert!((source as usize) < n, "source {source} out of range");
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHABLE)).collect();
    dist[source as usize].store(0, Relaxed);
    let mut frontier = vec![source];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let mut next: Vec<NodeId> = frontier
            .par_iter()
            .map(|&u| {
                let mut claimed = Vec::new();
                // Stream the row straight off the (possibly packed)
                // structure — no per-node row buffer.
                graph.for_each_block_while(u, &mut |block| {
                    for &v in block {
                        if dist[v as usize]
                            .compare_exchange(UNREACHABLE, level, Relaxed, Relaxed)
                            .is_ok()
                        {
                            claimed.push(v);
                        }
                    }
                    true
                });
                claimed
            })
            .flatten()
            .collect();
        // Canonicalize the next frontier so traversal work stays
        // deterministic (the distances already are).
        next.par_sort_unstable();
        frontier = next;
    }
    dist.into_iter().map(AtomicU32::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
    use parcsr_graph::gen::{rmat, RmatParams};
    use parcsr_graph::EdgeList;

    #[test]
    fn line_graph_distances() {
        let g = EdgeList::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let csr = CsrBuilder::new().build(&g);
        assert_eq!(bfs_sequential(&csr, 0), [0, 1, 2, 3, 4]);
        assert_eq!(bfs_parallel(&csr, 0), [0, 1, 2, 3, 4]);
        assert_eq!(
            bfs_sequential(&csr, 4),
            [UNREACHABLE; 4].into_iter().chain([0]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn disconnected_components() {
        let g = EdgeList::new(6, vec![(0, 1), (1, 0), (3, 4)]);
        let csr = CsrBuilder::new().build(&g);
        let d = bfs_parallel(&csr, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn parallel_equals_sequential_on_rmat() {
        let g = rmat(RmatParams::new(1 << 10, 1 << 14, 5)).symmetrized();
        let csr = CsrBuilder::new().build(&g);
        for source in [0u32, 7, 100, 1000] {
            assert_eq!(
                bfs_parallel(&csr, source),
                bfs_sequential(&csr, source),
                "source {source}"
            );
        }
    }

    #[test]
    fn runs_identically_on_packed_csr() {
        let g = rmat(RmatParams::new(512, 6_000, 9));
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        assert_eq!(bfs_parallel(&packed, 3), bfs_sequential(&csr, 3));
    }

    #[test]
    fn self_loops_and_duplicates_are_harmless() {
        let g = EdgeList::new(3, vec![(0, 0), (0, 1), (0, 1), (1, 2)]);
        let csr = CsrBuilder::new().build(&g);
        assert_eq!(bfs_parallel(&csr, 0), [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let csr = CsrBuilder::new().build(&EdgeList::new(2, vec![(0, 1)]));
        bfs_parallel(&csr, 5);
    }
}
