//! Algorithms 2 and 3: parallel degree computation.
//!
//! The edge list, sorted by source node, is split into one chunk per
//! processor. Because it is sorted, the only node that can be shared between
//! two adjacent chunks is the one straddling the boundary — so every chunk
//! counts its *first* node into a per-processor side array
//! (`globalTempDegree` in the paper), writes the counts of all its remaining
//! nodes straight into the global degree array (guaranteed conflict-free),
//! and a final merge pass folds the side array back in (Figure 3).
//!
//! Rust cannot express "these plain stores are disjoint by construction"
//! safely, so the global array is a `Vec<AtomicU32>` written with relaxed
//! stores — free of read-modify-write traffic on the hot path, which is the
//! actual point of the paper's side-array design. The [`degrees_atomic`]
//! ablation shows what the design avoids: one `fetch_add` per *edge* instead
//! of one store per *node run*.

// ORDERING: Relaxed throughout — every store/fetch_add hits its own
// node's cell, and all cells are read only after the chunk collect()
// barrier (the paper's sync()).
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use rayon::prelude::*;

use parcsr_graph::{Edge, NodeId};
use parcsr_runtime::chunk_ranges;

/// One chunk of Algorithm 2 over a source-sorted `chunk`: emits every
/// complete (non-head) node run through `emit` and returns the head node
/// with its in-chunk count — the entry destined for the side array.
///
/// Shared between the shipped kernel (where `emit` is a relaxed store into
/// the global degree array) and the `cfg(parcsr_check)` model (where `emit`
/// writes an instrumented [`parcsr_check::Slice`]), so the checker verifies
/// the very run-splitting logic that ships.
fn count_chunk_runs(
    chunk: &[Edge],
    num_nodes: usize,
    mut emit: impl FnMut(NodeId, u32),
) -> (NodeId, u32) {
    let head = chunk[0].0;
    assert!((head as usize) < num_nodes, "node {head} out of range");
    let mut i = 0;
    while i < chunk.len() && chunk[i].0 == head {
        i += 1;
    }
    let head_count = i as u32;

    while i < chunk.len() {
        let node = chunk[i].0;
        assert!((node as usize) < num_nodes, "node {node} out of range");
        let run_start = i;
        while i < chunk.len() && chunk[i].0 == node {
            i += 1;
        }
        // Disjointness argument: `node` is not the chunk's head, and a
        // sorted list means any node spanning a boundary is the *head* of
        // every later chunk it touches — so exactly one chunk emits `node`.
        emit(node, (i - run_start) as u32);
    }
    (head, head_count)
}

/// Computes the out-degree array of a **source-sorted** edge list using
/// `processors` chunks (Algorithms 2–3).
///
/// Equivalent to [`parcsr_graph::EdgeList::degrees_sequential`] for every
/// sorted input and every processor count.
///
/// # Panics
///
/// Panics if the edge list is not sorted by source, or if an endpoint is
/// `>= num_nodes`.
pub fn degrees_parallel(edges: &[Edge], num_nodes: usize, processors: usize) -> Vec<u32> {
    assert!(
        edges.windows(2).all(|w| w[0].0 <= w[1].0),
        "degrees_parallel requires an edge list sorted by source"
    );
    let global: Vec<AtomicU32> = (0..num_nodes).map(|_| AtomicU32::new(0)).collect();
    let ranges = chunk_ranges(edges.len(), processors);

    // Algorithm 2, per chunk: count the head node into the side array, write
    // every other node's run length directly to the global array. The plain
    // relaxed stores are sound by `count_chunk_runs`'s disjointness
    // argument (schedule-checked in `checked::degrees_model`).
    let temp_degrees: Vec<(NodeId, u32)> = ranges
        .par_iter()
        .enumerate()
        .map(|(i, r)| {
            let _span = parcsr_obs::enter_with_args(
                "degree.chunk",
                parcsr_obs::SpanArgs::new()
                    .chunk(i as u64)
                    .chunk_len(r.len() as u64),
            );
            count_chunk_runs(&edges[r.clone()], num_nodes, |node, run_len| {
                global[node as usize].store(run_len, Relaxed);
            })
        })
        .collect();
    // The collect() above is the paper's sync(): all chunk passes complete
    // before the merge.

    let mut degrees: Vec<u32> = global.into_iter().map(AtomicU32::into_inner).collect();

    // Algorithm 3's merge: fold each chunk's head count back in. Multiple
    // chunks may share a head node (a hub spanning several chunks), hence
    // `+=` rather than a store.
    parcsr_obs::with_span("degree.merge", || {
        for (node, count) in temp_degrees {
            degrees[node as usize] += count;
        }
    });
    degrees
}

/// Ablation comparator: degree counting with one atomic `fetch_add` per edge,
/// no sortedness requirement. Benchmarked against [`degrees_parallel`] to
/// quantify the value of the paper's side-array design (DESIGN.md ablation
/// "boundary side-array").
pub fn degrees_atomic(edges: &[Edge], num_nodes: usize) -> Vec<u32> {
    let global: Vec<AtomicU32> = (0..num_nodes).map(|_| AtomicU32::new(0)).collect();
    edges.par_iter().for_each(|&(u, _)| {
        assert!((u as usize) < num_nodes, "node {u} out of range");
        global[u as usize].fetch_add(1, Relaxed);
    });
    global.into_iter().map(AtomicU32::into_inner).collect()
}

/// Schedule-checked model of Algorithms 2–3 (compiled only under
/// `--cfg parcsr_check`).
#[cfg(parcsr_check)]
pub mod checked {
    use std::sync::Arc;

    use parcsr_check as check;
    use parcsr_graph::{Edge, NodeId};
    use parcsr_runtime::chunk_ranges;

    use super::count_chunk_runs;

    /// Known-bad variants of the degree kernel, used to validate the checker.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DegreeFault {
        /// The shipped side-array structure (must be race-free).
        None,
        /// Drops the side array: each chunk writes its head node's in-chunk
        /// count straight into the global array. Racy whenever a node's run
        /// straddles a chunk boundary — exactly the overlap the paper's
        /// `globalTempDegree` exists to avoid.
        DropSideArray,
    }

    /// Model of `degrees_parallel` over instrumented shared memory: one
    /// logical thread per chunk writing the shared degree array through
    /// [`check::Slice`], joins as the sync before the side-array merge. Runs
    /// the *same* `count_chunk_runs` chunk pass as the shipped kernel. Must
    /// be called inside [`parcsr_check::model`] / [`parcsr_check::check`].
    pub fn degrees_model(
        edges: Vec<Edge>,
        num_nodes: usize,
        processors: usize,
        fault: DegreeFault,
    ) -> Vec<u32> {
        let ranges = chunk_ranges(edges.len(), processors);
        let degrees = check::Slice::new(vec![0u32; num_nodes]).named("degree.global");
        let edges = Arc::new(edges);

        let workers: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let degrees = degrees.clone();
                let edges = Arc::clone(&edges);
                check::spawn(move || {
                    let (head, head_count) =
                        count_chunk_runs(&edges[r], num_nodes, |node, run_len| {
                            degrees.write(node as usize, run_len);
                        });
                    match fault {
                        // Shipped: the head count goes to the side array,
                        // carried back through join.
                        DegreeFault::None => Some((head, head_count)),
                        // Seeded race: write the head in-chunk. Two chunks
                        // sharing a straddling node now write its slot
                        // concurrently.
                        DegreeFault::DropSideArray => {
                            let prev = degrees.read(head as usize);
                            degrees.write(head as usize, prev + head_count);
                            None
                        }
                    }
                })
            })
            .collect();
        let side: Vec<Option<(NodeId, u32)>> = workers.into_iter().map(|h| h.join()).collect();
        // All joins above are the sync(); the merge below runs on the
        // coordinator, ordered after every chunk write.

        for (node, count) in side.into_iter().flatten() {
            let prev = degrees.read(node as usize);
            degrees.write(node as usize, prev + count);
        }
        degrees.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr_graph::gen::{rmat, RmatParams};

    fn sorted_edges(n: usize, m: usize, seed: u64) -> (Vec<Edge>, usize) {
        let g = rmat(RmatParams::new(n, m, seed)).sorted_by_source();
        let n = g.num_nodes();
        (g.into_edges(), n)
    }

    #[test]
    fn matches_sequential_for_all_processor_counts() {
        let (edges, n) = sorted_edges(1 << 10, 20_000, 3);
        let want = {
            let mut d = vec![0u32; n];
            for &(u, _) in &edges {
                d[u as usize] += 1;
            }
            d
        };
        for p in [1, 2, 3, 4, 7, 8, 16, 64, 1000] {
            assert_eq!(degrees_parallel(&edges, n, p), want, "p={p}");
        }
        assert_eq!(degrees_atomic(&edges, n), want);
    }

    #[test]
    fn figure_3_example() {
        // Mirrors the paper's Figure 3: chunks overlapping on boundary nodes.
        let edges: Vec<Edge> = vec![
            (0, 1),
            (0, 2),
            (1, 0), // chunk 1 ends inside node 1's run
            (1, 2),
            (2, 0),
            (2, 1), // chunk 2: head 1 (overlap), then 2
            (3, 0),
            (4, 0),
            (5, 1),
            (5, 2),
            (5, 3),
            (5, 4), // node 5 spans two chunks
        ];
        for p in [1, 2, 3, 4, 6, 12] {
            assert_eq!(degrees_parallel(&edges, 6, p), [2, 2, 2, 1, 1, 4], "p={p}");
        }
    }

    #[test]
    fn hub_spanning_many_chunks() {
        // One node owns nearly every edge: with many chunks, most chunks'
        // head is that node and the merge accumulates all the side counts.
        let mut edges: Vec<Edge> = (0..1000).map(|i| (5u32, (i % 64) as u32)).collect();
        edges.push((7, 0));
        edges.sort_unstable();
        let d = degrees_parallel(&edges, 64, 16);
        assert_eq!(d[5], 1000);
        assert_eq!(d[7], 1);
        assert_eq!(d.iter().map(|&x| x as usize).sum::<usize>(), 1001);
    }

    #[test]
    fn empty_edges() {
        assert_eq!(degrees_parallel(&[], 5, 4), vec![0; 5]);
        assert_eq!(degrees_atomic(&[], 5), vec![0; 5]);
    }

    #[test]
    fn single_edge() {
        assert_eq!(degrees_parallel(&[(2, 0)], 4, 8), [0, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "sorted by source")]
    fn rejects_unsorted() {
        degrees_parallel(&[(3, 0), (1, 0)], 4, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        degrees_parallel(&[(0, 0), (9, 0)], 5, 2);
    }

    #[test]
    fn isolated_trailing_nodes_have_zero_degree() {
        let d = degrees_parallel(&[(0, 1), (1, 0)], 10, 2);
        assert_eq!(&d[2..], &[0; 8]);
    }
}
