//! Parallel querying (Section V, Algorithms 6–9).
//!
//! Three query shapes, all generic over any structure that can produce a
//! node's neighbor row ([`NeighborSource`] — implemented by both the plain
//! [`Csr`] and the compressed [`BitPackedCsr`], since the whole point of the
//! paper is querying the *compressed* structure directly):
//!
//! * [`neighbors_batch`] (Algorithm 6 / Algorithm 9 first block): an array of
//!   neighborhood queries split across processors; each processor extracts
//!   rows with `GetRowFromCSR` for its slice of the query array.
//! * [`edges_exist_batch`] (Algorithm 7 / second block): an array of edge
//!   queries split across processors; each processor fetches the source row
//!   and scans it for the target. [`edges_exist_batch_binary`] is the
//!   binary-search refinement the paper mentions.
//! * [`edge_exists_split`] (Algorithm 8 / third block): a *single* query
//!   whose neighbor row is itself split into `p` chunks searched in
//!   parallel — worthwhile only for hub nodes, which the benches show.
//!
//! The batch drivers weight each query by the degree of its subject node
//! (plus a constant per-query charge) and split the batch with the shared
//! [`ChunkPolicy`] planner, so a run of hub queries no longer lands in one
//! processor's chunk. [`ChunkPolicy::Rows`] restores the historical
//! query-count split.
//!
//! Every individual query is additionally accounted into the serving
//! telemetry slabs (`parcsr_obs::serve`): latency per [`QueryKind`] per
//! degree class, feeding the sliding-window qps/percentile view the
//! closed-loop load driver and the future query server report against an
//! SLO. Like the spans, this compiles to nothing without the obs feature
//! and allocates nothing on the query path when it is on.

use rayon::prelude::*;

use parcsr_obs::serve::QueryKind;

use parcsr_graph::NodeId;
use parcsr_runtime::{run_chunked_plan, ChunkPolicy};
use parcsr_scan::chunk_ranges;

use crate::build::Csr;
use crate::packed::{BitPackedCsr, PackedCsrMode};

/// Anything that can produce a node's sorted neighbor row. The query
/// algorithms are written against this so they run identically on the plain
/// and the bit-packed CSR.
pub trait NeighborSource: Sync {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Out-degree of `u`.
    fn degree(&self, u: NodeId) -> usize;

    /// Decodes `u`'s sorted neighbor row into `out` (cleared first).
    fn row_into(&self, u: NodeId, out: &mut Vec<NodeId>);

    /// Edge existence using the source's native access path (binary search
    /// on a plain CSR row slice or over the packed bit array).
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// Streams `u`'s sorted neighbor row in order, calling `visit` on each
    /// neighbor until it returns `false` (early exit) or the row ends.
    ///
    /// The default implementation materializes the row through
    /// [`row_into`](Self::row_into) — correct for any source. Sources with a
    /// native streaming path (the bit-packed CSR's row cursor, the plain
    /// CSR's row slice) override this to visit neighbors without touching
    /// the heap; the batch query drivers below rely on that to stay
    /// allocation-free per query.
    fn for_each_neighbor_while(&self, u: NodeId, visit: &mut dyn FnMut(NodeId) -> bool) {
        // LINT: alloc-ok(default fallback for sources without a native streaming path; both in-tree sources override it allocation-free)
        let mut row = Vec::with_capacity(self.degree(u));
        self.row_into(u, &mut row);
        for &v in &row {
            if !visit(v) {
                return;
            }
        }
    }

    /// Streams `u`'s full sorted neighbor row through `visit` (no early
    /// exit).
    fn for_each_neighbor(&self, u: NodeId, visit: &mut dyn FnMut(NodeId)) {
        self.for_each_neighbor_while(u, &mut |v| {
            visit(v);
            true
        });
    }
}

impl NeighborSource for Csr {
    fn num_nodes(&self) -> usize {
        Csr::num_nodes(self)
    }

    fn degree(&self, u: NodeId) -> usize {
        Csr::degree(self, u)
    }

    fn row_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.neighbors(u));
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Csr::has_edge(self, u, v)
    }

    fn for_each_neighbor_while(&self, u: NodeId, visit: &mut dyn FnMut(NodeId) -> bool) {
        for &v in self.neighbors(u) {
            if !visit(v) {
                return;
            }
        }
    }
}

impl NeighborSource for BitPackedCsr {
    fn num_nodes(&self) -> usize {
        BitPackedCsr::num_nodes(self)
    }

    fn degree(&self, u: NodeId) -> usize {
        BitPackedCsr::degree(self, u)
    }

    fn row_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        BitPackedCsr::row_into(self, u, out)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        BitPackedCsr::has_edge(self, u, v)
    }

    fn for_each_neighbor_while(&self, u: NodeId, visit: &mut dyn FnMut(NodeId) -> bool) {
        for v in self.row_iter(u) {
            if !visit(v) {
                return;
            }
        }
    }
}

/// Cumulative degrees of a query batch's subject nodes: `prefix[i+1] -
/// prefix[i]` is the degree of query `i`, which is exactly the prefix-sum
/// shape [`ChunkPolicy::plan`] weights by (the planner adds the constant
/// per-query charge itself).
fn degree_prefix<S: NeighborSource>(
    source: &S,
    nodes: impl Iterator<Item = NodeId>,
    len: usize,
) -> Vec<u64> {
    // LINT: alloc-ok(one exactly-sized planner array per batch call, not per query)
    let mut prefix = Vec::with_capacity(len + 1);
    let mut cum = 0u64;
    prefix.push(cum);
    for u in nodes {
        cum += source.degree(u) as u64;
        prefix.push(cum);
    }
    prefix
}

/// Algorithm 6: answers an array of neighborhood queries, the query array
/// split into `processors` chunks answered concurrently. Result `i` is the
/// sorted neighbor row of `queries[i]`. Splits with the default
/// [`ChunkPolicy`] (edge-weighted); see [`neighbors_batch_with_chunking`].
pub fn neighbors_batch<S: NeighborSource>(
    source: &S,
    queries: &[NodeId],
    processors: usize,
) -> Vec<Vec<NodeId>> {
    neighbors_batch_with_chunking(source, queries, processors, ChunkPolicy::default())
}

/// [`neighbors_batch`] with an explicit chunking policy: queries are
/// weighted by `degree + 1` under [`ChunkPolicy::Edges`] so hub-heavy
/// batches spread across processors, or split by query count under
/// [`ChunkPolicy::Rows`]. The result is identical either way.
pub fn neighbors_batch_with_chunking<S: NeighborSource>(
    source: &S,
    queries: &[NodeId],
    processors: usize,
    policy: ChunkPolicy,
) -> Vec<Vec<NodeId>> {
    let prefix = degree_prefix(source, queries.iter().copied(), queries.len());
    let _span = parcsr_obs::enter_with_args(
        "query.neighbors",
        parcsr_obs::SpanArgs::new().edges(*prefix.last().unwrap_or(&0)),
    );
    let plan = policy.plan(&prefix, processors);
    let chunks: Vec<Vec<Vec<NodeId>>> = run_chunked_plan("query.neighbors.chunk", plan, |chunk| {
        // LINT: alloc-ok(one exactly-sized result container per chunk; the rows it holds are the API output)
        let mut out = Vec::with_capacity(chunk.range.len());
        for &u in &queries[chunk.range.clone()] {
            let deg = source.degree(u);
            let mut q = parcsr_obs::serve::query_start();
            q.source(u as u64);
            // The result row is the one unavoidable allocation (it is
            // the output); sized exactly from the packed degree so the
            // streaming fill never reallocates.
            // LINT: alloc-ok(the result row is the output, sized exactly from the packed degree so the streaming fill never reallocates)
            let mut row = Vec::with_capacity(deg);
            source.for_each_neighbor(u, &mut |v| row.push(v));
            q.finish(QueryKind::Neighbors, || deg);
            out.push(row);
        }
        out
    });
    // LINT: alloc-ok(flattening chunk outputs into the single result vector the API returns)
    chunks.into_iter().flatten().collect()
}

/// Algorithm 7: answers an array of edge-existence queries, the query array
/// split into `processors` chunks. Each processor streams the source row
/// through [`NeighborSource::for_each_neighbor_while`] and exits at the
/// first neighbor ≥ the target (the paper's linear scan with early exit on
/// the sorted row) — no row materialization, no per-query allocation.
pub fn edges_exist_batch<S: NeighborSource>(
    source: &S,
    queries: &[(NodeId, NodeId)],
    processors: usize,
) -> Vec<bool> {
    edges_exist_batch_with_chunking(source, queries, processors, ChunkPolicy::default())
}

/// [`edges_exist_batch`] with an explicit chunking policy: queries are
/// weighted by the source node's `degree + 1` under [`ChunkPolicy::Edges`]
/// (a linear scan's cost is the row length), or split by query count under
/// [`ChunkPolicy::Rows`]. The result is identical either way.
pub fn edges_exist_batch_with_chunking<S: NeighborSource>(
    source: &S,
    queries: &[(NodeId, NodeId)],
    processors: usize,
    policy: ChunkPolicy,
) -> Vec<bool> {
    batch_edge_queries(
        source,
        queries,
        processors,
        policy,
        QueryKind::EdgeScan,
        |source, u, v| {
            let mut found = false;
            source.for_each_neighbor_while(u, &mut |w| {
                if w >= v {
                    found = w == v;
                    false
                } else {
                    true
                }
            });
            found
        },
    )
}

/// The binary-search refinement of Algorithm 7 ("this could also be extended
/// to a binary search to speed up the process"): each query goes through the
/// source's native [`NeighborSource::has_edge`] path — binary search on a
/// plain CSR row slice, O(log deg) direct bit probes on a packed CSR. No
/// per-query allocation in either.
pub fn edges_exist_batch_binary<S: NeighborSource>(
    source: &S,
    queries: &[(NodeId, NodeId)],
    processors: usize,
) -> Vec<bool> {
    edges_exist_batch_binary_with_chunking(source, queries, processors, ChunkPolicy::default())
}

/// [`edges_exist_batch_binary`] with an explicit chunking policy. Queries
/// are weighted by `degree + 1`, as in the other batch drivers; the result
/// is identical under either policy.
pub fn edges_exist_batch_binary_with_chunking<S: NeighborSource>(
    source: &S,
    queries: &[(NodeId, NodeId)],
    processors: usize,
    policy: ChunkPolicy,
) -> Vec<bool> {
    batch_edge_queries(
        source,
        queries,
        processors,
        policy,
        QueryKind::EdgeBinary,
        |source, u, v| source.has_edge(u, v),
    )
}

fn batch_edge_queries<S: NeighborSource>(
    source: &S,
    queries: &[(NodeId, NodeId)],
    processors: usize,
    policy: ChunkPolicy,
    kind: QueryKind,
    probe: impl Fn(&S, NodeId, NodeId) -> bool + Sync,
) -> Vec<bool> {
    let prefix = degree_prefix(source, queries.iter().map(|&(u, _)| u), queries.len());
    let _span = parcsr_obs::enter_with_args(
        "query.edges",
        parcsr_obs::SpanArgs::new().edges(*prefix.last().unwrap_or(&0)),
    );
    let plan = policy.plan(&prefix, processors);
    let chunks: Vec<Vec<bool>> = run_chunked_plan("query.edges.chunk", plan, |chunk| {
        queries[chunk.range.clone()]
            .iter()
            .map(|&(u, v)| {
                let mut q = parcsr_obs::serve::query_start();
                q.source(u as u64);
                let hit = probe(source, u, v);
                q.finish(kind, || source.degree(u));
                hit
            })
            // LINT: alloc-ok(one exactly-sized bool vector per chunk; flattened below into the API result)
            .collect()
    });
    // LINT: alloc-ok(flattening chunk outputs into the single result vector the API returns)
    chunks.into_iter().flatten().collect()
}

/// Algorithm 8 (+ Algorithm 9 third block): single-edge existence with the
/// neighbor list split across `processors`. The row of `u` is fetched once,
/// divided into `p` chunks, and every chunk is scanned concurrently; any
/// processor finding `v` reports presence.
pub fn edge_exists_split<S: NeighborSource>(
    source: &S,
    u: NodeId,
    v: NodeId,
    processors: usize,
) -> bool {
    // Splitting one row across workers needs random access into it, so this
    // is the one query where materialization is unavoidable on a streaming
    // source; the buffer is sized exactly once from the degree.
    let mut q = parcsr_obs::serve::query_start();
    q.source(u as u64);
    // LINT: alloc-ok(row must be materialized for random-access splitting; sized exactly once from the degree)
    let mut row = Vec::with_capacity(source.degree(u));
    source.row_into(u, &mut row);
    let ranges = chunk_ranges(row.len(), processors);
    let found = ranges.par_iter().any(|r| row[r.clone()].contains(&v));
    q.finish(QueryKind::SplitSearch, || row.len());
    found
}

/// The binary-search variant of the single-edge query: each processor binary
/// searches its chunk of the sorted row.
pub fn edge_exists_split_binary<S: NeighborSource>(
    source: &S,
    u: NodeId,
    v: NodeId,
    processors: usize,
) -> bool {
    let mut q = parcsr_obs::serve::query_start();
    q.source(u as u64);
    // LINT: alloc-ok(row must be materialized for random-access splitting; sized exactly once from the degree)
    let mut row = Vec::with_capacity(source.degree(u));
    source.row_into(u, &mut row);
    let ranges = chunk_ranges(row.len(), processors);
    let found = ranges
        .par_iter()
        .any(|r| row[r.clone()].binary_search(&v).is_ok());
    q.finish(QueryKind::SplitSearch, || row.len());
    found
}

/// Convenience: run the three parallel query algorithms of Algorithm 9 in
/// one call against a packed CSR built on the fly. Mostly useful in examples
/// and smoke tests.
pub fn query_compressed(
    csr: &Csr,
    neighbor_queries: &[NodeId],
    edge_queries: &[(NodeId, NodeId)],
    single: Option<(NodeId, NodeId)>,
    processors: usize,
) -> (Vec<Vec<NodeId>>, Vec<bool>, Option<bool>) {
    let packed = BitPackedCsr::from_csr(csr, PackedCsrMode::Raw, processors);
    (
        neighbors_batch(&packed, neighbor_queries, processors),
        edges_exist_batch(&packed, edge_queries, processors),
        single.map(|(u, v)| edge_exists_split(&packed, u, v, processors)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CsrBuilder;
    use parcsr_graph::gen::{rmat, RmatParams};
    use parcsr_graph::EdgeList;

    fn fixtures() -> (Csr, BitPackedCsr) {
        let g = rmat(RmatParams::new(256, 4_000, 77));
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        (csr, packed)
    }

    #[test]
    fn neighbors_batch_matches_direct_access() {
        let (csr, packed) = fixtures();
        let queries: Vec<NodeId> = (0..256).step_by(3).collect();
        for p in [1, 2, 8] {
            let on_csr = neighbors_batch(&csr, &queries, p);
            let on_packed = neighbors_batch(&packed, &queries, p);
            for (i, &u) in queries.iter().enumerate() {
                assert_eq!(on_csr[i], csr.neighbors(u), "csr p={p} u={u}");
                assert_eq!(on_packed[i], csr.neighbors(u), "packed p={p} u={u}");
            }
        }
    }

    #[test]
    fn neighbors_batch_preserves_query_order_with_duplicates() {
        let (csr, _) = fixtures();
        let queries = vec![5, 5, 0, 200, 5];
        let r = neighbors_batch(&csr, &queries, 3);
        assert_eq!(r.len(), 5);
        assert_eq!(r[0], r[1]);
        assert_eq!(r[0], r[4]);
        assert_eq!(r[3], csr.neighbors(200));
    }

    #[test]
    fn edges_exist_batch_matches_has_edge() {
        let (csr, packed) = fixtures();
        let queries: Vec<(NodeId, NodeId)> = (0..256u32)
            .flat_map(|u| [(u, (u * 7) % 256), (u, (u * 13 + 1) % 256)])
            .collect();
        let want: Vec<bool> = queries.iter().map(|&(u, v)| csr.has_edge(u, v)).collect();
        for p in [1, 3, 16] {
            assert_eq!(edges_exist_batch(&csr, &queries, p), want, "csr p={p}");
            assert_eq!(
                edges_exist_batch(&packed, &queries, p),
                want,
                "packed p={p}"
            );
            assert_eq!(
                edges_exist_batch_binary(&packed, &queries, p),
                want,
                "binary p={p}"
            );
        }
    }

    #[test]
    fn single_edge_split_agrees() {
        let (csr, packed) = fixtures();
        for u in (0..256u32).step_by(17) {
            for v in (0..256u32).step_by(23) {
                let want = csr.has_edge(u, v);
                for p in [1, 2, 4] {
                    assert_eq!(edge_exists_split(&packed, u, v, p), want, "({u},{v}) p={p}");
                    assert_eq!(
                        edge_exists_split_binary(&packed, u, v, p),
                        want,
                        "bin ({u},{v}) p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_query_arrays() {
        let (csr, _) = fixtures();
        assert!(neighbors_batch(&csr, &[], 4).is_empty());
        assert!(edges_exist_batch(&csr, &[], 4).is_empty());
    }

    #[test]
    fn queries_on_isolated_nodes() {
        let g = EdgeList::new(10, vec![(0, 1)]);
        let csr = CsrBuilder::new().build(&g);
        let r = neighbors_batch(&csr, &[9, 0], 2);
        assert!(r[0].is_empty());
        assert_eq!(r[1], [1]);
        assert!(!edge_exists_split(&csr, 9, 0, 4));
    }

    #[test]
    fn split_search_on_hub_row() {
        // A hub with a long row: the split search must find targets in every
        // chunk position.
        let edges: Vec<(NodeId, NodeId)> = (0..1000).map(|v| (0, v)).collect();
        let g = EdgeList::new(1001, edges);
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        for v in [0u32, 1, 499, 500, 998, 999] {
            assert!(edge_exists_split(&packed, 0, v, 8), "v={v}");
        }
        assert!(!edge_exists_split(&packed, 0, 1000, 8));
    }

    #[test]
    fn query_compressed_smoke() {
        let (csr, _) = fixtures();
        let (hoods, exists, single) =
            query_compressed(&csr, &[1, 2], &[(1, 2), (2, 1)], Some((3, 4)), 4);
        assert_eq!(hoods.len(), 2);
        assert_eq!(exists.len(), 2);
        assert_eq!(single, Some(csr.has_edge(3, 4)));
        assert_eq!(hoods[0], csr.neighbors(1));
    }

    #[test]
    fn chunk_policy_does_not_change_query_results() {
        let (csr, packed) = fixtures();
        // Front-load hub queries so the weighted plan actually differs from
        // the count split.
        let mut queries: Vec<NodeId> = (0..256).collect();
        queries.sort_by_key(|&u| std::cmp::Reverse(csr.degree(u)));
        let edge_queries: Vec<(NodeId, NodeId)> =
            queries.iter().map(|&u| (u, (u * 31) % 256)).collect();
        for p in [1, 2, 7, 64] {
            let rows = neighbors_batch_with_chunking(&packed, &queries, p, ChunkPolicy::Rows);
            let edges = neighbors_batch_with_chunking(&packed, &queries, p, ChunkPolicy::Edges);
            assert_eq!(rows, edges, "neighbors p={p}");
            let rows =
                edges_exist_batch_with_chunking(&packed, &edge_queries, p, ChunkPolicy::Rows);
            let edges =
                edges_exist_batch_with_chunking(&packed, &edge_queries, p, ChunkPolicy::Edges);
            assert_eq!(rows, edges, "edges p={p}");
            let rows = edges_exist_batch_binary_with_chunking(
                &packed,
                &edge_queries,
                p,
                ChunkPolicy::Rows,
            );
            let edges = edges_exist_batch_binary_with_chunking(
                &packed,
                &edge_queries,
                p,
                ChunkPolicy::Edges,
            );
            assert_eq!(rows, edges, "binary p={p}");
        }
    }

    #[test]
    fn results_independent_of_processors() {
        let (_, packed) = fixtures();
        let queries: Vec<NodeId> = (0..256).collect();
        let base = neighbors_batch(&packed, &queries, 1);
        for p in [2, 5, 31, 256] {
            assert_eq!(neighbors_batch(&packed, &queries, p), base, "p={p}");
        }
    }
}
