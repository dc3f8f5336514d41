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
//! [`parcsr_runtime::plan`] planner, so a run of hub queries does not land in
//! one processor's chunk.
//!
//! The kernels carry no per-query timer: a batch records one span and its
//! chunk spans, and per-query serving latency is the caller's to measure
//! (the closed-loop load driver times each request it issues).

use rayon::prelude::*;

use parcsr_bitpack::BLOCK_LEN;
use parcsr_graph::NodeId;
use parcsr_runtime::{chunk_ranges, plan, run_chunked_plan};

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

    /// Streams `u`'s sorted neighbor row in order as consecutive non-empty
    /// slices, calling `visit` on each until it returns `false` (early exit)
    /// or the row ends. The slices concatenate to the row.
    ///
    /// The default implementation materializes the row through
    /// [`row_into`](Self::row_into) and visits it in one call — correct for
    /// any source. The plain CSR passes its row slice in one call; the
    /// bit-packed CSR passes blocks of at most 64 ids decoded into a stack
    /// buffer, so each dynamic call covers a block, not a neighbor, and no
    /// query touches the heap.
    fn for_each_block_while(&self, u: NodeId, visit: &mut dyn FnMut(&[NodeId]) -> bool) {
        // LINT: alloc-ok(default fallback for sources without a native block path; both in-tree sources override it allocation-free)
        let mut row = Vec::new();
        self.row_into(u, &mut row);
        if !row.is_empty() {
            visit(&row);
        }
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

    fn for_each_block_while(&self, u: NodeId, visit: &mut dyn FnMut(&[NodeId]) -> bool) {
        let row = self.neighbors(u);
        if !row.is_empty() {
            visit(row);
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

    fn for_each_block_while(&self, u: NodeId, visit: &mut dyn FnMut(&[NodeId]) -> bool) {
        let mut blocks = self.row_blocks(u);
        let mut buf = [0; BLOCK_LEN];
        loop {
            let block = blocks.next_block(&mut buf);
            if block.is_empty() || !visit(block) {
                return;
            }
        }
    }
}

/// Cumulative degrees of a query batch's subject nodes: `prefix[i+1] -
/// prefix[i]` is the degree of query `i`, which is exactly the prefix-sum
/// shape [`plan`] weights by (the planner adds the constant per-query
/// charge itself).
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

/// True when a batch runs as one chunk, inline on the calling thread.
fn one_chunk(processors: usize, queries: usize) -> bool {
    processors <= 1 || queries <= 1
}

/// The one-chunk batch: answers every query inline and collects straight
/// into the result, with no degree prefix, plan, work vector or flatten. It
/// records the same `span` / `chunk_span` pair a one-chunk plan records;
/// their edge totals (the sum of `degree` over the queries) are taken only
/// while recording is on.
fn run_inline<Q, R>(
    span: &'static str,
    chunk_span: &'static str,
    queries: &[Q],
    degree: impl Fn(&Q) -> usize,
    answer: impl FnMut(&Q) -> R,
) -> Vec<R> {
    let edges = if parcsr_obs::is_enabled() {
        queries.iter().map(|q| degree(q) as u64).sum()
    } else {
        0
    };
    let _span = parcsr_obs::enter_with_args(span, parcsr_obs::SpanArgs::new().edges(edges));
    let _chunk = (!queries.is_empty()).then(|| {
        parcsr_obs::enter_with_args(
            chunk_span,
            parcsr_obs::SpanArgs::new()
                .chunk(0)
                .chunk_len(queries.len() as u64)
                .edges(edges),
        )
    });
    // LINT: alloc-ok(the single exactly-sized result vector the API returns)
    queries.iter().map(answer).collect()
}

/// One neighborhood query.
fn neighbors_query<S: NeighborSource>(source: &S, u: NodeId) -> Vec<NodeId> {
    // LINT: alloc-ok(the result row is the output; row_into sizes it exactly from the degree)
    let mut row = Vec::new();
    source.row_into(u, &mut row);
    row
}

/// Algorithm 6: answers an array of neighborhood queries, the query array
/// split into `processors` chunks answered concurrently. Result `i` is the
/// sorted neighbor row of `queries[i]`. Queries are weighted by
/// `degree + 1` so hub-heavy batches spread across processors. One
/// processor or one query runs inline as a single chunk.
pub fn neighbors_batch<S: NeighborSource>(
    source: &S,
    queries: &[NodeId],
    processors: usize,
) -> Vec<Vec<NodeId>> {
    if one_chunk(processors, queries.len()) {
        return run_inline(
            "query.neighbors",
            "query.neighbors.chunk",
            queries,
            |&u| source.degree(u),
            |&u| neighbors_query(source, u),
        );
    }
    let prefix = degree_prefix(source, queries.iter().copied(), queries.len());
    let _span = parcsr_obs::enter_with_args(
        "query.neighbors",
        parcsr_obs::SpanArgs::new().edges(*prefix.last().unwrap_or(&0)),
    );
    let plan = plan(&prefix, processors);
    let chunks: Vec<Vec<Vec<NodeId>>> = run_chunked_plan("query.neighbors.chunk", plan, |chunk| {
        queries[chunk.range.clone()]
            .iter()
            .map(|&u| neighbors_query(source, u))
            // LINT: alloc-ok(one exactly-sized result container per chunk; the rows it holds are the API output)
            .collect()
    });
    // LINT: alloc-ok(flattening chunk outputs into the single result vector the API returns)
    chunks.into_iter().flatten().collect()
}

/// Algorithm 7: answers an array of edge-existence queries, the query array
/// split into `processors` chunks. Each processor streams the source row
/// block by block through [`NeighborSource::for_each_block_while`] and
/// exits at the first neighbor ≥ the target (the paper's linear scan with
/// early exit on the sorted row) — no row materialization, no per-query
/// allocation. Queries are weighted by the source node's `degree + 1`, since
/// a linear scan's cost is the row length.
pub fn edges_exist_batch<S: NeighborSource>(
    source: &S,
    queries: &[(NodeId, NodeId)],
    processors: usize,
) -> Vec<bool> {
    batch_edge_queries(source, queries, processors, |source, u, v| {
        let mut found = false;
        source.for_each_block_while(u, &mut |block| match block.iter().position(|&w| w >= v) {
            Some(i) => {
                found = block[i] == v;
                false
            }
            None => true,
        });
        found
    })
}

/// The binary-search refinement of Algorithm 7 ("this could also be extended
/// to a binary search to speed up the process"): each query goes through the
/// source's native [`NeighborSource::has_edge`] path — binary search on a
/// plain CSR row slice, O(log deg) direct bit probes on a packed CSR. No
/// per-query allocation in either. Queries are weighted by `degree + 1`, as
/// in the other batch drivers.
pub fn edges_exist_batch_binary<S: NeighborSource>(
    source: &S,
    queries: &[(NodeId, NodeId)],
    processors: usize,
) -> Vec<bool> {
    batch_edge_queries(source, queries, processors, |source, u, v| {
        source.has_edge(u, v)
    })
}

fn batch_edge_queries<S: NeighborSource>(
    source: &S,
    queries: &[(NodeId, NodeId)],
    processors: usize,
    probe: impl Fn(&S, NodeId, NodeId) -> bool + Sync,
) -> Vec<bool> {
    let edge_query = |&(u, v): &(NodeId, NodeId)| probe(source, u, v);
    if one_chunk(processors, queries.len()) {
        return run_inline(
            "query.edges",
            "query.edges.chunk",
            queries,
            |&(u, _)| source.degree(u),
            edge_query,
        );
    }
    let prefix = degree_prefix(source, queries.iter().map(|&(u, _)| u), queries.len());
    let _span = parcsr_obs::enter_with_args(
        "query.edges",
        parcsr_obs::SpanArgs::new().edges(*prefix.last().unwrap_or(&0)),
    );
    let plan = plan(&prefix, processors);
    let chunks: Vec<Vec<bool>> = run_chunked_plan("query.edges.chunk", plan, |chunk| {
        queries[chunk.range.clone()]
            .iter()
            .map(edge_query)
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
    // LINT: alloc-ok(row must be materialized for random-access splitting; sized exactly once from the degree)
    let mut row = Vec::with_capacity(source.degree(u));
    source.row_into(u, &mut row);
    let ranges = chunk_ranges(row.len(), processors);
    ranges.par_iter().any(|r| row[r.clone()].contains(&v))
}

/// The binary-search variant of the single-edge query: each processor binary
/// searches its chunk of the sorted row.
pub fn edge_exists_split_binary<S: NeighborSource>(
    source: &S,
    u: NodeId,
    v: NodeId,
    processors: usize,
) -> bool {
    // LINT: alloc-ok(row must be materialized for random-access splitting; sized exactly once from the degree)
    let mut row = Vec::with_capacity(source.degree(u));
    source.row_into(u, &mut row);
    let ranges = chunk_ranges(row.len(), processors);
    ranges
        .par_iter()
        .any(|r| row[r.clone()].binary_search(&v).is_ok())
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
    fn results_independent_of_processors() {
        let (_, packed) = fixtures();
        let queries: Vec<NodeId> = (0..256).collect();
        let base = neighbors_batch(&packed, &queries, 1);
        for p in [2, 5, 31, 256] {
            assert_eq!(neighbors_batch(&packed, &queries, p), base, "p={p}");
        }
    }
}
