//! Parallel CSR construction (Section III).
//!
//! Two pipelines share the paper's degree → prefix sum → fill shape:
//!
//! * [`CsrBuilder::build_from_sorted`] is the paper's, over an edge list
//!   sorted by source (the precondition of Algorithm 2): the degree array in
//!   parallel (Algorithms 2–3), its prefix sum into row offsets
//!   (Algorithm 1), then the fill. Because the list is sorted by
//!   `(source, target)`, the column array *is* its target column, so the
//!   fill is a parallel copy and every row comes out sorted. Table II and
//!   Figures 6–7 time this path.
//! * [`CsrBuilder::build`] takes any edge list and runs the same three steps
//!   in counting-sort form (`parcsr_graph::sort`): per-chunk source
//!   histograms are the degrees, Algorithm 1 scans them into offsets, one
//!   parallel scatter buckets the targets into their rows, and rows not
//!   already sorted are sorted in place. The edge list is neither cloned nor
//!   sorted.
//!
//! Both produce the canonical CSR — rows sorted ascending, duplicates kept —
//! which the query algorithms exploit for binary search.

use std::time::Instant;

use parcsr_graph::sort::SourceCounts;
use parcsr_graph::{EdgeList, NodeId};
use parcsr_runtime::{plan, run_chunked, split_mut_by_ranges, Chunk};
use parcsr_scan::inclusive_scan_chunked;

use crate::degree::degrees_parallel;

/// A Compressed Sparse Row graph: `offsets` (the paper's `iA`, as row start
/// indices) and `targets` (the paper's `jA`). Unweighted, so there is no
/// value array (`vA`) — "an unweighted array is also a boolean array".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    num_nodes: usize,
    /// `num_nodes + 1` row offsets; row `u` occupies
    /// `targets[offsets[u]..offsets[u+1]]`.
    offsets: Vec<u64>,
    /// Concatenated neighbor lists, each sorted ascending.
    targets: Vec<NodeId>,
}

impl Csr {
    /// Sequential reference constructor (counting sort). The `p = 1` ground
    /// truth the parallel builder is verified against.
    pub fn from_edge_list_sequential(graph: &EdgeList) -> Csr {
        let n = graph.num_nodes();
        let degrees = graph.degrees_sequential();
        let mut offsets = vec![0u64; n + 1];
        for u in 0..n {
            offsets[u + 1] = offsets[u] + u64::from(degrees[u]);
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; graph.num_edges()];
        for &(u, v) in graph.edges() {
            let slot = cursor[u as usize];
            targets[slot as usize] = v;
            cursor[u as usize] += 1;
        }
        // Counting sort preserves input order within a row; sort each row so
        // all constructors agree on a canonical CSR.
        for u in 0..n {
            let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
            targets[s..e].sort_unstable();
        }
        Csr {
            num_nodes: n,
            offsets,
            targets,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        assert!(u < self.num_nodes, "node {u} out of range");
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// The sorted neighbor list of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let i = u as usize;
        assert!(i < self.num_nodes, "node {u} out of range");
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Edge-existence via binary search on the sorted row. `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The row offset array (`iA`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The column array (`jA`).
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Heap bytes of the uncompressed structure (offsets + targets).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
    }

    /// Internal consistency check: offsets monotone, bounds meet the edge
    /// count, rows sorted, targets in range. Used by tests and debug
    /// assertions; `O(n + m)`.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.num_nodes + 1 {
            return Err(format!(
                "offsets length {} != num_nodes + 1 = {}",
                self.offsets.len(),
                self.num_nodes + 1
            ));
        }
        if self.offsets.first() != Some(&0) {
            return Err("offsets must start at 0".into());
        }
        if *self.offsets.last().unwrap() != self.targets.len() as u64 {
            return Err(format!(
                "last offset {} != edge count {}",
                self.offsets.last().unwrap(),
                self.targets.len()
            ));
        }
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets must be non-decreasing".into());
            }
        }
        for u in 0..self.num_nodes {
            let row = &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize];
            if !row.windows(2).all(|w| w[0] <= w[1]) {
                return Err(format!("row {u} is not sorted"));
            }
            if let Some(&bad) = row.iter().find(|&&v| v as usize >= self.num_nodes) {
                return Err(format!("row {u} references out-of-range node {bad}"));
            }
        }
        Ok(())
    }
}

/// Wall-clock milliseconds per construction stage — what Figure 6's curves
/// decompose into.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BuildTimings {
    /// [`CsrBuilder::build`]: the parallel in-row sort after the scatter
    /// (rows already sorted are only checked). 0 from
    /// [`CsrBuilder::build_from_sorted`], whose input arrives sorted.
    pub sort_ms: f64,
    /// The degree array: per-chunk source histograms, summed
    /// ([`CsrBuilder::build`]), or Algorithms 2–3 over the sorted list
    /// ([`CsrBuilder::build_from_sorted`]).
    pub degree_ms: f64,
    /// Prefix-sum of the degree array into row offsets (Algorithm 1).
    pub scan_ms: f64,
    /// The column array: per-(chunk, node) cursors and the parallel scatter
    /// of targets into their rows ([`CsrBuilder::build`]), or the parallel
    /// copy of the sorted list's target column
    /// ([`CsrBuilder::build_from_sorted`]).
    pub fill_ms: f64,
}

impl BuildTimings {
    /// Total construction time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.sort_ms + self.degree_ms + self.scan_ms + self.fill_ms
    }
}

/// Configurable parallel CSR builder.
#[derive(Debug, Clone, Copy)]
pub struct CsrBuilder {
    processors: usize,
}

impl CsrBuilder {
    /// Builder with one chunk per current rayon thread.
    pub fn new() -> Self {
        CsrBuilder {
            processors: rayon::current_num_threads(),
        }
    }

    /// Sets the logical processor count (number of chunks).
    pub fn processors(mut self, p: usize) -> Self {
        self.processors = p.max(1);
        self
    }

    /// Builds the CSR from an edge list in any order, with the counting
    /// build (see the module docs).
    pub fn build(&self, graph: &EdgeList) -> Csr {
        self.build_timed(graph).0
    }

    /// Builds the CSR with the counting build and reports per-stage timings.
    pub fn build_timed(&self, graph: &EdgeList) -> (Csr, BuildTimings) {
        let n = graph.num_nodes();
        let m = graph.num_edges();
        let p = self.processors;
        let mut timings = BuildTimings::default();

        // Degrees: per-chunk source histograms, summed.
        let t = Instant::now();
        let counts = SourceCounts::count(graph.edges(), n, p);
        let degrees = counts.degrees();
        timings.degree_ms = ms_since(t);

        // Algorithm 1: prefix sum -> row offsets.
        let t = Instant::now();
        let offsets =
            parcsr_obs::with_span_args("scan", parcsr_obs::SpanArgs::new().edges(n as u64), || {
                self.scan_offsets(degrees.iter().copied())
            });
        drop(degrees);
        timings.scan_ms = ms_since(t);

        // Fill: each target scattered into its row, in input order.
        let t = Instant::now();
        let mut targets = counts.scatter(&offsets);
        timings.fill_ms = ms_since(t);

        // Sort each row that the input order left unsorted.
        let t = Instant::now();
        parcsr_obs::with_span_args("sort", parcsr_obs::SpanArgs::new().edges(m as u64), || {
            run_chunked(
                "sort.chunk",
                row_chunks(&offsets, p, &mut targets),
                |chunk, out: &mut [NodeId]| {
                    let first = offsets[chunk.range.start];
                    for u in chunk.range.clone() {
                        let row = &mut out
                            [(offsets[u] - first) as usize..(offsets[u + 1] - first) as usize];
                        if !row.is_sorted() {
                            row.sort_unstable();
                        }
                    }
                },
            );
        });
        timings.sort_ms = ms_since(t);

        let csr = Csr {
            num_nodes: n,
            offsets,
            targets,
        };
        debug_assert_eq!(csr.validate(), Ok(()));
        (csr, timings)
    }

    /// Builds from an already-sorted edge list (the paper's assumed input;
    /// skips the sort stage).
    ///
    /// # Panics
    ///
    /// Panics if the edge list is not sorted by source.
    pub fn build_from_sorted(&self, graph: &EdgeList) -> (Csr, BuildTimings) {
        let mut timings = BuildTimings::default();
        let csr = self.build_from_sorted_inner(graph, &mut timings);
        (csr, timings)
    }

    fn build_from_sorted_inner(&self, sorted: &EdgeList, timings: &mut BuildTimings) -> Csr {
        let n = sorted.num_nodes();
        let p = self.processors;

        // Algorithms 2-3: parallel degree array.
        let t = Instant::now();
        let degrees = parcsr_obs::with_span_args(
            "degree",
            parcsr_obs::SpanArgs::new().edges(sorted.num_edges() as u64),
            || degrees_parallel(sorted.edges(), n, p),
        );
        timings.degree_ms = ms_since(t);

        // Algorithm 1: prefix sum -> row offsets (exclusive scan, one extra
        // trailing slot holding the total).
        let t = Instant::now();
        let offsets =
            parcsr_obs::with_span_args("scan", parcsr_obs::SpanArgs::new().edges(n as u64), || {
                self.scan_offsets(degrees.iter().map(|&d| u64::from(d)))
            });
        timings.scan_ms = ms_since(t);

        // Column fill: the sorted edge list's target column, copied in
        // edge-weighted row chunks.
        let t = Instant::now();
        let targets: Vec<NodeId> = parcsr_obs::with_span_args(
            "scatter",
            parcsr_obs::SpanArgs::new().edges(sorted.num_edges() as u64),
            || {
                let mut targets = vec![0 as NodeId; sorted.num_edges()];
                run_chunked(
                    "scatter.chunk",
                    row_chunks(&offsets, p, &mut targets),
                    |chunk, out: &mut [NodeId]| {
                        let first = offsets[chunk.range.start] as usize;
                        let src = &sorted.edges()[first..first + out.len()];
                        for (slot, &(_, v)) in out.iter_mut().zip(src) {
                            *slot = v;
                        }
                    },
                );
                targets
            },
        );
        timings.fill_ms = ms_since(t);

        let csr = Csr {
            num_nodes: n,
            offsets,
            targets,
        };
        debug_assert_eq!(csr.validate(), Ok(()));
        csr
    }

    /// Algorithm 1: the row offsets, i.e. the exclusive prefix sum of
    /// `degrees` plus a trailing slot holding the edge count, computed as
    /// the inclusive scan of one `[0, degrees…]` buffer.
    fn scan_offsets(&self, degrees: impl ExactSizeIterator<Item = u64>) -> Vec<u64> {
        let mut offsets = Vec::with_capacity(degrees.len() + 1);
        offsets.push(0);
        offsets.extend(degrees);
        inclusive_scan_chunked(&mut offsets, self.processors);
        offsets
    }
}

/// `targets` cut at the row boundaries of [`plan`]'s edge-weighted row
/// chunks, so a hub row's edges stay inside one worker's chunk instead of
/// inflating a row-balanced one.
fn row_chunks<'a>(
    offsets: &[u64],
    processors: usize,
    targets: &'a mut [NodeId],
) -> Vec<(Chunk, &'a mut [NodeId])> {
    let plan = plan(offsets, processors);
    let edge_ranges: Vec<_> = plan
        .iter()
        .map(|c| offsets[c.range.start] as usize..offsets[c.range.end] as usize)
        .collect();
    plan.into_iter()
        .zip(split_mut_by_ranges(targets, &edge_ranges))
        .collect()
}

impl Default for CsrBuilder {
    fn default() -> Self {
        CsrBuilder::new()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr_graph::gen::{rmat, RmatParams};

    fn paper_example() -> EdgeList {
        // The 10-node graph of Table I (upper triangular + mirrored rows as
        // printed in the matrix).
        EdgeList::new(
            10,
            vec![
                (0, 5),
                (1, 6),
                (1, 7),
                (2, 7),
                (3, 8),
                (3, 9),
                (4, 9),
                (5, 0),
                (6, 1),
                (7, 1),
                (7, 2),
                (8, 2),
                (8, 3),
                (9, 3),
            ],
        )
    }

    #[test]
    fn paper_table_i_graph() {
        let csr = CsrBuilder::new().build(&paper_example());
        assert_eq!(csr.num_nodes(), 10);
        assert_eq!(csr.num_edges(), 14);
        assert_eq!(csr.neighbors(1), [6, 7]);
        assert_eq!(csr.neighbors(7), [1, 2]);
        assert_eq!(csr.degree(0), 1);
        assert!(csr.has_edge(3, 9));
        assert!(!csr.has_edge(3, 7));
        assert_eq!(csr.validate(), Ok(()));
    }

    #[test]
    fn parallel_matches_sequential_reference() {
        let g = rmat(RmatParams::new(1 << 9, 10_000, 17));
        let want = Csr::from_edge_list_sequential(&g);
        for p in [1, 2, 4, 8, 32] {
            let got = CsrBuilder::new().processors(p).build(&g);
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = EdgeList::new(0, vec![]);
        let csr = CsrBuilder::new().build(&g);
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.offsets(), [0]);
        assert_eq!(csr.validate(), Ok(()));
    }

    #[test]
    fn nodes_without_edges() {
        let g = EdgeList::new(6, vec![(2, 3)]);
        let csr = CsrBuilder::new().build(&g);
        assert_eq!(csr.degree(0), 0);
        assert_eq!(csr.degree(2), 1);
        assert_eq!(csr.degree(5), 0);
        assert!(csr.neighbors(5).is_empty());
    }

    #[test]
    fn duplicate_edges_are_preserved() {
        // Multigraph input: CSR stores both copies (dedup is the caller's
        // choice via EdgeList::deduped).
        let g = EdgeList::new(3, vec![(0, 1), (0, 1), (1, 2)]);
        let csr = CsrBuilder::new().build(&g);
        assert_eq!(csr.neighbors(0), [1, 1]);
        assert_eq!(csr.num_edges(), 3);
    }

    #[test]
    fn counting_build_matches_sorted_build_on_sorted_input() {
        // A source-sorted list leaves every row sorted after the scatter, so
        // the in-row sort only checks; the result is the paper path's.
        let g = rmat(RmatParams::new(512, 8_000, 5)).sorted_by_source();
        let want = CsrBuilder::new().build_from_sorted(&g).0;
        for p in [1, 2, 3, 8] {
            assert_eq!(CsrBuilder::new().processors(p).build(&g), want, "p={p}");
        }
    }

    #[test]
    fn many_processors_few_edges_stays_small() {
        // n = 2^24, m = 1 at p = 64: the histogram count follows m / n, so
        // this allocates one 64 MiB histogram, not 64 of them (4 GiB).
        let g = EdgeList::new(1 << 24, vec![(0, 1)]);
        let csr = CsrBuilder::new().processors(64).build(&g);
        assert_eq!(csr.num_nodes(), 1 << 24);
        assert_eq!(csr.neighbors(0), [1]);
        assert_eq!(csr.offsets()[1..].iter().min(), Some(&1));
        assert_eq!(csr.offsets().last(), Some(&1));
    }

    #[test]
    fn build_from_sorted_skips_sort() {
        let g = rmat(RmatParams::new(256, 2_000, 9)).sorted_by_source();
        let (csr, timings) = CsrBuilder::new().build_from_sorted(&g);
        assert_eq!(timings.sort_ms, 0.0);
        assert!(timings.total_ms() >= 0.0);
        assert_eq!(csr.num_edges(), 2_000);
    }

    #[test]
    fn timings_cover_all_stages() {
        let g = rmat(RmatParams::new(1 << 10, 50_000, 2));
        let (_, t) = CsrBuilder::new().build_timed(&g);
        assert!(t.sort_ms > 0.0);
        assert!(t.total_ms() >= t.sort_ms + t.degree_ms);
    }

    #[test]
    fn rows_are_sorted_for_binary_search() {
        let g = rmat(RmatParams::new(512, 8_000, 33));
        let csr = CsrBuilder::new().build(&g);
        for u in 0..csr.num_nodes() as NodeId {
            let row = csr.neighbors(u);
            assert!(row.windows(2).all(|w| w[0] <= w[1]), "row {u}");
        }
    }

    #[test]
    fn validate_catches_corruption() {
        let g = EdgeList::new(3, vec![(0, 1), (1, 2)]);
        let mut csr = CsrBuilder::new().build(&g);
        csr.offsets[1] = 99;
        assert!(csr.validate().is_err());
    }

    #[test]
    fn heap_bytes_accounting() {
        let g = EdgeList::new(2, vec![(0, 1)]);
        let csr = CsrBuilder::new().build(&g);
        // 3 offsets * 8 + 1 target * 4.
        assert_eq!(csr.heap_bytes(), 28);
    }
}
