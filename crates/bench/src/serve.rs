//! The closed-loop driver's run record: one [`QuerySlab`] per client.
//!
//! A slab is a `(QueryKind, DegreeClass)` grid of log-bucketed
//! [`Histogram`]s plus the [`EXEMPLARS_PER_SHARD`] slowest queries the
//! client saw. Each client thread owns its slab, one shard of the run's
//! record, and records into it with no sharing
//! ([`QuerySlab::record_query`]: one latency per query); the driver merges
//! the slabs once, after the clients join ([`QuerySlab::merge`]). Log
//! bucketing is deterministic, so the merged slab equals one slab that
//! recorded every query itself, and its rollups account for every query
//! exactly.

use crate::histogram::{Histogram, HistogramSummary};

/// Query types the serving path accounts for, matching the paper's
/// query-algorithm families (Algorithms 6–9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Algorithm 6: neighborhood materialization (`neighbors_batch`).
    Neighbors,
    /// Algorithm 7, linear variant: edge-existence row scan
    /// (`edges_exist_batch`).
    EdgeScan,
    /// Algorithm 7, binary variant: edge-existence binary search over the
    /// decoded row (`edges_exist_batch_binary`).
    EdgeBinary,
    /// Algorithm 8/9: split-row search (`edge_exists_split[_binary]`).
    SplitSearch,
}

/// Number of [`QueryKind`] variants (slab cell dimension).
pub const NUM_QUERY_KINDS: usize = 4;

impl QueryKind {
    /// All kinds, in slab-index order.
    pub const ALL: [QueryKind; NUM_QUERY_KINDS] = [
        QueryKind::Neighbors,
        QueryKind::EdgeScan,
        QueryKind::EdgeBinary,
        QueryKind::SplitSearch,
    ];

    /// Stable slab index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in event/JSON schemas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Neighbors => "neighbors",
            QueryKind::EdgeScan => "edge_scan",
            QueryKind::EdgeBinary => "edge_binary",
            QueryKind::SplitSearch => "split",
        }
    }
}

/// Degree class of a query's subject row. Social-network degree skew means
/// hub rows behave nothing like the long tail — the paper's split-row
/// algorithms exist *because* of that — so latency is attributed per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegreeClass {
    /// Degree < 32: the long tail; rows fit in one or two cache lines.
    Low,
    /// Degree 32..1024: mid-size rows.
    Mid,
    /// Degree ≥ 1024: hub rows (the imbalance graph's hubs are ~16 k).
    Hub,
}

/// Number of [`DegreeClass`] variants (slab cell dimension).
pub const NUM_DEGREE_CLASSES: usize = 3;

/// `Low`/`Mid` boundary (exclusive upper degree for `Low`).
pub const LOW_DEGREE_MAX: usize = 32;
/// `Mid`/`Hub` boundary (exclusive upper degree for `Mid`).
pub const MID_DEGREE_MAX: usize = 1024;

impl DegreeClass {
    /// All classes, in slab-index order.
    pub const ALL: [DegreeClass; NUM_DEGREE_CLASSES] =
        [DegreeClass::Low, DegreeClass::Mid, DegreeClass::Hub];

    /// Classifies a row degree.
    #[inline]
    #[must_use]
    pub fn classify(degree: usize) -> Self {
        if degree < LOW_DEGREE_MAX {
            DegreeClass::Low
        } else if degree < MID_DEGREE_MAX {
            DegreeClass::Mid
        } else {
            DegreeClass::Hub
        }
    }

    /// Stable slab index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in event/JSON schemas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DegreeClass::Low => "low",
            DegreeClass::Mid => "mid",
            DegreeClass::Hub => "hub",
        }
    }
}

/// The number of tail exemplars a slab retains: the K in "K slowest
/// queries". A merge keeps the global top K, so a run reports at most K.
pub const EXEMPLARS_PER_SHARD: usize = 8;

/// One captured tail query: the latency of one of the run's slowest
/// requests, with enough identity (kind, class, source vertex) to re-run
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Query kind.
    pub kind: QueryKind,
    /// Degree class of the source row.
    pub class: DegreeClass,
    /// Source vertex the query addressed.
    pub source: u64,
    /// Latency of the query call, ns.
    pub ns: u64,
}

/// One client's record of a run: a histogram per `(QueryKind,
/// DegreeClass)` cell and the client's slowest queries.
#[derive(Debug, Clone, Default)]
pub struct QuerySlab {
    cells: [[Histogram; NUM_DEGREE_CLASSES]; NUM_QUERY_KINDS],
    /// At most [`EXEMPLARS_PER_SHARD`] queries, in no particular order.
    exemplars: Vec<Exemplar>,
}

impl QuerySlab {
    /// Records one query: its latency into the `(kind, class)` cell and the
    /// whole query into the tail exemplars if it is among the slowest.
    #[inline]
    pub fn record_query(&mut self, ex: Exemplar) {
        self.cells[ex.kind.index()][ex.class.index()].record(ex.ns);
        if self.exemplars.len() < EXEMPLARS_PER_SHARD {
            self.exemplars.push(ex);
        } else if let Some(fastest) = self.exemplars.iter_mut().min_by_key(|e| e.ns) {
            if ex.ns > fastest.ns {
                *fastest = ex;
            }
        }
    }

    /// Adds `other`'s queries into this slab: every cell's histogram, and
    /// the global top [`EXEMPLARS_PER_SHARD`] of both exemplar sets.
    pub fn merge(&mut self, other: &QuerySlab) {
        let theirs = other.cells.iter().flatten();
        for (mine, theirs) in self.cells.iter_mut().flatten().zip(theirs) {
            theirs.merge_into(mine);
        }
        self.exemplars.extend_from_slice(&other.exemplars);
        self.exemplars.sort_by_key(|e| std::cmp::Reverse(e.ns));
        self.exemplars.truncate(EXEMPLARS_PER_SHARD);
    }

    /// The retained tail exemplars, slowest first.
    #[must_use]
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let mut out = self.exemplars.clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.ns));
        out
    }

    /// Summary of the selected cells merged. `None` for `kind`/`class`
    /// merges across that whole dimension.
    #[must_use]
    pub fn summary(&self, kind: Option<QueryKind>, class: Option<DegreeClass>) -> HistogramSummary {
        let mut merged = Histogram::new();
        for k in QueryKind::ALL {
            for c in DegreeClass::ALL {
                if kind.is_none_or(|want| want == k) && class.is_none_or(|want| want == c) {
                    self.cells[k.index()][c.index()].merge_into(&mut merged);
                }
            }
        }
        merged.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_classes_partition_the_degree_axis() {
        assert_eq!(DegreeClass::classify(0), DegreeClass::Low);
        assert_eq!(DegreeClass::classify(LOW_DEGREE_MAX - 1), DegreeClass::Low);
        assert_eq!(DegreeClass::classify(LOW_DEGREE_MAX), DegreeClass::Mid);
        assert_eq!(DegreeClass::classify(MID_DEGREE_MAX - 1), DegreeClass::Mid);
        assert_eq!(DegreeClass::classify(MID_DEGREE_MAX), DegreeClass::Hub);
        assert_eq!(DegreeClass::classify(usize::MAX), DegreeClass::Hub);
    }

    #[test]
    fn kind_and_class_indices_are_dense_and_stable() {
        for (i, k) in QueryKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, c) in DegreeClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let names: Vec<_> = QueryKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["neighbors", "edge_scan", "edge_binary", "split",]);
    }

    /// One query of `kind` on a `class` source, `ns` long.
    fn query(kind: QueryKind, class: DegreeClass, ns: u64) -> Exemplar {
        Exemplar {
            kind,
            class,
            source: 0,
            ns,
        }
    }

    #[test]
    fn slabs_merge_across_shards_matches_single_slab() {
        let mut shards = vec![QuerySlab::default(); 4];
        let mut single = QuerySlab::default();
        let samples = [
            (0usize, QueryKind::Neighbors, DegreeClass::Low, 50u64),
            (1, QueryKind::Neighbors, DegreeClass::Low, 5_000),
            (2, QueryKind::EdgeScan, DegreeClass::Hub, 900),
            (3, QueryKind::Neighbors, DegreeClass::Low, 70),
        ];
        for &(shard, kind, class, ns) in &samples {
            shards[shard].record_query(query(kind, class, ns));
            single.record_query(query(kind, class, ns));
        }
        let mut merged = QuerySlab::default();
        for shard in &shards {
            merged.merge(shard);
        }
        let cell = (Some(QueryKind::Neighbors), Some(DegreeClass::Low));
        let a = merged.summary(cell.0, cell.1);
        assert_eq!(a, single.summary(cell.0, cell.1));
        assert_eq!(a.count, 3);
        // Merging across every dimension sees all four samples.
        assert_eq!(merged.summary(None, None).count, 4);
        assert_eq!(merged.exemplars(), single.exemplars());
    }

    fn exemplar(ns: u64, source: u64) -> Exemplar {
        Exemplar {
            source,
            ..query(QueryKind::EdgeScan, DegreeClass::Mid, ns)
        }
    }

    #[test]
    fn exemplars_keep_the_k_slowest_of_the_run() {
        let mut slab = QuerySlab::default();
        // 2×K queries with distinct latencies: only the slowest K survive.
        let n = 2 * EXEMPLARS_PER_SHARD as u64;
        for i in 0..n {
            slab.record_query(exemplar(1_000 + i, i));
        }
        // Slowest first, and exactly the top half by latency.
        let kept_ns: Vec<_> = slab.exemplars().iter().map(|e| e.ns).collect();
        let want: Vec<_> = (0..EXEMPLARS_PER_SHARD as u64)
            .map(|i| 1_000 + n - 1 - i)
            .collect();
        assert_eq!(kept_ns, want);
        assert!(QuerySlab::default().exemplars().is_empty());
    }

    #[test]
    fn exemplars_merge_across_shards_to_the_global_top_k() {
        let mut merged = QuerySlab::default();
        for shard in 0..4u64 {
            let mut slab = QuerySlab::default();
            for i in 0..EXEMPLARS_PER_SHARD as u64 {
                slab.record_query(exemplar(1_000 * (shard + 1) + i, i));
            }
            merged.merge(&slab);
        }
        let kept = merged.exemplars();
        assert_eq!(kept.len(), EXEMPLARS_PER_SHARD);
        // All survivors come from the slowest shard's range.
        assert!(kept.iter().all(|e| e.ns >= 4_000));
    }
}
