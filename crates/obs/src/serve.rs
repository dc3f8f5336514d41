//! Serving telemetry: sharded per-worker metric slabs and windowed
//! histograms for per-query SLO accounting.
//!
//! The build-time obs stack (spans, cumulative histograms) answers "where
//! did this run spend its time"; a query *server* needs a different shape:
//! "what were p50/p95/p99 and qps over the last few hundred milliseconds,
//! per query type, per degree class". This module provides that shape,
//! mirroring pelikan's metrics layout:
//!
//! * [`WindowedHistogram`] — two of the existing log-bucketed
//!   [`Histogram`]s with epoch rotation. Recording always lands in the live
//!   epoch's histogram; [`WindowedHistogram::rotate`] completes the live
//!   window and clears the previously completed one for reuse, so a
//!   completed window stays readable until the next rotation.
//! * [`QuerySlabs`] — cache-line-padded per-worker shards, each holding one
//!   `(overall, windowed)` histogram pair per `(QueryKind, DegreeClass)`
//!   cell. Workers record into their own shard with no sharing
//!   ([`QuerySlabs::record_query`]: one latency per query); readers merge
//!   shards on demand ([`Histogram::merge_into`] — deterministic bucketing
//!   makes a sharded merge bit-identical to single-slab recording).
//! * A per-shard **tail-exemplar reservoir** ([`Exemplar`]): the
//!   [`EXEMPLARS_PER_SHARD`] slowest queries of the live window, rotated
//!   with the window. Admission is gated on a relaxed floor load, so the
//!   common (fast-query) path stays wait-free.
//!
//! Everything here is a plain value type, compiled with or without the
//! `enabled` feature: the query kernels carry no serving hook, and the
//! slabs' owner (the closed-loop driver) times each request itself.
//!
//! # Concurrency contract
//!
//! Recording is wait-free (relaxed atomics into the recorder's own shard;
//! the exemplar reservoir takes its per-shard lock only for queries slower
//! than the current floor). Rotation is expected from a *single*
//! coordinator thread (the window reporter); concurrent rotators would race
//! on the epoch. A recorder that reads the epoch right at a rotation
//! boundary may land its sample in the just-completed window (or, if
//! descheduled across two rotations, in a cleared one) — a one-sample
//! boundary smear that is acceptable for a statistical latency view and
//! never corrupts bucket counts.

// ORDERING: Relaxed throughout — slab cells are independent statistical
// histogram buckets (see metrics.rs), and the window epoch is a coarse
// phase indicator read at recording time; the boundary smear documented
// above is accepted, so no acquire/release pairing is needed. The exemplar
// admission floor is likewise a monotone-per-window hint: a stale read only
// costs one lock round or drops one borderline exemplar.
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

use crate::metrics::{Histogram, HistogramSummary};

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

/// Two [`Histogram`]s with epoch rotation: the live window and the one
/// just completed. Always compiled (plain atomics, unit-testable without
/// features).
#[derive(Debug, Default)]
pub struct WindowedHistogram {
    // Boxed: a histogram is ~15 KiB, and a shard holds twelve of these.
    ring: Box<[Histogram; 2]>,
    epoch: AtomicU64,
}

impl WindowedHistogram {
    /// The live (currently recording) epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Relaxed)
    }

    /// Records one observation into the live window.
    #[inline]
    pub fn record(&self, v: u64) {
        self.ring[(self.epoch.load(Relaxed) % 2) as usize].record(v);
    }

    /// Completes the live window and opens the next: clears the previously
    /// completed window's histogram for reuse, then advances the epoch.
    /// Returns the epoch just completed (readable via [`Self::window`]
    /// until the next rotation). Single-rotator: call from one coordinator
    /// thread only.
    pub fn rotate(&self) -> u64 {
        let e = self.epoch.load(Relaxed);
        self.ring[((e + 1) % 2) as usize].reset();
        self.epoch.store(e + 1, Relaxed);
        e
    }

    /// The histogram for `epoch`, if still retained: the live epoch or the
    /// one completed at the last rotation.
    #[must_use]
    pub fn window(&self, epoch: u64) -> Option<&Histogram> {
        let live = self.epoch.load(Relaxed);
        if epoch > live || live - epoch >= 2 {
            return None;
        }
        Some(&self.ring[(epoch % 2) as usize])
    }
}

/// One `(overall, windowed)` histogram pair: lifetime totals and the
/// windowed view of the same observations.
#[derive(Debug, Default)]
struct SlabCell {
    overall: Histogram,
    windowed: WindowedHistogram,
}

impl SlabCell {
    #[inline]
    fn record(&self, v: u64) {
        self.overall.record(v);
        self.windowed.record(v);
    }
}

/// The number of tail exemplars each shard retains per window: the K in
/// "K slowest queries". Readers merge shards and keep the global top K,
/// so the per-process bound is `shards × K` live + as many completed.
pub const EXEMPLARS_PER_SHARD: usize = 8;

/// One captured tail query: the latency of one of the window's slowest
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

/// Bounded per-shard reservoir of the live window's slowest queries.
///
/// The admission test is one relaxed load of the floor (the smallest total
/// currently retained once the reservoir is full): queries at or below it
/// return without touching the lock, so the common path stays wait-free
/// and only genuine tail candidates pay for the mutex. `rotate` publishes
/// the live set as the completed window's exemplars and resets the floor.
#[derive(Debug, Default)]
struct ExemplarReservoir {
    /// Admission floor: 0 while the live set is not full, else the smallest
    /// retained `ns`. A stale read only costs one lock round or drops
    /// one borderline exemplar (the boundary smear the module header
    /// documents).
    floor_ns: AtomicU64,
    live: Mutex<Vec<Exemplar>>,
    completed: Mutex<Vec<Exemplar>>,
}

impl ExemplarReservoir {
    #[inline]
    fn offer(&self, ex: Exemplar) {
        if ex.ns < self.floor_ns.load(Relaxed) {
            return;
        }
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        if live.len() < EXEMPLARS_PER_SHARD {
            live.push(ex);
            if live.len() == EXEMPLARS_PER_SHARD {
                let min = live.iter().map(|e| e.ns).min().unwrap_or(0);
                self.floor_ns.store(min, Relaxed);
            }
            return;
        }
        // Full: replace the current minimum if this query is slower.
        let (slot, min) = live
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.ns)
            .map(|(i, e)| (i, e.ns))
            .unwrap_or((0, 0));
        if ex.ns > min {
            live[slot] = ex;
            let new_min = live.iter().map(|e| e.ns).min().unwrap_or(0);
            self.floor_ns.store(new_min, Relaxed);
        }
    }

    /// Publishes the live set as the completed window and opens a fresh
    /// one. Single-rotator, like [`WindowedHistogram::rotate`].
    fn rotate(&self) {
        let taken = {
            let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *live)
        };
        self.floor_ns.store(0, Relaxed);
        *self
            .completed
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = taken;
    }

    /// The completed window's exemplars, slowest first.
    fn completed(&self) -> Vec<Exemplar> {
        let mut out = self
            .completed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        out.sort_by_key(|b| std::cmp::Reverse(b.ns));
        out
    }
}

/// One worker's slab: a `(QueryKind, DegreeClass)` grid of cells plus the
/// shard's tail-exemplar reservoir, padded to its own cache-line
/// neighborhood so concurrent recorders never share a line across shards
/// (pelikan's per-worker metrics shape).
#[derive(Debug, Default)]
#[repr(align(128))]
struct ShardSlab {
    cells: [[SlabCell; NUM_DEGREE_CLASSES]; NUM_QUERY_KINDS],
    exemplars: ExemplarReservoir,
}

/// Sharded per-worker query-latency slabs. Value type: the closed-loop
/// driver owns one per run and records every client-observed request into
/// it, with or without the `enabled` feature.
#[derive(Debug)]
pub struct QuerySlabs {
    shards: Box<[ShardSlab]>,
}

impl QuerySlabs {
    /// `shards` slabs (clamped to ≥ 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| ShardSlab::default()).collect(),
        }
    }

    /// The live epoch (all cells rotate in lockstep, so any cell's epoch is
    /// the slab set's epoch).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shards[0].cells[0][0].windowed.epoch()
    }

    /// Records one query from `shard` (reduced modulo the shard count, so
    /// callers can pass a raw worker/client index): its latency into the
    /// `(kind, class)` cell's histograms and the whole exemplar into the
    /// shard's tail reservoir.
    #[inline]
    pub fn record_query(&self, shard: usize, ex: Exemplar) {
        let slab = &self.shards[shard % self.shards.len()];
        slab.cells[ex.kind.index()][ex.class.index()].record(ex.ns);
        slab.exemplars.offer(ex);
    }

    /// Rotates every cell's window and every shard's exemplar reservoir in
    /// lockstep; returns the completed epoch. Single-rotator, like
    /// [`WindowedHistogram::rotate`].
    pub fn rotate(&self) -> u64 {
        let mut completed = 0;
        for shard in self.shards.iter() {
            for row in &shard.cells {
                for cell in row {
                    completed = cell.windowed.rotate();
                }
            }
            shard.exemplars.rotate();
        }
        completed
    }

    /// The completed window's tail exemplars, merged across shards, slowest
    /// first, truncated to the global top [`EXEMPLARS_PER_SHARD`].
    #[must_use]
    pub fn completed_exemplars(&self) -> Vec<Exemplar> {
        let mut out: Vec<Exemplar> = self
            .shards
            .iter()
            .flat_map(|s| s.exemplars.completed())
            .collect();
        out.sort_by_key(|b| std::cmp::Reverse(b.ns));
        out.truncate(EXEMPLARS_PER_SHARD);
        out
    }

    fn for_cells(
        &self,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
        mut f: impl FnMut(&SlabCell),
    ) {
        for shard in self.shards.iter() {
            for k in QueryKind::ALL {
                if kind.is_some_and(|want| want != k) {
                    continue;
                }
                for c in DegreeClass::ALL {
                    if class.is_some_and(|want| want != c) {
                        continue;
                    }
                    f(&shard.cells[k.index()][c.index()]);
                }
            }
        }
    }

    /// Merged-across-shards summary of window `epoch` for the selected
    /// cells. `None` for `kind`/`class` merges across that whole dimension.
    #[must_use]
    pub fn window_summary(
        &self,
        epoch: u64,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
    ) -> HistogramSummary {
        let scratch = Histogram::new();
        self.for_cells(kind, class, |cell| {
            if let Some(h) = cell.windowed.window(epoch) {
                h.merge_into(&scratch);
            }
        });
        scratch.summary()
    }

    /// Merged-across-shards lifetime summary for the selected cells. `None`
    /// for `kind`/`class` merges across that whole dimension.
    #[must_use]
    pub fn overall_summary(
        &self,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
    ) -> HistogramSummary {
        let scratch = Histogram::new();
        self.for_cells(kind, class, |cell| cell.overall.merge_into(&scratch));
        scratch.summary()
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

    #[test]
    fn windowed_histogram_rotation_retains_and_expires() {
        let w = WindowedHistogram::default();
        w.record(10);
        w.record(20);
        assert_eq!(w.window(0).unwrap().count(), 2);

        let completed = w.rotate();
        assert_eq!(completed, 0);
        assert_eq!(w.epoch(), 1);
        assert_eq!(w.window(0).unwrap().count(), 2);
        assert_eq!(w.window(1).unwrap().count(), 0);

        w.record(30);
        w.rotate(); // completes epoch 1 (count 1); epoch 0 now expires
        assert!(w.window(0).is_none(), "epoch 0 fell out of the ring");
        assert_eq!(w.window(1).unwrap().count(), 1);
        assert_eq!(w.window(2).unwrap().count(), 0, "reused slot starts empty");
        assert!(w.window(3).is_none(), "future epoch");
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
        let sharded = QuerySlabs::new(4);
        let single = QuerySlabs::new(1);
        let samples = [
            (0usize, QueryKind::Neighbors, DegreeClass::Low, 50u64),
            (1, QueryKind::Neighbors, DegreeClass::Low, 5_000),
            (2, QueryKind::EdgeScan, DegreeClass::Hub, 900),
            (7, QueryKind::Neighbors, DegreeClass::Low, 70), // 7 % 4 == 3
        ];
        for &(shard, kind, class, ns) in &samples {
            sharded.record_query(shard, query(kind, class, ns));
            single.record_query(0, query(kind, class, ns));
        }
        let a = sharded.window_summary(0, Some(QueryKind::Neighbors), Some(DegreeClass::Low));
        let b = single.window_summary(0, Some(QueryKind::Neighbors), Some(DegreeClass::Low));
        assert_eq!(a, b);
        assert_eq!(a.count, 3);
        // Merging across every dimension sees all four samples.
        assert_eq!(sharded.window_summary(0, None, None).count, 4);
        assert_eq!(sharded.overall_summary(None, None).count, 4);
    }

    #[test]
    fn slab_rotation_is_lockstep_and_opens_an_empty_window() {
        let slabs = QuerySlabs::new(2);
        slabs.record_query(0, query(QueryKind::Neighbors, DegreeClass::Low, 10));
        slabs.record_query(1, query(QueryKind::SplitSearch, DegreeClass::Hub, 10_000));
        let completed = slabs.rotate();
        assert_eq!(completed, 0);
        assert_eq!(slabs.epoch(), 1);
        // Both shards rotated: the completed window holds each query in its
        // own cell, and nothing else.
        for kind in QueryKind::ALL {
            for class in DegreeClass::ALL {
                let want = u64::from(
                    (kind, class) == (QueryKind::Neighbors, DegreeClass::Low)
                        || (kind, class) == (QueryKind::SplitSearch, DegreeClass::Hub),
                );
                let got = slabs
                    .window_summary(completed, Some(kind), Some(class))
                    .count;
                assert_eq!(got, want, "({kind:?}, {class:?})");
            }
        }
        // Overall view survives rotation.
        assert_eq!(slabs.overall_summary(None, None).count, 2);
        // The new live window is empty.
        assert_eq!(slabs.window_summary(slabs.epoch(), None, None).count, 0);
    }

    fn exemplar(ns: u64, source: u64) -> Exemplar {
        Exemplar {
            source,
            ..query(QueryKind::EdgeScan, DegreeClass::Mid, ns)
        }
    }

    #[test]
    fn exemplar_reservoir_keeps_the_k_slowest_per_window() {
        let slabs = QuerySlabs::new(1);
        // 2×K queries with distinct latencies: only the slowest K survive.
        let n = 2 * EXEMPLARS_PER_SHARD as u64;
        for i in 0..n {
            slabs.record_query(0, exemplar(1_000 + i, i));
        }
        assert!(
            slabs.completed_exemplars().is_empty(),
            "live exemplars publish only at rotation"
        );
        slabs.rotate();
        let kept = slabs.completed_exemplars();
        assert_eq!(kept.len(), EXEMPLARS_PER_SHARD);
        // Slowest first, and exactly the top half by latency.
        let kept_ns: Vec<_> = kept.iter().map(|e| e.ns).collect();
        let want: Vec<_> = (0..EXEMPLARS_PER_SHARD as u64)
            .map(|i| 1_000 + n - 1 - i)
            .collect();
        assert_eq!(kept_ns, want);
        // The next rotation replaces the completed set (empty this time).
        slabs.rotate();
        assert!(slabs.completed_exemplars().is_empty());
    }

    #[test]
    fn exemplars_merge_across_shards_to_the_global_top_k() {
        let slabs = QuerySlabs::new(4);
        for shard in 0..4usize {
            for i in 0..EXEMPLARS_PER_SHARD as u64 {
                slabs.record_query(shard, exemplar(1_000 * (shard as u64 + 1) + i, i));
            }
        }
        slabs.rotate();
        let kept = slabs.completed_exemplars();
        assert_eq!(kept.len(), EXEMPLARS_PER_SHARD);
        // All survivors come from the slowest shard's range.
        assert!(kept.iter().all(|e| e.ns >= 4_000));
    }
}
