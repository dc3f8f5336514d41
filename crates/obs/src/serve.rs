//! Serving telemetry: sharded per-worker metric slabs and sliding-window
//! histograms for per-query SLO accounting.
//!
//! The build-time obs stack (spans, cumulative histograms) answers "where
//! did this run spend its time"; a query *server* needs a different shape:
//! "what were p50/p95/p99 and qps over the last few hundred milliseconds,
//! per query type, per degree class". This module provides that shape,
//! mirroring pelikan's metrics layout:
//!
//! * [`WindowedHistogram`] — a ring of the existing log-bucketed
//!   [`Histogram`]s with epoch rotation. Recording always lands in the live
//!   epoch's histogram; [`WindowedHistogram::rotate`] completes the live
//!   window and clears the oldest retained one for reuse. Completed windows
//!   stay readable for `windows - 1` further rotations.
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
//! * [`HistoryWindow`]: one rotated window as its owner keeps it
//!   (open/close time, qps, per-cell summaries, and the window's tail
//!   exemplars). The closed-loop driver builds one per rotation from its
//!   own slabs, and the trace exporter writes the list as the
//!   `query.win.*` / `query.exemplar.*` series.
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
//! descheduled for a full ring cycle, in a cleared one) — a one-sample
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

/// Ring of [`Histogram`]s with epoch rotation: the sliding-window latency
/// view. Always compiled (plain atomics, unit-testable without features).
#[derive(Debug)]
pub struct WindowedHistogram {
    ring: Box<[Histogram]>,
    epoch: AtomicU64,
}

impl WindowedHistogram {
    /// A ring retaining `windows` epochs (clamped to ≥ 2 so the live window
    /// is never the one being cleared at rotation).
    #[must_use]
    pub fn new(windows: usize) -> Self {
        let w = windows.max(2);
        Self {
            ring: (0..w).map(|_| Histogram::new()).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Ring capacity (number of retained epochs, including the live one).
    #[must_use]
    pub fn windows(&self) -> usize {
        self.ring.len()
    }

    /// The live (currently recording) epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Relaxed)
    }

    /// Records one observation into the live window.
    #[inline]
    pub fn record(&self, v: u64) {
        let e = self.epoch.load(Relaxed);
        self.ring[(e % self.ring.len() as u64) as usize].record(v);
    }

    /// Completes the live window and opens the next: clears the oldest
    /// retained histogram for reuse, then advances the epoch. Returns the
    /// epoch just completed (readable via [`Self::window`] for another
    /// `windows - 1` rotations). Single-rotator: call from one coordinator
    /// thread only.
    pub fn rotate(&self) -> u64 {
        let e = self.epoch.load(Relaxed);
        let next = ((e + 1) % self.ring.len() as u64) as usize;
        self.ring[next].reset();
        self.epoch.store(e + 1, Relaxed);
        e
    }

    /// The histogram for `epoch`, if still retained: the live epoch or one
    /// of the `windows - 1` most recently completed ones.
    #[must_use]
    pub fn window(&self, epoch: u64) -> Option<&Histogram> {
        let live = self.epoch.load(Relaxed);
        if epoch > live || live - epoch >= self.ring.len() as u64 {
            return None;
        }
        Some(&self.ring[(epoch % self.ring.len() as u64) as usize])
    }

    /// The live window's histogram.
    #[must_use]
    pub fn live(&self) -> &Histogram {
        &self.ring[(self.epoch() % self.ring.len() as u64) as usize]
    }

    /// Merges every retained window (completed + live) into `dst`: the
    /// sliding-window aggregate over the last `windows` epochs.
    pub fn merge_retained_into(&self, dst: &Histogram) {
        for h in &self.ring {
            h.merge_into(dst);
        }
    }
}

/// One `(overall, windowed)` histogram pair: lifetime totals and the
/// sliding-window view of the same observations.
#[derive(Debug)]
struct SlabCell {
    overall: Histogram,
    windowed: WindowedHistogram,
}

impl SlabCell {
    fn new(windows: usize) -> Self {
        Self {
            overall: Histogram::new(),
            windowed: WindowedHistogram::new(windows),
        }
    }

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
#[derive(Debug)]
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
    fn new() -> Self {
        Self {
            floor_ns: AtomicU64::new(0),
            live: Mutex::new(Vec::new()),
            completed: Mutex::new(Vec::new()),
        }
    }

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
#[derive(Debug)]
#[repr(align(128))]
struct ShardSlab {
    cells: [[SlabCell; NUM_DEGREE_CLASSES]; NUM_QUERY_KINDS],
    exemplars: ExemplarReservoir,
}

impl ShardSlab {
    fn new(windows: usize) -> Self {
        Self {
            cells: std::array::from_fn(|_| std::array::from_fn(|_| SlabCell::new(windows))),
            exemplars: ExemplarReservoir::new(),
        }
    }
}

/// Per-window summary of one non-empty `(kind, class)` cell, merged across
/// shards.
#[derive(Debug, Clone)]
pub struct WindowCell {
    /// Query kind.
    pub kind: QueryKind,
    /// Degree class.
    pub class: DegreeClass,
    /// Merged-across-shards latency summary for the window.
    pub summary: HistogramSummary,
}

/// Sharded per-worker query-latency slabs. Value type: the closed-loop
/// driver owns one per run and records every client-observed request into
/// it, with or without the `enabled` feature.
#[derive(Debug)]
pub struct QuerySlabs {
    shards: Box<[ShardSlab]>,
}

impl QuerySlabs {
    /// `shards` slabs (clamped to ≥ 1), each retaining `windows` epochs.
    #[must_use]
    pub fn new(shards: usize, windows: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| ShardSlab::new(windows))
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
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

    /// Merges window `epoch` of every shard's `(kind, class)` cell into
    /// `dst`. `None` for `kind`/`class` merges across that whole dimension.
    pub fn merge_window_into(
        &self,
        epoch: u64,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
        dst: &Histogram,
    ) {
        self.for_cells(kind, class, |cell| {
            if let Some(h) = cell.windowed.window(epoch) {
                h.merge_into(dst);
            }
        });
    }

    /// Merges the lifetime (overall) histograms of the selected cells into
    /// `dst`. `None` for `kind`/`class` merges across that whole dimension.
    pub fn merge_overall_into(
        &self,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
        dst: &Histogram,
    ) {
        self.for_cells(kind, class, |cell| cell.overall.merge_into(dst));
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
    /// cells.
    #[must_use]
    pub fn window_summary(
        &self,
        epoch: u64,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
    ) -> HistogramSummary {
        let scratch = Histogram::new();
        self.merge_window_into(epoch, kind, class, &scratch);
        scratch.summary()
    }

    /// Merged-across-shards lifetime summary for the selected cells.
    #[must_use]
    pub fn overall_summary(
        &self,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
    ) -> HistogramSummary {
        let scratch = Histogram::new();
        self.merge_overall_into(kind, class, &scratch);
        scratch.summary()
    }

    /// Every non-empty `(kind, class)` cell of window `epoch`, merged across
    /// shards, in slab-index order.
    #[must_use]
    pub fn window_cells(&self, epoch: u64) -> Vec<WindowCell> {
        let mut out = Vec::new();
        for kind in QueryKind::ALL {
            for class in DegreeClass::ALL {
                let summary = self.window_summary(epoch, Some(kind), Some(class));
                if summary.count > 0 {
                    out.push(WindowCell {
                        kind,
                        class,
                        summary,
                    });
                }
            }
        }
        out
    }
}

/// The canonical series name for one `(kind, class)` cell of the windowed
/// serving grid: `query.win.<kind>.<class>`. The *single* definition of
/// this naming, which the Chrome-trace counter events
/// ([`crate::export::chrome_trace_with_counters`]) go through.
#[must_use]
pub fn window_series_name(kind: QueryKind, class: DegreeClass) -> String {
    format!("query.win.{}.{}", kind.name(), class.name())
}

/// The canonical series name for a tail exemplar of one `(kind, class)`
/// cell: `query.exemplar.<kind>.<class>`. Single definition, like
/// [`window_series_name`].
#[must_use]
pub fn exemplar_series_name(kind: QueryKind, class: DegreeClass) -> String {
    format!("query.exemplar.{}.{}", kind.name(), class.name())
}

/// One rotated window, the only record of it: the non-empty
/// `(kind, class)` cells, the window-level throughput, and the window's
/// tail exemplars. The closed-loop driver builds one per rotation
/// ([`HistoryWindow::new`]) and hands the list to the trace exporter.
#[derive(Debug, Clone)]
pub struct HistoryWindow {
    /// The completed epoch.
    pub window: u64,
    /// Window open time, ns on the span clock: the previous rotation, or the
    /// run start for the first window.
    pub start_ns: u64,
    /// Window close (rotation) time, ns on the span clock.
    pub end_ns: u64,
    /// Window length, `end_ns - start_ns`.
    pub dur_ns: u64,
    /// Total queries across all cells.
    pub queries: u64,
    /// Achieved throughput over the window (0 when `dur_ns` is 0).
    pub qps: f64,
    /// Per-cell summaries, slab-index order, empty cells skipped.
    pub cells: Vec<WindowCell>,
    /// The window's tail exemplars, slowest first
    /// ([`QuerySlabs::completed_exemplars`]).
    pub exemplars: Vec<Exemplar>,
}

impl HistoryWindow {
    /// The record of window `window`, open over `start_ns..end_ns` on the
    /// span clock, deriving its length, query count and qps from the
    /// bounds and `cells`.
    #[must_use]
    pub fn new(
        window: u64,
        start_ns: u64,
        end_ns: u64,
        cells: Vec<WindowCell>,
        exemplars: Vec<Exemplar>,
    ) -> Self {
        let dur_ns = end_ns.saturating_sub(start_ns);
        let queries: u64 = cells.iter().map(|c| c.summary.count).sum();
        let qps = if dur_ns > 0 {
            queries as f64 * 1e9 / dur_ns as f64
        } else {
            0.0
        };
        Self {
            window,
            start_ns,
            end_ns,
            dur_ns,
            queries,
            qps,
            cells,
            exemplars,
        }
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
        let w = WindowedHistogram::new(3);
        w.record(10);
        w.record(20);
        assert_eq!(w.live().count(), 2);

        let completed = w.rotate();
        assert_eq!(completed, 0);
        assert_eq!(w.epoch(), 1);
        assert_eq!(w.window(0).unwrap().count(), 2);
        assert_eq!(w.live().count(), 0);

        w.record(30);
        w.rotate(); // completes epoch 1 (count 1)
        w.rotate(); // completes epoch 2 (empty); epoch 0 now expires
        assert!(w.window(0).is_none(), "epoch 0 fell out of the ring");
        assert_eq!(w.window(1).unwrap().count(), 1);
        assert_eq!(w.window(2).unwrap().count(), 0);
        assert!(w.window(4).is_none(), "future epoch");
    }

    #[test]
    fn windowed_histogram_retained_merge_is_sliding_aggregate() {
        let w = WindowedHistogram::new(2);
        w.record(100);
        w.rotate();
        w.record(200);
        let dst = Histogram::new();
        w.merge_retained_into(&dst);
        assert_eq!(dst.count(), 2);
        assert_eq!(dst.max(), 200);
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
        let sharded = QuerySlabs::new(4, 2);
        let single = QuerySlabs::new(1, 2);
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
    fn window_series_names_are_canonical_and_snapshot_uses_them() {
        assert_eq!(
            window_series_name(QueryKind::EdgeBinary, DegreeClass::Hub),
            "query.win.edge_binary.hub"
        );
        assert_eq!(
            exemplar_series_name(QueryKind::Neighbors, DegreeClass::Low),
            "query.exemplar.neighbors.low"
        );
        let slabs = QuerySlabs::new(2, 3);
        slabs.record_query(0, query(QueryKind::Neighbors, DegreeClass::Low, 100));
        slabs.record_query(1, query(QueryKind::SplitSearch, DegreeClass::Hub, 9_000));
        let completed = slabs.rotate();
        let names: Vec<_> = slabs
            .window_cells(completed)
            .iter()
            .map(|c| window_series_name(c.kind, c.class))
            .collect();
        assert_eq!(
            names,
            ["query.win.neighbors.low", "query.win.split.hub"],
            "slab-index order, one definition of the naming"
        );
    }

    #[test]
    fn slab_rotation_is_lockstep_and_window_cells_skip_empty() {
        let slabs = QuerySlabs::new(2, 3);
        slabs.record_query(0, query(QueryKind::Neighbors, DegreeClass::Low, 10));
        slabs.record_query(1, query(QueryKind::SplitSearch, DegreeClass::Hub, 10_000));
        let completed = slabs.rotate();
        assert_eq!(completed, 0);
        assert_eq!(slabs.epoch(), 1);
        let cells = slabs.window_cells(completed);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].kind, QueryKind::Neighbors);
        assert_eq!(cells[0].class, DegreeClass::Low);
        assert_eq!(cells[1].kind, QueryKind::SplitSearch);
        assert_eq!(cells[1].class, DegreeClass::Hub);
        // Overall view survives rotation.
        assert_eq!(slabs.overall_summary(None, None).count, 2);
        // The new live window is empty.
        assert!(slabs.window_cells(slabs.epoch()).is_empty());
    }

    fn exemplar(ns: u64, source: u64) -> Exemplar {
        Exemplar {
            source,
            ..query(QueryKind::EdgeScan, DegreeClass::Mid, ns)
        }
    }

    #[test]
    fn exemplar_reservoir_keeps_the_k_slowest_per_window() {
        let slabs = QuerySlabs::new(1, 2);
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
        let slabs = QuerySlabs::new(4, 2);
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
