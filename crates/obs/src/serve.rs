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
//!   cell. Workers record into their own shard with no sharing; readers
//!   merge shards on demand ([`Histogram::merge_into`] — deterministic
//!   bucketing makes a sharded merge bit-identical to single-slab
//!   recording).
//! * Per-cell **phase decomposition** ([`QueryPhase`]): each cell carries a
//!   `queue`/`exec`/`reply` triple of `(overall, windowed)` histogram pairs
//!   next to the end-to-end pair, fed by [`QuerySlabs::record_query`] with
//!   a [`PhaseNanos`] cut from four checkpoints. The phases partition the
//!   end-to-end time exactly, so per-window phase sums never exceed the
//!   end-to-end sum (`check-trace` enforces this on the exported events).
//! * A per-shard **tail-exemplar reservoir** ([`Exemplar`]): the
//!   [`EXEMPLARS_PER_SHARD`] slowest queries of the live window with their
//!   full phase breakdown, rotated with the window. Admission is gated on a
//!   relaxed floor load, so the common (fast-query) path stays wait-free.
//! * [`HistoryWindow`]: one rotated window as its owner keeps it
//!   (open/close time, qps, per-cell summaries with their phase split, and
//!   the window's tail exemplars). The closed-loop driver builds one per
//!   rotation from its own slabs, and the trace exporter writes the list as
//!   the `query.win.*` / `query.phase.*` / `query.exemplar.*` series.
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
//! never corrupts bucket counts. The same smear applies across the phase
//! histograms of one query (total and phases may straddle a rotation), so
//! consumers of per-window phase sums allow a small tolerance.

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

/// One phase of a request's lifecycle, as cut by the
/// `queued → dispatched → executed → replied` checkpoints
/// ([`PhaseNanos::from_checkpoints`]):
///
/// ```text
/// queued ──queue──▶ dispatched ──exec──▶ executed ──reply──▶ replied
/// ```
///
/// The three phases partition the end-to-end time exactly. The
/// closed-loop driver stamps all four checkpoints for every request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryPhase {
    /// `queued → dispatched`: time spent waiting for a worker.
    Queue,
    /// `dispatched → executed`: time spent executing the query.
    Exec,
    /// `executed → replied`: time spent delivering the result.
    Reply,
}

/// Number of [`QueryPhase`] variants (phase-slot dimension).
pub const NUM_QUERY_PHASES: usize = 3;

impl QueryPhase {
    /// All phases, in lifecycle (and slot-index) order.
    pub const ALL: [QueryPhase; NUM_QUERY_PHASES] =
        [QueryPhase::Queue, QueryPhase::Exec, QueryPhase::Reply];

    /// Stable slot index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in event/JSON schemas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueryPhase::Queue => "queue",
            QueryPhase::Exec => "exec",
            QueryPhase::Reply => "reply",
        }
    }
}

/// One query's phase-decomposed timing, nanoseconds. The phases partition
/// `total_ns` (up to clock-saturation rounding), so
/// `queue_ns + exec_ns + reply_ns ≤ total_ns` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// End-to-end `queued → replied` time.
    pub total_ns: u64,
    /// `queued → dispatched` wait.
    pub queue_ns: u64,
    /// `dispatched → executed` service time.
    pub exec_ns: u64,
    /// `executed → replied` delivery time.
    pub reply_ns: u64,
}

impl PhaseNanos {
    /// Phase decomposition from the four checkpoint timestamps (span-clock
    /// ns). Checkpoints are clamped monotone, so a descheduled guard never
    /// produces phases that sum past the end-to-end time.
    #[must_use]
    pub fn from_checkpoints(queued: u64, dispatched: u64, executed: u64, replied: u64) -> Self {
        let dispatched = dispatched.clamp(queued, replied);
        let executed = executed.clamp(dispatched, replied);
        Self {
            total_ns: replied.saturating_sub(queued),
            queue_ns: dispatched.saturating_sub(queued),
            exec_ns: executed.saturating_sub(dispatched),
            reply_ns: replied.saturating_sub(executed),
        }
    }

    /// The named phase's nanoseconds.
    #[must_use]
    pub fn phase(self, phase: QueryPhase) -> u64 {
        match phase {
            QueryPhase::Queue => self.queue_ns,
            QueryPhase::Exec => self.exec_ns,
            QueryPhase::Reply => self.reply_ns,
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

/// One phase's `(overall, windowed)` histogram pair inside a cell. Boxed
/// behind [`SlabCell::phases`] so the 15 KiB overall histogram stays off
/// the `ShardSlab` inline footprint.
#[derive(Debug)]
struct PhaseSlot {
    overall: Histogram,
    windowed: WindowedHistogram,
}

/// One `(overall, windowed)` histogram pair for the end-to-end latency,
/// plus one pair per [`QueryPhase`]: lifetime totals and the
/// sliding-window view of the same observations, phase-decomposed.
#[derive(Debug)]
struct SlabCell {
    overall: Histogram,
    windowed: WindowedHistogram,
    phases: Box<[PhaseSlot]>,
}

impl SlabCell {
    fn new(windows: usize) -> Self {
        Self {
            overall: Histogram::new(),
            windowed: WindowedHistogram::new(windows),
            phases: (0..NUM_QUERY_PHASES)
                .map(|_| PhaseSlot {
                    overall: Histogram::new(),
                    windowed: WindowedHistogram::new(windows),
                })
                .collect(),
        }
    }

    /// Records an end-to-end observation only; the phase slots are left
    /// untouched (phase counts are then ≤ the end-to-end count, which the
    /// phase-sum invariant tolerates).
    #[inline]
    fn record(&self, v: u64) {
        self.overall.record(v);
        self.windowed.record(v);
    }

    /// Records one phase-decomposed observation: the total into the
    /// end-to-end pair and each phase into its slot.
    #[inline]
    fn record_phases(&self, ns: PhaseNanos) {
        self.record(ns.total_ns);
        for phase in QueryPhase::ALL {
            let slot = &self.phases[phase.index()];
            let v = ns.phase(phase);
            slot.overall.record(v);
            slot.windowed.record(v);
        }
    }
}

/// The number of tail exemplars each shard retains per window: the K in
/// "K slowest queries". Readers merge shards and keep the global top K,
/// so the per-process bound is `shards × K` live + as many completed.
pub const EXEMPLARS_PER_SHARD: usize = 8;

/// One captured tail query: the full phase breakdown of one of the window's
/// slowest requests, with enough identity (kind, class, source vertex) to
/// re-run it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Query kind.
    pub kind: QueryKind,
    /// Degree class of the source row.
    pub class: DegreeClass,
    /// Source vertex the query addressed.
    pub source: u64,
    /// Phase-decomposed timing.
    pub ns: PhaseNanos,
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
    /// retained `total_ns`. A stale read only costs one lock round or drops
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
        if ex.ns.total_ns < self.floor_ns.load(Relaxed) {
            return;
        }
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        if live.len() < EXEMPLARS_PER_SHARD {
            live.push(ex);
            if live.len() == EXEMPLARS_PER_SHARD {
                let min = live.iter().map(|e| e.ns.total_ns).min().unwrap_or(0);
                self.floor_ns.store(min, Relaxed);
            }
            return;
        }
        // Full: replace the current minimum if this query is slower.
        let (slot, min) = live
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.ns.total_ns)
            .map(|(i, e)| (i, e.ns.total_ns))
            .unwrap_or((0, 0));
        if ex.ns.total_ns > min {
            live[slot] = ex;
            let new_min = live.iter().map(|e| e.ns.total_ns).min().unwrap_or(0);
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
        out.sort_by_key(|b| std::cmp::Reverse(b.ns.total_ns));
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
    /// Merged-across-shards end-to-end summary for the window.
    pub summary: HistogramSummary,
    /// The same window's per-phase summaries, indexed by
    /// [`QueryPhase::index`]. A phase's count is 0 when the cell was fed
    /// only through [`QuerySlabs::record`].
    pub phases: [HistogramSummary; NUM_QUERY_PHASES],
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

    /// Records one latency observation from `shard` (reduced modulo the
    /// shard count, so callers can pass a raw worker/client index). The
    /// end-to-end view only — see [`Self::record_query`] for the
    /// phase-decomposed, exemplar-capturing path.
    #[inline]
    pub fn record(&self, shard: usize, kind: QueryKind, class: DegreeClass, ns: u64) {
        self.shards[shard % self.shards.len()].cells[kind.index()][class.index()].record(ns);
    }

    /// Records one phase-decomposed query from `shard`: the total into the
    /// end-to-end histograms, each phase into its phase slot, and the whole
    /// exemplar into the shard's tail reservoir.
    #[inline]
    pub fn record_query(&self, shard: usize, ex: Exemplar) {
        let slab = &self.shards[shard % self.shards.len()];
        slab.cells[ex.kind.index()][ex.class.index()].record_phases(ex.ns);
        slab.exemplars.offer(ex);
    }

    /// Rotates every cell's window (end-to-end and phase slots) and every
    /// shard's exemplar reservoir in lockstep; returns the completed
    /// epoch. Single-rotator, like [`WindowedHistogram::rotate`].
    pub fn rotate(&self) -> u64 {
        let mut completed = 0;
        for shard in self.shards.iter() {
            for row in &shard.cells {
                for cell in row {
                    completed = cell.windowed.rotate();
                    for slot in cell.phases.iter() {
                        slot.windowed.rotate();
                    }
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
        out.sort_by_key(|b| std::cmp::Reverse(b.ns.total_ns));
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

    /// Merged-across-shards summary of one phase of window `epoch` for the
    /// selected cells.
    #[must_use]
    pub fn window_phase_summary(
        &self,
        epoch: u64,
        phase: QueryPhase,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
    ) -> HistogramSummary {
        let scratch = Histogram::new();
        self.for_cells(kind, class, |cell| {
            if let Some(h) = cell.phases[phase.index()].windowed.window(epoch) {
                h.merge_into(&scratch);
            }
        });
        scratch.summary()
    }

    /// Merged-across-shards lifetime summary of one phase for the selected
    /// cells.
    #[must_use]
    pub fn overall_phase_summary(
        &self,
        phase: QueryPhase,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
    ) -> HistogramSummary {
        let scratch = Histogram::new();
        self.for_cells(kind, class, |cell| {
            cell.phases[phase.index()].overall.merge_into(&scratch);
        });
        scratch.summary()
    }

    /// Every non-empty `(kind, class)` cell of window `epoch`, merged across
    /// shards, with its phase split, in slab-index order.
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
                        phases: QueryPhase::ALL.map(|phase| {
                            self.window_phase_summary(epoch, phase, Some(kind), Some(class))
                        }),
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

/// The canonical series name for one phase of one `(kind, class)` cell:
/// `query.phase.<phase>.<kind>.<class>`. Single definition, like
/// [`window_series_name`].
#[must_use]
pub fn phase_series_name(phase: QueryPhase, kind: QueryKind, class: DegreeClass) -> String {
    format!(
        "query.phase.{}.{}.{}",
        phase.name(),
        kind.name(),
        class.name()
    )
}

/// The canonical series name for a tail exemplar of one `(kind, class)`
/// cell: `query.exemplar.<kind>.<class>`. Single definition, like
/// [`window_series_name`].
#[must_use]
pub fn exemplar_series_name(kind: QueryKind, class: DegreeClass) -> String {
    format!("query.exemplar.{}.{}", kind.name(), class.name())
}

/// One rotated window, the only record of it: the non-empty
/// `(kind, class)` cells with their phase split, the window-level
/// throughput, and the window's tail exemplars. The closed-loop driver
/// builds one per rotation ([`HistoryWindow::new`]) and hands the list to
/// the trace exporter.
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
            sharded.record(shard, kind, class, ns);
            single.record(0, kind, class, ns);
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
        let slabs = QuerySlabs::new(2, 3);
        slabs.record(0, QueryKind::Neighbors, DegreeClass::Low, 100);
        slabs.record(1, QueryKind::SplitSearch, DegreeClass::Hub, 9_000);
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
        slabs.record(0, QueryKind::Neighbors, DegreeClass::Low, 10);
        slabs.record(1, QueryKind::SplitSearch, DegreeClass::Hub, 10_000);
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

    #[test]
    fn phase_indices_and_names_are_dense_and_stable() {
        for (i, p) in QueryPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: Vec<_> = QueryPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["queue", "exec", "reply"]);
        assert_eq!(
            phase_series_name(QueryPhase::Queue, QueryKind::SplitSearch, DegreeClass::Hub),
            "query.phase.queue.split.hub"
        );
        assert_eq!(
            exemplar_series_name(QueryKind::Neighbors, DegreeClass::Low),
            "query.exemplar.neighbors.low"
        );
    }

    #[test]
    fn phase_nanos_partition_the_end_to_end_time() {
        let ns = PhaseNanos::from_checkpoints(100, 150, 900, 1_000);
        assert_eq!(ns.total_ns, 900);
        assert_eq!(ns.queue_ns, 50);
        assert_eq!(ns.exec_ns, 750);
        assert_eq!(ns.reply_ns, 100);
        assert_eq!(ns.queue_ns + ns.exec_ns + ns.reply_ns, ns.total_ns);
        // Non-monotone checkpoints (clock smear) are clamped, never summing
        // past the end-to-end time.
        let ns = PhaseNanos::from_checkpoints(100, 90, 2_000, 1_000);
        assert!(ns.queue_ns + ns.exec_ns + ns.reply_ns <= ns.total_ns);
    }

    #[test]
    fn record_query_feeds_phase_histograms_in_the_same_grid() {
        let slabs = QuerySlabs::new(2, 3);
        for (shard, source, queue, exec) in [(0usize, 7u64, 100u64, 900u64), (1, 9, 300, 1_700)] {
            slabs.record_query(
                shard,
                Exemplar {
                    kind: QueryKind::Neighbors,
                    class: DegreeClass::Hub,
                    source,
                    ns: PhaseNanos {
                        total_ns: queue + exec,
                        queue_ns: queue,
                        exec_ns: exec,
                        reply_ns: 0,
                    },
                },
            );
        }
        let epoch = slabs.epoch();
        let total = slabs.window_summary(epoch, Some(QueryKind::Neighbors), Some(DegreeClass::Hub));
        assert_eq!(total.count, 2);
        let queue = slabs.window_phase_summary(epoch, QueryPhase::Queue, None, None);
        let exec = slabs.window_phase_summary(epoch, QueryPhase::Exec, None, None);
        let reply = slabs.window_phase_summary(epoch, QueryPhase::Reply, None, None);
        assert_eq!(queue.count, 2);
        assert_eq!(exec.count, 2);
        assert_eq!(reply.count, 2);
        // The phase sums partition the end-to-end sum exactly.
        assert_eq!(queue.sum + exec.sum + reply.sum, total.sum);
        assert_eq!(queue.sum, 400);
        // Overall phase view matches while the window is live; both survive
        // rotation on the overall side only.
        assert_eq!(
            slabs
                .overall_phase_summary(QueryPhase::Exec, Some(QueryKind::Neighbors), None)
                .sum,
            2_600
        );
        slabs.rotate();
        slabs.rotate();
        slabs.rotate();
        assert_eq!(
            slabs
                .window_phase_summary(epoch, QueryPhase::Queue, None, None)
                .count,
            0,
            "phase windows rotate in lockstep with the end-to-end windows"
        );
        assert_eq!(
            slabs
                .overall_phase_summary(QueryPhase::Queue, None, None)
                .sum,
            400
        );
    }

    fn exemplar(total_ns: u64, source: u64) -> Exemplar {
        Exemplar {
            kind: QueryKind::EdgeScan,
            class: DegreeClass::Mid,
            source,
            ns: PhaseNanos::from_checkpoints(0, 0, total_ns, total_ns),
        }
    }

    #[test]
    fn exemplar_reservoir_keeps_the_k_slowest_per_window() {
        let slabs = QuerySlabs::new(1, 2);
        // 2×K queries with distinct totals: only the slowest K survive.
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
        // Slowest first, and exactly the top half by total.
        let totals: Vec<_> = kept.iter().map(|e| e.ns.total_ns).collect();
        let want: Vec<_> = (0..EXEMPLARS_PER_SHARD as u64)
            .map(|i| 1_000 + n - 1 - i)
            .collect();
        assert_eq!(totals, want);
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
        assert!(kept.iter().all(|e| e.ns.total_ns >= 4_000));
    }
}
