//! Metrics: atomic counters, gauges, and log-bucketed latency histograms.
//!
//! The value types ([`Counter`], [`Gauge`], [`Histogram`]) are always
//! compiled and fully functional — they are plain atomics, `const`
//! constructible, and unit-testable without any feature. What the `enabled`
//! cargo feature gates is the *facade* instrumented crates use: the
//! name-registry handles ([`counter`], [`gauge`], [`histogram`]) become
//! zero-sized no-ops when the feature is off, so disabled builds pay
//! nothing at the call sites. Per-query latency lives in
//! [`crate::serve`], not here.
//!
//! The histogram is HDR-style log-bucketed: values `< 32` get exact
//! single-value buckets; above that each power-of-two octave is split into
//! 32 linear sub-buckets, bounding the relative quantization error at
//! `1/32` (~3.1%) while covering the full `u64` range in 1920 buckets
//! (15 KiB of relaxed atomics per histogram).

// ORDERING: Relaxed throughout — counters, gauges, and histogram buckets
// are independent statistical cells, snapshotted after the workload's
// join; no reader depends on cross-cell ordering.
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A zeroed counter (usable in `static` position).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            v: AtomicU64::new(0),
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.v.load(Relaxed)
    }

    /// Resets to zero (tests and per-run collection).
    pub fn reset(&self) {
        self.v.store(0, Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// Last-write-wins instantaneous value (e.g. current pool width).
#[derive(Debug)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge (usable in `static` position).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            v: AtomicI64::new(0),
        }
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.v.load(Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Sub-bucket precision: each power-of-two octave splits into `2^SUB_BITS`
/// linear buckets.
const SUB_BITS: u32 = 5;
/// Number of sub-buckets per octave (32).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Bucket index for `v`. Monotone in `v`; exact for `v < 32`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let offset = ((v >> (msb - SUB_BITS)) - SUB) as usize;
    group * SUB as usize + offset
}

/// Smallest value mapping to bucket `i` (the bucket's inclusive lower
/// boundary). Inverse of [`bucket_index`] on boundaries:
/// `bucket_index(bucket_floor(i)) == i`.
#[must_use]
pub fn bucket_floor(i: usize) -> u64 {
    let sub = SUB as usize;
    if i < sub {
        return i as u64;
    }
    let group = i / sub;
    let offset = (i % sub) as u64;
    (SUB + offset) << (group - 1)
}

/// Largest value mapping to bucket `i` (the bucket's inclusive upper
/// boundary); quantile queries report this, like HDR's
/// `highest_equivalent_value`.
#[must_use]
pub fn bucket_ceil(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        return u64::MAX;
    }
    bucket_floor(i + 1) - 1
}

/// Log-bucketed latency histogram with percentile extraction. All updates
/// are relaxed atomics; concurrent recording is lossless (up to the `1/32`
/// bucket quantization).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; NUM_BUCKETS],
    total: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram (usable in `static` position).
    #[must_use]
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            counts: [ZERO; NUM_BUCKETS],
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation of `v` (for latencies: nanoseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Relaxed);
        self.total.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total.load(Relaxed)
    }

    /// Sum of recorded observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest recorded observation (exact, not quantized). Zero when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Value at quantile `q ∈ [0, 1]` — the upper boundary of the bucket
    /// holding the `ceil(q·count)`-th smallest observation, so the true
    /// value is ≤ the reported one and within `1/32` of it. Zero when empty.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Relaxed);
            if seen >= rank {
                return bucket_ceil(i).min(self.max());
            }
        }
        self.max()
    }

    /// Adds this histogram's contents into `dst`, bucket by bucket. Used to
    /// merge per-shard and per-window histograms into combined views
    /// (see [`crate::serve`]); merging preserves counts, sums, and the exact
    /// maximum, and percentiles of the merged histogram are computed from
    /// the summed buckets — identical to having recorded every observation
    /// into `dst` directly (bucketing is deterministic).
    pub fn merge_into(&self, dst: &Histogram) {
        for (i, c) in self.counts.iter().enumerate() {
            let n = c.load(Relaxed);
            if n > 0 {
                dst.counts[i].fetch_add(n, Relaxed);
            }
        }
        dst.total.fetch_add(self.total.load(Relaxed), Relaxed);
        dst.sum.fetch_add(self.sum.load(Relaxed), Relaxed);
        dst.max.fetch_max(self.max.load(Relaxed), Relaxed);
    }

    /// Resets all buckets (tests and per-run collection).
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Relaxed);
        }
        self.total.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.max.store(0, Relaxed);
    }

    /// Point-in-time summary with the percentiles the query path reports.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        HistogramSummary {
            count,
            sum: self.sum(),
            max: self.max(),
            p50: self.value_at_quantile(0.50),
            p95: self.value_at_quantile(0.95),
            p99: self.value_at_quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Snapshot of one histogram (all values in the recorded unit, ns for the
/// query-path histograms). The default is the empty histogram's summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Exact maximum.
    pub max: u64,
    /// 50th percentile (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

#[cfg(feature = "enabled")]
mod registry {
    use super::{Counter, Gauge, Histogram};
    use std::sync::{Mutex, PoisonError};

    pub(super) enum Metric {
        Counter(&'static Counter),
        Gauge(&'static Gauge),
        Histogram(&'static Histogram),
    }

    static REGISTRY: Mutex<Vec<(&'static str, Metric)>> = Mutex::new(Vec::new());

    fn lookup<T>(
        name: &'static str,
        pick: impl Fn(&Metric) -> Option<&'static T>,
        make: impl FnOnce() -> Metric,
    ) -> &'static T {
        let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(found) = reg
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, m)| pick(m))
        {
            return found;
        }
        reg.push((name, make()));
        match pick(&reg[reg.len() - 1].1) {
            Some(found) => found,
            // Unreachable: `make` produced the variant `pick` accepts.
            None => unreachable!("freshly registered metric has the requested kind"),
        }
    }

    pub(super) fn counter(name: &'static str) -> &'static Counter {
        lookup(
            name,
            |m| match m {
                Metric::Counter(c) => Some(*c),
                _ => None,
            },
            || Metric::Counter(Box::leak(Box::new(Counter::new()))),
        )
    }

    pub(super) fn gauge(name: &'static str) -> &'static Gauge {
        lookup(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(*g),
                _ => None,
            },
            || Metric::Gauge(Box::leak(Box::new(Gauge::new()))),
        )
    }

    pub(super) fn histogram(name: &'static str) -> &'static Histogram {
        lookup(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(*h),
                _ => None,
            },
            || Metric::Histogram(Box::leak(Box::new(Histogram::new()))),
        )
    }

    pub(super) fn visit(
        mut on_counter: impl FnMut(&'static str, u64),
        mut on_gauge: impl FnMut(&'static str, i64),
        mut on_histogram: impl FnMut(&'static str, &'static Histogram),
    ) {
        let reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        for (name, metric) in reg.iter() {
            match metric {
                Metric::Counter(c) => on_counter(name, c.get()),
                Metric::Gauge(g) => on_gauge(name, g.get()),
                Metric::Histogram(h) => on_histogram(name, h),
            }
        }
    }
}

/// Handle to a named counter. Zero-sized no-op when the `enabled` feature is
/// off; otherwise a pointer into the global registry.
#[derive(Clone, Copy)]
pub struct CounterHandle {
    #[cfg(feature = "enabled")]
    inner: &'static Counter,
}

impl CounterHandle {
    /// Adds `n` if recording is on.
    #[inline(always)]
    pub fn add(self, n: u64) {
        #[cfg(feature = "enabled")]
        if crate::is_enabled() {
            self.inner.add(n);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Adds 1 if recording is on.
    #[inline(always)]
    pub fn inc(self) {
        self.add(1);
    }
}

/// Handle to a named gauge; see [`CounterHandle`].
#[derive(Clone, Copy)]
pub struct GaugeHandle {
    #[cfg(feature = "enabled")]
    inner: &'static Gauge,
}

impl GaugeHandle {
    /// Sets the value if recording is on.
    #[inline(always)]
    pub fn set(self, v: i64) {
        #[cfg(feature = "enabled")]
        if crate::is_enabled() {
            self.inner.set(v);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }
}

/// Handle to a named histogram; see [`CounterHandle`].
#[derive(Clone, Copy)]
pub struct HistogramHandle {
    #[cfg(feature = "enabled")]
    inner: &'static Histogram,
}

impl HistogramHandle {
    /// Records `v` if recording is on.
    #[inline(always)]
    pub fn record(self, v: u64) {
        #[cfg(feature = "enabled")]
        if crate::is_enabled() {
            self.inner.record(v);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }
}

/// Looks up (registering on first use) the counter named `name`. The lookup
/// takes a lock — cache the handle or call from cold paths only.
#[inline(always)]
#[must_use]
pub fn counter(name: &'static str) -> CounterHandle {
    #[cfg(feature = "enabled")]
    {
        CounterHandle {
            inner: registry::counter(name),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        CounterHandle {}
    }
}

/// Looks up (registering on first use) the gauge named `name`.
#[inline(always)]
#[must_use]
pub fn gauge(name: &'static str) -> GaugeHandle {
    #[cfg(feature = "enabled")]
    {
        GaugeHandle {
            inner: registry::gauge(name),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        GaugeHandle {}
    }
}

/// Looks up (registering on first use) the histogram named `name`.
#[inline(always)]
#[must_use]
pub fn histogram(name: &'static str) -> HistogramHandle {
    #[cfg(feature = "enabled")]
    {
        HistogramHandle {
            inner: registry::histogram(name),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        HistogramHandle {}
    }
}

/// Point-in-time snapshot of every registered metric. Empty when the
/// `enabled` feature is off. The Chrome-trace counter events and the
/// summary table both consume this shape; the windowed serving grid
/// reaches the trace as the closed-loop driver's
/// [`crate::serve::HistoryWindow`] list instead.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for each counter, registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for each gauge, registration order.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for each histogram, registration order.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Takes a [`MetricsSnapshot`] of the registry.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    #[cfg_attr(not(feature = "enabled"), allow(unused_mut))]
    let mut snap = MetricsSnapshot::default();
    #[cfg(feature = "enabled")]
    {
        registry::visit(
            |name, v| snap.counters.push((name.to_string(), v)),
            |name, v| snap.gauges.push((name.to_string(), v)),
            |name, h| snap.histograms.push((name.to_string(), h.summary())),
        );
    }
    snap
}
