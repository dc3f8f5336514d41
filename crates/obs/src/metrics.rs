//! Log-bucketed latency histograms: the value type the serving slabs in
//! [`crate::serve`] are built from.
//!
//! [`Histogram`] is always compiled and fully functional — plain relaxed
//! atomics, `const` constructible, and unit-testable without any feature.
//!
//! The histogram is HDR-style log-bucketed: values `< 32` get exact
//! single-value buckets; above that each power-of-two octave is split into
//! 32 linear sub-buckets, bounding the relative quantization error at
//! `1/32` (~3.1%) while covering the full `u64` range in 1920 buckets
//! (15 KiB of relaxed atomics per histogram).

// ORDERING: Relaxed throughout — histogram buckets are independent
// statistical cells, snapshotted after the workload's join; no reader
// depends on cross-cell ordering.
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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
