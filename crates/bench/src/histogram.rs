//! Log-bucketed latency histograms: the cell type of the closed-loop
//! driver's per-client [`QuerySlab`](crate::serve::QuerySlab).
//!
//! The histogram is HDR-style log-bucketed: values `< 32` get exact
//! single-value buckets; above that each power-of-two octave is split into
//! 32 linear sub-buckets, bounding the relative quantization error at
//! `1/32` (~3.1%) while covering the full `u64` range in 1920 buckets
//! (15 KiB of plain `u64` counters per histogram). One thread owns each
//! histogram; merging happens after the owners join.

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

/// Log-bucketed latency histogram with percentile extraction.
#[derive(Debug, Clone)]
pub struct Histogram {
    // Boxed: 15 KiB of buckets, and a slab holds twelve histograms.
    counts: Box<[u64]>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS].into_boxed_slice(),
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation of `v` (for latencies: nanoseconds).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded observation (exact, not quantized). Zero when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q ∈ [0, 1]` — the upper boundary of the bucket
    /// holding the `ceil(q·count)`-th smallest observation, so the true
    /// value is ≤ the reported one and within `1/32` of it. Zero when empty.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let total = self.total;
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_ceil(i).min(self.max);
            }
        }
        self.max
    }

    /// Adds this histogram's contents into `dst`, bucket by bucket. Merging
    /// preserves counts, sums, and the exact maximum, and percentiles of
    /// the merged histogram are computed from the summed buckets —
    /// identical to having recorded every observation into `dst` directly
    /// (bucketing is deterministic).
    pub fn merge_into(&self, dst: &mut Histogram) {
        for (d, &c) in dst.counts.iter_mut().zip(self.counts.iter()) {
            *d += c;
        }
        dst.total += self.total;
        dst.sum += self.sum;
        dst.max = dst.max.max(self.max);
    }

    /// Summary with the percentiles the driver reports.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.total,
            sum: self.sum,
            max: self.max,
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
/// driver's latencies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
