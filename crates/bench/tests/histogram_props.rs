//! Property tests for the log-bucketed histogram's bucket geometry and
//! percentile extraction.

use parcsr_bench::histogram::{bucket_ceil, bucket_floor, bucket_index, Histogram, NUM_BUCKETS};
use proptest::prelude::*;

proptest! {
    #[test]
    fn index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
    }

    #[test]
    fn value_lands_inside_its_bucket(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < NUM_BUCKETS);
        prop_assert!(bucket_floor(i) <= v);
        prop_assert!(v <= bucket_ceil(i));
    }

    #[test]
    fn boundaries_map_to_their_own_bucket(i in 0usize..NUM_BUCKETS) {
        prop_assert_eq!(bucket_index(bucket_floor(i)), i);
        prop_assert_eq!(bucket_index(bucket_ceil(i)), i);
    }

    #[test]
    fn bucket_relative_error_is_bounded(v in 1u64..u64::MAX) {
        // Bucket width over lower bound never exceeds 1/32 (5 sub-bucket
        // bits), so quantile answers are within ~3.1% of the true value.
        let i = bucket_index(v);
        let width = bucket_ceil(i).saturating_sub(bucket_floor(i)) as u128 + 1;
        let floor = bucket_floor(i).max(1) as u128;
        prop_assert!(width == 1 || width * 32 <= floor,
            "bucket {} spans [{}, {}]", i, bucket_floor(i), bucket_ceil(i));
    }

    #[test]
    fn quantiles_bracket_recorded_values(values in prop::collection::vec(0u64..1_000_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.max(), hi);
        let p50 = h.value_at_quantile(0.50);
        let p95 = h.value_at_quantile(0.95);
        let p99 = h.value_at_quantile(0.99);
        prop_assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
        for q in [p50, p95, p99] {
            // Reported quantiles are bucket upper bounds clamped to the
            // exact max, so they sit within the recorded range.
            prop_assert!(q >= lo && q <= hi, "q={q} lo={lo} hi={hi}");
        }
        prop_assert_eq!(h.value_at_quantile(1.0), hi);
    }

    #[test]
    fn single_value_quantile_is_within_bucket_error(v in 0u64..u64::MAX / 2) {
        let mut h = Histogram::new();
        h.record(v);
        let got = h.value_at_quantile(0.5);
        // One observation: every quantile reports its bucket, clamped to
        // the exact max.
        prop_assert_eq!(got, v);
    }
}

#[test]
fn empty_histogram_reports_zero() {
    let h = Histogram::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.value_at_quantile(0.99), 0);
    let s = h.summary();
    assert_eq!((s.count, s.p50, s.p99, s.max), (0, 0, 0, 0));
}

#[test]
fn small_values_are_exact() {
    // Values below 32 get single-value buckets.
    for v in 0..32u64 {
        assert_eq!(bucket_index(v), v as usize);
        assert_eq!(bucket_floor(v as usize), v);
        assert_eq!(bucket_ceil(v as usize), v);
    }
}
