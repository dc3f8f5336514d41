//! Property tests for the closed-loop run record: merging per-client slabs
//! must be indistinguishable from one slab that recorded every query, and
//! percentile summaries must stay internally ordered under arbitrary
//! merges.

use parcsr_bench::histogram::Histogram;
use parcsr_bench::serve::{DegreeClass, Exemplar, QueryKind, QuerySlab, NUM_QUERY_KINDS};
use proptest::prelude::*;

/// One recorded observation: shard picked by the caller, a `(kind, class)`
/// cell, a latency value.
fn arb_samples(max: usize) -> impl Strategy<Value = Vec<(usize, usize, usize, u64)>> {
    prop::collection::vec(
        (
            0usize..64,
            0..NUM_QUERY_KINDS,
            0usize..3,
            0u64..10_000_000_000,
        ),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The foundation of merge-at-join: log-bucketed recording is
    /// deterministic, so merging the clients' slabs after they join is
    /// bit-identical to having recorded everything into one slab.
    #[test]
    fn sharded_merge_equals_single_slab(
        samples in arb_samples(400),
        shards in 1usize..9,
    ) {
        let mut per_client = vec![QuerySlab::default(); shards];
        let mut single = QuerySlab::default();
        for &(shard, k, c, ns) in &samples {
            let ex = Exemplar {
                kind: QueryKind::ALL[k],
                class: DegreeClass::ALL[c],
                source: shard as u64,
                ns,
            };
            per_client[shard % shards].record_query(ex);
            single.record_query(ex);
        }
        let mut merged = QuerySlab::default();
        for slab in &per_client {
            merged.merge(slab);
        }

        // Every cell, every rollup, and the total must agree exactly.
        for kind in QueryKind::ALL {
            for class in DegreeClass::ALL {
                prop_assert_eq!(
                    merged.summary(Some(kind), Some(class)),
                    single.summary(Some(kind), Some(class)),
                    "cell ({:?}, {:?})", kind, class
                );
            }
            prop_assert_eq!(
                merged.summary(Some(kind), None),
                single.summary(Some(kind), None)
            );
        }
        for class in DegreeClass::ALL {
            prop_assert_eq!(
                merged.summary(None, Some(class)),
                single.summary(None, Some(class))
            );
        }
        prop_assert_eq!(merged.summary(None, None), single.summary(None, None));
        prop_assert_eq!(merged.summary(None, None).count, samples.len() as u64);
        // The same K slowest latencies survive either way (ties may keep
        // different queries of equal latency).
        let ns = |slab: &QuerySlab| slab.exemplars().iter().map(|e| e.ns).collect::<Vec<_>>();
        prop_assert_eq!(ns(&merged), ns(&single));
    }

    /// Percentile extraction stays internally ordered no matter how many
    /// histograms were merged, and merging is lossless in count/sum/max.
    #[test]
    fn percentiles_stay_monotone_across_merges(
        parts in prop::collection::vec(
            prop::collection::vec(0u64..10_000_000_000, 1..60),
            1..6,
        ),
    ) {
        let mut merged = Histogram::new();
        let mut direct = Histogram::new();
        for part in &parts {
            let mut h = Histogram::new();
            for &v in part {
                h.record(v);
                direct.record(v);
            }
            h.merge_into(&mut merged);
        }
        let s = merged.summary();
        prop_assert!(s.p50 <= s.p95, "{s:?}");
        prop_assert!(s.p95 <= s.p99, "{s:?}");
        prop_assert!(s.p99 <= s.max, "{s:?}");
        // Merge ≡ direct recording, field for field.
        prop_assert_eq!(s, direct.summary());
    }
}
