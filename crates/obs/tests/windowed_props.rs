//! Property tests for the serving-telemetry layer: sharded slab recording
//! must be indistinguishable from a single slab after the snapshot merge,
//! window rotation must never lose an in-window sample, a window two
//! rotations old must read `None`, and percentile summaries must stay
//! internally ordered under arbitrary merges. Like the histogram props,
//! these run without the `enabled` feature: the slab and windowed-histogram
//! value types are always compiled.

use parcsr_obs::metrics::Histogram;
use parcsr_obs::serve::{
    DegreeClass, Exemplar, QueryKind, QuerySlabs, WindowedHistogram, NUM_QUERY_KINDS,
};
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

fn record_all(slabs: &QuerySlabs, samples: &[(usize, usize, usize, u64)], spread: bool) {
    for &(shard, k, c, ns) in samples {
        let shard = if spread { shard } else { 0 };
        let ex = Exemplar {
            kind: QueryKind::ALL[k],
            class: DegreeClass::ALL[c],
            source: shard as u64,
            ns,
        };
        slabs.record_query(shard, ex);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The foundation of the snapshot design: log-bucketed recording is
    /// deterministic, so merging per-shard histograms at snapshot time is
    /// bit-identical to having recorded everything into one slab.
    #[test]
    fn sharded_merge_equals_single_slab(
        samples in arb_samples(400),
        shards in 1usize..9,
    ) {
        let sharded = QuerySlabs::new(shards);
        let single = QuerySlabs::new(1);
        record_all(&sharded, &samples, true);
        record_all(&single, &samples, false);

        // Every cell, every rollup, and the total must agree exactly.
        for kind in QueryKind::ALL {
            for class in DegreeClass::ALL {
                prop_assert_eq!(
                    sharded.overall_summary(Some(kind), Some(class)),
                    single.overall_summary(Some(kind), Some(class)),
                    "cell ({:?}, {:?})", kind, class
                );
            }
            prop_assert_eq!(
                sharded.overall_summary(Some(kind), None),
                single.overall_summary(Some(kind), None)
            );
        }
        for class in DegreeClass::ALL {
            prop_assert_eq!(
                sharded.overall_summary(None, Some(class)),
                single.overall_summary(None, Some(class))
            );
        }
        prop_assert_eq!(
            sharded.overall_summary(None, None),
            single.overall_summary(None, None)
        );
    }

    /// Rotation bookkeeping: however a sample stream is split across
    /// rotations, each completed window holds exactly its batch until the
    /// next rotation, and the live window holds exactly what came after.
    #[test]
    fn rotation_loses_no_in_window_samples(
        batches in prop::collection::vec(
            prop::collection::vec(0u64..1_000_000_000, 0..40),
            1..8,
        ),
        tail in prop::collection::vec(0u64..1_000_000_000, 0..40),
    ) {
        let h = WindowedHistogram::default();
        for (i, batch) in batches.iter().enumerate() {
            for &v in batch {
                h.record(v);
            }
            let epoch = h.rotate();
            prop_assert_eq!(epoch, i as u64);
            let win = h.window(epoch).expect("completed window still retained");
            prop_assert_eq!(win.count(), batch.len() as u64);
            prop_assert_eq!(win.sum(), batch.iter().sum::<u64>());
        }
        for &v in &tail {
            h.record(v);
        }

        // The last completed window is untouched by the tail, and the live
        // window holds exactly the tail.
        let last = batches.last().unwrap();
        let win = h.window(h.epoch() - 1).expect("last completed window");
        prop_assert_eq!(win.count(), last.len() as u64);
        let live = h.window(h.epoch()).expect("live window");
        prop_assert_eq!(live.count(), tail.len() as u64);
        prop_assert_eq!(live.sum(), tail.iter().sum::<u64>());
    }

    /// Epoch wrap-around: the two slots alternate, so after any number of
    /// rotations exactly the live epoch and the one before it are readable
    /// (the latter with exactly its batch), the live one starts empty
    /// (rotation reset its slot), and every older epoch reads back as
    /// `None`.
    #[test]
    fn wrap_around_evicts_oldest_first(
        batch_sizes in prop::collection::vec(1usize..20, 2..16),
    ) {
        let h = WindowedHistogram::default();
        for (i, &n) in batch_sizes.iter().enumerate() {
            for _ in 0..n {
                h.record(i as u64 + 1);
            }
            let completed = h.rotate();
            prop_assert_eq!(completed, i as u64);
            // The freshly opened live window reuses a cleared slot.
            prop_assert_eq!(h.window(h.epoch()).map(|w| w.count()), Some(0));
        }

        let live = h.epoch();
        prop_assert_eq!(live, batch_sizes.len() as u64);
        for (e, &n) in batch_sizes.iter().enumerate() {
            let e = e as u64;
            if e + 1 == live {
                let win = h.window(e).expect("the last completed window");
                prop_assert_eq!(win.count(), n as u64);
                prop_assert_eq!(win.sum(), n as u64 * (e + 1));
            } else {
                // Two or more rotations old: evicted.
                prop_assert!(h.window(e).is_none(), "epoch {e} not evicted");
            }
        }
        // Epochs that never happened are not retained either.
        prop_assert!(h.window(live + 1).is_none());
    }

    /// Percentile extraction stays internally ordered no matter how many
    /// histograms were merged into the snapshot, and merging is lossless in
    /// count/sum/max.
    #[test]
    fn percentiles_stay_monotone_across_merges(
        parts in prop::collection::vec(
            prop::collection::vec(0u64..10_000_000_000, 1..60),
            1..6,
        ),
    ) {
        let merged = Histogram::new();
        let direct = Histogram::new();
        for part in &parts {
            let h = Histogram::new();
            for &v in part {
                h.record(v);
                direct.record(v);
            }
            h.merge_into(&merged);
        }
        let s = merged.summary();
        prop_assert!(s.p50 <= s.p95, "{s:?}");
        prop_assert!(s.p95 <= s.p99, "{s:?}");
        prop_assert!(s.p99 <= s.max, "{s:?}");
        // Merge ≡ direct recording, field for field.
        prop_assert_eq!(s, direct.summary());
    }
}
