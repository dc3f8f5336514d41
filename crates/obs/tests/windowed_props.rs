//! Property tests for the serving-telemetry layer: sharded slab recording
//! must be indistinguishable from a single slab after the snapshot merge,
//! window rotation must never lose an in-window sample, and percentile
//! summaries must stay internally ordered under arbitrary merges. Like the
//! histogram props, these run without the `enabled` feature: the slab and
//! windowed-histogram value types are always compiled.

use parcsr_obs::metrics::Histogram;
use parcsr_obs::serve::{DegreeClass, QueryKind, QuerySlabs, WindowedHistogram, NUM_QUERY_KINDS};
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
        slabs.record(shard, QueryKind::ALL[k], DegreeClass::ALL[c], ns);
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
        let sharded = QuerySlabs::new(shards, 3);
        let single = QuerySlabs::new(1, 3);
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

    /// Rotation bookkeeping: splitting a sample stream across up to
    /// `windows - 1` rotations loses nothing — every batch is retrievable
    /// from its completed window, and retained + live together hold every
    /// recorded value.
    #[test]
    fn rotation_loses_no_in_window_samples(
        batches in prop::collection::vec(
            prop::collection::vec(0u64..1_000_000_000, 1..40),
            1..4,
        ),
        windows in 2usize..6,
        tail in prop::collection::vec(0u64..1_000_000_000, 0..40),
    ) {
        // At most windows - 1 completed batches stay retrievable; cap the
        // rotation count so nothing is *expected* to expire.
        let batches = &batches[..batches.len().min(windows - 1)];
        let h = WindowedHistogram::new(windows);
        let mut epochs = Vec::new();
        for batch in batches {
            for &v in batch {
                h.record(v);
            }
            epochs.push(h.rotate());
        }
        for &v in &tail {
            h.record(v);
        }

        // Each completed window holds exactly its batch.
        for (batch, &epoch) in batches.iter().zip(&epochs) {
            let win = h.window(epoch).expect("window still retained");
            prop_assert_eq!(win.count(), batch.len() as u64);
            prop_assert_eq!(win.sum(), batch.iter().sum::<u64>());
        }
        // The live window holds exactly the tail.
        prop_assert_eq!(h.live().count(), tail.len() as u64);

        // The retained set (completed windows + live) covers every sample
        // ever recorded — nothing has expired at <= windows - 1 rotations.
        let merged = Histogram::new();
        h.merge_retained_into(&merged);
        let total: usize = batches.iter().map(Vec::len).sum::<usize>() + tail.len();
        prop_assert_eq!(merged.count(), total as u64);
    }

    /// Epoch wrap-around: rotating more times than the ring holds evicts
    /// oldest-first and only oldest — every epoch within the retention
    /// horizon still serves exactly its own batch, every epoch past it
    /// reads back as `None`, and the slot a new live window reuses starts
    /// empty (rotation reset it).
    #[test]
    fn wrap_around_evicts_oldest_first(
        batch_sizes in prop::collection::vec(1usize..20, 4..16),
        windows in 2usize..6,
    ) {
        let h = WindowedHistogram::new(windows);
        for (i, &n) in batch_sizes.iter().enumerate() {
            for _ in 0..n {
                h.record(i as u64 + 1);
            }
            let completed = h.rotate();
            prop_assert_eq!(completed, i as u64);
            // The freshly opened live window reuses a cleared slot.
            prop_assert_eq!(h.live().count(), 0);
        }

        let live = h.epoch();
        prop_assert_eq!(live, batch_sizes.len() as u64);
        for (e, &n) in batch_sizes.iter().enumerate() {
            let e = e as u64;
            match h.window(e) {
                Some(win) => {
                    // Within the horizon: the batch survived intact.
                    prop_assert!(live - e < windows as u64, "epoch {e} should be evicted");
                    prop_assert_eq!(win.count(), n as u64);
                    prop_assert_eq!(win.sum(), n as u64 * (e + 1));
                }
                None => {
                    // Past the horizon: evicted, and only because of age.
                    prop_assert!(live - e >= windows as u64, "epoch {e} evicted too early");
                }
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
