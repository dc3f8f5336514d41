//! Property tests for the trace analyzer's and the stage aggregation's
//! math. These run without the `enabled` feature: `parcsr_obs::analyze` and
//! `parcsr_obs::export::aggregate_stages` are plain arithmetic over
//! already-collected spans and are always compiled.

use parcsr_obs::analyze::{analyze, AnalyzedSpan};
use parcsr_obs::export::aggregate_stages;
use parcsr_obs::{SpanArgs, SpanRecord};
use proptest::prelude::*;

/// A random stage instance: wall `[0, wall)` plus worker spans described as
/// `(tid, start offset, duration)`, clipped into the stage.
fn build_spans(wall: u64, workers: &[(u32, u64, u64)]) -> Vec<AnalyzedSpan> {
    let mut spans = vec![AnalyzedSpan {
        name: "stage".to_string(),
        start_ns: 0,
        dur_ns: wall,
        tid: 0,
        depth: 0,
        chunk: None,
        chunk_len: None,
        edges: None,
    }];
    for &(tid, start, dur) in workers {
        let start = start.min(wall);
        let dur = dur.min(wall - start);
        spans.push(AnalyzedSpan {
            name: "stage.work".to_string(),
            start_ns: start,
            dur_ns: dur,
            tid: 1 + tid % 8,
            depth: 0,
            chunk: Some(u64::from(tid)),
            chunk_len: Some(dur),
            edges: None,
        });
    }
    spans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn utilization_in_unit_interval_and_critical_path_bounded(
        wall in 1u64..1_000_000,
        workers in prop::collection::vec(
            (0u32..8, 0u64..1_000_000, 0u64..1_000_000), 0..24),
    ) {
        let spans = build_spans(wall, &workers);
        let a = analyze(&spans);
        prop_assert_eq!(a.instances.len(), 1);
        let i = &a.instances[0];

        // Utilization is a fraction of available capacity.
        prop_assert!(i.utilization > 0.0 && i.utilization <= 1.0,
            "utilization {} out of (0, 1]", i.utilization);
        // The critical path is one lane's work: never more than the total.
        prop_assert!(i.critical_path_ns <= i.busy_ns,
            "critical path {} exceeds total work {}", i.critical_path_ns, i.busy_ns);
        prop_assert!(i.critical_path_ratio > 0.0 && i.critical_path_ratio <= 1.0);

        // Busy time equals the sum of attributed durations.
        let expected: u64 = spans.iter().skip(1).map(|s| s.dur_ns).sum();
        if expected > 0 {
            prop_assert_eq!(i.busy_ns, expected);
        }

        // The summary agrees with the single instance.
        let s = a.stage("stage").unwrap();
        prop_assert!((s.utilization - i.utilization).abs() < 1e-12);
        prop_assert!((s.min_utilization - i.utilization).abs() < 1e-12);
        prop_assert_eq!(s.max_workers, i.workers.len());
    }

    #[test]
    fn chunk_cv_is_finite_and_straggler_is_the_max(
        wall in 1u64..1_000_000,
        workers in prop::collection::vec(
            (0u32..8, 0u64..1_000_000, 1u64..1_000_000), 1..24),
    ) {
        let spans = build_spans(wall, &workers);
        let a = analyze(&spans);
        let i = &a.instances[0];
        if let Some(st) = a.stage("stage").unwrap().chunks.as_ref() {
            prop_assert!(st.cv.is_finite() && st.cv >= 0.0);
            let max = i.chunks.iter().map(|c| c.dur_ns).max().unwrap();
            prop_assert_eq!(st.max_ns, max);
            prop_assert!(st.mean_ns <= max as f64 + 1e-9);
            prop_assert!(st.observed == i.chunks.len());
            if let Some(c) = st.corr_chunk_len {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
            }
        }
    }

    /// Records aggregate without any inflation: `calls` counts the records
    /// and `total_ms` is their exact summed duration.
    #[test]
    fn unsampled_aggregation_is_exact(durs in prop::collection::vec(1u64..1_000_000, 1..50)) {
        let spans: Vec<SpanRecord> = durs
            .iter()
            .enumerate()
            .map(|(i, &d)| SpanRecord {
                name: "stage",
                start_ns: i as u64 * 2_000_000,
                dur_ns: d,
                tid: 0,
                depth: 0,
                args: SpanArgs::new(),
                mem_peak: 0,
                mem_live: 0,
            })
            .collect();
        let agg = aggregate_stages(&spans, false);
        prop_assert_eq!(agg[0].calls, durs.len() as u64);
        let exact_ms = durs.iter().sum::<u64>() as f64 / 1e6;
        prop_assert!((agg[0].total_ms - exact_ms).abs() < 1e-9);
    }
}
