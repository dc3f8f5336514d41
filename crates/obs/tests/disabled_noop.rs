//! With the `enabled` feature off (the workspace default), every facade
//! entry point must be callable and record nothing — this is the
//! configuration every production crate builds in.
#![cfg(not(feature = "enabled"))]

use parcsr_obs::{self as obs, export, metrics};

#[test]
fn facade_is_inert_without_the_feature() {
    assert!(!obs::compiled());
    obs::set_enabled(true); // no-op: the switch needs the feature
    assert!(!obs::is_enabled());

    {
        obs::span!("stage");
        obs::span!("stage.args", edges = 10u64, chunk = 0u64);
        let block = obs::span!("stage.block", { 3 });
        assert_eq!(block, 3);
        let _guard = obs::enter("nested");
        let _guard2 = obs::enter_with_args("nested.args", obs::SpanArgs::new().bits(7));
        assert_eq!(obs::with_span("inner", || 7), 7);
        assert_eq!(
            obs::with_span_args("inner.args", obs::SpanArgs::new().edges(1), || 8),
            8
        );
    }
    assert!(obs::drain().is_empty());

    // Sampling and memory knobs are inert too.
    obs::set_trace_sample(8);
    assert_eq!(obs::trace_sample(), 1);
    obs::mem::set_enabled(true);
    assert!(!obs::mem::active());
    assert_eq!(obs::mem::snapshot(), None);
    assert_eq!(obs::mem::live_bytes(), 0);
    assert_eq!(obs::mem::peak_bytes(), 0);
    obs::mem::reset_watermark();
    obs::mem::publish_gauges();
    obs::mem::set_sample_period(4);
    assert_eq!(obs::mem::sample_period(), 0);
    assert_eq!(obs::mem::span_mark_save(), 0);
    assert_eq!(obs::mem::span_mark_restore(7), 0);

    // The analyzer is plain arithmetic and stays available, but a disabled
    // build has nothing to feed it.
    let analysis = parcsr_obs::analyze::analyze_records(&obs::drain());
    assert!(analysis.instances.is_empty() && analysis.stages.is_empty());

    metrics::counter("c").inc();
    metrics::gauge("g").set(9);
    metrics::histogram("h").record(100);
    let snap = metrics::snapshot();
    assert!(snap.is_empty());

    let note = export::summary_table(&obs::drain(), &snap, obs::mem::snapshot());
    assert!(note.contains("nothing recorded"));
    assert!(note.contains("without the `enabled` feature"));
}

#[test]
fn guards_are_zero_sized_when_disabled() {
    // The zero-overhead claim, checked structurally: disabled guards carry
    // no state at all.
    assert_eq!(std::mem::size_of::<parcsr_obs::Span>(), 0);
    assert_eq!(std::mem::size_of::<parcsr_obs::metrics::CounterHandle>(), 0);
    assert_eq!(std::mem::size_of::<parcsr_obs::metrics::GaugeHandle>(), 0);
    assert_eq!(
        std::mem::size_of::<parcsr_obs::metrics::HistogramHandle>(),
        0
    );
}
