//! With the `enabled` feature off (the workspace default), every facade
//! entry point must be callable and record nothing — this is the
//! configuration every production crate builds in.
#![cfg(not(feature = "enabled"))]

use parcsr_obs::{self as obs, export};

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

    // Memory accounting is inert too, even with recording switched on.
    assert!(!obs::mem::active());
    assert_eq!(obs::mem::snapshot(), None);
    assert_eq!(obs::mem::live_bytes(), 0);
    assert_eq!(obs::mem::peak_bytes(), 0);
    obs::mem::reset_watermark();
    assert_eq!(obs::mem::watermark_bytes(), 0);

    let note = export::summary_table(&obs::drain(), obs::mem::snapshot());
    assert!(note.contains("nothing recorded"));
    assert!(note.contains("without the `enabled` feature"));
}

#[test]
fn guards_are_zero_sized_when_disabled() {
    // The zero-overhead claim, checked structurally: disabled guards carry
    // no state at all.
    assert_eq!(std::mem::size_of::<parcsr_obs::Span>(), 0);
}
