//! Regression test for the `span!` nesting footgun.
//!
//! The bare statement form `span!("a"); span!("b");` keeps both guards
//! alive to the end of the scope, so `b` records *inside* `a` (depth 1) —
//! correct for enclosing a region, surprising for timing two sequential
//! stages. The block form `span!("a", { ... })` and `with_span` drop the
//! guard at the end of the stage, producing siblings. This file pins both
//! behaviors so a macro refactor cannot silently change recorded depths.
//!
//! Needs the `enabled` feature; one test function because spans land in a
//! process-global sink.
#![cfg(feature = "enabled")]

use parcsr_obs::{self as obs, SpanRecord};

fn depth_of(records: &[SpanRecord], name: &str) -> u16 {
    records
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no span named {name}"))
        .depth
}

#[test]
fn span_macro_forms_record_the_documented_depths() {
    obs::set_enabled(true);
    let _ = obs::drain();

    // Block form: sequential stages are siblings.
    let a = obs::span!("seq.a", { 40 + 1 });
    obs::span!("seq.b", {
        assert_eq!(a, 41);
    });
    let records = obs::drain();
    assert_eq!(depth_of(&records, "seq.a"), 0);
    assert_eq!(depth_of(&records, "seq.b"), 0, "block form must not nest");
    let (a, b) = (
        records.iter().find(|r| r.name == "seq.a").unwrap(),
        records.iter().find(|r| r.name == "seq.b").unwrap(),
    );
    assert!(
        a.end_ns() <= b.start_ns,
        "block-form spans must not overlap"
    );

    // Bare statement form: guards coexist to scope end, so later spans in
    // the same scope record as children of earlier ones — the footgun.
    {
        obs::span!("bare.outer");
        obs::span!("bare.inner");
    }
    let records = obs::drain();
    assert_eq!(depth_of(&records, "bare.outer"), 0);
    assert_eq!(
        depth_of(&records, "bare.inner"),
        1,
        "bare statement spans in one scope nest by design"
    );

    // `with_span` sequences are siblings too.
    obs::with_span("ws.a", || ());
    obs::with_span("ws.b", || ());
    let records = obs::drain();
    assert_eq!(depth_of(&records, "ws.a"), 0);
    assert_eq!(depth_of(&records, "ws.b"), 0);

    // Args forms record their payload in both shapes.
    obs::span!("args.block", edges = 9u64, bits = 3u32, {});
    {
        obs::span!("args.bare", chunk = 2u64, chunk_len = 64u64);
    }
    let records = obs::drain();
    let block = records.iter().find(|r| r.name == "args.block").unwrap();
    assert_eq!(block.args.edges, Some(9));
    assert_eq!(block.args.bits, Some(3));
    let bare = records.iter().find(|r| r.name == "args.bare").unwrap();
    assert_eq!(bare.args.chunk, Some(2));
    assert_eq!(bare.args.chunk_len, Some(64));

    obs::set_enabled(false);
}
