//! Span nesting and merge-at-join behavior. Needs the `enabled` feature
//! (`cargo test -p parcsr-obs --features enabled`); the whole file is one
//! test because spans land in a process-global sink and Rust runs tests in
//! the same binary concurrently.
#![cfg(feature = "enabled")]

use parcsr_obs::{self as obs, export, json::Json, metrics, SpanRecord};
use rayon::prelude::*;

fn find<'a>(records: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
    records
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no span named {name}"))
}

#[test]
fn spans_nest_merge_at_join_and_export() {
    // --- runtime off: nothing is recorded ------------------------------
    obs::set_enabled(false);
    {
        obs::span!("ignored");
    }
    assert!(obs::drain().is_empty(), "recording while disabled");

    obs::set_enabled(true);

    // --- nesting on the coordinator ------------------------------------
    {
        let _outer = obs::enter("outer");
        let inner_result = obs::with_span("inner", || 41 + 1);
        assert_eq!(inner_result, 42);
    }
    let records = obs::drain();
    assert_eq!(records.len(), 2);
    let outer = find(&records, "outer");
    let inner = find(&records, "inner");
    assert_eq!(outer.tid, 0);
    assert_eq!(inner.tid, 0);
    assert_eq!(outer.depth, 0);
    assert_eq!(inner.depth, 1);
    assert!(outer.start_ns <= inner.start_ns);
    assert!(inner.end_ns() <= outer.end_ns());

    // --- worker spans merge into the sink at join ----------------------
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    pool.install(|| {
        let _region = obs::enter("region");
        (0..4u64).into_par_iter().for_each(|_| {
            let _w = obs::enter("work.chunk");
            std::hint::black_box((0..20_000u64).sum::<u64>());
        });
    });
    // Workers exited at the join inside `install`; their buffers must
    // already be in the sink when the coordinator drains.
    let records = obs::drain();
    let worker_tids: Vec<u32> = records
        .iter()
        .filter(|r| r.name == "work.chunk")
        .map(|r| r.tid)
        .collect();
    assert_eq!(worker_tids.len(), 4);
    let mut unique = worker_tids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique, [1, 2, 3, 4], "one chunk per worker at width 4");
    assert_eq!(find(&records, "region").tid, 0);

    // --- chrome trace export: well-formed, time-ordered per thread -----
    let json_text = export::chrome_trace_json(&records).pretty();
    let parsed = Json::parse(&json_text).expect("trace must be valid JSON");
    let events = parsed.as_array().expect("trace is an array");
    assert_eq!(events.len(), records.len());
    let mut last_ts_per_tid: std::collections::BTreeMap<i64, f64> = Default::default();
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        let tid = e.get("tid").unwrap().as_i64().unwrap();
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        if let Some(prev) = last_ts_per_tid.insert(tid, ts) {
            assert!(ts >= prev, "events out of order on tid {tid}");
        }
    }

    // --- summary table over real spans ---------------------------------
    let table = export::summary_table(&records, &metrics::snapshot(), obs::mem::snapshot());
    assert!(table.contains("work.chunk"));
    assert!(table.contains("region"));

    // --- unsampled records carry period 1 and empty args ----------------
    for r in &records {
        assert_eq!(r.sample, 1);
        assert!(r.args.is_empty());
        assert_eq!(r.mem_peak, 0, "no counting allocator in this test binary");
    }

    // --- span args thread through to the records ------------------------
    {
        obs::span!("args.guard", edges = 64u64, bits = 5u32);
    }
    obs::with_span_args(
        "args.closure",
        obs::SpanArgs::new().chunk(2).chunk_len(16),
        || (),
    );
    let records = obs::drain();
    let g = find(&records, "args.guard");
    assert_eq!(g.args.edges, Some(64));
    assert_eq!(g.args.bits, Some(5));
    assert_eq!(g.args.chunk, None);
    let c = find(&records, "args.closure");
    assert_eq!(c.args.chunk, Some(2));
    assert_eq!(c.args.chunk_len, Some(16));

    // --- metrics facade respects the runtime switch --------------------
    metrics::counter("test.events").add(2);
    metrics::gauge("test.width").set(4);
    metrics::histogram("test.latency_ns").record(std::hint::black_box(1_000));
    let snap = metrics::snapshot();
    assert!(snap
        .counters
        .iter()
        .any(|(n, v)| n == "test.events" && *v == 2));
    assert!(snap
        .gauges
        .iter()
        .any(|(n, v)| n == "test.width" && *v == 4));
    assert!(snap
        .histograms
        .iter()
        .any(|(n, h)| n == "test.latency_ns" && h.count == 1));

    obs::set_enabled(false);
    metrics::counter("test.events").add(5);
    let snap = metrics::snapshot();
    assert!(
        snap.counters
            .iter()
            .any(|(n, v)| n == "test.events" && *v == 2),
        "counter must not move while runtime-disabled"
    );
}
