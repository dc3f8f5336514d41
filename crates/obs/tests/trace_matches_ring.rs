//! The Chrome trace's serving series are a rendering of the history ring:
//! every `query.win.*`, `query.win.qps`, `query.phase.*` and
//! `query.exemplar.*` event must match a `history_snapshot()` window cell
//! for cell, with the same ordinal and timestamp, and once the ring wraps
//! the trace holds exactly its newest `HISTORY_WINDOWS` windows.
//!
//! Needs the `enabled` feature (`cargo test -p parcsr-obs --features
//! enabled`). The single test drives the process-global slabs and ring, so
//! nothing else in this binary may touch them.
#![cfg(feature = "enabled")]

use parcsr_obs::export::write_chrome_trace;
use parcsr_obs::json::Json;
use parcsr_obs::metrics::{HistogramSummary, MetricsSnapshot};
use parcsr_obs::serve::{
    self, exemplar_series_name, phase_series_name, window_series_name, HistoryWindow, QueryKind,
    QueryPhase, HISTORY_WINDOWS,
};

/// Records `1 + window % 9` queries through the global guard, with kinds,
/// degree classes and sources varying so windows span several cells, then
/// rotates one window.
fn run_window(window: u64) {
    const KINDS: [QueryKind; 4] = [
        QueryKind::Neighbors,
        QueryKind::EdgeScan,
        QueryKind::EdgeBinary,
        QueryKind::SplitSearch,
    ];
    for i in window * 16..=window * 16 + window % 9 {
        let mut q = serve::query_start();
        q.source(i);
        std::hint::black_box((0..(i % 7) * 50).sum::<u64>());
        q.finish(KINDS[(i % 4) as usize], || {
            [5, 100, 5_000][(i % 3) as usize]
        });
    }
    serve::rotate_window().expect("a recorded query opens the global slabs");
}

type Event = (String, f64, Vec<(&'static str, f64)>);

/// The serving events `history` must export, in order: every window's
/// cells and qps point, then every window's phase points, then every
/// window's exemplars. Every phase of every cell is expected: the guard
/// records all three for each query.
fn expected(history: &[HistoryWindow]) -> Vec<Event> {
    let stats = |w: u64, s: &HistogramSummary| {
        let v = [w, s.count, s.sum, s.p50, s.p95, s.p99].map(|x| x as f64);
        ["window", "count", "sum", "p50", "p95", "p99"]
            .into_iter()
            .zip(v)
            .collect()
    };
    let ts = |w: &HistoryWindow| w.end_ns as f64 / 1_000.0;
    let mut out: Vec<Event> = Vec::new();
    for w in history.iter().filter(|w| !w.cells.is_empty()) {
        for c in &w.cells {
            let name = window_series_name(c.kind, c.class);
            out.push((name, ts(w), stats(w.window, &c.summary)));
        }
        let args = vec![
            ("window", w.window as f64),
            ("queries", w.queries as f64),
            ("qps", w.qps),
        ];
        out.push(("query.win.qps".into(), ts(w), args));
    }
    for w in history {
        for c in &w.cells {
            for p in QueryPhase::ALL {
                let name = phase_series_name(p, c.kind, c.class);
                out.push((name, ts(w), stats(w.window, &c.phases[p.index()])));
            }
        }
    }
    for w in history {
        for e in &w.exemplars {
            let v = [
                w.window,
                e.source,
                e.ns.total_ns,
                e.ns.queue_ns,
                e.ns.exec_ns,
                e.ns.reply_ns,
            ];
            let keys = ["window", "source", "total", "queue", "exec", "reply"];
            let args = keys.into_iter().zip(v.map(|x| x as f64)).collect();
            out.push((exemplar_series_name(e.kind, e.class), ts(w), args));
        }
    }
    out
}

/// Writes `history` through the real trace writer, parses it back and
/// checks its serving events against [`expected`], one for one.
fn assert_trace_matches_ring(history: &[HistoryWindow]) {
    let path = std::env::temp_dir().join(format!("parcsr_ring_{}.json", std::process::id()));
    write_chrome_trace(&path, &[], &MetricsSnapshot::default(), None, history).unwrap();
    let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let serving: Vec<&Json> = trace
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| {
            let name = e.get("name").and_then(Json::as_str).unwrap();
            ["query.win.", "query.phase.", "query.exemplar."]
                .iter()
                .any(|p| name.starts_with(p))
        })
        .collect();
    let want = expected(history);
    assert_eq!(serving.len(), want.len());
    for (e, (name, ts, args)) in serving.iter().zip(&want) {
        assert_eq!(e.get("name").and_then(Json::as_str), Some(name.as_str()));
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(e.get("ts").and_then(Json::as_f64), Some(*ts), "{name}");
        let got = e.get("args").unwrap();
        assert_eq!(got.as_object().unwrap().len(), args.len(), "{name}");
        for (key, v) in args {
            let g = got.get(key).and_then(Json::as_f64).unwrap();
            assert!((g - v).abs() <= 1e-9 * v.abs(), "{name}.{key}: {g} != {v}");
        }
    }
}

#[test]
fn trace_serving_series_match_the_history_ring() {
    parcsr_obs::set_enabled(true);
    for window in 0..6 {
        run_window(window);
    }
    let history = serve::history_snapshot();
    assert_eq!(history.len(), 6);
    let mut prev_end = 0;
    for (i, w) in history.iter().enumerate() {
        assert_eq!(w.window, i as u64);
        // Windows tile the span clock: each opens where the last closed.
        assert_eq!((w.start_ns, w.dur_ns), (prev_end, w.end_ns - prev_end));
        prev_end = w.end_ns;
        assert_eq!(w.queries, 1 + i as u64);
        assert!(!w.exemplars.is_empty());
        for cell in &w.cells {
            // The global guard records every query as exec only.
            let [queue, exec, reply] = &cell.phases;
            assert_eq!(exec, &cell.summary);
            assert_eq!((queue.count, queue.sum), (cell.summary.count, 0));
            assert_eq!((reply.count, reply.sum), (cell.summary.count, 0));
        }
    }
    assert_trace_matches_ring(&history);

    // Wrap the ring: only the newest HISTORY_WINDOWS windows survive, in
    // the ring and therefore in the trace.
    let total = HISTORY_WINDOWS as u64 + 3;
    for window in 6..total {
        run_window(window);
    }
    let history = serve::history_snapshot();
    let ordinals: Vec<u64> = history.iter().map(|w| w.window).collect();
    assert_eq!(ordinals, (3..total).collect::<Vec<_>>());
    assert_trace_matches_ring(&history);
}
