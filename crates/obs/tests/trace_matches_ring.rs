//! The Chrome trace's serving series are a rendering of the serving
//! windows it is handed: every `query.win.*`, `query.win.qps` and
//! `query.exemplar.*` event must match a
//! [`HistoryWindow`] built from a [`QuerySlabs`] at rotation, cell for cell,
//! with the same ordinal and timestamp. The slabs are a plain value type,
//! so this runs with or without the `enabled` feature.

use parcsr_obs::export::write_chrome_trace;
use parcsr_obs::json::Json;
use parcsr_obs::metrics::HistogramSummary;
use parcsr_obs::serve::{
    exemplar_series_name, window_series_name, DegreeClass, Exemplar, HistoryWindow, QueryKind,
    QuerySlabs,
};

/// Records `1 + window % 9` queries into `slabs`, with kinds, degree
/// classes, sources and latencies varying so windows span several cells,
/// then rotates one window and returns its record, open from `start_ns` for
/// one simulated millisecond.
fn run_window(slabs: &QuerySlabs, window: u64, start_ns: u64) -> HistoryWindow {
    for i in window * 16..=window * 16 + window % 9 {
        slabs.record_query(
            i as usize,
            Exemplar {
                kind: QueryKind::ALL[(i % 4) as usize],
                class: DegreeClass::ALL[(i % 3) as usize],
                source: i,
                ns: 100 + (i % 7) * 50 + (i % 5) * 30,
            },
        );
    }
    let completed = slabs.rotate();
    HistoryWindow::new(
        completed,
        start_ns,
        start_ns + 1_000_000,
        slabs.window_cells(completed),
        slabs.completed_exemplars(),
    )
}

type Event = (String, f64, Vec<(&'static str, f64)>);

/// The serving events `history` must export, in order: every window's
/// cells and qps point, then every window's exemplars.
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
        for e in &w.exemplars {
            let v = [w.window, e.source, e.ns];
            let keys = ["window", "source", "total"];
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
    write_chrome_trace(&path, &[], None, history).unwrap();
    let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let serving: Vec<&Json> = trace
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| {
            let name = e.get("name").and_then(Json::as_str).unwrap();
            ["query.win.", "query.exemplar."]
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
    // Two retained epochs suffice: each window is read right after its
    // rotation, as the closed-loop driver reads it.
    let slabs = QuerySlabs::new(3, 2);
    let mut history: Vec<HistoryWindow> = Vec::new();
    for window in 0..12 {
        let start_ns = history.last().map_or(5_000_000, |w| w.end_ns);
        history.push(run_window(&slabs, window, start_ns));
    }
    let mut prev_end = 5_000_000;
    for (i, w) in history.iter().enumerate() {
        assert_eq!(w.window, i as u64);
        // Windows tile the clock: each opens where the last closed.
        assert_eq!((w.start_ns, w.dur_ns), (prev_end, w.end_ns - prev_end));
        prev_end = w.end_ns;
        assert_eq!(w.queries, 1 + i as u64 % 9);
        assert_eq!(w.qps, w.queries as f64 * 1e9 / w.dur_ns as f64);
        assert!(!w.exemplars.is_empty());
    }
    assert_trace_matches_ring(&history);
}
