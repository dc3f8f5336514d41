//! Exporters: Chrome trace JSON and the human-readable summary table.
//!
//! The trace writer emits the Chrome trace-event "JSON array format" — a
//! list of complete (`"ph": "X"`) events with microsecond timestamps — which
//! loads directly in `chrome://tracing` and Perfetto. One trace row per
//! worker: `tid 0` is the coordinator, `tid 1..=p` are the pool workers.
//! Span events are sorted by `(tid, ts, depth)`, so each thread's events
//! appear in chronological order with parents before the children they
//! enclose, and carry the typed [`SpanArgs`](crate::SpanArgs) payload (plus
//! `depth` and, when sampled, the `sample` period) in their `args` object.
//!
//! After the span events come counter (`"ph": "C"`) events: a
//! `mem.live_bytes` / `mem.stage_peak_bytes` series sampled at the end of
//! each top-level coordinator span (when memory accounting ran), a final
//! `mem.peak_bytes` point, and one terminal point per metric — counters,
//! gauges, and the query-latency histograms (`count`/`p50`/`p95`/`p99`) —
//! so latency and memory land in the same timeline as the spans. When the
//! caller hands it serving windows ([`crate::serve::HistoryWindow`], as the
//! closed-loop driver keeps them), every window adds, at its rotation
//! timestamp, a `query.win.<kind>.<class>` point per non-empty cell (args:
//! `window`, `count`, `sum`, `p50`, `p95`, `p99`), one `query.win.qps` point
//! with the summed query count and achieved qps, a
//! `query.phase.<phase>.<kind>.<class>`
//! point per phase of each cell, and a `query.exemplar.<kind>.<class>` point
//! per captured tail query. `cargo xtask check-trace` validates both event
//! kinds.
//!
//! The summary exporter renders per-stage and per-(stage, worker) wall-clock
//! aggregates, a memory section when accounting ran, and the metrics
//! snapshot (counters, gauges, histogram percentiles) as fixed-width text
//! for terminals and log files.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::mem::MemSnapshot;
use crate::metrics::{HistogramSummary, MetricsSnapshot};
use crate::serve::{
    exemplar_series_name, phase_series_name, window_series_name, HistoryWindow, QueryPhase,
};
use crate::span::SpanRecord;

fn span_args_json(r: &SpanRecord) -> Json {
    let mut args = vec![("depth".into(), Json::Int(i64::from(r.depth)))];
    if r.sample > 1 {
        args.push(("sample".into(), Json::Int(i64::from(r.sample))));
    }
    if let Some(edges) = r.args.edges {
        args.push(("edges".into(), Json::Int(edges as i64)));
    }
    if let Some(chunk) = r.args.chunk {
        args.push(("chunk".into(), Json::Int(chunk as i64)));
    }
    if let Some(chunk_len) = r.args.chunk_len {
        args.push(("chunk_len".into(), Json::Int(chunk_len as i64)));
    }
    if let Some(bits) = r.args.bits {
        args.push(("bits".into(), Json::Int(i64::from(bits))));
    }
    if let Some(chunks) = r.args.chunks {
        args.push(("chunks".into(), Json::Int(chunks as i64)));
    }
    Json::Object(args)
}

/// Builds the Chrome trace-event JSON tree (array format) for `spans`:
/// complete (`"X"`) events only. See [`chrome_trace_with_counters`] for the
/// full export including counter events.
#[must_use]
pub fn chrome_trace_json(spans: &[SpanRecord]) -> Json {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|r| (r.tid, r.start_ns, r.depth));
    Json::Array(
        sorted
            .iter()
            .map(|r| {
                Json::Object(vec![
                    ("name".into(), Json::Str(r.name.to_string())),
                    ("cat".into(), Json::Str("parcsr".to_string())),
                    ("ph".into(), Json::Str("X".to_string())),
                    ("ts".into(), Json::Float(r.start_ns as f64 / 1_000.0)),
                    ("dur".into(), Json::Float(r.dur_ns as f64 / 1_000.0)),
                    ("pid".into(), Json::Int(1)),
                    ("tid".into(), Json::Int(i64::from(r.tid))),
                    ("args".into(), span_args_json(r)),
                ])
            })
            .collect(),
    )
}

fn summary_args(window: u64, s: &HistogramSummary) -> Vec<(String, Json)> {
    vec![
        ("window".into(), Json::Int(window as i64)),
        ("count".into(), Json::Int(s.count as i64)),
        ("sum".into(), Json::Int(s.sum as i64)),
        ("p50".into(), Json::Int(s.p50 as i64)),
        ("p95".into(), Json::Int(s.p95 as i64)),
        ("p99".into(), Json::Int(s.p99 as i64)),
    ]
}

fn counter_event(name: &str, ts_us: f64, args: Vec<(String, Json)>) -> Json {
    Json::Object(vec![
        ("name".into(), Json::Str(name.to_string())),
        ("cat".into(), Json::Str("parcsr".to_string())),
        ("ph".into(), Json::Str("C".to_string())),
        ("ts".into(), Json::Float(ts_us)),
        ("pid".into(), Json::Int(1)),
        ("tid".into(), Json::Int(0)),
        ("args".into(), Json::Object(args)),
    ])
}

/// Builds the full Chrome trace: the span events of [`chrome_trace_json`]
/// followed by counter (`"C"`) events for memory (a live-bytes series
/// sampled at each top-level coordinator span end, a per-stage peak series,
/// and the process peak) and for every metric in `metrics` — counters,
/// gauges, and the query-latency histograms. Pass `mem = None` when memory
/// accounting did not run; the memory series are then omitted. `history`
/// (the closed-loop driver's rotated windows, oldest first) adds the
/// per-window serving-telemetry series described in the module docs: the
/// `query.win.*` cells and `query.win.qps` of every window, then every
/// window's `query.phase.*` points (args as for `query.win.*`), then every
/// window's `query.exemplar.*` points (args: `window`, `source`, `total`,
/// `queue`, `exec`, `reply`). Pass `&[]` when no window rotated.
#[must_use]
pub fn chrome_trace_with_counters(
    spans: &[SpanRecord],
    metrics: &MetricsSnapshot,
    mem: Option<MemSnapshot>,
    history: &[HistoryWindow],
) -> Json {
    let Json::Array(mut events) = chrome_trace_json(spans) else {
        unreachable!("chrome_trace_json returns an array");
    };
    let end_us = spans.iter().map(SpanRecord::end_ns).max().unwrap_or(0) as f64 / 1_000.0;

    if let Some(snap) = mem {
        let mut tops: Vec<&SpanRecord> = spans
            .iter()
            .filter(|r| r.depth == 0 && r.tid == 0)
            .collect();
        tops.sort_by_key(|r| r.end_ns());
        for r in &tops {
            let ts = r.end_ns() as f64 / 1_000.0;
            events.push(counter_event(
                "mem.live_bytes",
                ts,
                vec![("live_bytes".into(), Json::Int(r.mem_live as i64))],
            ));
            events.push(counter_event(
                "mem.stage_peak_bytes",
                ts,
                vec![("peak_bytes".into(), Json::Int(r.mem_peak as i64))],
            ));
        }
        events.push(counter_event(
            "mem.peak_bytes",
            end_us,
            vec![("peak_bytes".into(), Json::Int(snap.peak_bytes as i64))],
        ));
    }

    for (name, v) in &metrics.counters {
        events.push(counter_event(
            name,
            end_us,
            vec![("value".into(), Json::Int(*v as i64))],
        ));
    }
    for (name, v) in &metrics.gauges {
        events.push(counter_event(
            name,
            end_us,
            vec![("value".into(), Json::Int(*v))],
        ));
    }
    for (name, h) in &metrics.histograms {
        events.push(counter_event(
            name,
            end_us,
            vec![
                ("count".into(), Json::Int(h.count as i64)),
                ("p50".into(), Json::Int(h.p50 as i64)),
                ("p95".into(), Json::Int(h.p95 as i64)),
                ("p99".into(), Json::Int(h.p99 as i64)),
            ],
        ));
    }

    // Serving-telemetry windows: one point per (window, kind, class) cell at
    // the window's rotation timestamp, then one qps point per window that
    // saw traffic. `history` is oldest first, so each counter name's series
    // is time-ordered (a property `check-trace` enforces).
    for w in history.iter().filter(|w| !w.cells.is_empty()) {
        let ts_us = w.end_ns as f64 / 1_000.0;
        for cell in &w.cells {
            events.push(counter_event(
                &window_series_name(cell.kind, cell.class),
                ts_us,
                summary_args(w.window, &cell.summary),
            ));
        }
        events.push(counter_event(
            "query.win.qps",
            ts_us,
            vec![
                ("window".into(), Json::Int(w.window as i64)),
                ("queries".into(), Json::Int(w.queries as i64)),
                ("qps".into(), Json::Float(w.qps)),
            ],
        ));
    }

    // Per-phase window series: the queue/exec/reply decomposition of each
    // `query.win.*` cell, same window order, so each phase series is
    // time-ordered and its window ordinals are monotone. `check-trace`
    // additionally verifies that for each (window, cell) the three phase
    // sums stay within tolerance of the end-to-end `sum` above.
    for w in history {
        for cell in &w.cells {
            for phase in QueryPhase::ALL {
                let summary = &cell.phases[phase.index()];
                if summary.count > 0 {
                    events.push(counter_event(
                        &phase_series_name(phase, cell.kind, cell.class),
                        w.end_ns as f64 / 1_000.0,
                        summary_args(w.window, summary),
                    ));
                }
            }
        }
    }

    // Tail exemplars: one point per captured slow query at its window's
    // rotation timestamp, carrying the full phase breakdown.
    for w in history {
        for e in &w.exemplars {
            events.push(counter_event(
                &exemplar_series_name(e.kind, e.class),
                w.end_ns as f64 / 1_000.0,
                vec![
                    ("window".into(), Json::Int(w.window as i64)),
                    ("source".into(), Json::Int(e.source as i64)),
                    ("total".into(), Json::Int(e.ns.total_ns as i64)),
                    ("queue".into(), Json::Int(e.ns.queue_ns as i64)),
                    ("exec".into(), Json::Int(e.ns.exec_ns as i64)),
                    ("reply".into(), Json::Int(e.ns.reply_ns as i64)),
                ],
            ));
        }
    }
    Json::Array(events)
}

/// Writes the full Chrome trace (spans + counter events, see
/// [`chrome_trace_with_counters`]) to `path`.
pub fn write_chrome_trace(
    path: &Path,
    spans: &[SpanRecord],
    metrics: &MetricsSnapshot,
    mem: Option<MemSnapshot>,
    history: &[HistoryWindow],
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(
        chrome_trace_with_counters(spans, metrics, mem, history)
            .pretty()
            .as_bytes(),
    )?;
    file.write_all(b"\n")
}

/// Per-stage wall-clock aggregate used by the summary table and the bench
/// JSON breakdown. When spans were sampled (period `N > 1`), `calls` and
/// `total_ms` are scaled back up by each record's period — unbiased
/// estimates of the unsampled values — while `kept` counts the records
/// actually present.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAgg {
    /// Span name.
    pub name: &'static str,
    /// Estimated number of spans with this name (kept records weighted by
    /// their sampling period).
    pub calls: u64,
    /// Estimated summed duration, milliseconds (durations weighted by the
    /// sampling period).
    pub total_ms: f64,
    /// Number of records actually kept by the sampler (`== calls` when
    /// unsampled).
    pub kept: u64,
    /// Distinct worker ids that ran this stage.
    pub workers: usize,
    /// Largest per-span peak of live heap bytes observed in this stage; `0`
    /// when memory accounting was off.
    pub mem_peak_bytes: u64,
}

/// Aggregates spans by name, insertion-ordered by first appearance (which
/// for a pipeline run is pipeline order). Pass `top_level_only = true` to
/// keep only `depth == 0` coordinator spans — the per-stage breakdown whose
/// durations sum to the end-to-end construction time. Sampled records
/// (`sample = N`) each stand for `N` same-name spans on their thread and are
/// scaled accordingly (Horvitz–Thompson estimate), so stage shares stay
/// unbiased under sampling.
#[must_use]
pub fn aggregate_stages(spans: &[SpanRecord], top_level_only: bool) -> Vec<StageAgg> {
    struct Acc {
        calls: u64,
        total_ns: u64,
        kept: u64,
        mem_peak: u64,
        tids: Vec<u32>,
    }
    let mut order: Vec<&'static str> = Vec::new();
    let mut by_name: BTreeMap<&'static str, Acc> = BTreeMap::new();
    for r in spans {
        if top_level_only && !(r.depth == 0 && r.tid == 0) {
            continue;
        }
        let weight = u64::from(r.sample.max(1));
        let entry = by_name.entry(r.name).or_insert_with(|| {
            order.push(r.name);
            Acc {
                calls: 0,
                total_ns: 0,
                kept: 0,
                mem_peak: 0,
                tids: Vec::new(),
            }
        });
        entry.calls += weight;
        entry.total_ns += r.dur_ns * weight;
        entry.kept += 1;
        entry.mem_peak = entry.mem_peak.max(r.mem_peak);
        if !entry.tids.contains(&r.tid) {
            entry.tids.push(r.tid);
        }
    }
    order
        .iter()
        .map(|name| {
            let acc = &by_name[name];
            StageAgg {
                name,
                calls: acc.calls,
                total_ms: acc.total_ns as f64 / 1e6,
                kept: acc.kept,
                workers: acc.tids.len(),
                mem_peak_bytes: acc.mem_peak,
            }
        })
        .collect()
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Renders the per-stage / per-worker summary table, the memory section
/// (when accounting ran), and the metrics snapshot as fixed-width text.
/// Returns a note instead of tables when nothing was recorded.
#[must_use]
pub fn summary_table(
    spans: &[SpanRecord],
    metrics: &MetricsSnapshot,
    mem: Option<MemSnapshot>,
) -> String {
    let mut out = String::new();
    if spans.is_empty() && metrics.is_empty() && mem.is_none() {
        out.push_str("obs: nothing recorded");
        if !crate::compiled() {
            out.push_str(" (parcsr-obs compiled without the `enabled` feature)");
        }
        out.push('\n');
        return out;
    }

    if !spans.is_empty() {
        let sampled = spans.iter().any(|r| r.sample > 1);
        out.push_str("== stages (all spans, by name) ==\n");
        out.push_str(&format!(
            "{:<24} {:>8} {:>8} {:>12} {:>12} {:>8}\n",
            "stage", "calls", "kept", "total_ms", "mean_us", "workers"
        ));
        for agg in aggregate_stages(spans, false) {
            let mean_us = agg.total_ms * 1e3 / agg.calls as f64;
            out.push_str(&format!(
                "{:<24} {:>8} {:>8} {:>12.3} {:>12.2} {:>8}\n",
                agg.name, agg.calls, agg.kept, agg.total_ms, mean_us, agg.workers
            ));
        }
        if sampled {
            out.push_str("(sampled trace: calls and total_ms are scaled-up estimates)\n");
        }

        out.push_str("\n== per worker (stage x tid) ==\n");
        out.push_str(&format!(
            "{:<24} {:>6} {:>8} {:>12}\n",
            "stage", "tid", "calls", "total_ms"
        ));
        let mut per_worker: BTreeMap<(&'static str, u32), (u64, u64)> = BTreeMap::new();
        let mut order: Vec<(&'static str, u32)> = Vec::new();
        for r in spans {
            let weight = u64::from(r.sample.max(1));
            let key = (r.name, r.tid);
            let entry = per_worker.entry(key).or_insert_with(|| {
                order.push(key);
                (0, 0)
            });
            entry.0 += weight;
            entry.1 += r.dur_ns * weight;
        }
        for key in order {
            let (calls, total_ns) = per_worker[&key];
            out.push_str(&format!(
                "{:<24} {:>6} {:>8} {:>12.3}\n",
                key.0,
                key.1,
                calls,
                total_ns as f64 / 1e6
            ));
        }
    }

    if let Some(snap) = mem {
        out.push_str("\n== mem ==\n");
        out.push_str(&format!(
            "live {:>14}   peak {:>14}\n",
            fmt_bytes(snap.live_bytes),
            fmt_bytes(snap.peak_bytes)
        ));
        let tops = aggregate_stages(spans, true);
        if tops.iter().any(|a| a.mem_peak_bytes > 0) {
            out.push_str(&format!("{:<24} {:>14}\n", "stage", "peak_bytes"));
            for agg in &tops {
                out.push_str(&format!(
                    "{:<24} {:>14}\n",
                    agg.name,
                    fmt_bytes(agg.mem_peak_bytes)
                ));
            }
        }
    }

    if !metrics.is_empty() {
        out.push_str("\n== metrics ==\n");
        for (name, v) in &metrics.counters {
            out.push_str(&format!("counter   {name:<28} {v}\n"));
        }
        for (name, v) in &metrics.gauges {
            out.push_str(&format!("gauge     {name:<28} {v}\n"));
        }
        for (name, h) in &metrics.histograms {
            out.push_str(&format!(
                "histogram {name:<28} count={} p50={} p95={} p99={} max={}\n",
                h.count, h.p50, h.p95, h.p99, h.max
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanArgs;

    fn span(name: &'static str, start: u64, dur: u64, tid: u32, depth: u16) -> SpanRecord {
        SpanRecord {
            name,
            start_ns: start,
            dur_ns: dur,
            tid,
            depth,
            sample: 1,
            args: SpanArgs::new(),
            mem_peak: 0,
            mem_live: 0,
        }
    }

    #[test]
    fn chrome_trace_shape_and_order() {
        let spans = vec![
            span("b", 5_000, 1_000, 1, 0),
            span("a", 1_000, 8_000, 0, 0),
            span("a.child", 2_000, 2_000, 0, 1),
        ];
        let json = chrome_trace_json(&spans);
        let events = json.as_array().unwrap();
        assert_eq!(events.len(), 3);
        // Sorted by (tid, ts): both tid-0 events precede the tid-1 event.
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("a.child"));
        assert_eq!(events[2].get("name").unwrap().as_str(), Some("b"));
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().is_some());
            assert!(e.get("tid").unwrap().as_i64().is_some());
        }
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(8.0));
    }

    #[test]
    fn chrome_trace_emits_span_args_and_sample() {
        let mut packed = span("pack.chunk", 0, 1_000, 1, 0);
        packed.args = SpanArgs::new().edges(512).chunk(3).chunk_len(128).bits(7);
        packed.sample = 8;
        let plain = span("scan", 2_000, 1_000, 0, 0);
        let json = chrome_trace_json(&[packed, plain]);
        let events = json.as_array().unwrap();
        let args0 = events[0].get("args").unwrap();
        assert_eq!(args0.get("depth").unwrap().as_i64(), Some(0));
        assert!(args0.get("sample").is_none());
        assert!(args0.get("edges").is_none());
        let args1 = events[1].get("args").unwrap();
        assert_eq!(args1.get("sample").unwrap().as_i64(), Some(8));
        assert_eq!(args1.get("edges").unwrap().as_i64(), Some(512));
        assert_eq!(args1.get("chunk").unwrap().as_i64(), Some(3));
        assert_eq!(args1.get("chunk_len").unwrap().as_i64(), Some(128));
        assert_eq!(args1.get("bits").unwrap().as_i64(), Some(7));
    }

    #[test]
    fn chrome_trace_counter_events() {
        let mut a = span("degree", 0, 4_000, 0, 0);
        a.mem_live = 100;
        a.mem_peak = 900;
        let mut b = span("scan", 4_000, 2_000, 0, 0);
        b.mem_live = 200;
        b.mem_peak = 700;
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.push(("pool.installs".into(), 3));
        metrics.histograms.push((
            "query.has_edge_ns".into(),
            crate::metrics::HistogramSummary {
                count: 10,
                sum: 1000,
                max: 200,
                p50: 90,
                p95: 180,
                p99: 199,
            },
        ));
        let mem = Some(MemSnapshot {
            live_bytes: 150,
            peak_bytes: 1000,
        });
        let json = chrome_trace_with_counters(&[a, b], &metrics, mem, &[]);
        let events = json.as_array().unwrap();
        // 2 spans + 2×(live,stage_peak) + peak + counter + histogram = 9.
        assert_eq!(events.len(), 9);
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert_eq!(counters.len(), 7);
        // The live-bytes series is time-ordered and carries the span values.
        let live: Vec<_> = counters
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("mem.live_bytes"))
            .collect();
        assert_eq!(live.len(), 2);
        assert_eq!(
            live[0]
                .get("args")
                .unwrap()
                .get("live_bytes")
                .unwrap()
                .as_i64(),
            Some(100)
        );
        assert!(live[0].get("ts").unwrap().as_f64() <= live[1].get("ts").unwrap().as_f64());
        // Histogram point carries the percentiles.
        let hist = counters
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("query.has_edge_ns"))
            .unwrap();
        assert_eq!(
            hist.get("args").unwrap().get("p95").unwrap().as_i64(),
            Some(180)
        );
        // No mem snapshot → no mem series at all.
        let json = chrome_trace_with_counters(&[span("degree", 0, 1, 0, 0)], &metrics, None, &[]);
        let events = json.as_array().unwrap();
        assert!(events
            .iter()
            .all(|e| e.get("name").unwrap().as_str() != Some("mem.live_bytes")));
    }

    /// A serving window with no exemplars.
    fn history_window(
        window: u64,
        start_ns: u64,
        end_ns: u64,
        cells: Vec<crate::serve::WindowCell>,
    ) -> HistoryWindow {
        HistoryWindow::new(window, start_ns, end_ns, cells, Vec::new())
    }

    #[test]
    fn chrome_trace_window_counter_events() {
        use crate::serve::{DegreeClass, QueryKind, WindowCell};
        let sum = |count: u64, p99: u64| HistogramSummary {
            count,
            sum: count * 100,
            max: p99,
            p50: p99 / 2,
            p95: p99,
            p99,
        };
        // Cells fed only end-to-end: no phase points.
        let cell = |kind, class, summary| WindowCell {
            kind,
            class,
            summary,
            phases: [HistogramSummary::default(); 3],
        };
        let windows = vec![
            history_window(
                0,
                0,
                1_000_000_000,
                vec![
                    cell(QueryKind::Neighbors, DegreeClass::Low, sum(300, 8_000)),
                    cell(QueryKind::EdgeScan, DegreeClass::Hub, sum(100, 90_000)),
                ],
            ),
            history_window(
                1,
                1_000_000_000,
                2_000_000_000,
                vec![cell(
                    QueryKind::Neighbors,
                    DegreeClass::Low,
                    sum(500, 7_000),
                )],
            ),
            // A window without traffic adds no points at all.
            history_window(2, 2_000_000_000, 3_000_000_000, Vec::new()),
        ];
        let json = chrome_trace_with_counters(
            &[span("serve", 0, 2_000_000_000, 0, 0)],
            &MetricsSnapshot::default(),
            None,
            &windows,
        );
        let events = json.as_array().unwrap();
        // 1 span + 3 window cells + 2 qps points.
        assert_eq!(events.len(), 6);
        let cell = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("query.win.edge_scan.hub"))
            .unwrap();
        let args = cell.get("args").unwrap();
        assert_eq!(args.get("window").unwrap().as_i64(), Some(0));
        assert_eq!(args.get("count").unwrap().as_i64(), Some(100));
        assert_eq!(args.get("sum").unwrap().as_i64(), Some(100 * 100));
        assert_eq!(args.get("p99").unwrap().as_i64(), Some(90_000));
        let qps: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("query.win.qps"))
            .collect();
        assert_eq!(qps.len(), 2);
        // Window 0: 400 queries over 1 s → 400 qps.
        let a0 = qps[0].get("args").unwrap();
        assert_eq!(a0.get("queries").unwrap().as_i64(), Some(400));
        assert!((a0.get("qps").unwrap().as_f64().unwrap() - 400.0).abs() < 1e-6);
        // Same-name series is time-ordered; window arg is non-decreasing.
        assert!(qps[0].get("ts").unwrap().as_f64() <= qps[1].get("ts").unwrap().as_f64());
        assert_eq!(
            qps[1].get("args").unwrap().get("window").unwrap().as_i64(),
            Some(1)
        );
        // The repeated per-cell series is time-ordered too.
        let neigh: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("query.win.neighbors.low"))
            .collect();
        assert_eq!(neigh.len(), 2);
        assert!(neigh[0].get("ts").unwrap().as_f64() <= neigh[1].get("ts").unwrap().as_f64());
    }

    #[test]
    fn chrome_trace_phase_and_exemplar_events() {
        use crate::serve::{DegreeClass, Exemplar, PhaseNanos, QueryKind, WindowCell};
        let summary = |count: u64, sum: u64| HistogramSummary {
            count,
            sum,
            max: sum,
            p50: sum / 2,
            p95: sum,
            p99: sum,
        };
        let mut window = history_window(
            0,
            0,
            1_000_000_000,
            vec![WindowCell {
                kind: QueryKind::SplitSearch,
                class: DegreeClass::Hub,
                summary: summary(10, 95_000),
                phases: [summary(10, 4_000), summary(10, 90_000), summary(10, 1_000)],
            }],
        );
        window.exemplars = vec![Exemplar {
            kind: QueryKind::SplitSearch,
            class: DegreeClass::Hub,
            source: 42,
            ns: PhaseNanos {
                total_ns: 95_000,
                queue_ns: 4_000,
                exec_ns: 90_000,
                reply_ns: 1_000,
            },
        }];
        let json = chrome_trace_with_counters(
            &[span("serve", 0, 1_000_000_000, 0, 0)],
            &MetricsSnapshot::default(),
            None,
            &[window],
        );
        let events = json.as_array().unwrap();
        // 1 span + 1 window cell + 1 qps point + 3 phase points + 1
        // exemplar point, in that order.
        assert_eq!(events.len(), 7);
        let names: Vec<_> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            names[1..],
            [
                "query.win.split.hub",
                "query.win.qps",
                "query.phase.queue.split.hub",
                "query.phase.exec.split.hub",
                "query.phase.reply.split.hub",
                "query.exemplar.split.hub",
            ]
        );
        let queue = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("query.phase.queue.split.hub"))
            .unwrap();
        let args = queue.get("args").unwrap();
        assert_eq!(args.get("window").unwrap().as_i64(), Some(0));
        assert_eq!(args.get("count").unwrap().as_i64(), Some(10));
        assert_eq!(args.get("sum").unwrap().as_i64(), Some(4_000));
        let ex = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("query.exemplar.split.hub"))
            .unwrap();
        let args = ex.get("args").unwrap();
        assert_eq!(args.get("source").unwrap().as_i64(), Some(42));
        assert_eq!(args.get("total").unwrap().as_i64(), Some(95_000));
        assert_eq!(args.get("queue").unwrap().as_i64(), Some(4_000));
        assert_eq!(args.get("exec").unwrap().as_i64(), Some(90_000));
        assert_eq!(args.get("reply").unwrap().as_i64(), Some(1_000));
    }

    #[test]
    fn aggregate_top_level_keeps_coordinator_roots_only() {
        let spans = vec![
            span("degree", 0, 4_000_000, 0, 0),
            span("degree.chunk", 100, 1_000_000, 1, 0),
            span("scan", 4_000_000, 2_000_000, 0, 0),
            span("scan.fixup", 4_100_000, 500_000, 0, 1),
        ];
        let top = aggregate_stages(&spans, true);
        assert_eq!(
            top.iter().map(|a| a.name).collect::<Vec<_>>(),
            ["degree", "scan"]
        );
        assert!((top[0].total_ms - 4.0).abs() < 1e-9);
        let all = aggregate_stages(&spans, false);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn aggregate_scales_sampled_records_back_up() {
        // 3 kept records at period 4 stand for 12 calls; durations scale too.
        let mut spans = vec![
            span("bitpack.chunk", 0, 1_000, 1, 0),
            span("bitpack.chunk", 2_000, 3_000, 1, 0),
            span("bitpack.chunk", 6_000, 2_000, 2, 0),
        ];
        for s in &mut spans {
            s.sample = 4;
        }
        spans[0].mem_peak = 500;
        spans[2].mem_peak = 900;
        let agg = aggregate_stages(&spans, false);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].calls, 12);
        assert_eq!(agg[0].kept, 3);
        assert!((agg[0].total_ms - 0.024).abs() < 1e-9); // (1+3+2)µs × 4
        assert_eq!(agg[0].workers, 2);
        assert_eq!(agg[0].mem_peak_bytes, 900);
    }

    #[test]
    fn summary_table_renders_all_sections() {
        let mut s = span("degree", 0, 1_500_000, 0, 0);
        s.mem_peak = 4096;
        let spans = vec![s];
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.push(("pool.installs".into(), 3));
        let mem = Some(MemSnapshot {
            live_bytes: 2048,
            peak_bytes: 4096,
        });
        let text = summary_table(&spans, &metrics, mem);
        assert!(text.contains("degree"));
        assert!(text.contains("pool.installs"));
        assert!(text.contains("== per worker"));
        assert!(text.contains("== mem =="));
        assert!(text.contains("4.0 KiB"));
        let empty = summary_table(&[], &MetricsSnapshot::default(), None);
        assert!(empty.contains("nothing recorded"));
    }
}
