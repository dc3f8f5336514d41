//! Exporters: Chrome trace JSON and the human-readable summary table.
//!
//! The trace writer emits the Chrome trace-event "JSON array format" — a
//! list of complete (`"ph": "X"`) events with microsecond timestamps — which
//! loads directly in `chrome://tracing` and Perfetto. One trace row per
//! worker: `tid 0` is the coordinator, `tid 1..=p` are the pool workers.
//! Span events are sorted by `(tid, ts, depth)`, so each thread's events
//! appear in chronological order with parents before the children they
//! enclose, and carry the typed [`SpanArgs`](crate::SpanArgs) payload (plus
//! `depth`) in their `args` object.
//!
//! After the span events come counter (`"ph": "C"`) events: a
//! `mem.live_bytes` / `mem.stage_peak_bytes` series sampled at the end of
//! each top-level coordinator span (when memory accounting ran) and one
//! final `mem.peak_bytes` point, so memory lands in the same timeline as the
//! spans. Each memory series keeps one arg key. `cargo xtask check-trace`
//! validates both event kinds.
//!
//! The summary exporter renders per-stage and per-(stage, worker) wall-clock
//! aggregates and a memory section when accounting ran, as fixed-width text
//! for terminals and log files.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::mem::MemSnapshot;
use crate::span::SpanRecord;

fn span_args_json(r: &SpanRecord) -> Json {
    let mut args = vec![("depth".into(), Json::Int(i64::from(r.depth)))];
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
/// and the process peak). Pass `mem = None` when memory accounting did not
/// run; the memory series are then omitted.
#[must_use]
pub fn chrome_trace_with_counters(spans: &[SpanRecord], mem: Option<MemSnapshot>) -> Json {
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

    Json::Array(events)
}

/// Writes the full Chrome trace (spans + counter events, see
/// [`chrome_trace_with_counters`]) to `path`.
pub fn write_chrome_trace(
    path: &Path,
    spans: &[SpanRecord],
    mem: Option<MemSnapshot>,
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(chrome_trace_with_counters(spans, mem).pretty().as_bytes())?;
    file.write_all(b"\n")
}

/// Per-stage wall-clock aggregate used by the summary table and the bench
/// JSON breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAgg {
    /// Span name.
    pub name: &'static str,
    /// Number of spans with this name.
    pub calls: u64,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Distinct worker ids that ran this stage.
    pub workers: usize,
    /// Largest per-span peak of live heap bytes observed in this stage; `0`
    /// when memory accounting was off.
    pub mem_peak_bytes: u64,
}

/// Aggregates spans by name, insertion-ordered by first appearance (which
/// for a pipeline run is pipeline order). Pass `top_level_only = true` to
/// keep only `depth == 0` coordinator spans — the per-stage breakdown whose
/// durations sum to the end-to-end construction time.
#[must_use]
pub fn aggregate_stages(spans: &[SpanRecord], top_level_only: bool) -> Vec<StageAgg> {
    struct Acc {
        calls: u64,
        total_ns: u64,
        mem_peak: u64,
        tids: Vec<u32>,
    }
    let mut order: Vec<&'static str> = Vec::new();
    let mut by_name: BTreeMap<&'static str, Acc> = BTreeMap::new();
    for r in spans {
        if top_level_only && !(r.depth == 0 && r.tid == 0) {
            continue;
        }
        let entry = by_name.entry(r.name).or_insert_with(|| {
            order.push(r.name);
            Acc {
                calls: 0,
                total_ns: 0,
                mem_peak: 0,
                tids: Vec::new(),
            }
        });
        entry.calls += 1;
        entry.total_ns += r.dur_ns;
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

/// Renders the per-stage / per-worker summary table and the memory section
/// (when accounting ran) as fixed-width text. Returns a note instead of
/// tables when nothing was recorded.
#[must_use]
pub fn summary_table(spans: &[SpanRecord], mem: Option<MemSnapshot>) -> String {
    let mut out = String::new();
    if spans.is_empty() && mem.is_none() {
        out.push_str("obs: nothing recorded");
        if !crate::compiled() {
            out.push_str(" (parcsr-obs compiled without the `enabled` feature)");
        }
        out.push('\n');
        return out;
    }

    if !spans.is_empty() {
        out.push_str("== stages (all spans, by name) ==\n");
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>12} {:>8}\n",
            "stage", "calls", "total_ms", "mean_us", "workers"
        ));
        for agg in aggregate_stages(spans, false) {
            let mean_us = agg.total_ms * 1e3 / agg.calls as f64;
            out.push_str(&format!(
                "{:<24} {:>8} {:>12.3} {:>12.2} {:>8}\n",
                agg.name, agg.calls, agg.total_ms, mean_us, agg.workers
            ));
        }

        out.push_str("\n== per worker (stage x tid) ==\n");
        out.push_str(&format!(
            "{:<24} {:>6} {:>8} {:>12}\n",
            "stage", "tid", "calls", "total_ms"
        ));
        let mut per_worker: BTreeMap<(&'static str, u32), (u64, u64)> = BTreeMap::new();
        let mut order: Vec<(&'static str, u32)> = Vec::new();
        for r in spans {
            let key = (r.name, r.tid);
            let entry = per_worker.entry(key).or_insert_with(|| {
                order.push(key);
                (0, 0)
            });
            entry.0 += 1;
            entry.1 += r.dur_ns;
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
    fn chrome_trace_emits_span_args() {
        let mut packed = span("pack.chunk", 0, 1_000, 1, 0);
        packed.args = SpanArgs::new().edges(512).chunk(3).chunk_len(128).bits(7);
        let plain = span("scan", 2_000, 1_000, 0, 0);
        let json = chrome_trace_json(&[packed, plain]);
        let events = json.as_array().unwrap();
        let args0 = events[0].get("args").unwrap();
        assert_eq!(args0.as_object().unwrap().len(), 1);
        assert_eq!(args0.get("depth").unwrap().as_i64(), Some(0));
        let args1 = events[1].get("args").unwrap();
        assert_eq!(args1.as_object().unwrap().len(), 5);
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
        let mem = Some(MemSnapshot {
            live_bytes: 150,
            peak_bytes: 1000,
        });
        let json = chrome_trace_with_counters(&[a, b], mem);
        let events = json.as_array().unwrap();
        // 2 spans + 2×(live,stage_peak) + peak = 7.
        assert_eq!(events.len(), 7);
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert_eq!(counters.len(), 5);
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
        // One process-peak point, carrying the snapshot's peak.
        let peak: Vec<_> = counters
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("mem.peak_bytes"))
            .collect();
        assert_eq!(peak.len(), 1);
        assert_eq!(
            peak[0]
                .get("args")
                .unwrap()
                .get("peak_bytes")
                .unwrap()
                .as_i64(),
            Some(1000)
        );
        // No mem snapshot → no counter events at all.
        let json = chrome_trace_with_counters(&[span("degree", 0, 1, 0, 0)], None);
        assert_eq!(json.as_array().unwrap().len(), 1);
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
    fn aggregate_sums_calls_and_durations_and_keeps_the_largest_peak() {
        let mut spans = vec![
            span("bitpack.chunk", 0, 1_000, 1, 0),
            span("bitpack.chunk", 2_000, 3_000, 1, 0),
            span("bitpack.chunk", 6_000, 2_000, 2, 0),
        ];
        spans[0].mem_peak = 500;
        spans[2].mem_peak = 900;
        let agg = aggregate_stages(&spans, false);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].calls, 3);
        assert!((agg[0].total_ms - 0.006).abs() < 1e-9); // 1 + 3 + 2 µs
        assert_eq!(agg[0].workers, 2);
        assert_eq!(agg[0].mem_peak_bytes, 900);
    }

    #[test]
    fn summary_table_renders_all_sections() {
        let mut s = span("degree", 0, 1_500_000, 0, 0);
        s.mem_peak = 4096;
        let spans = vec![s];
        let mem = Some(MemSnapshot {
            live_bytes: 2048,
            peak_bytes: 4096,
        });
        let text = summary_table(&spans, mem);
        assert!(text.contains("degree"));
        assert!(text.contains("== per worker"));
        assert!(text.contains("== mem =="));
        assert!(text.contains("4.0 KiB"));
        let empty = summary_table(&[], None);
        assert!(empty.contains("nothing recorded"));
    }
}
