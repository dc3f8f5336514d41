//! Validator for Chrome trace-event files produced by `parcsr-obs`
//! (`--trace` on the bench binaries and the CLI).
//!
//! CI runs a bench smoke with `--trace` and feeds the output through
//! `cargo xtask check-trace <file>`; the build fails if the trace is
//! missing, unparseable, empty, structurally malformed, or not
//! time-ordered — the cheapest end-to-end proof that the instrumentation
//! actually recorded the pipeline.
//!
//! Structural parsing lives in [`crate::trace_read`]; this module adds
//! the semantic rules:
//!
//! * complete (`"X"`) span events must be time-ordered per thread, and
//!   their `args` payload (when present) must hold only non-negative
//!   integers for the typed keys (`depth`, `edges`, `chunk`, `chunk_len`,
//!   `bits`, `chunks`). Per-chunk spans (names ending `.chunk` or
//!   `_chunk`) must carry a `chunk` index — a chunk span without its index
//!   means the instrumentation site lost its payload.
//! * counter (`"C"`) events — the memory series. Must use the known
//!   namespace (`mem.`), be time-ordered per counter name, and hold a
//!   non-empty `args` object of non-negative numbers.
//!
//! Then three stage rules prove the spans are real. A *stage* is a
//! top-level coordinator span (`tid` 0, `depth` 0); times compare in
//! integer ns, `round(µs × 1000)`, so float rounding cannot push a
//! contained span out.
//!
//! * **R1** — the trace has at least one stage, and every stage has a
//!   positive duration.
//! * **R2** — every worker span (`tid` ≠ 0) lies inside some stage.
//!   Shifted or orphaned worker spans fail here.
//! * **R3** — a `plan` span with `chunks: k` inside a stage requires that
//!   stage to hold chunk-indexed spans covering every index `0..k`. A
//!   parallel region whose workers never flushed their spans fails here.

use std::collections::BTreeSet;

use crate::trace_read::{parse_trace, Phase, TraceEvent};

/// Span-arg keys the exporter may emit; every one is a non-negative count
/// or width, so anything negative (or non-integer) is a recorder bug.
const SPAN_ARG_KEYS: &[&str] = &["depth", "edges", "chunk", "chunk_len", "bits", "chunks"];

/// Namespaces counter events may use. A counter outside these was added
/// ad hoc and would silently vanish from dashboards keyed on the known
/// prefixes.
const COUNTER_PREFIXES: &[&str] = &["mem."];

fn check_span_args(i: usize, ev: &TraceEvent) -> Result<(), String> {
    let name = &ev.name;
    let Some(args) = &ev.args else {
        return Ok(());
    };
    if args.as_object().is_none() {
        return Err(format!("event {i} (`{name}`): `args` is not an object"));
    }
    for key in SPAN_ARG_KEYS {
        if let Some(v) = args.get(key) {
            match v.as_i64() {
                Some(n) if n >= 0 => {}
                _ => {
                    return Err(format!(
                        "event {i} (`{name}`): arg `{key}` must be a non-negative \
                         integer, got {v:?}"
                    ));
                }
            }
        }
    }
    if (name.ends_with(".chunk") || name.ends_with("_chunk")) && args.get("chunk").is_none() {
        return Err(format!(
            "event {i} (`{name}`): per-chunk span is missing its `chunk` index arg"
        ));
    }
    Ok(())
}

fn check_counter(i: usize, ev: &TraceEvent) -> Result<(), String> {
    let name = &ev.name;
    if !COUNTER_PREFIXES.iter().any(|p| name.starts_with(p)) {
        return Err(format!(
            "event {i}: counter `{name}` is outside the known namespaces \
             (mem.*)"
        ));
    }
    let args = ev
        .args
        .as_ref()
        .ok_or_else(|| format!("event {i}: counter `{name}` is missing `args`"))?;
    let fields = args
        .as_object()
        .ok_or_else(|| format!("event {i}: counter `{name}` args is not an object"))?;
    if fields.is_empty() {
        return Err(format!(
            "event {i}: counter `{name}` has an empty args object"
        ));
    }
    for (key, v) in fields {
        match v.as_f64() {
            Some(x) if x >= 0.0 => {}
            _ => {
                return Err(format!(
                    "event {i}: counter `{name}` arg `{key}` must be a non-negative \
                     number, got {v:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Validates trace text; returns the event count on success.
pub fn check_trace_text(text: &str) -> Result<usize, String> {
    let events = parse_trace(text)?;

    // Span events are ordered per tid; counter events per counter name.
    // Both maps are tiny (few tids, few counters), linear scan is fine.
    let mut span_last_ts: Vec<(i64, f64)> = Vec::new();
    let mut counter_last_ts: Vec<(String, f64)> = Vec::new();
    let mut saw_span = false;
    for (i, ev) in events.iter().enumerate() {
        match ev.ph {
            Phase::Complete => {
                saw_span = true;
                match span_last_ts.iter_mut().find(|(t, _)| *t == ev.tid) {
                    Some((_, last)) => {
                        if ev.ts_us < *last {
                            return Err(format!(
                                "event {i} (tid {}) goes backwards in time: ts {} \
                                 after {last}",
                                ev.tid, ev.ts_us
                            ));
                        }
                        *last = ev.ts_us;
                    }
                    None => span_last_ts.push((ev.tid, ev.ts_us)),
                }
                check_span_args(i, ev)?;
            }
            Phase::Counter => {
                check_counter(i, ev)?;
                match counter_last_ts.iter_mut().find(|(n, _)| *n == ev.name) {
                    Some((_, last)) => {
                        if ev.ts_us < *last {
                            return Err(format!(
                                "event {i}: counter `{}` goes backwards in time: \
                                 ts {} after {last}",
                                ev.name, ev.ts_us
                            ));
                        }
                        *last = ev.ts_us;
                    }
                    None => counter_last_ts.push((ev.name.clone(), ev.ts_us)),
                }
            }
        }
    }
    if !saw_span {
        return Err("trace has counter events but no span events".into());
    }
    check_stages(&events)?;
    Ok(events.len())
}

/// A span's `[start, end]` in integer ns.
fn span_ns(ev: &TraceEvent) -> (u64, u64) {
    let ns = |us: f64| {
        if us <= 0.0 {
            0
        } else {
            (us * 1e3).round() as u64
        }
    };
    let start = ns(ev.ts_us);
    (start, start + ns(ev.dur_us))
}

/// R1–R3 over the spans of an otherwise valid trace.
fn check_stages(events: &[TraceEvent]) -> Result<(), String> {
    let spans: Vec<&TraceEvent> = events.iter().filter(|e| e.ph == Phase::Complete).collect();
    let is_stage = |e: &TraceEvent| e.tid == 0 && e.arg_u64("depth").unwrap_or(0) == 0;
    // Coordinator spans are time-ordered (checked above), so the stages are
    // sorted by start and, being top-level, do not overlap.
    let stages: Vec<(&str, u64, u64)> = spans
        .iter()
        .filter(|e| is_stage(e))
        .map(|e| {
            let (start, end) = span_ns(e);
            (e.name.as_str(), start, end)
        })
        .collect();
    if stages.is_empty() {
        return Err("R1: trace has no stage (a top-level coordinator span: tid 0, depth 0)".into());
    }
    if let Some((name, start, _)) = stages.iter().find(|(_, start, end)| end == start) {
        return Err(format!(
            "R1: stage `{name}` at {start} ns has zero duration"
        ));
    }
    // The stage holding `[start, end]`: the last one starting at or before it.
    let stage_of = |(start, end): (u64, u64)| {
        let i = stages.partition_point(|s| s.1 <= start).checked_sub(1)?;
        (end <= stages[i].2).then_some(i)
    };
    let mut plans = Vec::new();
    let mut chunks_in = vec![BTreeSet::new(); stages.len()];
    for ev in &spans {
        let stage = stage_of(span_ns(ev));
        if ev.tid != 0 && stage.is_none() {
            return Err(format!(
                "R2: worker span `{}` (tid {}) at ts {} lies outside every stage",
                ev.name, ev.tid, ev.ts_us
            ));
        }
        let Some(i) = stage else { continue };
        if let Some(chunk) = ev.arg_u64("chunk") {
            chunks_in[i].insert(chunk);
        }
        if ev.name == "plan" && !is_stage(ev) {
            plans.push((i, ev.arg_u64("chunks").unwrap_or(0)));
        }
    }
    for (i, k) in plans {
        if let Some(missing) = (0..k).find(|c| !chunks_in[i].contains(c)) {
            let (name, start, _) = stages[i];
            return Err(format!(
                "R3: stage `{name}` at {start} ns plans {k} chunks but holds no span \
                 for chunk {missing}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, tid: i64, ts: i64) -> String {
        format!(
            r#"{{"name":"{name}","cat":"parcsr","ph":"X","ts":{ts},"dur":5,"pid":1,"tid":{tid},"args":{{"depth":0}}}}"#
        )
    }

    fn counter(name: &str, ts: i64, args: &str) -> String {
        format!(
            r#"{{"name":"{name}","cat":"parcsr","ph":"C","ts":{ts},"pid":1,"tid":0,"args":{args}}}"#
        )
    }

    #[test]
    fn accepts_a_well_formed_trace() {
        let text = format!(
            "[{},{},{}]",
            event("degree", 0, 10),
            event("scan", 0, 20),
            event("degree.chunk", 1, 10).replace(
                r#""args":{"depth":0}"#,
                r#""args":{"depth":0,"chunk":3,"chunk_len":128}"#
            )
        );
        assert_eq!(check_trace_text(&text), Ok(3));
    }

    #[test]
    fn rejects_garbage_and_empty() {
        assert!(check_trace_text("not json").is_err());
        assert!(check_trace_text("{}").is_err());
        let err = check_trace_text("[]").unwrap_err();
        assert!(err.contains("no events"), "{err}");
    }

    #[test]
    fn rejects_missing_fields_and_disorder() {
        let err = check_trace_text(r#"[{"name":"x","ph":"X","ts":1}]"#).unwrap_err();
        assert!(err.contains("missing required field"), "{err}");

        // Same tid going backwards in time must fail...
        let text = format!("[{},{}]", event("a", 0, 20), event("b", 0, 10));
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.contains("backwards"), "{err}");

        // ...but interleaved tids each monotone are fine.
        let text = format!("[{},{}]", event("a", 0, 10), event("b", 1, 10));
        assert_eq!(check_trace_text(&text), Ok(2));
    }

    #[test]
    fn rejects_unknown_phase() {
        let text = r#"[{"name":"a","ph":"B","ts":1,"dur":2,"pid":1,"tid":0}]"#;
        let err = check_trace_text(text).unwrap_err();
        assert!(err.contains("neither a complete"), "{err}");
    }

    #[test]
    fn rejects_negative_or_non_integer_span_args() {
        let bad = format!(
            "[{}]",
            event("scan", 0, 10)
                .replace(r#""args":{"depth":0}"#, r#""args":{"depth":0,"edges":-5}"#)
        );
        let err = check_trace_text(&bad).unwrap_err();
        assert!(err.contains("`edges`"), "{err}");

        let bad = format!(
            "[{}]",
            event("scan", 0, 10).replace(r#""args":{"depth":0}"#, r#""args":{"bits":"seven"}"#)
        );
        let err = check_trace_text(&bad).unwrap_err();
        assert!(err.contains("`bits`"), "{err}");
    }

    #[test]
    fn chunk_spans_must_carry_their_chunk_index() {
        for name in ["degree.chunk", "scan.totals_chunk"] {
            let err = check_trace_text(&format!("[{}]", event(name, 1, 10))).unwrap_err();
            assert!(err.contains("`chunk` index"), "{name}: {err}");
        }
        // Unknown args keys on a non-chunk span are ignored (forward compat).
        let ok = format!(
            "[{}]",
            event("scan", 0, 10)
                .replace(r#""args":{"depth":0}"#, r#""args":{"depth":0,"future":-1}"#)
        );
        assert_eq!(check_trace_text(&ok), Ok(1));
    }

    #[test]
    fn accepts_counter_series_after_spans() {
        let text = format!(
            "[{},{},{},{},{}]",
            event("degree", 0, 10),
            counter("mem.live_bytes", 15, r#"{"live_bytes":1024}"#),
            counter("mem.live_bytes", 25, r#"{"live_bytes":512}"#),
            counter("mem.stage_peak_bytes", 25, r#"{"peak_bytes":2048}"#),
            counter("mem.peak_bytes", 30, r#"{"peak_bytes":2048}"#),
        );
        assert_eq!(check_trace_text(&text), Ok(5));
    }

    #[test]
    fn rejects_bad_counters() {
        let span = event("degree", 0, 10);

        // Unknown namespaces.
        for name in ["rogue.metric", "pool.width"] {
            let text = format!("[{},{}]", span, counter(name, 20, r#"{"value":1}"#));
            let err = check_trace_text(&text).unwrap_err();
            assert!(err.contains("known namespaces"), "{name}: {err}");
        }

        // Counter series going backwards in time.
        let text = format!(
            "[{},{},{}]",
            span,
            counter("mem.live_bytes", 30, r#"{"live_bytes":1}"#),
            counter("mem.live_bytes", 20, r#"{"live_bytes":2}"#)
        );
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.contains("backwards"), "{err}");

        // Empty args and negative values.
        let text = format!("[{},{}]", span, counter("mem.peak_bytes", 20, "{}"));
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.contains("empty args"), "{err}");
        let text = format!(
            "[{},{}]",
            span,
            counter("mem.live_bytes", 20, r#"{"live_bytes":-4}"#)
        );
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");

        // Counters without any span events mean the recorder dropped spans.
        let text = format!("[{}]", counter("mem.peak_bytes", 20, r#"{"peak_bytes":1}"#));
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.contains("no span events"), "{err}");
    }

    #[test]
    fn arg_typing_survives_the_shared_reader() {
        // `args` present but not an object is a span-level error here, not
        // a parse error in trace_read.
        let text = r#"[{"name":"a","ph":"X","ts":1,"dur":2,"pid":1,"tid":0,"args":[1]}]"#;
        let err = check_trace_text(text).unwrap_err();
        assert!(err.contains("not an object"), "{err}");
    }

    fn span(name: &str, tid: i64, ts: f64, dur: f64, args: &str) -> String {
        format!(
            r#"{{"name":"{name}","cat":"parcsr","ph":"X","ts":{ts},"dur":{dur},"pid":1,"tid":{tid},"args":{args}}}"#
        )
    }

    /// A p = 2 `scatter` stage: its plan of two chunks, one chunk on each
    /// worker.
    fn scatter_stage(chunk1_ts: f64) -> Vec<String> {
        vec![
            span("scatter", 0, 100.0, 50.0, r#"{"depth":0}"#),
            span("plan", 0, 101.0, 1.0, r#"{"depth":1,"chunks":2}"#),
            span("scatter.chunk", 1, 105.0, 20.0, r#"{"depth":0,"chunk":0}"#),
            span(
                "scatter.chunk",
                2,
                chunk1_ts,
                20.0,
                r#"{"depth":0,"chunk":1}"#,
            ),
        ]
    }

    #[test]
    fn accepts_a_stage_whose_plan_and_workers_line_up() {
        let text = format!("[{}]", scatter_stage(106.0).join(","));
        assert_eq!(check_trace_text(&text), Ok(4));
        // Both spans end at 800 ns. In float µs the stage ends at
        // 0.7999999999999999 and the worker span at 0.8, so only the
        // integer-ns comparison keeps the worker span inside.
        let text = format!(
            "[{},{}]",
            span("pack", 0, 0.7, 0.1, r#"{"depth":0}"#),
            span("pack.chunk", 1, 0.75, 0.05, r#"{"depth":0,"chunk":0}"#),
        );
        assert_eq!(check_trace_text(&text), Ok(2));
    }

    #[test]
    fn r1_rejects_a_trace_without_stages_or_with_an_empty_one() {
        // Only nested coordinator spans: nothing is top-level.
        let text = format!("[{}]", span("plan", 0, 10.0, 5.0, r#"{"depth":1}"#));
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.starts_with("R1:") && err.contains("no stage"), "{err}");

        let text = format!("[{}]", span("degree", 0, 10.0, 0.0, r#"{"depth":0}"#));
        let err = check_trace_text(&text).unwrap_err();
        assert!(
            err.starts_with("R1:") && err.contains("zero duration"),
            "{err}"
        );
    }

    #[test]
    fn r2_rejects_a_worker_span_outside_every_stage() {
        let text = format!("[{}]", scatter_stage(10_106.0).join(","));
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.starts_with("R2:") && err.contains("tid 2"), "{err}");
    }

    #[test]
    fn r3_rejects_a_plan_whose_chunks_are_missing() {
        let mut spans = scatter_stage(106.0);
        spans.pop();
        let err = check_trace_text(&format!("[{}]", spans.join(","))).unwrap_err();
        assert!(
            err.starts_with("R3:") && err.contains("plans 2 chunks") && err.contains("chunk 1"),
            "{err}"
        );
    }
}
