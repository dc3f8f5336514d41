//! Validator for Chrome trace-event files produced by `parcsr-obs`
//! (`--trace` on the bench binaries and the CLI).
//!
//! CI runs a bench smoke with `--trace` and feeds the output through
//! `cargo xtask check-trace <file>`; the build fails if the trace is
//! missing, unparseable, empty, structurally malformed, or not
//! time-ordered — the cheapest end-to-end proof that the instrumentation
//! actually recorded the pipeline.
//!
//! Structural parsing lives in [`crate::trace_read`] (shared with
//! `stage-diff` and `trace-analyze`); this module adds the semantic rules:
//!
//! * complete (`"X"`) span events must be time-ordered per thread, and
//!   their `args` payload (when present) must hold only non-negative
//!   integers for the typed keys (`depth`, `edges`, `chunk`, `chunk_len`,
//!   `bits`, `chunks`). Per-chunk spans (names ending `.chunk` or
//!   `_chunk`) must carry a `chunk` index — a chunk span without its index
//!   means the instrumentation site lost its payload.
//! * counter (`"C"`) events — the memory and serving series. Must use a
//!   known namespace (`mem.`, `query.`), be time-ordered per
//!   counter name, and hold a non-empty `args` object of non-negative
//!   numbers.
//! * serving-window counters (`query.win.*` and `query.exemplar.*` — the
//!   windowed series the closed-loop driver's reporter rotates) must
//!   additionally carry a non-negative integer `window` arg that never
//!   decreases within a counter name: a window ordinal going backwards
//!   means the rotation epoch and the export order disagree.

use crate::trace_read::{parse_trace, Phase, TraceEvent};

/// Span-arg keys the exporter may emit; every one is a non-negative count
/// or width, so anything negative (or non-integer) is a recorder bug.
const SPAN_ARG_KEYS: &[&str] = &["depth", "edges", "chunk", "chunk_len", "bits", "chunks"];

/// Namespaces counter events may use. A counter outside these was added
/// ad hoc and would silently vanish from dashboards keyed on the known
/// prefixes.
const COUNTER_PREFIXES: &[&str] = &["mem.", "query."];

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
             (mem.*, query.*)"
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

/// Counter namespaces whose every point belongs to a rotated serving
/// window and must therefore carry a monotone `window` ordinal.
const WINDOWED_PREFIXES: &[&str] = &["query.win.", "query.exemplar."];

/// The serving-window ordinal of a windowed serving counter, enforced
/// present and integer; `None` for any other counter.
fn check_window_arg(i: usize, ev: &TraceEvent) -> Result<Option<i64>, String> {
    let name = &ev.name;
    if !WINDOWED_PREFIXES.iter().any(|p| name.starts_with(p)) {
        return Ok(None);
    }
    match ev.arg_i64("window") {
        Some(w) if w >= 0 => Ok(Some(w)),
        _ => Err(format!(
            "event {i}: serving-window counter `{name}` must carry a non-negative \
             integer `window` arg"
        )),
    }
}

/// Validates trace text; returns the event count on success.
pub fn check_trace_text(text: &str) -> Result<usize, String> {
    let events = parse_trace(text)?;

    // Span events are ordered per tid; counter events per counter name.
    // Both maps are tiny (few tids, few counters), linear scan is fine.
    let mut span_last_ts: Vec<(i64, f64)> = Vec::new();
    let mut counter_last_ts: Vec<(String, f64)> = Vec::new();
    let mut window_last: Vec<(String, i64)> = Vec::new();
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
                if let Some(w) = check_window_arg(i, ev)? {
                    match window_last.iter_mut().find(|(n, _)| *n == ev.name) {
                        Some((_, last)) => {
                            if w < *last {
                                return Err(format!(
                                    "event {i}: counter `{}` window ordinal goes \
                                     backwards: {w} after {last}",
                                    ev.name
                                ));
                            }
                            *last = w;
                        }
                        None => window_last.push((ev.name.clone(), w)),
                    }
                }
            }
        }
    }
    if !saw_span {
        return Err("trace has counter events but no span events".into());
    }
    Ok(events.len())
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
            event("degree.chunk", 1, 12).replace(
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
        let text = format!("[{},{}]", event("a", 0, 20), event("b", 1, 10));
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
    fn serving_window_counters_need_a_monotone_window_arg() {
        let span = event("degree", 0, 10);
        let win = |ts: i64, args: &str| counter("query.win.neighbors.hub", ts, args);

        // Well-formed series: window ordinal repeats or advances.
        let text = format!(
            "[{},{},{},{}]",
            span,
            win(
                20,
                r#"{"window":0,"count":10,"p50":90,"p95":180,"p99":199}"#
            ),
            win(
                30,
                r#"{"window":1,"count":12,"p50":91,"p95":181,"p99":200}"#
            ),
            counter(
                "query.win.qps",
                30,
                r#"{"window":1,"queries":22,"qps":2200}"#
            ),
        );
        assert_eq!(check_trace_text(&text), Ok(4));

        // Missing window arg.
        let text = format!("[{},{}]", span, win(20, r#"{"count":10}"#));
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.contains("`window` arg"), "{err}");

        // Window ordinal going backwards within a counter name.
        let text = format!(
            "[{},{},{}]",
            span,
            win(20, r#"{"window":2,"count":1}"#),
            win(30, r#"{"window":1,"count":1}"#),
        );
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.contains("window ordinal goes backwards"), "{err}");

        // Plain query.* counters (no .win.) stay exempt from the rule.
        let text = format!(
            "[{},{}]",
            span,
            counter("query.has_edge_ns", 20, r#"{"count":10}"#)
        );
        assert_eq!(check_trace_text(&text), Ok(2));
    }

    #[test]
    fn phase_and_exemplar_counters_are_windowed_series() {
        let span = event("degree", 0, 10);
        let ex = |ts: i64, args: &str| counter("query.exemplar.neighbors.hub", ts, args);

        // Exemplars are a windowed series: they require the window arg...
        let text = format!("[{},{}]", span, ex(20, r#"{"source":7,"total":1000}"#));
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.contains("`window` arg"), "{err}");

        // ...a backwards ordinal within the series trips the gate...
        let text = format!(
            "[{},{},{}]",
            span,
            ex(20, r#"{"window":2,"source":7,"total":1000}"#),
            ex(30, r#"{"window":1,"source":9,"total":900}"#),
        );
        let err = check_trace_text(&text).unwrap_err();
        assert!(err.contains("window ordinal goes backwards"), "{err}");

        // ...and a well-formed point carries one latency, `total`.
        let text = format!(
            "[{},{}]",
            span,
            ex(20, r#"{"window":0,"source":7,"total":1000}"#)
        );
        assert_eq!(check_trace_text(&text), Ok(2));
    }

    #[test]
    fn arg_typing_survives_the_shared_reader() {
        // `args` present but not an object is a span-level error here, not
        // a parse error in trace_read.
        let text = r#"[{"name":"a","ph":"X","ts":1,"dur":2,"pid":1,"tid":0,"args":[1]}]"#;
        let err = check_trace_text(text).unwrap_err();
        assert!(err.contains("not an object"), "{err}");
    }
}
