//! `trace-analyze` — parallel-efficiency report over a Chrome trace file.
//!
//! `cargo xtask trace-analyze <trace.json> [--stage NAME] [--json OUT]
//! [--check] [--min-util F]` feeds the trace's complete (`"X"`) events through
//! [`parcsr_obs::analyze`] and prints, per top-level stage: instance count,
//! wall and busy time, worker utilization, critical-path ratio, and — when
//! the stage recorded per-chunk spans — the chunk-imbalance block
//! (duration CV, straggler id, duration-vs-size correlations).
//!
//! * `--stage NAME` additionally prints every instance of that stage with a
//!   per-worker busy/idle timeline bar, the view that makes a straggler
//!   visible at a glance.
//! * `--json OUT` writes the full analysis (summaries + instances) as JSON
//!   next to the human-readable table; CI uploads it alongside the raw
//!   trace.
//! * `--check` turns the report into a gate: at least one stage must be
//!   present and every stage's utilization must be positive — the cheapest
//!   proof that worker spans actually carry attributable time.
//! * `--min-util F` raises the `--check` floor: every stage's utilization
//!   must be at least `F`. CI sets it below the lowest reading of its
//!   smoke. It cannot catch chunk imbalance: the coordinator, which runs
//!   no chunks, counts as a lane once it records a sub-span (the `plan`
//!   span), so a worse split can read higher.

use std::fmt::Write as _;

use parcsr_obs::analyze::{analyze, AnalyzedSpan, StageInstance, TraceAnalysis};

use xtask::trace_read::{parse_trace, Phase, TraceEvent};

/// Width of the per-worker timeline bars printed by `--stage`.
const TIMELINE_COLS: usize = 48;

fn us_to_ns(us: f64) -> u64 {
    if us <= 0.0 {
        0
    } else {
        (us * 1e3).round() as u64
    }
}

/// Converts parsed trace events (µs timestamps) into analyzer spans (ns).
/// Counter events carry no duration and are skipped.
pub fn spans_from_events(events: &[TraceEvent]) -> Vec<AnalyzedSpan> {
    events
        .iter()
        .filter(|ev| ev.ph == Phase::Complete)
        .map(|ev| AnalyzedSpan {
            name: ev.name.clone(),
            start_ns: us_to_ns(ev.ts_us),
            dur_ns: us_to_ns(ev.dur_us),
            tid: u32::try_from(ev.tid).unwrap_or(0),
            depth: ev.arg_u64("depth").map_or(0, |d| d as u16),
            chunk: ev.arg_u64("chunk"),
            chunk_len: ev.arg_u64("chunk_len"),
            edges: ev.arg_u64("edges"),
        })
        .collect()
}

/// Parses trace text and runs the analyzer over its span events.
pub fn analyze_trace_text(text: &str) -> Result<TraceAnalysis, String> {
    let events = parse_trace(text)?;
    Ok(analyze(&spans_from_events(&events)))
}

/// The `--check` gate: at least one stage, every utilization positive, and
/// — with `min_util > 0` — every stage's utilization at or above the floor.
pub fn check_analysis(analysis: &TraceAnalysis, min_util: f64) -> Result<(), String> {
    if analysis.stages.is_empty() {
        return Err("no top-level stages in trace (nothing to analyze)".into());
    }
    for s in &analysis.stages {
        // partial_cmp so a NaN utilization fails the gate too.
        if s.utilization.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(format!(
                "stage `{}` reports non-positive utilization {}",
                s.name, s.utilization
            ));
        }
        if s.utilization.partial_cmp(&min_util) == Some(std::cmp::Ordering::Less) {
            return Err(format!(
                "stage `{}` utilization {:.3} is below the --min-util floor {min_util}",
                s.name, s.utilization
            ));
        }
    }
    Ok(())
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Renders the per-stage summary table plus the straggler report; with
/// `stage_filter`, appends per-instance worker timelines for that stage.
pub fn render_report(analysis: &TraceAnalysis, stage_filter: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>4} {:>10} {:>10} {:>6} {:>7} {:>5}",
        "stage", "runs", "wall_ms", "busy_ms", "util", "cp", "lanes"
    );
    for s in &analysis.stages {
        let _ = writeln!(
            out,
            "{:<18} {:>4} {:>10} {:>10} {:>6.3} {:>7.3} {:>5}",
            s.name,
            s.instances,
            fmt_ms(s.wall_ns),
            fmt_ms(s.busy_ns),
            s.utilization,
            s.critical_path_ratio,
            s.max_workers
        );
    }

    let chunked: Vec<_> = analysis
        .stages
        .iter()
        .filter_map(|s| s.chunks.as_ref().map(|c| (s, c)))
        .collect();
    if !chunked.is_empty() {
        let _ = writeln!(out, "\nchunk imbalance:");
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>10} {:>10} {:>6} {:>14} {:>9} {:>9}",
            "stage", "obs", "mean_ms", "max_ms", "cv", "straggler", "r(len)", "r(edges)"
        );
        for (s, c) in chunked {
            let corr = |v: Option<f64>| v.map_or("-".to_string(), |r| format!("{r:+.2}"));
            let _ = writeln!(
                out,
                "{:<18} {:>5} {:>10.3} {:>10} {:>6.2} {:>14} {:>9} {:>9}",
                s.name,
                c.observed,
                c.mean_ns / 1e6,
                fmt_ms(c.max_ns),
                c.cv,
                format!("t{} c{}", c.straggler_tid, c.straggler_chunk),
                corr(c.corr_chunk_len),
                corr(c.corr_edges)
            );
        }
    }

    if let Some(name) = stage_filter {
        let matching: Vec<&StageInstance> = analysis
            .instances
            .iter()
            .filter(|i| i.name == name)
            .collect();
        if matching.is_empty() {
            let _ = writeln!(out, "\nstage `{name}`: no instances in trace");
        }
        for (k, inst) in matching.iter().enumerate() {
            let _ = writeln!(
                out,
                "\n{name} #{k}: wall {} ms, util {:.3}, cp {:.3}{}",
                fmt_ms(inst.dur_ns),
                inst.utilization,
                inst.critical_path_ratio,
                if inst.coordinator_only {
                    " (coordinator-only)"
                } else {
                    ""
                }
            );
            let end = inst.start_ns + inst.dur_ns;
            for w in &inst.workers {
                let _ = writeln!(
                    out,
                    "  t{:<3} [{}] busy {} ms / {} span{}",
                    w.tid,
                    w.timeline(inst.start_ns, end, TIMELINE_COLS),
                    fmt_ms(w.busy_ns),
                    w.spans,
                    if w.spans == 1 { "" } else { "s" }
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-worker `degree` stage: worker 1 busy 40 of 50 µs (two spans),
    /// worker 2 busy 10 of 50 µs, both chunk spans carrying payloads; plus
    /// a counter event that must be ignored.
    fn trace() -> String {
        let span = |name: &str, ts: f64, dur: f64, tid: i64, args: &str| {
            format!(
                r#"{{"name":"{name}","cat":"parcsr","ph":"X","ts":{ts},"dur":{dur},"pid":1,"tid":{tid},"args":{args}}}"#
            )
        };
        format!(
            "[{},{},{},{},{}]",
            span(
                "degree.chunk",
                10.0,
                30.0,
                1,
                r#"{"depth":0,"chunk":0,"chunk_len":900,"edges":9000}"#
            ),
            span(
                "degree.chunk",
                45.0,
                10.0,
                1,
                r#"{"depth":0,"chunk":2,"chunk_len":300,"edges":3000}"#
            ),
            span(
                "degree.chunk",
                12.0,
                10.0,
                2,
                r#"{"depth":0,"chunk":1,"chunk_len":300,"edges":3000}"#
            ),
            span("degree", 10.0, 50.0, 0, r#"{"depth":0}"#),
            r#"{"name":"mem.live_bytes","ph":"C","ts":60,"pid":1,"tid":0,"args":{"live_bytes":1}}"#,
        )
    }

    #[test]
    fn busy_sums_match_span_durations_within_one_percent() {
        let analysis = analyze_trace_text(&trace()).unwrap();
        let inst = &analysis.instances[0];
        assert_eq!(inst.name, "degree");

        // Per-worker busy must equal the summed durations of that worker's
        // spans — here exactly; the 1% tolerance guards
        // only the float µs→ns rounding.
        let expect = [(1u32, 40_000u64), (2, 10_000)];
        for (tid, want_ns) in expect {
            let w = inst.workers.iter().find(|w| w.tid == tid).unwrap();
            let err = (w.busy_ns as f64 - want_ns as f64).abs() / want_ns as f64;
            assert!(err < 0.01, "tid {tid}: busy {} vs {want_ns}", w.busy_ns);
        }
        assert_eq!(inst.busy_ns, 50_000);
        // 50 µs busy over 2 lanes × 50 µs wall.
        assert!((inst.utilization - 0.5).abs() < 1e-9);
        assert!((inst.critical_path_ratio - 0.8).abs() < 1e-9);
        let chunks = analysis.stage("degree").unwrap().chunks.as_ref().unwrap();
        assert_eq!(chunks.observed, 3);
        assert_eq!(chunks.straggler_tid, 1);
        assert_eq!(chunks.straggler_chunk, 0);
        // Duration is exactly proportional to both size payloads.
        assert!((chunks.corr_chunk_len.unwrap() - 1.0).abs() < 1e-9);
        assert!((chunks.corr_edges.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn check_gate_accepts_good_and_rejects_empty_or_idle() {
        let analysis = analyze_trace_text(&trace()).unwrap();
        assert!(check_analysis(&analysis, 0.0).is_ok());
        let empty = TraceAnalysis::default();
        assert!(check_analysis(&empty, 0.0)
            .unwrap_err()
            .contains("no top-level"));
    }

    #[test]
    fn check_gate_enforces_utilization_floor() {
        // The fixture's degree stage sits at exactly 0.5 utilization.
        let analysis = analyze_trace_text(&trace()).unwrap();
        assert!(check_analysis(&analysis, 0.5).is_ok(), "floor is inclusive");
        let err = check_analysis(&analysis, 0.75).unwrap_err();
        assert!(err.contains("below the --min-util floor"), "{err}");
    }

    #[test]
    fn report_renders_table_straggler_block_and_timelines() {
        let analysis = analyze_trace_text(&trace()).unwrap();
        let report = render_report(&analysis, Some("degree"));
        assert!(report.contains("stage"), "{report}");
        assert!(report.contains("degree"), "{report}");
        assert!(report.contains("chunk imbalance"), "{report}");
        assert!(report.contains("t1 c0"), "{report}");
        assert!(report.contains("degree #0"), "{report}");
        assert!(report.contains('#'), "{report}");
        let miss = render_report(&analysis, Some("nope"));
        assert!(miss.contains("no instances"), "{miss}");
    }

    #[test]
    fn json_output_parses_and_carries_utilization() {
        let analysis = analyze_trace_text(&trace()).unwrap();
        let text = analysis.to_json().pretty();
        let doc = parcsr_obs::json::Json::parse(&text).unwrap();
        let stages = doc.get("stages").and_then(|s| s.as_array()).unwrap();
        assert_eq!(stages.len(), 1);
        let util = stages[0].get("utilization").and_then(|u| u.as_f64());
        assert_eq!(util, Some(0.5));
    }
}
