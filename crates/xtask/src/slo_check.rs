//! Gate on a closed-loop driver result (`cargo xtask slo-check`).
//!
//! The `queries_closed_loop` bench binary emits a `parcsr.closed_loop.v1`
//! JSON document: per-window qps and latency percentiles plus a lifetime
//! rollup. CI archives that artifact and runs it through
//! `cargo xtask slo-check RESULT.json --p99-ns N --min-qps Q`, so a serving
//! regression (latency tail blowing past the SLO, throughput collapsing)
//! fails the build the same way a construction-stage drift does.
//!
//! The p99 graded is the driver's one latency per query: the kernel call,
//! timed as perfbench times it. Two threshold sources compose:
//!
//! * explicit — `--p99-ns N` (overall p99 must be ≤ N ns) and `--min-qps Q`
//!   (sustained throughput must be ≥ Q queries/s);
//! * baseline — `--baseline FILE [--slack F]` derives thresholds from
//!   a committed earlier result: p99 may grow by at most the slack factor
//!   (default 0.50 — latency tails are noisy on shared CI runners) and qps
//!   may shrink by at most the same factor. Explicit flags override the
//!   derived value for their dimension.
//!
//! Schema validation is part of the gate: a result whose `windows` series
//! is empty, non-dense, or missing its percentile fields fails even if the
//! numbers would pass — a driver that silently stopped reporting windows
//! must not look healthy.
//!
//! The module also holds the flag lists of the two CI smokes that `cargo
//! xtask bless-baseline` reruns to refresh `results/baselines/`
//! ([`CLOSED_LOOP_SMOKE_ARGS`], [`TABLE2_SMOKE_ARGS`]).

use std::path::PathBuf;

use parcsr_obs::json::Json;

use crate::trace_read::parse_json;

/// Result-JSON schema tag `slo-check` understands.
pub const SCHEMA: &str = "parcsr.closed_loop.v1";

/// Default baseline slack factor: p99 may grow, and qps may shrink, by
/// half before the gate trips. Latency percentiles on shared CI runners
/// are noisy; absolute targets should use the explicit flags.
pub const DEFAULT_SLACK: f64 = 0.50;

/// The `queries_closed_loop` flags of the CI serving smoke: the `slo`
/// job's "Closed-loop serving smoke" step passes them, and `cargo xtask
/// bless-baseline` reruns them to refresh
/// `results/baselines/closed_loop_smoke.json` (the baseline gate only
/// matches this configuration). `tests/serving_gates.rs` checks the CI
/// step against this list.
pub const CLOSED_LOOP_SMOKE_ARGS: &[&str] = &[
    "--graph",
    "hub",
    "--scale",
    "0.02",
    "--clients",
    "2",
    "--duration-ms",
    "600",
    "--window-ms",
    "150",
    "--seed",
    "42",
    "--json",
];

/// The `table2` flags of the CI stage smoke, before its `--trace FILE`: the
/// `obs` job's "Bench smoke with all obs flags" step passes them, and
/// `cargo xtask bless-baseline` reruns them to refresh
/// `results/baselines/table2_smoke.stages.json` (the baseline `stage-diff`
/// compares CI's stage shares against). `tests/serving_gates.rs` checks the
/// CI step against this list.
pub const TABLE2_SMOKE_ARGS: &[&str] = &[
    "--scale",
    "0.02",
    "--reps",
    "5",
    "--procs",
    "1,2",
    "--metrics",
    "--json",
];

/// Thresholds to enforce (at least one must be set).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloThresholds {
    /// Overall p99 latency ceiling, ns.
    pub p99_ns: Option<u64>,
    /// Sustained throughput floor, queries/s.
    pub min_qps: Option<f64>,
}

/// `slo-check`'s options after the result-file argument.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloArgs {
    /// The explicit `--p99-ns` / `--min-qps` thresholds.
    pub explicit: SloThresholds,
    /// `--baseline FILE`: derive thresholds from this committed result.
    pub baseline: Option<PathBuf>,
    /// `--slack F`: the baseline's slack factor (needs `--baseline`).
    pub slack: Option<f64>,
}

/// Parses `slo-check`'s options after the result-file argument.
pub fn parse_args(rest: &[String]) -> Result<SloArgs, String> {
    let mut opts = SloArgs::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--p99-ns" => {
                let value = it.next().ok_or("--p99-ns needs a value")?;
                opts.explicit.p99_ns = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--p99-ns: {e} (got `{value}`)"))?,
                );
            }
            "--min-qps" => {
                let value = it.next().ok_or("--min-qps needs a value")?;
                opts.explicit.min_qps = match value.parse::<f64>() {
                    Ok(f) if f.is_finite() && f >= 0.0 => Some(f),
                    _ => return Err(format!("--min-qps must be non-negative, got `{value}`")),
                };
            }
            "--baseline" => {
                let path = it.next().ok_or("--baseline needs a file path")?;
                opts.baseline = Some(PathBuf::from(path));
            }
            "--slack" => {
                let value = it.next().ok_or("--slack needs a value")?;
                opts.slack = match value.parse::<f64>() {
                    Ok(f) if f.is_finite() && f >= 0.0 => Some(f),
                    _ => return Err(format!("--slack must be non-negative, got `{value}`")),
                };
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if opts.slack.is_some() && opts.baseline.is_none() {
        return Err("--slack only makes sense with --baseline".into());
    }
    Ok(opts)
}

/// One window row of a parsed result (the fields the gate prints).
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Window ordinal.
    pub window: u64,
    /// Queries completed in the window.
    pub requests: u64,
    /// Completed queries per second.
    pub qps: f64,
    /// Window p99 latency, ns.
    pub p99_ns: u64,
}

/// A parsed, schema-validated closed-loop result.
#[derive(Debug, Clone)]
pub struct ClosedLoopResult {
    /// Graph display name.
    pub graph: String,
    /// Client count.
    pub clients: u64,
    /// Per-window series (non-empty, dense ordinals).
    pub windows: Vec<WindowRow>,
    /// Lifetime requests.
    pub requests: u64,
    /// Lifetime sustained throughput, queries/s.
    pub qps: f64,
    /// Lifetime p99 latency, ns.
    pub p99_ns: u64,
}

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing field `{key}`"))
}

fn u64_field(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    field(obj, key, ctx)?
        .as_i64()
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| format!("{ctx}: field `{key}` must be a non-negative integer"))
}

fn f64_field(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    field(obj, key, ctx)?
        .as_f64()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("{ctx}: field `{key}` must be a non-negative number"))
}

/// Parses and schema-validates result text (`which` labels error messages,
/// e.g. `"result"` / `"baseline"`).
pub fn parse_result(which: &str, text: &str) -> Result<ClosedLoopResult, String> {
    let doc = parse_json(which, text)?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != SCHEMA {
        return Err(format!(
            "{which}: schema is {schema:?}, expected {SCHEMA:?} \
             (is this a queries_closed_loop --json artifact?)"
        ));
    }
    let graph = field(&doc, "graph", which)?
        .as_str()
        .ok_or_else(|| format!("{which}: field `graph` must be a string"))?
        .to_string();
    let clients = u64_field(&doc, "clients", which)?;
    let windows_json = field(&doc, "windows", which)?
        .as_array()
        .ok_or_else(|| format!("{which}: field `windows` must be an array"))?;
    if windows_json.is_empty() {
        return Err(format!(
            "{which}: `windows` is empty — the driver reported no completed windows"
        ));
    }
    let mut windows = Vec::with_capacity(windows_json.len());
    for (i, w) in windows_json.iter().enumerate() {
        let ctx = format!("{which}: windows[{i}]");
        let row = WindowRow {
            window: u64_field(w, "window", &ctx)?,
            requests: u64_field(w, "requests", &ctx)?,
            qps: f64_field(w, "qps", &ctx)?,
            p99_ns: u64_field(w, "p99_ns", &ctx)?,
        };
        if row.window != i as u64 {
            return Err(format!(
                "{ctx}: ordinal is {} — the window series must be dense from 0",
                row.window
            ));
        }
        windows.push(row);
    }
    let overall = field(&doc, "overall", which)?;
    let ctx = format!("{which}: overall");
    let requests = u64_field(overall, "requests", &ctx)?;
    if requests == 0 {
        return Err(format!(
            "{ctx}: zero requests — the driver measured nothing"
        ));
    }
    Ok(ClosedLoopResult {
        graph,
        clients,
        windows,
        requests,
        qps: f64_field(overall, "qps", &ctx)?,
        p99_ns: u64_field(overall, "p99_ns", &ctx)?,
    })
}

/// Derives thresholds from a baseline result: p99 ceiling = baseline p99
/// scaled up by `slack`, qps floor = baseline qps scaled down by `slack`.
#[must_use]
pub fn baseline_thresholds(baseline: &ClosedLoopResult, slack: f64) -> SloThresholds {
    SloThresholds {
        p99_ns: Some((baseline.p99_ns as f64 * (1.0 + slack)).ceil() as u64),
        min_qps: Some(baseline.qps * (1.0 - slack)),
    }
}

/// Gate outcome: the rendered report plus pass/fail.
#[derive(Debug)]
pub struct SloOutcome {
    /// Window table plus the verdict lines, ready to print.
    pub report: String,
    /// True iff a threshold was violated.
    pub failed: bool,
}

/// Checks result text against thresholds. `Err` means the result did not
/// parse/validate (also a gate failure, but a different exit message);
/// `Ok(out)` with `out.failed` means a threshold was violated.
pub fn check_slo_text(text: &str, thresholds: &SloThresholds) -> Result<SloOutcome, String> {
    if thresholds.p99_ns.is_none() && thresholds.min_qps.is_none() {
        return Err("no thresholds given (need --p99-ns, --min-qps, or --baseline)".into());
    }
    let result = parse_result("result", text)?;
    use std::fmt::Write;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "slo-check: {} ({} clients, {} requests over {} windows)",
        result.graph,
        result.clients,
        result.requests,
        result.windows.len()
    );
    let _ = writeln!(report, "| window | requests | qps | p99 (µs) |");
    let _ = writeln!(report, "|---:|---:|---:|---:|");
    for w in &result.windows {
        let _ = writeln!(
            report,
            "| {} | {} | {:.0} | {:.1} |",
            w.window,
            w.requests,
            w.qps,
            w.p99_ns as f64 / 1_000.0
        );
    }
    let mut failed = false;
    if let Some(ceiling) = thresholds.p99_ns {
        let ok = result.p99_ns <= ceiling;
        failed |= !ok;
        let _ = writeln!(
            report,
            "p99: {:.1} µs vs ceiling {:.1} µs — {}",
            result.p99_ns as f64 / 1_000.0,
            ceiling as f64 / 1_000.0,
            if ok { "ok" } else { "VIOLATED" }
        );
    }
    if let Some(floor) = thresholds.min_qps {
        let ok = result.qps >= floor;
        failed |= !ok;
        let _ = writeln!(
            report,
            "qps: {:.0} vs floor {floor:.0} — {}",
            result.qps,
            if ok { "ok" } else { "VIOLATED" }
        );
    }
    Ok(SloOutcome { report, failed })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal well-formed v1 result with the given overall numbers.
    fn result_json(p99_ns: u64, qps: f64) -> String {
        format!(
            r#"{{
  "schema": "parcsr.closed_loop.v1",
  "graph": "hub@0.02",
  "clients": 2,
  "windows": [
    {{"window": 0, "requests": 1000, "qps": {qps}, "p99_ns": {p99_ns}}},
    {{"window": 1, "requests": 1100, "qps": {qps}, "p99_ns": {p99_ns}}}
  ],
  "overall": {{"requests": 2100, "qps": {qps}, "p99_ns": {p99_ns}}}
}}"#
        )
    }

    #[test]
    fn passes_within_thresholds_and_fails_outside() {
        let text = result_json(2_500, 800_000.0);
        let out = check_slo_text(
            &text,
            &SloThresholds {
                p99_ns: Some(10_000),
                min_qps: Some(100_000.0),
            },
        )
        .unwrap();
        assert!(!out.failed, "{}", out.report);
        assert!(out.report.contains("p99: 2.5 µs"), "{}", out.report);

        let out = check_slo_text(
            &text,
            &SloThresholds {
                p99_ns: Some(1_000),
                ..SloThresholds::default()
            },
        )
        .unwrap();
        assert!(out.failed);
        assert!(out.report.contains("VIOLATED"), "{}", out.report);

        let out = check_slo_text(
            &text,
            &SloThresholds {
                min_qps: Some(1_000_000.0),
                ..SloThresholds::default()
            },
        )
        .unwrap();
        assert!(out.failed);
    }

    #[test]
    fn requires_at_least_one_threshold() {
        let err = check_slo_text(&result_json(1, 1.0), &SloThresholds::default()).unwrap_err();
        assert!(err.contains("no thresholds"), "{err}");
    }

    #[test]
    fn rejects_schema_and_shape_violations() {
        let thresholds = SloThresholds {
            p99_ns: Some(u64::MAX),
            ..SloThresholds::default()
        };
        // Wrong schema tag.
        let err = check_slo_text(r#"{"schema":"other.v9"}"#, &thresholds).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        // Empty window series.
        let text = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
                       "windows":[],"overall":{"requests":1,"qps":1.0,"p99_ns":1}}"#;
        let err = check_slo_text(text, &thresholds).unwrap_err();
        assert!(err.contains("empty"), "{err}");
        // Non-dense ordinals.
        let text = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
                       "windows":[{"window":1,"requests":1,"qps":1.0,"p99_ns":1}],
                       "overall":{"requests":1,"qps":1.0,"p99_ns":1}}"#;
        let err = check_slo_text(text, &thresholds).unwrap_err();
        assert!(err.contains("dense"), "{err}");
        // Zero overall requests.
        let text = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
                       "windows":[{"window":0,"requests":0,"qps":0.0,"p99_ns":0}],
                       "overall":{"requests":0,"qps":0.0,"p99_ns":0}}"#;
        let err = check_slo_text(text, &thresholds).unwrap_err();
        assert!(err.contains("measured nothing"), "{err}");
        // Missing percentile field.
        let text = r#"{"schema":"parcsr.closed_loop.v1","graph":"g","clients":1,
                       "windows":[{"window":0,"requests":1,"qps":1.0}],
                       "overall":{"requests":1,"qps":1.0,"p99_ns":1}}"#;
        let err = check_slo_text(text, &thresholds).unwrap_err();
        assert!(err.contains("p99_ns"), "{err}");
    }

    #[test]
    fn baseline_thresholds_apply_slack_both_ways() {
        let base = parse_result("baseline", &result_json(2_000, 100_000.0)).unwrap();
        let t = baseline_thresholds(&base, 0.5);
        assert_eq!(t.p99_ns, Some(3_000));
        assert!((t.min_qps.unwrap() - 50_000.0).abs() < 1e-6);

        // A result within the slack passes; one past it fails.
        let ok = check_slo_text(&result_json(2_900, 60_000.0), &t).unwrap();
        assert!(!ok.failed, "{}", ok.report);
        let slow = check_slo_text(&result_json(3_100, 60_000.0), &t).unwrap();
        assert!(slow.failed);
        let starved = check_slo_text(&result_json(2_000, 40_000.0), &t).unwrap();
        assert!(starved.failed);
    }

    #[test]
    fn parse_args_reads_thresholds_and_rejects_the_phase_ceilings() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let parsed = args(&["--p99-ns", "1000000", "--min-qps", "10000"]).unwrap();
        assert_eq!(
            parsed.explicit,
            SloThresholds {
                p99_ns: Some(1_000_000),
                min_qps: Some(10_000.0),
            }
        );
        assert!(
            args(&["--slack", "0.5"]).is_err(),
            "--slack needs --baseline"
        );
        // The queue/exec split is gone, and so are its ceilings.
        for flag in ["--p99-queue-ns", "--p99-exec-ns"] {
            let err = args(&[flag, "1"]).unwrap_err();
            assert!(err.contains("unexpected argument"), "{flag}: {err}");
        }
    }
}
