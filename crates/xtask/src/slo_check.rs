//! Gate on a closed-loop driver result (`cargo xtask slo-check`).
//!
//! The `queries_closed_loop` bench binary emits a `parcsr.closed_loop.v2`
//! JSON document: the run's qps and latency percentiles, overall and per
//! query kind and degree class, plus its slowest queries. CI archives that
//! artifact and runs it through
//! `cargo xtask slo-check RESULT.json --p99-ns N --min-qps Q`, so a serving
//! regression (latency tail blowing past the SLO, throughput collapsing)
//! fails the build the same way a construction-stage drift does.
//!
//! The p99 graded is the driver's one latency per query: the kernel call,
//! timed as perfbench times it. Two threshold sources compose:
//!
//! * explicit — `--p99-ns N` (overall p99 must be ≤ N ns) and `--min-qps Q`
//!   (sustained throughput must be ≥ Q queries/s);
//! * baseline — `--baseline FILE` derives thresholds from a committed
//!   earlier result: p99 may grow by at most [`SLACK`] (0.50 — latency
//!   tails are noisy on shared CI runners) and qps may shrink by at most
//!   the same factor. Explicit flags override the derived value for their
//!   dimension.
//!
//! Schema validation is part of the gate: a result that measured nothing
//! (zero requests, a non-positive `elapsed_ms`), misses a percentile field,
//! or whose per-kind or per-class counts do not sum to `overall.requests`
//! fails even if the numbers would pass. The driver merges its clients'
//! records once, after they join, so those sums are exact: a result that
//! dropped or double-counted queries must not look healthy.
//!
//! The module also holds the flag lists of the two CI smokes that `cargo
//! xtask bless-baseline` reruns to refresh `results/baselines/`
//! ([`CLOSED_LOOP_SMOKE_ARGS`], [`TABLE2_SMOKE_ARGS`]).

use std::path::PathBuf;

use parcsr_obs::json::Json;

use crate::trace_read::parse_json;

/// Result-JSON schema tag `slo-check` understands.
pub const SCHEMA: &str = "parcsr.closed_loop.v2";

/// Baseline slack factor: p99 may grow, and qps may shrink, by half before
/// the gate trips. Latency percentiles on shared CI runners are noisy;
/// absolute targets should use the explicit flags.
pub const SLACK: f64 = 0.50;

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
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(opts)
}

/// A parsed, schema-validated closed-loop result.
#[derive(Debug, Clone)]
pub struct ClosedLoopResult {
    /// Graph display name.
    pub graph: String,
    /// Client count.
    pub clients: u64,
    /// Measured run length, ms (positive).
    pub elapsed_ms: f64,
    /// Lifetime requests (positive; the per-kind and per-class counts sum
    /// to it).
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
    let elapsed_ms = f64_field(&doc, "elapsed_ms", which)?;
    if elapsed_ms <= 0.0 {
        return Err(format!(
            "{which}: `elapsed_ms` is {elapsed_ms} — the driver ran for no time"
        ));
    }
    let overall = field(&doc, "overall", which)?;
    let ctx = format!("{which}: overall");
    let requests = u64_field(overall, "requests", &ctx)?;
    if requests == 0 {
        return Err(format!(
            "{ctx}: zero requests — the driver measured nothing"
        ));
    }
    for rollup in ["kinds", "classes"] {
        let cells = field(overall, rollup, &ctx)?
            .as_array()
            .ok_or_else(|| format!("{ctx}: field `{rollup}` must be an array"))?;
        let mut sum = 0u64;
        for (i, cell) in cells.iter().enumerate() {
            sum = sum.saturating_add(u64_field(cell, "count", &format!("{ctx}.{rollup}[{i}]"))?);
        }
        if sum != requests {
            return Err(format!(
                "{ctx}.{rollup}: counts sum to {sum}, but overall.requests is {requests} \
                 — every query belongs to exactly one cell"
            ));
        }
    }
    Ok(ClosedLoopResult {
        graph,
        clients,
        elapsed_ms,
        requests,
        qps: f64_field(overall, "qps", &ctx)?,
        p99_ns: u64_field(overall, "p99_ns", &ctx)?,
    })
}

/// Derives thresholds from a baseline result: p99 ceiling = baseline p99
/// scaled up by [`SLACK`], qps floor = baseline qps scaled down by it.
#[must_use]
pub fn baseline_thresholds(baseline: &ClosedLoopResult) -> SloThresholds {
    SloThresholds {
        p99_ns: Some((baseline.p99_ns as f64 * (1.0 + SLACK)).ceil() as u64),
        min_qps: Some(baseline.qps * (1.0 - SLACK)),
    }
}

/// Gate outcome: the rendered report plus pass/fail.
#[derive(Debug)]
pub struct SloOutcome {
    /// Summary line plus the verdict lines, ready to print.
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
        "slo-check: {} ({} clients, {} requests in {:.0} ms)",
        result.graph, result.clients, result.requests, result.elapsed_ms
    );
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

    /// A minimal well-formed v2 result with the given overall numbers.
    fn result_json(p99_ns: u64, qps: f64) -> String {
        format!(
            r#"{{
  "schema": "parcsr.closed_loop.v2",
  "graph": "hub@0.02",
  "clients": 2,
  "elapsed_ms": 600.5,
  "overall": {{
    "requests": 2100, "qps": {qps}, "p99_ns": {p99_ns},
    "kinds": [{{"name": "neighbors", "count": 1500}}, {{"name": "split", "count": 600}}],
    "classes": [{{"name": "low", "count": 2000}}, {{"name": "hub", "count": 100}}]
  }}
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
        let good = result_json(1, 1.0);
        assert!(check_slo_text(&good, &thresholds).is_ok());
        // Wrong schema tag, and the windowed v1 format.
        let err = check_slo_text(r#"{"schema":"other.v9"}"#, &thresholds).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let v1 = good.replace("closed_loop.v2", "closed_loop.v1");
        let err = check_slo_text(&v1, &thresholds).unwrap_err();
        let want = r#"schema is "parcsr.closed_loop.v1", expected "parcsr.closed_loop.v2""#;
        assert!(err.contains(want), "{err}");
        // The driver ran for no time.
        let text = good.replace(r#""elapsed_ms": 600.5"#, r#""elapsed_ms": 0.0"#);
        let err = check_slo_text(&text, &thresholds).unwrap_err();
        assert!(err.contains("elapsed_ms"), "{err}");
        // Zero overall requests.
        let text = r#"{"schema":"parcsr.closed_loop.v2","graph":"g","clients":1,
                       "elapsed_ms":1.0,"overall":{"requests":0,"qps":0.0,"p99_ns":0,
                       "kinds":[],"classes":[]}}"#;
        let err = check_slo_text(text, &thresholds).unwrap_err();
        assert!(err.contains("measured nothing"), "{err}");
        // Missing percentile field.
        let text = good.replace(r#""p99_ns": 1,"#, "");
        let err = check_slo_text(&text, &thresholds).unwrap_err();
        assert!(err.contains("p99_ns"), "{err}");
    }

    #[test]
    fn rejects_rollups_that_do_not_sum_to_the_requests() {
        let thresholds = SloThresholds {
            p99_ns: Some(u64::MAX),
            ..SloThresholds::default()
        };
        let good = result_json(1, 1.0);
        // A kind cell lost a query.
        let text = good.replace(r#""count": 1500"#, r#""count": 1499"#);
        let err = check_slo_text(&text, &thresholds).unwrap_err();
        assert!(err.contains("overall.kinds"), "{err}");
        assert!(err.contains("2099"), "{err}");
        // A class cell counted one twice.
        let text = good.replace(r#""count": 100"#, r#""count": 101"#);
        let err = check_slo_text(&text, &thresholds).unwrap_err();
        assert!(err.contains("overall.classes"), "{err}");
        // A missing rollup is a schema error too.
        let text = good.replace(r#""classes""#, r#""tiers""#);
        let err = check_slo_text(&text, &thresholds).unwrap_err();
        assert!(err.contains("`classes`"), "{err}");
    }

    #[test]
    fn baseline_thresholds_apply_slack_both_ways() {
        let base = parse_result("baseline", &result_json(2_000, 100_000.0)).unwrap();
        let t = baseline_thresholds(&base);
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
        // The baseline slack is fixed at SLACK, not a flag.
        let err = args(&["--baseline", "base.json", "--slack", "0.5"]).unwrap_err();
        assert!(err.contains("unexpected argument `--slack`"), "{err}");
        // The queue/exec split is gone, and so are its ceilings.
        for flag in ["--p99-queue-ns", "--p99-exec-ns"] {
            let err = args(&[flag, "1"]).unwrap_err();
            assert!(err.contains("unexpected argument"), "{flag}: {err}");
        }
    }
}
