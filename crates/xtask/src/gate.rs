//! The two baseline gates: construction stages on the `table2` smoke and
//! serving latency on the closed-loop smoke.
//!
//! A [`Smoke`] names one CI smoke: its bench binary, its one flag list,
//! its committed baseline under `results/baselines/`, and the parser and
//! bounds that grade a fresh output against that baseline. `cargo xtask
//! smoke <stages|serving>` runs it and grades it, `cargo xtask
//! bless-baseline` runs both, grades each against itself and rewrites the
//! baselines, and `stage-diff BASE CUR` / `slo-check RESULT [BASELINE]`
//! grade files already on disk with the same bounds.
//!
//! Every check is one value tested against a closed [`Bound`] built from
//! the baseline value and fixed constants:
//!
//! * a stage's share of construction time within ±[`SHARE_PP`], in
//!   absolute percentage points — a stage that moved from 12% to 25% of
//!   the build drifted by 0.13 however fast the host is;
//! * a stage's peak heap bytes within ±[`MEM_REL`] of the baseline's;
//! * the overall p99 of the per-query call latency at most
//!   min((1 + [`SLACK`]) × baseline, [`P99_CEILING_NS`]);
//! * the sustained qps at least max((1 − [`SLACK`]) × baseline,
//!   [`QPS_FLOOR`]). Without a baseline (`slo-check RESULT`) only the
//!   constants apply.
//!
//! A gate that compares nothing fails. Every baseline sample and stage
//! needs a counterpart in the current file, a stage's peak heap is 0 on
//! both sides or on neither, at least one stage must be compared, and a
//! serving result must be schema-valid: positive `elapsed_ms` and request
//! count, and per-kind and per-class counts that sum to
//! `overall.requests` (the driver merges its clients' records once, after
//! they join, so those sums are exact). Samples or stages present only in
//! the current file are reported, not graded: datasets and pipeline
//! stages are added over time.

use std::fmt::Write;

use parcsr_obs::json::Json;

use crate::trace_read::parse_json;

/// Largest shift of a stage's share of construction time, in absolute
/// percentage points (0.25 = 25 pp): CI hosts differ in speed, and shares
/// only move when the pipeline's shape changes.
pub const SHARE_PP: f64 = 0.25;

/// Largest relative change of a stage's peak heap bytes.
pub const MEM_REL: f64 = 0.25;

/// Serving slack against the baseline: p99 may grow, and qps may shrink,
/// by half. Latency percentiles on shared CI runners are noisy.
pub const SLACK: f64 = 0.50;

/// Absolute p99 ceiling, ns: only an order-of-magnitude regression trips
/// it on any runner.
pub const P99_CEILING_NS: u64 = 1_000_000;

/// Absolute qps floor.
pub const QPS_FLOOR: f64 = 10_000.0;

/// Result-JSON schema tag the serving gate understands.
pub const SCHEMA: &str = "parcsr.closed_loop.v2";

/// The `table2` flags of the stage smoke; the runner adds `--trace FILE`.
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

/// The `queries_closed_loop` flags of the serving smoke (the hub graph,
/// 45/25/20/10 mix and Zipf 1.0 are the driver's fixed workload).
pub const CLOSED_LOOP_SMOKE_ARGS: &[&str] = &[
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

/// One CI smoke and its committed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Smoke {
    /// The `table2` construction sweep, graded per stage.
    Stages,
    /// The `queries_closed_loop` serving run, graded on p99 and qps.
    Serving,
}

impl Smoke {
    /// Both smokes, in the order `bless-baseline` runs them.
    pub const ALL: [Smoke; 2] = [Smoke::Stages, Smoke::Serving];

    /// Parses the `smoke` selector (`stages` / `serving`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Smoke> {
        match s {
            "stages" => Some(Smoke::Stages),
            "serving" => Some(Smoke::Serving),
            _ => None,
        }
    }

    /// The `parcsr-bench` binary the smoke runs (built with `obs`).
    #[must_use]
    pub fn bin(self) -> &'static str {
        match self {
            Smoke::Stages => "table2",
            Smoke::Serving => "queries_closed_loop",
        }
    }

    /// The binary's flags; its stdout is the graded output.
    #[must_use]
    pub fn args(self) -> &'static [&'static str] {
        match self {
            Smoke::Stages => TABLE2_SMOKE_ARGS,
            Smoke::Serving => CLOSED_LOOP_SMOKE_ARGS,
        }
    }

    /// The committed baseline, relative to the workspace root.
    #[must_use]
    pub fn baseline(self) -> &'static str {
        match self {
            Smoke::Stages => "results/baselines/table2_smoke.stages.json",
            Smoke::Serving => "results/baselines/closed_loop_smoke.json",
        }
    }

    /// The output's file name under `target/smoke/` (the baseline's).
    #[must_use]
    pub fn output(self) -> &'static str {
        let path = self.baseline();
        &path[path.rfind('/').map_or(0, |i| i + 1)..]
    }

    /// The trace's file name under `target/smoke/`, for the smoke that
    /// writes one (and has it checked by `check-trace`).
    #[must_use]
    pub fn trace(self) -> Option<&'static str> {
        match self {
            Smoke::Stages => Some("table2_smoke.trace.json"),
            Smoke::Serving => None,
        }
    }

    /// Grades output text `cur` against baseline text `base`.
    pub fn grade(self, base: &str, cur: &str) -> Result<Outcome, String> {
        match self {
            Smoke::Stages => grade_stages(base, cur),
            Smoke::Serving => grade_serving(cur, Some(base)),
        }
    }
}

/// A graded run: the rendered report and whether any check failed. `Err`
/// from a grading function means a file did not parse or validate, which
/// fails the gate too.
#[derive(Debug)]
pub struct Outcome {
    /// The per-check report plus its summary, ready to print.
    pub report: String,
    /// True iff at least one check failed.
    pub failed: bool,
}

/// The closed range `lo..=hi` a graded value must fall in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Smallest passing value.
    pub lo: f64,
    /// Largest passing value.
    pub hi: f64,
}

impl Bound {
    /// A stage's time share: the baseline share ± [`SHARE_PP`].
    #[must_use]
    pub fn share(base: f64) -> Bound {
        Bound {
            lo: base - SHARE_PP,
            hi: base + SHARE_PP,
        }
    }

    /// A stage's peak heap bytes: the baseline's ± [`MEM_REL`].
    #[must_use]
    pub fn mem(base: u64) -> Bound {
        let base = base as f64;
        Bound {
            lo: base * (1.0 - MEM_REL),
            hi: base * (1.0 + MEM_REL),
        }
    }

    /// The overall p99, ns: at most min((1 + [`SLACK`]) × baseline,
    /// [`P99_CEILING_NS`]).
    #[must_use]
    pub fn p99(base: Option<u64>) -> Bound {
        let slacked = base.map_or(u64::MAX, |b| (b as f64 * (1.0 + SLACK)).ceil() as u64);
        Bound {
            lo: 0.0,
            hi: slacked.min(P99_CEILING_NS) as f64,
        }
    }

    /// The sustained qps: at least max((1 − [`SLACK`]) × baseline,
    /// [`QPS_FLOOR`]).
    #[must_use]
    pub fn qps(base: Option<f64>) -> Bound {
        Bound {
            lo: base.map_or(0.0, |b| b * (1.0 - SLACK)).max(QPS_FLOOR),
            hi: f64::INFINITY,
        }
    }

    /// True iff `value` lies in the range.
    #[must_use]
    pub fn holds(self, value: f64) -> bool {
        self.lo <= value && value <= self.hi
    }
}

/// One construction stage of one `(dataset, processors)` sample.
struct Stage {
    name: String,
    total_ms: f64,
    mem_peak_bytes: u64,
}

/// One `(dataset, processors)` sample: the per-stage breakdown of a run.
struct Sample {
    dataset: String,
    processors: i64,
    stages: Vec<Stage>,
}

fn parse_samples(which: &str, text: &str) -> Result<Vec<Sample>, String> {
    let doc = parse_json(which, text)?;
    let datasets = doc
        .as_array()
        .ok_or_else(|| format!("{which}: top level is not an array of dataset results"))?;
    let mut out = Vec::new();
    for ds in datasets {
        let name = ds
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{which}: dataset result is missing `name`"))?;
        let samples = ds
            .get("samples")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{which}: dataset `{name}` is missing `samples`"))?;
        for s in samples {
            let processors = s
                .get("processors")
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("{which}: sample in `{name}` is missing `processors`"))?;
            let stages = s
                .get("stages")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{which}: sample in `{name}` is missing `stages`"))?;
            let mut parsed = Vec::new();
            for st in stages {
                let sname = st
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{which}: stage in `{name}` is missing `name`"))?;
                let total_ms = st
                    .get("total_ms")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{which}: stage `{sname}` is missing `total_ms`"))?;
                let mem_peak_bytes = st
                    .get("mem_peak_bytes")
                    .and_then(Json::as_i64)
                    .and_then(|b| u64::try_from(b).ok())
                    .ok_or_else(|| {
                        format!("{which}: stage `{sname}` is missing `mem_peak_bytes`")
                    })?;
                parsed.push(Stage {
                    name: sname.to_string(),
                    total_ms,
                    mem_peak_bytes,
                });
            }
            out.push(Sample {
                dataset: name.to_string(),
                processors,
                stages: parsed,
            });
        }
    }
    Ok(out)
}

/// Construction-time share of each stage within one sample. A sample whose
/// stages sum to zero time yields zero shares.
fn shares(stages: &[Stage]) -> Vec<(&str, f64, u64)> {
    let total: f64 = stages.iter().map(|s| s.total_ms).sum();
    stages
        .iter()
        .map(|s| {
            let share = if total > 0.0 { s.total_ms / total } else { 0.0 };
            (s.name.as_str(), share, s.mem_peak_bytes)
        })
        .collect()
}

/// Grades a bench `*.stages.json` text against a baseline one: every
/// baseline stage's time share and peak heap must stay within its
/// [`Bound`]. `Err` means a file failed to parse.
pub fn grade_stages(base: &str, cur: &str) -> Result<Outcome, String> {
    let base = parse_samples("baseline", base)?;
    let cur = parse_samples("current", cur)?;
    let same = |a: &Sample, b: &Sample| a.dataset == b.dataset && a.processors == b.processors;
    let mut report = String::new();
    let mut violations = 0usize;
    let mut compared = 0usize;

    for bs in &base {
        let Some(cs) = cur.iter().find(|c| same(c, bs)) else {
            violations += 1;
            let _ = writeln!(
                report,
                "-- {} p={}: no counterpart in current  <-- FAIL\n",
                bs.dataset, bs.processors
            );
            continue;
        };
        let _ = writeln!(
            report,
            "== {} p={} ==\n{:<24} {:>7} {:>7} {:>7}  {:>12} {:>12} {:>7}",
            bs.dataset,
            bs.processors,
            "stage",
            "base%",
            "cur%",
            "d_pp",
            "base_mem",
            "cur_mem",
            "d_mem%"
        );
        let base_shares = shares(&bs.stages);
        let cur_shares = shares(&cs.stages);
        for &(name, bsh, bmem) in &base_shares {
            let Some(&(_, csh, cmem)) = cur_shares.iter().find(|(n, ..)| *n == name) else {
                violations += 1;
                let _ = writeln!(report, "{name:<24} missing from current  <-- FAIL");
                continue;
            };
            compared += 1;
            let time_fail = !Bound::share(bsh).holds(csh);
            let (mem_col, mem_fail) = match (bmem, cmem) {
                (0, 0) => ("-".to_string(), false),
                (0, _) | (_, 0) => ("0 side".to_string(), true),
                (b, c) => (
                    format!("{:+.1}", (c as f64 - b as f64) / b as f64 * 100.0),
                    !Bound::mem(b).holds(c as f64),
                ),
            };
            let marker = match (time_fail, mem_fail) {
                (true, true) => "  <-- FAIL (time, mem)",
                (true, false) => "  <-- FAIL (time)",
                (false, true) => "  <-- FAIL (mem)",
                (false, false) => "",
            };
            violations += usize::from(time_fail) + usize::from(mem_fail);
            let _ = writeln!(
                report,
                "{:<24} {:>7.1} {:>7.1} {:>+7.1}  {:>12} {:>12} {:>7}{}",
                name,
                bsh * 100.0,
                csh * 100.0,
                (csh - bsh) * 100.0,
                bmem,
                cmem,
                mem_col,
                marker
            );
        }
        for &(name, ..) in &cur_shares {
            if !base_shares.iter().any(|(n, ..)| *n == name) {
                let _ = writeln!(report, "{name:<24} present only in current, not graded");
            }
        }
        report.push('\n');
    }
    for cs in cur.iter().filter(|c| !base.iter().any(|b| same(b, c))) {
        let _ = writeln!(
            report,
            "-- {} p={}: no baseline sample, not graded",
            cs.dataset, cs.processors
        );
    }
    if compared == 0 {
        violations += 1;
        report.push_str("stage gate: no stage compared  <-- FAIL\n");
    }
    let _ = writeln!(
        report,
        "stage gate: {} violation{} across {} stage{} (share ±{:.0} pp, peak heap ±{:.0}%)",
        violations,
        if violations == 1 { "" } else { "s" },
        compared,
        if compared == 1 { "" } else { "s" },
        SHARE_PP * 100.0,
        MEM_REL * 100.0,
    );
    Ok(Outcome {
        report,
        failed: violations > 0,
    })
}

/// The graded numbers of a schema-validated closed-loop result.
struct ClosedLoopResult {
    graph: String,
    clients: u64,
    elapsed_ms: f64,
    requests: u64,
    qps: f64,
    p99_ns: u64,
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
fn parse_result(which: &str, text: &str) -> Result<ClosedLoopResult, String> {
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

/// Grades a `queries_closed_loop --json` result text: its overall p99 and
/// qps against [`Bound::p99`] and [`Bound::qps`], built from `baseline`
/// when given. `Err` means either text failed to parse or validate.
pub fn grade_serving(result: &str, baseline: Option<&str>) -> Result<Outcome, String> {
    let base = baseline
        .map(|text| parse_result("baseline", text))
        .transpose()?;
    let result = parse_result("result", result)?;
    let p99 = Bound::p99(base.as_ref().map(|b| b.p99_ns));
    let qps = Bound::qps(base.as_ref().map(|b| b.qps));
    let p99_ok = p99.holds(result.p99_ns as f64);
    let qps_ok = qps.holds(result.qps);
    let verdict = |ok| if ok { "ok" } else { "VIOLATED" };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "slo-check: {} ({} clients, {} requests in {:.0} ms), {}",
        result.graph,
        result.clients,
        result.requests,
        result.elapsed_ms,
        if base.is_some() {
            "bounds from the baseline and the constants"
        } else {
            "constant bounds"
        }
    );
    let _ = writeln!(
        report,
        "p99: {:.1} µs vs ceiling {:.1} µs — {}",
        result.p99_ns as f64 / 1_000.0,
        p99.hi / 1_000.0,
        verdict(p99_ok)
    );
    let _ = writeln!(
        report,
        "qps: {:.0} vs floor {:.0} — {}",
        result.qps,
        qps.lo,
        verdict(qps_ok)
    );
    Ok(Outcome {
        report,
        failed: !(p99_ok && qps_ok),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-sample stage breakdown with the given `(name, total_ms,
    /// mem_peak_bytes)` stages.
    fn doc(stages: &[(&str, f64, i64)]) -> String {
        let body: Vec<String> = stages
            .iter()
            .map(|(n, ms, mem)| {
                format!(
                    r#"{{"name":"{n}","calls":1,"total_ms":{ms},"workers":1,"mem_peak_bytes":{mem}}}"#
                )
            })
            .collect();
        format!(
            r#"[{{"name":"toy","samples":[{{"processors":4,"time_ms":10.0,"stages":[{}]}}]}}]"#,
            body.join(",")
        )
    }

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
    fn identical_runs_pass() {
        let a = doc(&[
            ("degree", 4.0, 1000),
            ("scan", 2.0, 500),
            ("scatter", 4.0, 2000),
        ]);
        let out = grade_stages(&a, &a).unwrap();
        assert!(!out.failed, "{}", out.report);
        assert!(
            out.report.contains("0 violations across 3 stages"),
            "{}",
            out.report
        );
    }

    #[test]
    fn uniform_slowdown_passes_shares_are_scale_free() {
        let a = doc(&[("degree", 4.0, 1000), ("scan", 2.0, 500)]);
        // 3x slower machine, same shape: shares identical.
        let b = doc(&[("degree", 12.0, 1000), ("scan", 6.0, 500)]);
        let out = grade_stages(&a, &b).unwrap();
        assert!(!out.failed, "{}", out.report);
    }

    #[test]
    fn time_share_drift_fails_readably() {
        let a = doc(&[("degree", 5.0, 0), ("scan", 5.0, 0)]);
        // degree moves from 50% to 80% of the build: 30pp drift.
        let b = doc(&[("degree", 8.0, 0), ("scan", 2.0, 0)]);
        let out = grade_stages(&a, &b).unwrap();
        assert!(out.failed);
        assert!(out.report.contains("FAIL (time)"), "{}", out.report);
        assert!(out.report.contains("degree"), "{}", out.report);
    }

    #[test]
    fn mem_drift_and_one_sided_zero_mem_fail() {
        let a = doc(&[("degree", 5.0, 1000), ("scan", 5.0, 0), ("pack", 5.0, 0)]);
        let b = doc(&[("degree", 5.0, 1500), ("scan", 5.0, 999), ("pack", 5.0, 0)]);
        let out = grade_stages(&a, &b).unwrap();
        assert!(out.failed);
        // degree: +50% fails; scan: a peak on one side only fails; pack:
        // no accounting on either side is not graded.
        assert_eq!(
            out.report.matches("FAIL (mem)").count(),
            2,
            "{}",
            out.report
        );
        assert!(out.report.contains("0 side"), "{}", out.report);
        let out = grade_stages(&b, &a).unwrap();
        assert_eq!(
            out.report.matches("FAIL (mem)").count(),
            2,
            "{}",
            out.report
        );
    }

    #[test]
    fn missing_baseline_samples_and_stages_fail() {
        // The baseline's p=4 sample has no counterpart; the current p=8
        // sample has no baseline and is only reported.
        let a = doc(&[("degree", 5.0, 1), ("scan", 5.0, 1)]);
        let b = r#"[{"name":"toy","samples":[{"processors":8,"time_ms":1.0,"stages":[]}]}]"#;
        let out = grade_stages(&a, b).unwrap();
        assert!(out.failed, "{}", out.report);
        assert!(
            out.report.contains("no counterpart in current"),
            "{}",
            out.report
        );
        assert!(out.report.contains("no baseline sample"), "{}", out.report);
        assert!(out.report.contains("no stage compared"), "{}", out.report);

        // A baseline stage missing from the current sample fails...
        let one = doc(&[("degree", 10.0, 1)]);
        let two = doc(&[("degree", 10.0, 1), ("pack", 0.0, 1)]);
        let out = grade_stages(&two, &one).unwrap();
        assert!(out.failed, "{}", out.report);
        assert!(
            out.report.contains("missing from current"),
            "{}",
            out.report
        );
        // ...a stage only in the current sample is reported, not graded.
        let out = grade_stages(&one, &two).unwrap();
        assert!(!out.failed, "{}", out.report);
        assert!(out.report.contains("only in current"), "{}", out.report);

        // Two empty files compare nothing, which fails.
        assert!(grade_stages("[]", "[]").unwrap().failed);
    }

    #[test]
    fn parse_errors_are_reported_per_side() {
        assert!(grade_stages("nope", "[]").unwrap_err().contains("baseline"));
        assert!(grade_stages("[]", "nope").unwrap_err().contains("current"));
        let bad = r#"[{"samples":[]}]"#;
        assert!(grade_stages(bad, "[]").unwrap_err().contains("`name`"));
        // A stage without its peak heap is an error naming the stage, on
        // either side.
        let no_mem = r#"[{"name":"toy","samples":[{"processors":4,"stages":[
            {"name":"scatter","total_ms":1.0}]}]}]"#;
        let err = grade_stages(no_mem, &doc(&[("scatter", 1.0, 0)])).unwrap_err();
        assert!(err.starts_with("baseline: stage `scatter`"), "{err}");
        assert!(err.contains("`mem_peak_bytes`"), "{err}");
        let err = grade_stages(&doc(&[("scatter", 1.0, 0)]), no_mem).unwrap_err();
        assert!(err.starts_with("current: stage `scatter`"), "{err}");
    }

    #[test]
    fn bounds_sit_at_the_fixed_constants() {
        // Shares: 50/50 in the baseline; a 24 pp shift passes, 26 pp fails.
        let base = doc(&[("degree", 5.0, 1000), ("scan", 5.0, 1000)]);
        let shifted = |pp: f64| {
            let d = 5.0 + pp / 10.0;
            doc(&[("degree", d, 1000), ("scan", 10.0 - d, 1000)])
        };
        assert!(!grade_stages(&base, &shifted(24.0)).unwrap().failed);
        assert!(grade_stages(&base, &shifted(26.0)).unwrap().failed);
        // Peak heap: ±24% passes, ±26% fails.
        let mem = |bytes| doc(&[("degree", 5.0, bytes), ("scan", 5.0, 1000)]);
        for (bytes, fails) in [(1240, false), (760, false), (1260, true), (740, true)] {
            let out = grade_stages(&mem(1000), &mem(bytes)).unwrap();
            assert_eq!(out.failed, fails, "{bytes}: {}", out.report);
        }

        // p99 ≤ min(1.5 × base, 1 ms): the slack binds on a fast baseline,
        // the ceiling on a slow one.
        assert_eq!(Bound::p99(Some(2_000)).hi, 3_000.0);
        assert_eq!(Bound::p99(Some(900_000)).hi, 1_000_000.0);
        assert_eq!(Bound::p99(None).hi, 1_000_000.0);
        // qps ≥ max(0.5 × base, 10 kq/s): the slack binds on a fast
        // baseline, the floor on a slow one.
        assert_eq!(Bound::qps(Some(100_000.0)).lo, 50_000.0);
        assert_eq!(Bound::qps(Some(15_000.0)).lo, 10_000.0);
        assert_eq!(Bound::qps(None).lo, 10_000.0);
        let slow_base = result_json(900_000, 15_000.0);
        for (p99, qps, fails) in [
            (1_000_000, 10_000.0, false),
            (1_000_001, 10_000.0, true),
            (1_000_000, 9_999.0, true),
        ] {
            let out = grade_serving(&result_json(p99, qps), Some(&slow_base)).unwrap();
            assert_eq!(out.failed, fails, "{}", out.report);
        }
    }

    #[test]
    fn passes_within_thresholds_and_fails_outside() {
        let out = grade_serving(&result_json(2_500, 800_000.0), None).unwrap();
        assert!(!out.failed, "{}", out.report);
        assert!(out.report.contains("p99: 2.5 µs"), "{}", out.report);
        assert!(out.report.contains("constant bounds"), "{}", out.report);

        let out = grade_serving(&result_json(2_000_000, 800_000.0), None).unwrap();
        assert!(out.failed);
        assert_eq!(out.report.matches("VIOLATED").count(), 1, "{}", out.report);

        let out = grade_serving(&result_json(2_500, 5_000.0), None).unwrap();
        assert!(out.failed);
        assert!(out.report.contains("qps: 5000 vs floor 10000 — VIOLATED"));
    }

    #[test]
    fn baseline_thresholds_apply_slack_both_ways() {
        let base = result_json(2_000, 100_000.0);
        let grade = |p99, qps| grade_serving(&result_json(p99, qps), Some(&base)).unwrap();
        // A result within the slack passes; one past it fails.
        let ok = grade(2_900, 60_000.0);
        assert!(!ok.failed, "{}", ok.report);
        assert!(ok.report.contains("ceiling 3.0 µs"), "{}", ok.report);
        assert!(grade(3_100, 60_000.0).failed);
        assert!(grade(2_000, 40_000.0).failed);
        // A baseline that does not validate is an error naming it.
        let err = grade_serving(&base, Some("{}")).unwrap_err();
        assert!(err.starts_with("baseline: schema"), "{err}");
    }

    #[test]
    fn rejects_schema_and_shape_violations() {
        let check = |text: &str| grade_serving(text, None);
        let good = result_json(1, 1e6);
        assert!(check(&good).is_ok());
        // Wrong schema tag, and the windowed v1 format.
        let err = check(r#"{"schema":"other.v9"}"#).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let v1 = good.replace("closed_loop.v2", "closed_loop.v1");
        let err = check(&v1).unwrap_err();
        let want = r#"schema is "parcsr.closed_loop.v1", expected "parcsr.closed_loop.v2""#;
        assert!(err.contains(want), "{err}");
        // The driver ran for no time.
        let text = good.replace(r#""elapsed_ms": 600.5"#, r#""elapsed_ms": 0.0"#);
        let err = check(&text).unwrap_err();
        assert!(err.contains("elapsed_ms"), "{err}");
        // Zero overall requests.
        let text = r#"{"schema":"parcsr.closed_loop.v2","graph":"g","clients":1,
                       "elapsed_ms":1.0,"overall":{"requests":0,"qps":0.0,"p99_ns":0,
                       "kinds":[],"classes":[]}}"#;
        let err = check(text).unwrap_err();
        assert!(err.contains("measured nothing"), "{err}");
        // Missing percentile field.
        let text = good.replace(r#""p99_ns": 1,"#, "");
        let err = check(&text).unwrap_err();
        assert!(err.contains("p99_ns"), "{err}");
    }

    #[test]
    fn rejects_rollups_that_do_not_sum_to_the_requests() {
        let check = |text: &str| grade_serving(text, None);
        let good = result_json(1, 1e6);
        // A kind cell lost a query.
        let text = good.replace(r#""count": 1500"#, r#""count": 1499"#);
        let err = check(&text).unwrap_err();
        assert!(err.contains("overall.kinds"), "{err}");
        assert!(err.contains("2099"), "{err}");
        // A class cell counted one twice.
        let text = good.replace(r#""count": 100"#, r#""count": 101"#);
        let err = check(&text).unwrap_err();
        assert!(err.contains("overall.classes"), "{err}");
        // A missing rollup is a schema error too.
        let text = good.replace(r#""classes""#, r#""tiers""#);
        let err = check(&text).unwrap_err();
        assert!(err.contains("`classes`"), "{err}");
    }

    #[test]
    fn smokes_name_their_files() {
        assert_eq!(Smoke::Stages.output(), "table2_smoke.stages.json");
        assert_eq!(Smoke::Serving.output(), "closed_loop_smoke.json");
        for smoke in Smoke::ALL {
            let name = format!("{smoke:?}").to_lowercase();
            assert_eq!(Smoke::parse(&name), Some(smoke));
            assert!(smoke.args().contains(&"--json"), "{smoke:?}");
        }
        assert_eq!(Smoke::parse("slo"), None);
    }
}
