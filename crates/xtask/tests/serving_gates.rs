//! Integration tests for the serving-telemetry gates: `slo-check` against
//! seeded good/bad closed-loop results, `check-trace` refusing serving
//! series in a trace (the result JSON is their one output), and the CI
//! workflow's `slo` job and `obs` stage smoke against the thresholds and
//! smoke flags defined here and in the xtask lib. The fixtures live in
//! `tests/serving_fixtures/` and pin the result shape CI consumes, so a
//! schema drift in either producer or gate shows up here first.

use std::path::PathBuf;

use xtask::slo_check::{self, SloThresholds};
use xtask::trace_check::check_trace_text;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/serving_fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The thresholds the CI `slo` job enforces on the serving smoke (loose on
/// purpose: a laptop-class runner sustains hundreds of kq/s with p99 in
/// the low microseconds, so 1 ms / 10 kq/s only trips on order-of-magnitude
/// regressions). `ci_slo_job_matches_the_thresholds_and_the_bless_flags`
/// holds the workflow to these values.
const CI_THRESHOLDS: SloThresholds = SloThresholds {
    p99_ns: Some(1_000_000),
    min_qps: Some(10_000.0),
};

#[test]
fn good_result_passes_the_ci_thresholds() {
    let out = slo_check::check_slo_text(&fixture("closed_loop_good.json"), &CI_THRESHOLDS)
        .expect("good fixture must parse");
    assert!(!out.failed, "{}", out.report);
    assert!(out.report.contains("p99:"), "{}", out.report);
    assert!(out.report.contains("ok"), "{}", out.report);
}

#[test]
fn bad_result_fails_every_dimension() {
    let out = slo_check::check_slo_text(&fixture("closed_loop_bad.json"), &CI_THRESHOLDS)
        .expect("bad fixture is schema-valid; only the numbers are bad");
    assert!(out.failed);
    // The latency ceiling and the throughput floor are both violated.
    assert_eq!(out.report.matches("VIOLATED").count(), 2, "{}", out.report);
    assert!(out.report.contains("p99:"), "{}", out.report);
    assert!(out.report.contains("qps:"), "{}", out.report);
}

#[test]
fn baseline_mode_gates_the_bad_result_against_the_good_one() {
    let base = slo_check::parse_result("baseline", &fixture("closed_loop_good.json")).unwrap();
    let thresholds = slo_check::baseline_thresholds(&base);
    // The good result passes against itself-with-slack...
    let out = slo_check::check_slo_text(&fixture("closed_loop_good.json"), &thresholds).unwrap();
    assert!(!out.failed, "{}", out.report);
    // ...the bad one (3000× the latency, 0.5% of the throughput) does not.
    let out = slo_check::check_slo_text(&fixture("closed_loop_bad.json"), &thresholds).unwrap();
    assert!(out.failed);
}

#[test]
fn fixtures_carry_per_kind_and_per_class_rollups() {
    // The gate only sums the rollups' counts, but the fixtures double as
    // the committed example of the full v2 schema — keep the rollups
    // present.
    for name in ["closed_loop_good.json", "closed_loop_bad.json"] {
        let doc = parcsr_obs::json::Json::parse(&fixture(name)).unwrap();
        let overall = doc.get("overall").unwrap();
        assert!(
            !overall.get("kinds").unwrap().as_array().unwrap().is_empty(),
            "{name}: overall.kinds empty"
        );
        assert!(
            !overall
                .get("classes")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty(),
            "{name}: overall.classes empty"
        );
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some(slo_check::SCHEMA),
            "{name}"
        );
    }
}

#[test]
fn fixtures_carry_phase_rollups_and_exemplars() {
    // The tail exemplars: the run's slowest queries, one latency each,
    // slowest first, at most the driver's K, none slower than the
    // exact maximum of its kind cell.
    for name in ["closed_loop_good.json", "closed_loop_bad.json"] {
        let doc = parcsr_obs::json::Json::parse(&fixture(name)).unwrap();
        let kinds = doc.get("overall").unwrap().get("kinds").unwrap();
        let exemplars = doc.get("exemplars").unwrap().as_array().unwrap();
        assert!(!exemplars.is_empty(), "{name}: no exemplars");
        assert!(exemplars.len() <= 8, "{name}: more than K exemplars");
        let ns: Vec<i64> = exemplars
            .iter()
            .map(|e| e.get("total_ns").unwrap().as_i64().unwrap())
            .collect();
        assert!(ns.windows(2).all(|p| p[0] >= p[1]), "{name}: {ns:?}");
        for (e, &ns) in exemplars.iter().zip(&ns) {
            let kind = e.get("kind").unwrap().as_str().unwrap();
            let cell = kinds
                .as_array()
                .unwrap()
                .iter()
                .find(|c| c.get("name").unwrap().as_str() == Some(kind))
                .unwrap_or_else(|| panic!("{name}: no `{kind}` cell"));
            assert!(
                ns <= cell.get("max_ns").unwrap().as_i64().unwrap(),
                "{name}"
            );
        }
    }
}

#[test]
fn trace_with_serving_window_counters_is_rejected() {
    // Serving numbers leave the driver only in its result JSON; a trace
    // counter outside `mem.*`, like the retired per-window series, is an
    // unknown namespace.
    let text = r#"[
        {"name":"graph.build","cat":"parcsr","ph":"X","ts":1,"dur":5,"pid":1,"tid":0,
         "args":{"depth":0}},
        {"name":"query.win.qps","cat":"parcsr","ph":"C","ts":10,"pid":1,"tid":0,
         "args":{"window":0,"queries":22,"qps":2200}}
    ]"#;
    let err = check_trace_text(text).unwrap_err();
    assert!(err.contains("outside the known namespaces"), "{err}");
}

/// The whitespace-split command tokens of the `run:` block of the CI step
/// named `step`, with line continuations dropped.
fn ci_step_tokens(ci: &str, step: &str) -> Vec<String> {
    let mut lines = ci
        .lines()
        .skip_while(|l| l.trim() != format!("- name: {step}"))
        .skip(1);
    assert_eq!(
        lines.next().map(str::trim),
        Some("run: |"),
        "CI step `{step}` not found or has no `run: |` block"
    );
    lines
        .take_while(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("- ") && !t.starts_with('#')
        })
        .flat_map(str::split_whitespace)
        .filter(|t| *t != "\\")
        .map(str::to_string)
        .collect()
}

#[test]
fn ci_slo_job_matches_the_thresholds_and_the_bless_flags() {
    let ci = ci_workflow();

    // The absolute gate passes exactly CI_THRESHOLDS, through the real
    // argument parser.
    let gate = ci_step_tokens(&ci, "SLO gate (absolute ceilings)");
    let at = gate
        .iter()
        .position(|t| t == "closed_loop_smoke.json")
        .expect("the gate grades the smoke result");
    assert_eq!(gate[..at], ["cargo", "xtask", "slo-check"]);
    let args = slo_check::parse_args(&gate[at + 1..]).unwrap();
    assert_eq!(args.explicit, CI_THRESHOLDS);
    assert_eq!(args.baseline, None);

    // The smoke runs the driver with the flags `bless-baseline` reruns, so
    // the committed baseline matches what CI measures.
    let smoke = ci_step_tokens(&ci, "Closed-loop serving smoke");
    let start = smoke.iter().position(|t| t == "--").expect("driver flags") + 1;
    let end = smoke
        .iter()
        .position(|t| t == ">")
        .expect("stdout redirect");
    assert_eq!(smoke[start..end], *slo_check::CLOSED_LOOP_SMOKE_ARGS);
}

/// The workflow text.
fn ci_workflow() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../.github/workflows/ci.yml");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn ci_stage_smoke_matches_the_bless_flags() {
    // The obs job's stage smoke runs `table2` with the flags
    // `bless-baseline` reruns, so `stage-diff` compares CI against a
    // baseline measured the same way; only the trace path differs.
    let ci = ci_workflow();
    let smoke = ci_step_tokens(&ci, "Bench smoke with all obs flags");
    let start = smoke.iter().position(|t| t == "--").expect("table2 flags") + 1;
    let trace = smoke
        .iter()
        .position(|t| t == "--trace")
        .expect("the smoke writes a trace");
    assert_eq!(smoke[start..trace], *slo_check::TABLE2_SMOKE_ARGS);
    assert_eq!(smoke[trace + 2], ">", "one trace path, then the redirect");
}
