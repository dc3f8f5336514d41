//! Integration tests for the serving-telemetry gates: `slo-check` against
//! seeded good/bad closed-loop results, `check-trace`'s `query.win.*`
//! windowed-counter rules against accept/reject trace fixtures, and the
//! CI workflow's `slo` job and `obs` stage smoke against the thresholds
//! and smoke flags defined here and in the xtask lib. The fixtures live in
//! `tests/serving_fixtures/` and pin the artifact shapes CI consumes, so a
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
    let thresholds = slo_check::baseline_thresholds(&base, slo_check::DEFAULT_SLACK);
    // The good result passes against itself-with-slack...
    let out = slo_check::check_slo_text(&fixture("closed_loop_good.json"), &thresholds).unwrap();
    assert!(!out.failed, "{}", out.report);
    // ...the bad one (3000× the latency, 0.5% of the throughput) does not.
    let out = slo_check::check_slo_text(&fixture("closed_loop_bad.json"), &thresholds).unwrap();
    assert!(out.failed);
}

#[test]
fn fixtures_carry_per_kind_and_per_class_rollups() {
    // The gate only reads windows/overall, but the fixtures double as the
    // committed example of the full v1 schema — keep the rollups present.
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
    // The tail-exemplar block: one latency per captured query, slowest
    // first within each window.
    for name in ["closed_loop_good.json", "closed_loop_bad.json"] {
        let doc = parcsr_obs::json::Json::parse(&fixture(name)).unwrap();
        let ex = doc.get("exemplars").unwrap();
        assert_eq!(
            ex.get("schema").unwrap().as_str(),
            Some("parcsr.exemplars.v1"),
            "{name}"
        );
        for win in ex.get("windows").unwrap().as_array().unwrap() {
            let ns: Vec<i64> = win
                .get("exemplars")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|e| e.get("total_ns").unwrap().as_i64().unwrap())
                .collect();
            assert!(!ns.is_empty(), "{name}: empty exemplar window");
            assert!(ns.windows(2).all(|p| p[0] >= p[1]), "{name}: {ns:?}");
        }
    }
}

#[test]
fn trace_with_windowed_counters_is_accepted() {
    // 2 spans, 3 query.win points, 2 qps points, 1 exemplar.
    let n = check_trace_text(&fixture("query_win_accept.trace.json"))
        .expect("accept fixture must validate");
    assert_eq!(n, 8);
}

#[test]
fn trace_with_backwards_window_ordinal_is_rejected() {
    let err = check_trace_text(&fixture("query_win_reject.trace.json")).unwrap_err();
    assert!(err.contains("window ordinal goes backwards"), "{err}");
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
