//! Integration tests for the baseline gates: the serving gate against
//! seeded good/bad closed-loop results, each committed baseline against
//! its own gate and its writer's key shape, the stage gate against inputs that compare nothing, and
//! `check-trace` refusing serving series in a trace (the result JSON is
//! their one output). The fixtures live in `tests/serving_fixtures/` and
//! pin the result shape CI consumes, so a schema drift in either producer
//! or gate shows up here first.

use std::path::PathBuf;

use parcsr_bench::closed_loop::Overall;
use parcsr_bench::ToJson;
use parcsr_obs::export::StageAgg;
use parcsr_obs::json::Json;
use xtask::gate::{self, Smoke};
use xtask::trace_check::check_trace_text;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/serving_fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A committed baseline, by its workspace-relative path.
fn baseline(smoke: Smoke) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(smoke.baseline());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn good_result_passes_the_ci_thresholds() {
    let out = gate::grade_serving(&fixture("closed_loop_good.json"), None)
        .expect("good fixture must parse");
    assert!(!out.failed, "{}", out.report);
    assert!(out.report.contains("p99:"), "{}", out.report);
    assert!(out.report.contains("ok"), "{}", out.report);
}

#[test]
fn bad_result_fails_every_dimension() {
    let out = gate::grade_serving(&fixture("closed_loop_bad.json"), None)
        .expect("bad fixture is schema-valid; only the numbers are bad");
    assert!(out.failed);
    // The latency ceiling and the throughput floor are both violated.
    assert_eq!(out.report.matches("VIOLATED").count(), 2, "{}", out.report);
    assert!(out.report.contains("p99:"), "{}", out.report);
    assert!(out.report.contains("qps:"), "{}", out.report);
}

#[test]
fn baseline_mode_gates_the_bad_result_against_the_good_one() {
    let good = fixture("closed_loop_good.json");
    // The good result passes against itself-with-slack...
    let out = gate::grade_serving(&good, Some(&good)).unwrap();
    assert!(!out.failed, "{}", out.report);
    // ...the bad one (3000× the latency, 0.5% of the throughput) does not.
    let out = gate::grade_serving(&fixture("closed_loop_bad.json"), Some(&good)).unwrap();
    assert!(out.failed);
}

#[test]
fn committed_baselines_pass_their_own_gate() {
    for smoke in Smoke::ALL {
        let text = baseline(smoke);
        let out = smoke
            .grade(&text, &text)
            .unwrap_or_else(|e| panic!("{smoke:?}: {e}"));
        assert!(!out.failed, "{smoke:?}:\n{}", out.report);
    }
    // The stage baseline grades every one of its 32 stages, and each has a
    // peak heap (0 on one side only would fail).
    let out = Smoke::Stages
        .grade(&baseline(Smoke::Stages), &baseline(Smoke::Stages))
        .unwrap();
    assert!(
        out.report.contains("0 violations across 32 stages"),
        "{}",
        out.report
    );

    // Each baseline carries exactly the keys its writer emits today: every
    // stage row those of `StageAgg`, the serving `overall` those of
    // `Overall`.
    let stage_keys = keys(
        &StageAgg {
            name: "degree",
            calls: 1,
            total_ms: 1.0,
            workers: 1,
            mem_peak_bytes: 1,
        }
        .to_json(),
    );
    let stages = Json::parse(&baseline(Smoke::Stages)).unwrap();
    let mut rows = 0;
    for dataset in stages.as_array().unwrap() {
        for sample in dataset.get("samples").unwrap().as_array().unwrap() {
            for row in sample.get("stages").unwrap().as_array().unwrap() {
                assert_eq!(keys(row), stage_keys, "stage row {row:?}");
                rows += 1;
            }
        }
    }
    assert_eq!(rows, 32);
    let overall = Overall {
        requests: 0,
        qps: 0.0,
        p50_ns: 0,
        p95_ns: 0,
        p99_ns: 0,
        kinds: Vec::new(),
        classes: Vec::new(),
    };
    let serving = Json::parse(&baseline(Smoke::Serving)).unwrap();
    assert_eq!(
        keys(serving.get("overall").unwrap()),
        keys(&overall.to_json())
    );
}

/// An object's keys, in order.
fn keys(obj: &Json) -> Vec<String> {
    obj.as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

/// Replaces the value of every `key` field, at any depth, with `value`.
fn replace_fields(json: &mut Json, key: &str, value: &Json) {
    match json {
        Json::Array(items) => items.iter_mut().for_each(|j| replace_fields(j, key, value)),
        Json::Object(fields) => {
            for (k, v) in fields {
                if k == key {
                    *v = value.clone();
                } else {
                    replace_fields(v, key, value);
                }
            }
        }
        _ => {}
    }
}

#[test]
fn stage_gate_fails_inputs_that_compare_nothing() {
    let base = baseline(Smoke::Stages);
    let edited = |edit: &dyn Fn(&mut Json)| {
        let mut doc = Json::parse(&base).unwrap();
        edit(&mut doc);
        doc.pretty()
    };
    // Dataset names sit at the top level; stage names one level down.
    let renamed = edited(&|doc| {
        let Json::Array(datasets) = doc else {
            panic!("stage baseline is not an array");
        };
        for ds in datasets {
            let Json::Object(fields) = ds else {
                panic!("dataset result is not an object");
            };
            fields.retain(|(k, _)| k != "name");
            fields.push(("name".into(), Json::Str("renamed".into())));
        }
    });
    let emptied = edited(&|doc| replace_fields(doc, "stages", &Json::Array(Vec::new())));
    let unaccounted = edited(&|doc| replace_fields(doc, "mem_peak_bytes", &Json::Int(0)));
    for (what, cur, why) in [
        (
            "an empty file",
            "[]".to_string(),
            "no counterpart in current",
        ),
        ("renamed datasets", renamed, "no counterpart in current"),
        ("emptied stages", emptied, "missing from current"),
        ("zeroed peak heaps", unaccounted, "FAIL (mem)"),
    ] {
        let out = gate::grade_stages(&base, &cur).unwrap();
        assert!(out.failed, "{what} passed:\n{}", out.report);
        assert!(out.report.contains(why), "{what}:\n{}", out.report);
    }
}

#[test]
fn fixtures_carry_per_kind_and_per_class_rollups() {
    // The gate only sums the rollups' counts, but the fixtures double as
    // the committed example of the full v2 schema — keep the rollups
    // present.
    for name in ["closed_loop_good.json", "closed_loop_bad.json"] {
        let doc = Json::parse(&fixture(name)).unwrap();
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
            Some(gate::SCHEMA),
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
        let doc = Json::parse(&fixture(name)).unwrap();
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
