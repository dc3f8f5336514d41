//! `check-trace`'s stage rules against a real trace: a `cargo xtask smoke
//! stages` trace (four datasets at p ∈ {1, 2}: 32 stages, 40 worker spans,
//! 8 plans) passes, and each of three dead copies of it fails by its rule.

use std::path::PathBuf;

use parcsr_obs::json::Json;
use xtask::trace_check::check_trace_text;

fn smoke_trace() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/trace_fixtures/table2_smoke.trace.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).unwrap()
}

fn int(ev: &Json, key: &str) -> i64 {
    ev.get(key).and_then(Json::as_i64).unwrap_or(0)
}

fn is_worker_span(ev: &Json) -> bool {
    ev.get("ph").and_then(Json::as_str) == Some("X") && int(ev, "tid") != 0
}

fn is_stage(ev: &Json) -> bool {
    ev.get("ph").and_then(Json::as_str) == Some("X")
        && int(ev, "tid") == 0
        && ev.get("args").map_or(0, |a| int(a, "depth")) == 0
}

/// The smoke trace's events, passed through `edit`, as trace text.
fn edited(edit: impl FnOnce(Vec<Json>) -> Vec<Json>) -> String {
    let Json::Array(events) = smoke_trace() else {
        panic!("trace is not an array");
    };
    Json::Array(edit(events)).pretty()
}

/// `ev` with its `key` field replaced by `f` of the old value.
fn with_field(mut ev: Json, key: &str, f: impl Fn(&Json) -> Json) -> Json {
    let Json::Object(fields) = &mut ev else {
        panic!("event is not an object");
    };
    let slot = &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1;
    *slot = f(slot);
    ev
}

#[test]
fn the_smoke_trace_passes() {
    assert_eq!(check_trace_text(&smoke_trace().pretty()), Ok(201));
}

#[test]
fn a_trace_without_worker_spans_fails_r3() {
    // Persistent workers that never flush: the p = 2 regions lose every
    // chunk span, and `scatter` plans two chunks.
    let text = edited(|evs| evs.into_iter().filter(|e| !is_worker_span(e)).collect());
    let err = check_trace_text(&text).unwrap_err();
    assert!(
        err.starts_with("R3: stage `scatter`") && err.contains("plans 2 chunks"),
        "{err}"
    );
}

#[test]
fn worker_spans_shifted_past_their_stages_fail_r2() {
    let shift = |ts: &Json| Json::Float(ts.as_f64().unwrap() + 10e6);
    let text = edited(|evs| {
        evs.into_iter()
            .map(|e| {
                if is_worker_span(&e) {
                    with_field(e, "ts", shift)
                } else {
                    e
                }
            })
            .collect()
    });
    let err = check_trace_text(&text).unwrap_err();
    assert!(err.starts_with("R2: worker span"), "{err}");
}

#[test]
fn zero_duration_stages_fail_r1() {
    let text = edited(|evs| {
        evs.into_iter()
            .map(|e| {
                if is_stage(&e) {
                    with_field(e, "dur", |_| Json::Int(0))
                } else {
                    e
                }
            })
            .collect()
    });
    let err = check_trace_text(&text).unwrap_err();
    assert!(err.starts_with("R1: stage `degree`"), "{err}");
}
