//! Cross-run stage-regression diff over two bench `*.stages.json` files.
//!
//! `cargo xtask stage-diff <baseline> <current> [--threshold F]` compares,
//! for every `(dataset, processors)` sample present in both files, each
//! construction stage's **share of total construction time** and its
//! **peak heap bytes** against the baseline:
//!
//! * time shares are compared in absolute percentage points — a stage that
//!   moved from 12% to 25% of the build drifted by 0.13 regardless of how
//!   the machine's absolute speed changed between runs, which makes the
//!   check robust to CI hosts of different speeds;
//! * peak memory is compared relatively (`|cur - base| / base`), and only
//!   when both runs recorded it (a stage whose run kept no memory account
//!   reports 0 and is skipped, not failed). Every stage must carry the
//!   `mem_peak_bytes` field; a missing one is a parse error.
//!
//! Either drift above the threshold (default 0.10) fails the diff with a
//! per-stage table naming the offenders. Samples or stages present on only
//! one side are reported but do not fail — datasets and pipeline stages
//! are expected to be added over time; a *shift* in an existing stage is
//! the regression signal.

use parcsr_obs::json::Json;

use xtask::trace_read::parse_json;

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
/// stages sum to zero time (trace disabled) yields zero shares.
fn shares(stages: &[Stage]) -> Vec<(String, f64, u64)> {
    let total: f64 = stages.iter().map(|s| s.total_ms).sum();
    stages
        .iter()
        .map(|s| {
            let share = if total > 0.0 { s.total_ms / total } else { 0.0 };
            (s.name.clone(), share, s.mem_peak_bytes)
        })
        .collect()
}

/// Outcome of a diff: the rendered report and whether any drift exceeded
/// the threshold.
#[derive(Debug)]
pub struct DiffOutcome {
    /// Per-sample tables plus the summary line, ready to print.
    pub report: String,
    /// True iff at least one stage drifted above the threshold.
    pub failed: bool,
}

/// Diffs two bench JSON texts; `Err` means a file failed to parse.
pub fn diff_stage_text(base: &str, cur: &str, threshold: f64) -> Result<DiffOutcome, String> {
    let base = parse_samples("baseline", base)?;
    let cur = parse_samples("current", cur)?;
    let mut report = String::new();
    let mut violations = 0usize;
    let mut compared = 0usize;

    for sample in &cur {
        let Some(bs) = base
            .iter()
            .find(|b| b.dataset == sample.dataset && b.processors == sample.processors)
        else {
            report.push_str(&format!(
                "-- {} p={}: no baseline sample, skipped\n",
                sample.dataset, sample.processors
            ));
            continue;
        };
        compared += 1;
        report.push_str(&format!(
            "== {} p={} ==\n{:<24} {:>7} {:>7} {:>7}  {:>12} {:>12} {:>7}\n",
            sample.dataset,
            sample.processors,
            "stage",
            "base%",
            "cur%",
            "d_pp",
            "base_mem",
            "cur_mem",
            "d_mem%"
        ));
        let base_shares = shares(&bs.stages);
        let cur_shares = shares(&sample.stages);

        // Union of stage names, baseline order first so the table reads in
        // pipeline order.
        let mut names: Vec<&str> = base_shares.iter().map(|(n, _, _)| n.as_str()).collect();
        for (n, _, _) in &cur_shares {
            if !names.contains(&n.as_str()) {
                names.push(n);
            }
        }

        for name in names {
            let b = base_shares.iter().find(|(n, _, _)| n == name);
            let c = cur_shares.iter().find(|(n, _, _)| n == name);
            match (b, c) {
                (Some((_, bsh, bmem)), Some((_, csh, cmem))) => {
                    let d_share = (csh - bsh).abs();
                    let time_fail = d_share > threshold;
                    let (mem_col, mem_fail) = if *bmem > 0 && *cmem > 0 {
                        let d_mem = (*cmem as f64 - *bmem as f64) / *bmem as f64;
                        (format!("{:>+7.1}", d_mem * 100.0), d_mem.abs() > threshold)
                    } else {
                        ("      -".to_string(), false)
                    };
                    let marker = match (time_fail, mem_fail) {
                        (true, true) => "  <-- FAIL (time, mem)",
                        (true, false) => "  <-- FAIL (time)",
                        (false, true) => "  <-- FAIL (mem)",
                        (false, false) => "",
                    };
                    violations += usize::from(time_fail) + usize::from(mem_fail);
                    report.push_str(&format!(
                        "{:<24} {:>7.1} {:>7.1} {:>+7.1}  {:>12} {:>12} {}{}\n",
                        name,
                        bsh * 100.0,
                        csh * 100.0,
                        (csh - bsh) * 100.0,
                        bmem,
                        cmem,
                        mem_col,
                        marker
                    ));
                }
                (Some(_), None) => {
                    report.push_str(&format!("{name:<24} present only in baseline\n"));
                }
                (None, Some(_)) => {
                    report.push_str(&format!("{name:<24} present only in current\n"));
                }
                (None, None) => unreachable!("name came from one of the two lists"),
            }
        }
        report.push('\n');
    }

    if compared == 0 {
        report.push_str("stage-diff: no overlapping (dataset, processors) samples\n");
    }
    report.push_str(&format!(
        "stage-diff: {} violation{} above threshold {:.2} across {} sample{}\n",
        violations,
        if violations == 1 { "" } else { "s" },
        threshold,
        compared,
        if compared == 1 { "" } else { "s" }
    ));
    Ok(DiffOutcome {
        report,
        failed: violations > 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn identical_runs_pass() {
        let a = doc(&[
            ("degree", 4.0, 1000),
            ("scan", 2.0, 500),
            ("scatter", 4.0, 2000),
        ]);
        let out = diff_stage_text(&a, &a, 0.10).unwrap();
        assert!(!out.failed, "{}", out.report);
        assert!(out.report.contains("0 violations"), "{}", out.report);
    }

    #[test]
    fn uniform_slowdown_passes_shares_are_scale_free() {
        let a = doc(&[("degree", 4.0, 1000), ("scan", 2.0, 500)]);
        // 3x slower machine, same shape: shares identical.
        let b = doc(&[("degree", 12.0, 1000), ("scan", 6.0, 500)]);
        let out = diff_stage_text(&a, &b, 0.10).unwrap();
        assert!(!out.failed, "{}", out.report);
    }

    #[test]
    fn time_share_drift_fails_readably() {
        let a = doc(&[("degree", 5.0, 0), ("scan", 5.0, 0)]);
        // degree moves from 50% to 80% of the build: 30pp drift.
        let b = doc(&[("degree", 8.0, 0), ("scan", 2.0, 0)]);
        let out = diff_stage_text(&a, &b, 0.10).unwrap();
        assert!(out.failed);
        assert!(out.report.contains("FAIL (time)"), "{}", out.report);
        assert!(out.report.contains("degree"), "{}", out.report);
    }

    #[test]
    fn mem_drift_fails_and_zero_mem_is_skipped() {
        let a = doc(&[("degree", 5.0, 1000), ("scan", 5.0, 0)]);
        let b = doc(&[("degree", 5.0, 1500), ("scan", 5.0, 999)]);
        let out = diff_stage_text(&a, &b, 0.10).unwrap();
        assert!(out.failed);
        // degree: +50% mem fails; scan: baseline had no accounting, skipped.
        assert!(out.report.contains("FAIL (mem)"), "{}", out.report);
        assert_eq!(out.report.matches("FAIL").count(), 1, "{}", out.report);
        let loose = diff_stage_text(&a, &b, 0.60).unwrap();
        assert!(!loose.failed, "{}", loose.report);
    }

    #[test]
    fn missing_samples_and_stages_do_not_fail() {
        let a = doc(&[("degree", 5.0, 0), ("scan", 5.0, 0)]);
        let b = r#"[{"name":"toy","samples":[{"processors":8,"time_ms":1.0,"stages":[]}]}]"#;
        let out = diff_stage_text(&a, b, 0.10).unwrap();
        assert!(!out.failed, "{}", out.report);
        assert!(out.report.contains("no baseline sample"), "{}", out.report);
        assert!(out.report.contains("no overlapping"), "{}", out.report);

        let c = doc(&[("degree", 10.0, 0)]);
        let a2 = doc(&[("degree", 10.0, 0), ("pack", 0.0, 0)]);
        let out = diff_stage_text(&a2, &c, 0.10).unwrap();
        assert!(!out.failed, "{}", out.report);
        assert!(out.report.contains("only in baseline"), "{}", out.report);
    }

    #[test]
    fn parse_errors_are_reported_per_side() {
        assert!(diff_stage_text("nope", "[]", 0.1)
            .unwrap_err()
            .contains("baseline"));
        assert!(diff_stage_text("[]", "nope", 0.1)
            .unwrap_err()
            .contains("current"));
        let bad = r#"[{"samples":[]}]"#;
        assert!(diff_stage_text(bad, "[]", 0.1)
            .unwrap_err()
            .contains("`name`"));
        // A stage without its peak heap is an error naming the stage, on
        // either side.
        let no_mem = r#"[{"name":"toy","samples":[{"processors":4,"stages":[
            {"name":"scatter","total_ms":1.0}]}]}]"#;
        let err = diff_stage_text(no_mem, &doc(&[("scatter", 1.0, 0)]), 0.1).unwrap_err();
        assert!(err.starts_with("baseline: stage `scatter`"), "{err}");
        assert!(err.contains("`mem_peak_bytes`"), "{err}");
        let err = diff_stage_text(&doc(&[("scatter", 1.0, 0)]), no_mem, 0.1).unwrap_err();
        assert!(err.starts_with("current: stage `scatter`"), "{err}");
    }
}
