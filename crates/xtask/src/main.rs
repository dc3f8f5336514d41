//! Workspace automation driver, invoked as `cargo xtask <command>` (the
//! alias lives in `.cargo/config.toml`).
//!
//! Commands:
//!
//! * `check-trace FILE` — validates a Chrome trace written by `--trace`
//!   (see [`trace_check`]): parseable JSON array of span (`"X"`) and
//!   counter (`"C"`) events, non-empty, time-ordered per thread / per
//!   counter, with well-typed span args. CI runs it on a bench smoke
//!   trace so a silently-broken recorder fails the build.
//! * `trace-analyze FILE [--stage NAME] [--json OUT] [--check]` — the
//!   parallel-efficiency report (see [`trace_analyze`]): per-stage worker
//!   utilization, critical-path ratio, and chunk-imbalance statistics,
//!   with per-worker timeline bars for `--stage`. `--check` gates CI on
//!   every stage reporting positive utilization.
//! * `stage-diff BASE CUR [--threshold F]` — compares two bench
//!   `*.stages.json` files (see [`stage_diff`]): per-stage construction
//!   time *shares* and peak heap bytes must stay within the threshold
//!   (default 0.10) of the baseline. CI diffs the smoke run against a
//!   committed baseline so a stage silently ballooning fails the build.
//! * `slo-check RESULT.json [--p99-ns N] [--min-qps F] [--baseline FILE]
//!   [--slack F]` — gates a `queries_closed_loop --json` artifact (see
//!   [`xtask::slo_check`]): the overall p99 of the per-query call latency
//!   must stay under the ceiling and the sustained qps above the floor,
//!   with thresholds given explicitly and/or derived from a committed
//!   baseline result ± slack. CI runs it on a serving smoke so a
//!   latency-tail or throughput regression fails the build.
//! * `bless-baseline` — reruns the CI obs smoke (same binary, same flags,
//!   reps 5) and rewrites `results/baselines/table2_smoke.stages.json`
//!   with the fresh output, after validating that it parses and
//!   stage-diffs cleanly against itself; then reruns the CI serving smoke
//!   and rewrites `results/baselines/closed_loop_smoke.json` the same way
//!   (fresh result must slo-check against itself). Run it after
//!   intentionally changing the pipeline's stage shape or the serving
//!   path's performance envelope.
//! * `lint [--skip-clippy] [--json OUT] [--inventory OUT]` — the
//!   workspace's static-analysis gate, in two stages:
//!   1. **source lints** (see [`xtask::lints`]): the line-based rules
//!      (`SAFETY:` comments near every `unsafe`, the unsafe file
//!      allowlist, hot-path panic bans, `unsafe_op_in_unsafe_fn` denial)
//!      plus the token-aware passes driven by the in-tree lexer — the
//!      hot-path allocation ban, the atomic-ordering audit, the
//!      lock-across-parallel-region check, and span coverage of chunked
//!      stages. `--json` writes the machine-readable report;
//!      `--inventory` writes the atomic-ordering inventory table.
//!   2. **curated clippy set** — `-D warnings` plus
//!      `undocumented_unsafe_blocks`, `dbg_macro`, and `todo`, across all
//!      targets. Skipped with `--skip-clippy` for a fast editor loop.
//! * `lint-fixtures` — runs the lint fixture corpus
//!   (`crates/xtask/tests/lint_fixtures/`): accept fixtures must be
//!   clean, reject fixtures must still trip their rule, so the lints
//!   themselves cannot rot. CI runs this next to the workspace lint.
//!
//! Exit code 0 means the tree is clean; 1 means violations were printed.

mod stage_diff;
mod trace_analyze;

use xtask::{fixtures, lints, slo_check, trace_check, trace_read};

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_lint_args(&args[1..]) {
            Ok(opts) => lint(&opts),
            Err(e) => {
                eprintln!("xtask lint: {e}");
                ExitCode::from(2)
            }
        },
        Some("lint-fixtures") => lint_fixtures(),
        Some("check-trace") => match args.get(1) {
            Some(file) => check_trace(Path::new(file)),
            None => {
                eprintln!("usage: cargo xtask check-trace <trace.json>");
                ExitCode::from(2)
            }
        },
        Some("trace-analyze") => match args.get(1) {
            Some(file) => match parse_analyze_args(&args[2..]) {
                Ok(opts) => run_trace_analyze(Path::new(file), &opts),
                Err(e) => {
                    eprintln!("xtask trace-analyze: {e}");
                    ExitCode::from(2)
                }
            },
            None => {
                eprintln!(
                    "usage: cargo xtask trace-analyze <trace.json> [--stage NAME] \
                     [--json OUT] [--check] [--min-util F]"
                );
                ExitCode::from(2)
            }
        },
        Some("stage-diff") => match (args.get(1), args.get(2)) {
            (Some(base), Some(cur)) => {
                let threshold = match parse_threshold(&args[3..]) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("xtask stage-diff: {e}");
                        return ExitCode::from(2);
                    }
                };
                run_stage_diff(Path::new(base), Path::new(cur), threshold)
            }
            _ => {
                eprintln!(
                    "usage: cargo xtask stage-diff <baseline.stages.json> \
                     <current.stages.json> [--threshold F]"
                );
                ExitCode::from(2)
            }
        },
        Some("bless-baseline") => bless_baseline(),
        Some("slo-check") => match args.get(1) {
            Some(file) => match slo_check::parse_args(&args[2..]) {
                Ok(opts) => run_slo_check(Path::new(file), &opts),
                Err(e) => {
                    eprintln!("xtask slo-check: {e}");
                    ExitCode::from(2)
                }
            },
            None => {
                eprintln!(
                    "usage: cargo xtask slo-check <result.json> [--p99-ns N] [--min-qps F] \
                     [--baseline FILE] [--slack F]"
                );
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!(
                "usage: cargo xtask lint [--skip-clippy] [--json OUT] [--inventory OUT] | \
                 lint-fixtures | check-trace <trace.json> | \
                 trace-analyze <trace.json> [--stage NAME] [--json OUT] [--check] \
                 [--min-util F] | \
                 stage-diff <base.json> <cur.json> [--threshold F] | bless-baseline | \
                 slo-check <result.json> [--p99-ns N] [--min-qps F] [--baseline FILE] \
                 [--slack F]"
            );
            ExitCode::from(2)
        }
    }
}

/// Gates a closed-loop result file on SLO thresholds (explicit flags,
/// baseline-derived, or both — explicit wins per dimension).
fn run_slo_check(path: &Path, args: &slo_check::SloArgs) -> ExitCode {
    let text = match trace_read::read_file("slo-check", path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut thresholds = slo_check::SloThresholds::default();
    if let Some(baseline_path) = &args.baseline {
        let baseline = trace_read::read_file("slo-check", baseline_path)
            .and_then(|t| slo_check::parse_result("baseline", &t));
        match baseline {
            Ok(b) => {
                thresholds = slo_check::baseline_thresholds(
                    &b,
                    args.slack.unwrap_or(slo_check::DEFAULT_SLACK),
                );
            }
            Err(e) => {
                eprintln!("xtask slo-check: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Explicit flags override the baseline-derived value for their
    // dimension.
    thresholds.p99_ns = args.explicit.p99_ns.or(thresholds.p99_ns);
    thresholds.min_qps = args.explicit.min_qps.or(thresholds.min_qps);
    match slo_check::check_slo_text(&text, &thresholds) {
        Ok(out) => {
            eprint!("{}", out.report);
            if out.failed {
                eprintln!("xtask slo-check: {} FAILED", path.display());
                ExitCode::FAILURE
            } else {
                eprintln!("xtask slo-check: {} ok", path.display());
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("xtask slo-check: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Options for `trace-analyze` after the file argument.
#[derive(Default)]
struct AnalyzeOpts {
    stage: Option<String>,
    json_out: Option<PathBuf>,
    check: bool,
    min_util: f64,
}

fn parse_analyze_args(rest: &[String]) -> Result<AnalyzeOpts, String> {
    let mut opts = AnalyzeOpts::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--stage" => {
                let name = it.next().ok_or("--stage needs a stage name")?;
                opts.stage = Some(name.clone());
            }
            "--json" => {
                let path = it.next().ok_or("--json needs an output path")?;
                opts.json_out = Some(PathBuf::from(path));
            }
            "--check" => opts.check = true,
            "--min-util" => {
                let value = it.next().ok_or("--min-util needs a value")?;
                opts.min_util = match value.parse::<f64>() {
                    Ok(f) if (0.0..=1.0).contains(&f) => f,
                    _ => return Err(format!("--min-util must be in [0, 1], got `{value}`")),
                };
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Runs the analyzer over a trace file; exit 0 unless the file is
/// unreadable/invalid or `--check` found an idle or empty stage set.
fn run_trace_analyze(path: &Path, opts: &AnalyzeOpts) -> ExitCode {
    let text = match trace_read::read_file("trace-analyze", path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let analysis = match trace_analyze::analyze_trace_text(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask trace-analyze: {} invalid: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    print!(
        "{}",
        trace_analyze::render_report(&analysis, opts.stage.as_deref())
    );
    if let Some(out) = &opts.json_out {
        let mut body = analysis.to_json().pretty();
        body.push('\n');
        if let Err(e) = std::fs::write(out, body) {
            eprintln!("xtask trace-analyze: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("xtask trace-analyze: wrote {}", out.display());
    }
    if opts.check {
        if let Err(e) = trace_analyze::check_analysis(&analysis, opts.min_util) {
            eprintln!("xtask trace-analyze: {} FAILED: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let floor = if opts.min_util > 0.0 {
            format!(">= {}", opts.min_util)
        } else {
            "> 0".to_string()
        };
        eprintln!(
            "xtask trace-analyze: {} ok ({} stages, all utilization {floor})",
            path.display(),
            analysis.stages.len()
        );
    }
    ExitCode::SUCCESS
}

/// Parses `[--threshold F]` from the tail of a stage-diff invocation.
fn parse_threshold(rest: &[String]) -> Result<f64, String> {
    match rest {
        [] => Ok(0.10),
        [flag, value] if flag == "--threshold" => match value.parse::<f64>() {
            Ok(t) if t > 0.0 && t.is_finite() => Ok(t),
            _ => Err(format!(
                "--threshold must be a positive number, got `{value}`"
            )),
        },
        _ => Err(format!("unexpected arguments: {rest:?}")),
    }
}

/// Diffs two bench stage-breakdown JSON files; exit 0 iff every stage's
/// time share and peak memory stayed within the threshold.
fn run_stage_diff(base: &Path, cur: &Path, threshold: f64) -> ExitCode {
    let (base_text, cur_text) = match (
        trace_read::read_file("stage-diff", base),
        trace_read::read_file("stage-diff", cur),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match stage_diff::diff_stage_text(&base_text, &cur_text, threshold) {
        Ok(out) => {
            eprint!("{}", out.report);
            if out.failed {
                eprintln!(
                    "xtask stage-diff: {} vs {} FAILED \
                     (intentional shift? refresh the baseline with \
                     `cargo xtask bless-baseline`)",
                    base.display(),
                    cur.display()
                );
                ExitCode::FAILURE
            } else {
                eprintln!(
                    "xtask stage-diff: {} vs {} ok",
                    base.display(),
                    cur.display()
                );
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("xtask stage-diff: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a `--trace` output file; exit 0 iff it is a well-formed,
/// non-empty, per-thread time-ordered Chrome trace.
fn check_trace(path: &Path) -> ExitCode {
    let text = match trace_read::read_file("check-trace", path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match trace_check::check_trace_text(&text) {
        Ok(n) => {
            eprintln!("xtask check-trace: {} ok ({n} events)", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask check-trace: {} invalid: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Reruns the CI obs smoke command and rewrites the committed stage
/// baseline with its output. The smoke must produce JSON that parses and
/// stage-diffs cleanly against itself before the baseline is replaced.
fn bless_baseline() -> ExitCode {
    let root = workspace_root();
    let baseline = root.join("results/baselines/table2_smoke.stages.json");
    let trace_tmp = root.join("target/bless-baseline.trace.json");
    eprintln!("xtask bless-baseline: running the CI obs smoke (reps 5, all obs flags)...");
    // The "Bench smoke with all obs flags" CI step runs the same flags (a
    // serving_gates test holds the two equal).
    let output = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .current_dir(&root)
        .args([
            "run",
            "-q",
            "--release",
            "-p",
            "parcsr-bench",
            "--features",
            "obs",
            "--bin",
            "table2",
            "--",
        ])
        .args(slo_check::TABLE2_SMOKE_ARGS)
        .arg("--trace")
        .arg(&trace_tmp)
        .output();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask bless-baseline: could not run cargo: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !output.status.success() {
        eprintln!("xtask bless-baseline: smoke run failed:");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return ExitCode::FAILURE;
    }
    let text = match String::from_utf8(output.stdout) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask bless-baseline: smoke output is not UTF-8: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Self-diff exercises the full baseline parser on the new text; a file
    // that cannot even diff against itself must not become the baseline.
    if let Err(e) = stage_diff::diff_stage_text(&text, &text, 0.25) {
        eprintln!("xtask bless-baseline: smoke output is not a valid stage breakdown: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(dir) = baseline.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("xtask bless-baseline: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&baseline, &text) {
        eprintln!(
            "xtask bless-baseline: cannot write {}: {e}",
            baseline.display()
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "xtask bless-baseline: wrote {} ({} bytes); review and commit it",
        baseline.display(),
        text.len()
    );
    bless_closed_loop_baseline(&root)
}

/// Reruns the CI serving smoke (`queries_closed_loop`, same flags as the
/// `slo` CI job) and rewrites `results/baselines/closed_loop_smoke.json`.
/// The fresh result must parse as a `parcsr.closed_loop.v1` document and
/// slo-check cleanly against itself before it replaces the baseline.
fn bless_closed_loop_baseline(root: &Path) -> ExitCode {
    let baseline = root.join("results/baselines/closed_loop_smoke.json");
    eprintln!("xtask bless-baseline: running the CI serving smoke (queries_closed_loop)...");
    // The `slo` CI job's smoke step runs the same flags (a serving_gates
    // test holds the two equal).
    let output = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .current_dir(root)
        .args([
            "run",
            "-q",
            "--release",
            "-p",
            "parcsr-bench",
            "--features",
            "obs",
            "--bin",
            "queries_closed_loop",
            "--",
        ])
        .args(slo_check::CLOSED_LOOP_SMOKE_ARGS)
        .output();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask bless-baseline: could not run cargo: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !output.status.success() {
        eprintln!("xtask bless-baseline: serving smoke failed:");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return ExitCode::FAILURE;
    }
    let text = match String::from_utf8(output.stdout) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask bless-baseline: serving smoke output is not UTF-8: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Self-check exercises the full result parser and threshold machinery;
    // a result that cannot pass against itself must not become the
    // baseline.
    let self_thresholds = match slo_check::parse_result("fresh result", &text) {
        Ok(r) => slo_check::baseline_thresholds(&r, slo_check::DEFAULT_SLACK),
        Err(e) => {
            eprintln!("xtask bless-baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    match slo_check::check_slo_text(&text, &self_thresholds) {
        Ok(out) if !out.failed => {}
        Ok(_) => {
            eprintln!("xtask bless-baseline: fresh result fails slo-check against itself");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("xtask bless-baseline: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&baseline, &text) {
        eprintln!(
            "xtask bless-baseline: cannot write {}: {e}",
            baseline.display()
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "xtask bless-baseline: wrote {} ({} bytes); review and commit it",
        baseline.display(),
        text.len()
    );
    ExitCode::SUCCESS
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// All `.rs` files under `dir`, recursively, workspace-relative with unix
/// separators, sorted for deterministic output.
fn rust_files(root: &Path, dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.join(dir)];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                // `lint_fixtures` holds deliberately-violating snippets for
                // the corpus self-test; they are linted by `lint-fixtures`
                // under pretend paths, never as part of the tree.
                if path
                    .file_name()
                    .is_some_and(|n| n == "target" || n == "lint_fixtures")
                {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .expect("walked path under root")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    out.sort();
    out
}

/// Options for `lint` after the subcommand.
#[derive(Default)]
struct LintOpts {
    skip_clippy: bool,
    json_out: Option<PathBuf>,
    inventory_out: Option<PathBuf>,
}

fn parse_lint_args(rest: &[String]) -> Result<LintOpts, String> {
    let mut opts = LintOpts::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--skip-clippy" => opts.skip_clippy = true,
            "--json" => {
                let path = it.next().ok_or("--json needs an output path")?;
                opts.json_out = Some(PathBuf::from(path));
            }
            "--inventory" => {
                let path = it.next().ok_or("--inventory needs an output path")?;
                opts.inventory_out = Some(PathBuf::from(path));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(opts)
}

fn lint(opts: &LintOpts) -> ExitCode {
    let root = workspace_root();
    let mut report = lints::WorkspaceReport::default();
    for dir in ["crates", "shims", "tests", "examples", "benches"] {
        for rel in rust_files(&root, dir) {
            let text = match std::fs::read_to_string(root.join(&rel)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("xtask: cannot read {rel}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            report.merge(lints::analyze_file(&rel, &text));
        }
    }

    for v in &report.violations {
        eprintln!("error: {v}");
    }
    let mut failed = !report.violations.is_empty();
    eprintln!(
        "xtask lint: source lints {} ({} file{}, {} violation{}, {} explained \
         waiver{}, {} ordering site{})",
        if failed { "FAILED" } else { "ok" },
        report.files,
        if report.files == 1 { "" } else { "s" },
        report.violations.len(),
        if report.violations.len() == 1 {
            ""
        } else {
            "s"
        },
        report.waivers.len(),
        if report.waivers.len() == 1 { "" } else { "s" },
        report.ordering_sites.len(),
        if report.ordering_sites.len() == 1 {
            ""
        } else {
            "s"
        },
    );

    if let Some(out) = &opts.json_out {
        let mut body = report.to_json().pretty();
        body.push('\n');
        if let Err(e) = std::fs::write(out, body) {
            eprintln!("xtask lint: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("xtask lint: wrote {}", out.display());
    }
    if let Some(out) = &opts.inventory_out {
        if let Err(e) = std::fs::write(out, report.inventory_markdown()) {
            eprintln!("xtask lint: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("xtask lint: wrote {}", out.display());
    }

    if !opts.skip_clippy {
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .current_dir(&root)
            .args([
                "clippy",
                "--workspace",
                "--all-targets",
                "--quiet",
                "--",
                "-D",
                "warnings",
                "-D",
                "clippy::undocumented_unsafe_blocks",
                "-D",
                "clippy::dbg_macro",
                "-D",
                "clippy::todo",
            ])
            .status();
        match status {
            Ok(s) if s.success() => eprintln!("xtask lint: clippy ok"),
            Ok(_) => {
                eprintln!("xtask lint: clippy FAILED");
                failed = true;
            }
            Err(e) => {
                eprintln!("xtask lint: could not run cargo clippy: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the lint fixture corpus: accept fixtures clean, reject fixtures
/// still rejecting. Exit 0 iff the corpus (and thus the lints) is healthy.
fn lint_fixtures() -> ExitCode {
    let dir = workspace_root().join("crates/xtask/tests/lint_fixtures");
    match fixtures::check_fixture_corpus(&dir) {
        Ok(summary) => {
            eprintln!("xtask lint-fixtures: {summary}");
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("error: {e}");
            }
            eprintln!("xtask lint-fixtures: FAILED ({} error{})", errors.len(), {
                if errors.len() == 1 {
                    ""
                } else {
                    "s"
                }
            });
            ExitCode::FAILURE
        }
    }
}
