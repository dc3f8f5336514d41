//! Workspace automation driver, invoked as `cargo xtask <command>` (the
//! alias lives in `.cargo/config.toml`).
//!
//! Commands:
//!
//! * `check-trace FILE` — validates a Chrome trace written by `--trace`
//!   (see [`trace_check`]): parseable JSON array of span (`"X"`) and
//!   `mem.*` counter (`"C"`) events, non-empty, time-ordered per thread /
//!   per counter, with well-typed span args, and the stage rules R1–R3:
//!   every stage has a positive duration, every worker span lies inside a
//!   stage, and every planned chunk has its span. CI runs it on a bench
//!   smoke trace so a silently-broken recorder fails the build.
//! * `smoke <stages|serving>` — runs one CI smoke (see [`xtask::gate`])
//!   with its one flag list, an obs build of `table2` or
//!   `queries_closed_loop`, and writes its output under `target/smoke/`.
//!   The `stages` smoke also writes a trace there and runs `check-trace`
//!   on it. The output is then graded against its committed baseline in
//!   `results/baselines/`: each stage's share of construction time within
//!   ±25 pp and its peak heap within ±25 %, or the serving p99 at most
//!   min(1.5 × baseline, 1 ms) and qps at least max(0.5 × baseline,
//!   10 kq/s). CI's `obs` and `slo` jobs run it.
//! * `bless-baseline` — runs both smokes through the same runner, grades
//!   each fresh output against itself, and rewrites the committed
//!   baselines with them. Run it after intentionally changing the
//!   pipeline's stage shape or the serving path's performance envelope.
//! * `stage-diff BASE CUR` — grades a bench `*.stages.json` file against
//!   a baseline one with the stage bounds above.
//! * `slo-check RESULT [BASELINE]` — grades a `queries_closed_loop --json`
//!   result with the serving bounds above; without a baseline only the
//!   1 ms and 10 kq/s constants apply.
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

use xtask::gate::{self, Outcome, Smoke};
use xtask::{fixtures, lints, trace_check, trace_read};

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

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
        Some("smoke") => match args.get(1).and_then(|s| Smoke::parse(s)) {
            Some(smoke) if args.len() == 2 => run_smoke_gate(smoke),
            _ => {
                eprintln!("usage: cargo xtask smoke <stages|serving>");
                ExitCode::from(2)
            }
        },
        Some("bless-baseline") => bless_baseline(),
        Some("stage-diff") => match &args[1..] {
            [base, cur] => grade_files("stage-diff", &[base, cur], |t| {
                gate::grade_stages(&t[0], &t[1])
            }),
            _ => {
                eprintln!(
                    "usage: cargo xtask stage-diff <baseline.stages.json> <current.stages.json>"
                );
                ExitCode::from(2)
            }
        },
        Some("slo-check") => match &args[1..] {
            [result] => grade_files("slo-check", &[result], |t| gate::grade_serving(&t[0], None)),
            [result, base] => grade_files("slo-check", &[result, base], |t| {
                gate::grade_serving(&t[0], Some(&t[1]))
            }),
            _ => {
                eprintln!("usage: cargo xtask slo-check <result.json> [baseline.json]");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!(
                "usage: cargo xtask lint [--skip-clippy] [--json OUT] [--inventory OUT] | \
                 lint-fixtures | check-trace <trace.json> | \
                 smoke <stages|serving> | bless-baseline | \
                 stage-diff <base.json> <cur.json> | slo-check <result.json> [baseline.json]"
            );
            ExitCode::from(2)
        }
    }
}

/// Reads `files` and grades their texts with `grade`; exit 0 iff they
/// parse and every check holds.
fn grade_files(
    cmd: &str,
    files: &[&String],
    grade: impl FnOnce(&[String]) -> Result<Outcome, String>,
) -> ExitCode {
    let texts: Result<Vec<String>, String> = files
        .iter()
        .map(|f| trace_read::read_file(cmd, Path::new(f)))
        .collect();
    let label = files
        .iter()
        .map(|f| f.as_str())
        .collect::<Vec<_>>()
        .join(" vs ");
    match texts {
        Ok(texts) => finish(cmd, &label, grade(&texts)),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a graded outcome; exit 0 iff it parsed and passed.
fn finish(cmd: &str, label: &str, graded: Result<Outcome, String>) -> ExitCode {
    match graded {
        Ok(out) if !out.failed => {
            eprint!("{}", out.report);
            eprintln!("xtask {cmd}: {label} ok");
            ExitCode::SUCCESS
        }
        Ok(out) => {
            eprint!("{}", out.report);
            eprintln!(
                "xtask {cmd}: {label} FAILED (an intentional shift? refresh the \
                 baselines with `cargo xtask bless-baseline`)"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask {cmd}: {label}: {e}");
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

/// Runs `smoke` with its flags (an obs build, through cargo) and writes
/// its output under `target/smoke/`; a smoke with a trace also has the
/// trace checked. Returns the output text.
fn run_smoke(root: &Path, smoke: Smoke) -> Result<String, String> {
    let dir = root.join("target/smoke");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    eprintln!("xtask smoke: {} {}", smoke.bin(), smoke.args().join(" "));
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.current_dir(root)
        .args(["run", "-q", "--release", "-p", "parcsr-bench"])
        .args(["--features", "obs", "--bin", smoke.bin(), "--"])
        .args(smoke.args());
    let trace = smoke.trace().map(|name| dir.join(name));
    if let Some(trace) = &trace {
        cmd.arg("--trace").arg(trace);
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", smoke.bin(), output.status));
    }
    let text = String::from_utf8(output.stdout)
        .map_err(|e| format!("{} output is not UTF-8: {e}", smoke.bin()))?;
    let out = dir.join(smoke.output());
    std::fs::write(&out, &text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("xtask smoke: wrote {}", out.display());
    if let Some(trace) = &trace {
        let events = trace_read::read_file("smoke", trace)
            .and_then(|t| trace_check::check_trace_text(&t))
            .map_err(|e| format!("{} invalid: {e}", trace.display()))?;
        eprintln!("xtask smoke: {} ok ({events} events)", trace.display());
    }
    Ok(text)
}

/// `smoke`: runs one CI smoke and grades it against its committed
/// baseline.
fn run_smoke_gate(smoke: Smoke) -> ExitCode {
    let root = workspace_root();
    let graded = run_smoke(&root, smoke).and_then(|cur| {
        let base = trace_read::read_file("smoke", &root.join(smoke.baseline()))?;
        smoke.grade(&base, &cur)
    });
    let label = format!("target/smoke/{} vs {}", smoke.output(), smoke.baseline());
    finish("smoke", &label, graded)
}

/// `bless-baseline`: runs both smokes and rewrites their committed
/// baselines with the fresh outputs, each of which must first pass its
/// gate against itself.
fn bless_baseline() -> ExitCode {
    let root = workspace_root();
    for smoke in Smoke::ALL {
        let path = root.join(smoke.baseline());
        let blessed = run_smoke(&root, smoke).and_then(|text| {
            let out = smoke.grade(&text, &text)?;
            if out.failed {
                return Err(format!("fails its own gate:\n{}", out.report));
            }
            std::fs::write(&path, &text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(text.len())
        });
        match blessed {
            Ok(bytes) => eprintln!(
                "xtask bless-baseline: wrote {} ({bytes} bytes); review and commit it",
                path.display()
            ),
            Err(e) => {
                eprintln!("xtask bless-baseline: {} smoke: {e}", smoke.bin());
                return ExitCode::FAILURE;
            }
        }
    }
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
