#![warn(missing_docs)]

//! `parcsr` command-line tool: the operational wrapper around the library —
//! generate a synthetic social network, compress a SNAP file into the packed
//! CSR format, inspect the result, and query it, all without writing Rust.
//!
//! ```text
//! parcsr generate --model rmat --nodes 65536 --edges 1048576 --out g.txt
//! parcsr stats g.txt
//! parcsr compress g.txt --out g.pcsr
//! parcsr info g.pcsr
//! parcsr query g.pcsr --neighbors 0,1,2
//! parcsr query g.pcsr --edge 0,42
//! ```
//!
//! Every command is a pure function from arguments to a report string, so
//! the whole surface is unit-testable; `main` only prints.

pub mod commands;
pub mod parse;

pub use commands::execute;
pub use parse::{Command, ObsOptions, ParseError};

/// Parses and executes an argument list, returning the report to print.
///
/// The global `--trace FILE` / `--metrics` switches (valid anywhere on the
/// command line, in any order) wrap the run in observability collection,
/// heap accounting included; they need a binary built with the `obs`
/// feature to record anything. A `--trace` file that cannot be written
/// fails the run, even when the command itself succeeded.
pub fn run<I>(args: I) -> Result<String, String>
where
    I: IntoIterator<Item = String>,
{
    let (obs, rest) = ObsOptions::extract(args).map_err(|e| e.to_string())?;
    if obs.active() {
        if !parcsr_obs::compiled() {
            eprintln!(
                "warning: --trace/--metrics need a build with the obs feature \
                 (cargo run -p parcsr-cli --features obs ...); nothing will be recorded"
            );
        }
        parcsr_obs::set_enabled(true);
    }
    let command = Command::parse(rest).map_err(|e| e.to_string())?;
    let mut result = execute(&command).map_err(|e| e.to_string());
    if obs.active() {
        // Memory is accounted only while recording is on: snapshot first.
        let mem = parcsr_obs::mem::snapshot();
        parcsr_obs::set_enabled(false);
        let spans = parcsr_obs::drain();
        if let Some(path) = &obs.trace {
            match parcsr_obs::export::write_chrome_trace(
                std::path::Path::new(path),
                &spans,
                mem,
                &[],
            ) {
                Ok(()) => eprintln!("trace: wrote {} spans to {path}", spans.len()),
                Err(e) => {
                    let message = format!("trace: failed to write {path}: {e}");
                    match result {
                        Ok(_) => result = Err(message),
                        Err(_) => eprintln!("{message}"),
                    }
                }
            }
        }
        if obs.metrics {
            eprint!("{}", parcsr_obs::export::summary_table(&spans, mem));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::run;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unwritable_trace_file_fails_a_successful_command() {
        let dir = std::env::temp_dir().join(format!("parcsr-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.txt").to_string_lossy().into_owned();
        run(args(&[
            "generate", "--nodes", "16", "--edges", "32", "--out", &graph,
        ]))
        .unwrap();

        let missing = dir.join("missing").join("t.json");
        let trace = missing.to_string_lossy().into_owned();
        let err = run(args(&["--trace", &trace, "stats", &graph])).unwrap_err();
        assert!(err.starts_with("trace: failed to write"), "{err}");
        assert!(err.contains(&trace), "{err}");

        // The same command with a writable trace path succeeds and writes it.
        let written = dir.join("t.json");
        let trace = written.to_string_lossy().into_owned();
        let report = run(args(&["--trace", &trace, "stats", &graph])).unwrap();
        assert!(report.contains("gini"), "{report}");
        assert!(written.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
