//! Minimal CLI option parsing shared by the harness binaries (no external
//! argument-parsing dependency; the flags are few and stable).

/// Harness options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Fraction of the published dataset sizes to synthesize (default
    /// 1/16). `1.0` reproduces Table II's full sizes.
    pub scale: f64,
    /// Processor counts to sweep. Defaults to the paper's {1, 4, 8, 16, 64}.
    pub processors: Vec<usize>,
    /// Timing repetitions per cell; the minimum is reported (standard
    /// practice for wall-clock microbenchmarks).
    pub reps: usize,
    /// Generator seed.
    pub seed: u64,
    /// Optional directory of real SNAP files (`LiveJournal.txt`, …); when
    /// set, files found there replace the synthetic stand-ins.
    pub data_dir: Option<String>,
    /// Restrict to datasets whose name contains this string.
    pub only: Option<String>,
    /// Emit results as JSON instead of a formatted table.
    pub json: bool,
    /// Write a Chrome trace-event JSON of the run to this path (requires
    /// the `obs` build feature to record anything).
    pub trace: Option<String>,
    /// Print the per-stage and heap summary to stderr after the run
    /// (requires the `obs` build feature).
    pub metrics: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 1.0 / 16.0,
            processors: vec![1, 4, 8, 16, 64],
            reps: 3,
            seed: 42,
            data_dir: None,
            only: None,
            json: false,
            trace: None,
            metrics: false,
        }
    }
}

impl Options {
    /// Parses `--flag value` style arguments; returns an error message
    /// naming the offending flag on failure.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "--scale" => {
                    opts.scale = value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?;
                    if !opts.scale.is_finite() || opts.scale <= 0.0 {
                        return Err("--scale must be positive".into());
                    }
                }
                "--procs" => {
                    opts.processors = value("--procs")?
                        .split(',')
                        .map(|s| s.trim().parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("--procs: {e}"))?;
                    if opts.processors.is_empty() || opts.processors.contains(&0) {
                        return Err("--procs needs positive, comma-separated counts".into());
                    }
                }
                "--reps" => {
                    opts.reps = value("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?;
                    if opts.reps == 0 {
                        return Err("--reps must be at least 1".into());
                    }
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--data" => opts.data_dir = Some(value("--data")?),
                "--only" => opts.only = Some(value("--only")?),
                "--full" => opts.scale = 1.0,
                "--json" => opts.json = true,
                "--trace" => opts.trace = Some(value("--trace")?),
                "--metrics" => opts.metrics = true,
                "--help" | "-h" => {
                    return Err(HELP.to_string());
                }
                other => return Err(format!("unknown flag {other} (try --help)")),
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments, exiting with the message on error.
    pub fn from_env() -> Options {
        match Options::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(if msg == HELP { 0 } else { 2 });
            }
        }
    }
}

const HELP: &str = "\
Regenerates the paper's evaluation artifacts on profile-matched synthetic graphs.

Flags:
  --scale <f>     fraction of published dataset sizes (default 0.0625; 1.0 = full)
  --full          shorthand for --scale 1.0
  --procs <list>  comma-separated processor counts (default 1,4,8,16,64)
  --reps <n>      timing repetitions, min reported (default 3)
  --seed <n>      generator seed (default 42)
  --data <dir>    directory with real SNAP files (<Dataset>.txt) to use instead
  --only <name>   run only datasets whose name contains <name>
  --json          emit JSON
  --trace <file>  write a Chrome trace (chrome://tracing JSON) of the run
  --metrics       print the per-stage and heap summary to stderr
                  (--trace/--metrics record spans and heap in a build with
                  --features obs)";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.processors, [1, 4, 8, 16, 64]);
        assert!((o.scale - 0.0625).abs() < 1e-12);
        assert_eq!(o.reps, 3);
    }

    #[test]
    fn full_flag() {
        assert_eq!(parse(&["--full"]).unwrap().scale, 1.0);
    }

    #[test]
    fn procs_list() {
        let o = parse(&["--procs", "1,2, 8"]).unwrap();
        assert_eq!(o.processors, [1, 2, 8]);
    }

    #[test]
    fn rejects_zero_procs() {
        assert!(parse(&["--procs", "0,2"]).is_err());
        assert!(parse(&["--procs", ""]).is_err());
    }

    #[test]
    fn rejects_bad_scale() {
        assert!(parse(&["--scale", "-1"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
    }

    #[test]
    fn unknown_flag_is_error() {
        let e = parse(&["--nope"]).unwrap_err();
        assert!(e.contains("--nope"));
    }

    /// The chunk-policy switch is gone: chunking is always edge-weighted,
    /// so every former spelling of the flag is rejected as unknown.
    #[test]
    fn chunk_policy_flag() {
        for args in [
            &["--chunk-policy", "rows"][..],
            &["--chunk-policy", "edges"],
            &["--chunk-policy", "nope"],
            &["--chunk-policy"],
        ] {
            let e = parse(args).unwrap_err();
            assert!(e.starts_with("unknown flag --chunk-policy "), "{e}");
        }
    }

    #[test]
    fn value_flags_require_values() {
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn trace_and_metrics() {
        let o = parse(&["--trace", "/tmp/t.json", "--metrics"]).unwrap();
        assert_eq!(o.trace.as_deref(), Some("/tmp/t.json"));
        assert!(o.metrics);
        assert!(parse(&["--trace"]).is_err());
        let d = parse(&[]).unwrap();
        assert_eq!(d.trace, None);
        assert!(!d.metrics);
    }

    #[test]
    fn removed_obs_flags_are_unknown() {
        // `--trace` and `--metrics` are the only obs switches: spans are not
        // sampled, heap accounting follows recording, and no imbalance
        // report exists.
        for args in [
            &["--trace-sample", "8"][..],
            &["--trace-sample"],
            &["--mem-metrics"],
            &["--mem-sample", "4"],
            &["--imbalance"],
        ] {
            let e = parse(args).unwrap_err();
            assert!(e.starts_with(&format!("unknown flag {} ", args[0])), "{e}");
        }
    }

    #[test]
    fn obs_flags_compose_in_any_order() {
        // The observability flags must parse identically regardless of
        // their relative order and interleaving with other flags.
        let orders: [&[&str]; 3] = [
            &["--metrics", "--trace", "t.json"],
            &["--trace", "t.json", "--seed", "7", "--metrics"],
            &["--metrics", "--seed", "7", "--trace", "t.json"],
        ];
        for args in orders {
            let o = parse(args).unwrap();
            assert_eq!(o.trace.as_deref(), Some("t.json"), "{args:?}");
            assert!(o.metrics, "{args:?}");
        }
    }

    #[test]
    fn data_and_only_and_json() {
        let o = parse(&["--data", "/tmp/x", "--only", "Pokec", "--json"]).unwrap();
        assert_eq!(o.data_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(o.only.as_deref(), Some("Pokec"));
        assert!(o.json);
    }
}
