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
    /// Print the per-stage/metrics summary to stderr after the run
    /// (requires the `obs` build feature).
    pub metrics: bool,
    /// Span sampling period: record every Nth same-name span per thread
    /// (default: the `PARCSR_TRACE_SAMPLE` env var, else 1 = record all).
    pub trace_sample: Option<u32>,
    /// Enable memory accounting (live/peak heap bytes, per-stage peaks);
    /// requires the `obs` build feature, which registers the counting
    /// allocator.
    pub mem_metrics: bool,
    /// Mid-span memory sampling period: every Nth allocation updates the
    /// per-span high-water mark, so nested/worker spans report true
    /// intra-span peaks (default: the `PARCSR_MEM_SAMPLE` env var, else
    /// off). Implies memory accounting.
    pub mem_sample: Option<u64>,
    /// Append a per-stage `imbalance` object (worker utilization, chunk CV,
    /// critical-path ratio) to each `stages` entry of the JSON output;
    /// requires the `obs` build feature to measure anything.
    pub imbalance: bool,
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
            trace_sample: None,
            mem_metrics: false,
            mem_sample: None,
            imbalance: false,
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
                "--trace-sample" => {
                    let n: u32 = value("--trace-sample")?
                        .parse()
                        .map_err(|e| format!("--trace-sample: {e}"))?;
                    if n == 0 {
                        return Err("--trace-sample must be at least 1".into());
                    }
                    opts.trace_sample = Some(n);
                }
                "--mem-metrics" => opts.mem_metrics = true,
                "--mem-sample" => {
                    let n: u64 = value("--mem-sample")?
                        .parse()
                        .map_err(|e| format!("--mem-sample: {e}"))?;
                    if n == 0 {
                        return Err("--mem-sample must be at least 1".into());
                    }
                    opts.mem_sample = Some(n);
                }
                "--imbalance" => opts.imbalance = true,
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
  --metrics       print the per-stage/metrics summary to stderr
  --trace-sample <n>  record every nth same-name span per thread
                  (default: $PARCSR_TRACE_SAMPLE, else 1 = record all)
  --mem-metrics   track live/peak heap bytes and per-stage memory peaks
  --mem-sample <n>  sample the live-heap high-water mark every nth allocation,
                  so nested/worker spans report intra-span peaks
                  (default: $PARCSR_MEM_SAMPLE, else off; implies accounting)
  --imbalance     append per-stage worker-utilization / chunk-imbalance stats
                  to the JSON output
                  (observability flags need a build with --features obs)";

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
    fn trace_sample_and_mem_metrics() {
        let o = parse(&["--trace-sample", "8", "--mem-metrics"]).unwrap();
        assert_eq!(o.trace_sample, Some(8));
        assert!(o.mem_metrics);
        assert!(parse(&["--trace-sample", "0"]).is_err());
        assert!(parse(&["--trace-sample", "x"]).is_err());
        assert!(parse(&["--trace-sample"]).is_err());
        let d = parse(&[]).unwrap();
        assert_eq!(d.trace_sample, None);
        assert!(!d.mem_metrics);
    }

    #[test]
    fn mem_sample_and_imbalance() {
        let o = parse(&["--mem-sample", "64", "--imbalance"]).unwrap();
        assert_eq!(o.mem_sample, Some(64));
        assert!(o.imbalance);
        assert!(parse(&["--mem-sample", "0"]).is_err());
        assert!(parse(&["--mem-sample", "x"]).is_err());
        assert!(parse(&["--mem-sample"]).is_err());
        let d = parse(&[]).unwrap();
        assert_eq!(d.mem_sample, None);
        assert!(!d.imbalance);
    }

    #[test]
    fn obs_flags_compose_in_any_order() {
        // The four observability flags must parse identically regardless of
        // their relative order and interleaving with other flags.
        let orders: [&[&str]; 3] = [
            &[
                "--trace-sample",
                "8",
                "--metrics",
                "--mem-metrics",
                "--trace",
                "t.json",
            ],
            &[
                "--trace",
                "t.json",
                "--mem-metrics",
                "--seed",
                "7",
                "--trace-sample",
                "8",
                "--metrics",
            ],
            &[
                "--metrics",
                "--trace-sample",
                "8",
                "--trace",
                "t.json",
                "--seed",
                "7",
                "--mem-metrics",
            ],
        ];
        for args in orders {
            let o = parse(args).unwrap();
            assert_eq!(o.trace.as_deref(), Some("t.json"), "{args:?}");
            assert_eq!(o.trace_sample, Some(8), "{args:?}");
            assert!(o.metrics && o.mem_metrics, "{args:?}");
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
