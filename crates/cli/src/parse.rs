//! Argument parsing for the `parcsr` tool (hand-rolled: five subcommands,
//! no dependency needed).

use std::fmt;

/// Which synthetic model `generate` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// R-MAT (default; social-network-like skew).
    Rmat,
    /// Erdős–Rényi G(n, m).
    ErdosRenyi,
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic graph into a SNAP text file.
    Generate {
        /// Generator model.
        model: Model,
        /// Node count.
        nodes: usize,
        /// Edge count (for BA: edges per node).
        edges: usize,
        /// PRNG seed.
        seed: u64,
        /// Output path.
        out: String,
    },
    /// Compress a SNAP text file into a `.pcsr` file.
    Compress {
        /// Input SNAP path.
        input: String,
        /// Output `.pcsr` path.
        out: String,
        /// Processor count (0 = all).
        procs: usize,
    },
    /// Print degree statistics of a SNAP text file.
    Stats {
        /// Input SNAP path.
        input: String,
    },
    /// Print header information of a `.pcsr` file.
    Info {
        /// Input `.pcsr` path.
        input: String,
    },
    /// Query a `.pcsr` file.
    Query {
        /// Input `.pcsr` path.
        input: String,
        /// Nodes whose neighborhoods to fetch.
        neighbors: Vec<u32>,
        /// Edges whose existence to check.
        edges: Vec<(u32, u32)>,
        /// Processor count (0 = all).
        procs: usize,
    },
    /// Compress a temporal triplet file (`u v t` lines) into a `.tcsr`.
    TemporalCompress {
        /// Input temporal triplet path.
        input: String,
        /// Output `.tcsr` path.
        out: String,
        /// Processor count (0 = all).
        procs: usize,
    },
    /// Query a `.tcsr` file at a time-frame.
    TemporalQuery {
        /// Input `.tcsr` path.
        input: String,
        /// Time-frame to query.
        frame: u32,
        /// Edges whose activity to check at `frame`.
        edges: Vec<(u32, u32)>,
        /// Nodes whose active neighborhoods to fetch at `frame`.
        neighbors: Vec<u32>,
        /// Print the number of active edges at `frame`.
        count: bool,
    },
}

/// Global observability switches, valid anywhere on the command line and
/// stripped from the argument list before subcommand parsing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsOptions {
    /// Write a Chrome trace-event JSON of the run to this path.
    pub trace: Option<String>,
    /// Print the per-stage summary to stderr after the run.
    pub metrics: bool,
}

impl ObsOptions {
    /// Extracts `--trace FILE` / `--metrics` from `args` (valid in any
    /// position and order), returning the switches and the remaining arguments in order.
    pub fn extract<I>(args: I) -> Result<(ObsOptions, Vec<String>), ParseError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut obs = ObsOptions::default();
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--trace" => {
                    obs.trace = Some(
                        it.next()
                            .ok_or_else(|| invalid("--trace requires a value"))?,
                    );
                }
                "--metrics" => obs.metrics = true,
                _ => rest.push(arg),
            }
        }
        Ok((obs, rest))
    }

    /// True when any switch that turns on collection was given.
    pub fn active(&self) -> bool {
        self.trace.is_some() || self.metrics
    }
}

/// Parse failures, including the help text path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// `--help` or no arguments: print usage.
    Help,
    /// Anything malformed, with an explanation.
    Invalid(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Help => f.write_str(USAGE),
            ParseError::Invalid(msg) => write!(f, "{msg}\n\n{USAGE}"),
        }
    }
}

impl std::error::Error for ParseError {}

const USAGE: &str = "\
usage: parcsr <command> [flags]

commands:
  generate --nodes N --edges M --out FILE [--model rmat|er|ba] [--seed S]
  compress INPUT --out FILE [--procs P]
  stats    INPUT
  info     FILE.pcsr
  query    FILE.pcsr [--neighbors u1,u2,...] [--edge u,v] [--procs P]
  temporal-compress INPUT --out FILE [--procs P]
  temporal-query FILE.tcsr --frame T [--edge u,v] [--neighbors u1,u2] [--count]

global flags (any command):
  --trace FILE    write a Chrome trace (chrome://tracing JSON) of the run
  --metrics       print the per-stage and heap summary to stderr
                  (both need a binary built with --features obs)";

fn invalid(msg: impl Into<String>) -> ParseError {
    ParseError::Invalid(msg.into())
}

struct Args {
    items: std::vec::IntoIter<String>,
}

impl Args {
    fn value(&mut self, flag: &str) -> Result<String, ParseError> {
        self.items
            .next()
            .ok_or_else(|| invalid(format!("{flag} requires a value")))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, ParseError>
    where
        T::Err: fmt::Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| invalid(format!("{flag}: {e}")))
    }

    /// Rejects whatever is left after a command's last operand.
    fn finish(&mut self) -> Result<(), ParseError> {
        match self.items.next() {
            Some(flag) => Err(invalid(format!("unknown flag {flag}"))),
            None => Ok(()),
        }
    }
}

fn parse_pair(s: &str, flag: &str) -> Result<(u32, u32), ParseError> {
    let (a, b) = s
        .split_once(',')
        .ok_or_else(|| invalid(format!("{flag} expects 'u,v'")))?;
    Ok((
        a.trim()
            .parse()
            .map_err(|e| invalid(format!("{flag}: {e}")))?,
        b.trim()
            .parse()
            .map_err(|e| invalid(format!("{flag}: {e}")))?,
    ))
}

impl Command {
    /// Parses an argument list (without the program name).
    pub fn parse<I>(args: I) -> Result<Command, ParseError>
    where
        I: IntoIterator<Item = String>,
    {
        let items: Vec<String> = args.into_iter().collect();
        let mut args = Args {
            items: items.into_iter(),
        };
        let command = args.items.next().ok_or(ParseError::Help)?;
        match command.as_str() {
            "--help" | "-h" | "help" => Err(ParseError::Help),
            "generate" => {
                let (mut model, mut nodes, mut edges, mut seed, mut out) =
                    (Model::Rmat, None, None, 42u64, None);
                while let Some(flag) = args.items.next() {
                    match flag.as_str() {
                        "--model" => {
                            model = match args.value("--model")?.as_str() {
                                "rmat" => Model::Rmat,
                                "er" => Model::ErdosRenyi,
                                "ba" => Model::BarabasiAlbert,
                                other => return Err(invalid(format!("unknown model {other}"))),
                            }
                        }
                        "--nodes" => nodes = Some(args.parsed("--nodes")?),
                        "--edges" => edges = Some(args.parsed("--edges")?),
                        "--seed" => seed = args.parsed("--seed")?,
                        "--out" => out = Some(args.value("--out")?),
                        other => return Err(invalid(format!("unknown flag {other}"))),
                    }
                }
                Ok(Command::Generate {
                    model,
                    nodes: nodes.ok_or_else(|| invalid("generate requires --nodes"))?,
                    edges: edges.ok_or_else(|| invalid("generate requires --edges"))?,
                    seed,
                    out: out.ok_or_else(|| invalid("generate requires --out"))?,
                })
            }
            "compress" => {
                let input = args
                    .value("compress")
                    .map_err(|_| invalid("compress requires an input path"))?;
                let (mut out, mut procs) = (None, 0usize);
                while let Some(flag) = args.items.next() {
                    match flag.as_str() {
                        "--out" => out = Some(args.value("--out")?),
                        "--procs" => procs = args.parsed("--procs")?,
                        other => return Err(invalid(format!("unknown flag {other}"))),
                    }
                }
                Ok(Command::Compress {
                    input,
                    out: out.ok_or_else(|| invalid("compress requires --out"))?,
                    procs,
                })
            }
            "stats" => {
                let input = args
                    .value("stats")
                    .map_err(|_| invalid("stats requires an input path"))?;
                args.finish()?;
                Ok(Command::Stats { input })
            }
            "info" => {
                let input = args
                    .value("info")
                    .map_err(|_| invalid("info requires an input path"))?;
                args.finish()?;
                Ok(Command::Info { input })
            }
            "query" => {
                let input = args
                    .value("query")
                    .map_err(|_| invalid("query requires an input path"))?;
                let (mut neighbors, mut edges, mut procs) = (Vec::new(), Vec::new(), 0usize);
                while let Some(flag) = args.items.next() {
                    match flag.as_str() {
                        "--neighbors" => {
                            for part in args.value("--neighbors")?.split(',') {
                                neighbors.push(
                                    part.trim()
                                        .parse()
                                        .map_err(|e| invalid(format!("--neighbors: {e}")))?,
                                );
                            }
                        }
                        "--edge" => edges.push(parse_pair(&args.value("--edge")?, "--edge")?),
                        "--procs" => procs = args.parsed("--procs")?,
                        other => return Err(invalid(format!("unknown flag {other}"))),
                    }
                }
                if neighbors.is_empty() && edges.is_empty() {
                    return Err(invalid("query needs --neighbors and/or --edge"));
                }
                Ok(Command::Query {
                    input,
                    neighbors,
                    edges,
                    procs,
                })
            }
            "temporal-compress" => {
                let input = args
                    .value("temporal-compress")
                    .map_err(|_| invalid("temporal-compress requires an input path"))?;
                let (mut out, mut procs) = (None, 0usize);
                while let Some(flag) = args.items.next() {
                    match flag.as_str() {
                        "--out" => out = Some(args.value("--out")?),
                        "--procs" => procs = args.parsed("--procs")?,
                        other => return Err(invalid(format!("unknown flag {other}"))),
                    }
                }
                Ok(Command::TemporalCompress {
                    input,
                    out: out.ok_or_else(|| invalid("temporal-compress requires --out"))?,
                    procs,
                })
            }
            "temporal-query" => {
                let input = args
                    .value("temporal-query")
                    .map_err(|_| invalid("temporal-query requires an input path"))?;
                let (mut frame, mut edges, mut neighbors, mut count) =
                    (None, Vec::new(), Vec::new(), false);
                while let Some(flag) = args.items.next() {
                    match flag.as_str() {
                        "--frame" => frame = Some(args.parsed("--frame")?),
                        "--edge" => edges.push(parse_pair(&args.value("--edge")?, "--edge")?),
                        "--neighbors" => {
                            for part in args.value("--neighbors")?.split(',') {
                                neighbors.push(
                                    part.trim()
                                        .parse()
                                        .map_err(|e| invalid(format!("--neighbors: {e}")))?,
                                );
                            }
                        }
                        "--count" => count = true,
                        other => return Err(invalid(format!("unknown flag {other}"))),
                    }
                }
                if edges.is_empty() && neighbors.is_empty() && !count {
                    return Err(invalid(
                        "temporal-query needs --edge, --neighbors or --count",
                    ));
                }
                Ok(Command::TemporalQuery {
                    input,
                    frame: frame.ok_or_else(|| invalid("temporal-query requires --frame"))?,
                    edges,
                    neighbors,
                    count,
                })
            }
            other => Err(invalid(format!("unknown command {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, ParseError> {
        Command::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn generate_full() {
        let c = parse(&[
            "generate",
            "--model",
            "er",
            "--nodes",
            "100",
            "--edges",
            "500",
            "--seed",
            "7",
            "--out",
            "/tmp/g.txt",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Generate {
                model: Model::ErdosRenyi,
                nodes: 100,
                edges: 500,
                seed: 7,
                out: "/tmp/g.txt".into(),
            }
        );
    }

    #[test]
    fn generate_requires_counts() {
        let err = parse(&["generate", "--out", "x"]).unwrap_err();
        assert!(err.to_string().contains("--nodes"));
    }

    #[test]
    fn compress_defaults() {
        let c = parse(&["compress", "in.txt", "--out", "out.pcsr"]).unwrap();
        assert_eq!(
            c,
            Command::Compress {
                input: "in.txt".into(),
                out: "out.pcsr".into(),
                procs: 0,
            }
        );
    }

    /// Row chunks are always planned by edge weight; the flag that chose
    /// a count split is gone from every command.
    #[test]
    fn chunk_plan_flag_is_unknown() {
        for args in [
            &["compress", "in.txt", "--out", "o"][..],
            &["query", "g.pcsr", "--edge", "1,2"],
            &["temporal-compress", "ev.txt", "--out", "g.tcsr"],
        ] {
            let mut args = args.to_vec();
            args.extend(["--chunk-policy", "rows"]);
            assert_eq!(
                parse(&args),
                Err(ParseError::Invalid("unknown flag --chunk-policy".into())),
                "{args:?}"
            );
        }
    }

    /// Compress always packs the raw layout; `--mode` is not a flag.
    #[test]
    fn compress_raw_mode() {
        let c = parse(&["compress", "in.txt", "--out", "o", "--procs", "8"]).unwrap();
        assert!(matches!(c, Command::Compress { procs: 8, .. }));
        for mode in ["gap", "raw"] {
            assert_eq!(
                parse(&["compress", "in.txt", "--out", "o", "--mode", mode]),
                Err(ParseError::Invalid("unknown flag --mode".into()))
            );
        }
    }

    #[test]
    fn query_mixed() {
        let c = parse(&[
            "query",
            "g.pcsr",
            "--neighbors",
            "1, 2,3",
            "--edge",
            "4,5",
            "--edge",
            "6,7",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Query {
                input: "g.pcsr".into(),
                neighbors: vec![1, 2, 3],
                edges: vec![(4, 5), (6, 7)],
                procs: 0,
            }
        );
    }

    #[test]
    fn query_requires_something() {
        assert!(parse(&["query", "g.pcsr"]).is_err());
    }

    #[test]
    fn temporal_compress() {
        let c = parse(&[
            "temporal-compress",
            "ev.txt",
            "--out",
            "g.tcsr",
            "--procs",
            "2",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::TemporalCompress {
                input: "ev.txt".into(),
                out: "g.tcsr".into(),
                procs: 2,
            }
        );
        assert!(parse(&["temporal-compress", "ev.txt"]).is_err());
    }

    /// Every frame is a sparse delta CSR; `--mode` is not a flag.
    #[test]
    fn temporal_compress_has_one_frame_layout() {
        for mode in ["gap", "random"] {
            assert_eq!(
                parse(&[
                    "temporal-compress",
                    "ev.txt",
                    "--out",
                    "g.tcsr",
                    "--mode",
                    mode
                ]),
                Err(ParseError::Invalid("unknown flag --mode".into()))
            );
        }
    }

    #[test]
    fn temporal_query() {
        let c = parse(&[
            "temporal-query",
            "g.tcsr",
            "--frame",
            "3",
            "--edge",
            "1,2",
            "--neighbors",
            "0,4",
            "--count",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::TemporalQuery {
                input: "g.tcsr".into(),
                frame: 3,
                edges: vec![(1, 2)],
                neighbors: vec![0, 4],
                count: true,
            }
        );
        assert!(parse(&["temporal-query", "g.tcsr", "--frame", "1"]).is_err());
        assert!(
            parse(&["temporal-query", "g.tcsr", "--count"]).is_err(),
            "frame required"
        );
    }

    #[test]
    fn obs_flags_strip_from_anywhere() {
        let args = [
            "--metrics",
            "compress",
            "in.txt",
            "--trace",
            "/tmp/t.json",
            "--out",
            "o",
        ];
        let (obs, rest) = ObsOptions::extract(args.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(obs.trace.as_deref(), Some("/tmp/t.json"));
        assert!(obs.metrics);
        assert!(obs.active());
        let c = Command::parse(rest).unwrap();
        assert!(matches!(c, Command::Compress { .. }));

        let (obs, rest) = ObsOptions::extract(["stats".to_string(), "g.txt".to_string()]).unwrap();
        assert!(!obs.active());
        assert_eq!(rest, ["stats", "g.txt"]);

        assert!(ObsOptions::extract(["--trace".to_string()]).is_err());

        // `--trace` and `--metrics` are the only obs switches: spans are not
        // sampled, heap accounting follows recording, and no imbalance
        // report exists. Every other flag stays in the arguments and the
        // command rejects it.
        for flag in [
            &["--trace-sample", "8"][..],
            &["--mem-metrics"],
            &["--mem-sample", "4"],
            &["--imbalance"],
        ] {
            let mut args = vec!["compress", "in.txt", "--out", "o"];
            args.extend_from_slice(flag);
            let (obs, rest) = ObsOptions::extract(args.iter().map(|s| s.to_string())).unwrap();
            assert!(!obs.active(), "{flag:?}");
            assert_eq!(rest, args);
            assert_eq!(
                Command::parse(rest),
                Err(ParseError::Invalid(format!("unknown flag {}", flag[0])))
            );
        }
    }

    #[test]
    fn obs_flags_compose_in_any_order() {
        let orders: [&[&str]; 2] = [
            &[
                "query",
                "--trace",
                "t.json",
                "g.pcsr",
                "--edge",
                "1,2",
                "--metrics",
            ],
            &[
                "--metrics",
                "query",
                "g.pcsr",
                "--edge",
                "1,2",
                "--trace",
                "t.json",
            ],
        ];
        for args in orders {
            let (obs, rest) = ObsOptions::extract(args.iter().map(|s| s.to_string())).unwrap();
            assert_eq!(obs.trace.as_deref(), Some("t.json"), "{args:?}");
            assert!(obs.metrics, "{args:?}");
            let c = Command::parse(rest).unwrap();
            assert!(matches!(c, Command::Query { .. }), "{args:?}");
        }
    }

    #[test]
    fn help_and_unknowns() {
        assert_eq!(parse(&[]).unwrap_err(), ParseError::Help);
        assert_eq!(parse(&["--help"]).unwrap_err(), ParseError::Help);
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["generate", "--bogus"]).is_err());
        assert!(parse(&["query", "f", "--edge", "nope"]).is_err());
        assert!(parse(&["stats", "g.txt", "--admin-port", "9184"]).is_err());
        assert!(parse(&["info", "g.pcsr", "--bogus"]).is_err());
        assert!(parse(&["watch", "127.0.0.1:9184"]).is_err());
    }
}
