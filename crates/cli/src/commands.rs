//! Command execution: each subcommand is a pure function from a parsed
//! [`Command`] to a report string.

use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::time::Instant;

use parcsr::query::{edges_exist_batch_binary, neighbors_batch};
use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::gen::{barabasi_albert, erdos_renyi, rmat, BaParams, ErParams, RmatParams};
use parcsr_graph::{io as gio, DegreeStats, EdgeList};

use crate::parse::{Command, Model};

/// Execution failures (I/O, parse, semantic).
#[derive(Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Executes a command, returning its report.
pub fn execute(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Generate {
            model,
            nodes,
            edges,
            seed,
            out,
        } => generate(*model, *nodes, *edges, *seed, out),
        Command::Compress { input, out, procs } => compress(input, out, resolve_procs(*procs)),
        Command::Stats { input } => stats(input),
        Command::Info { input } => info(input),
        Command::Query {
            input,
            neighbors,
            edges,
            procs,
        } => query(input, neighbors, edges, resolve_procs(*procs)),
        Command::TemporalCompress { input, out, procs } => {
            temporal_compress(input, out, resolve_procs(*procs))
        }
        Command::TemporalQuery {
            input,
            frame,
            edges,
            neighbors,
            count,
        } => temporal_query(input, *frame, edges, neighbors, *count),
    }
}

fn temporal_compress(input: &str, out: &str, procs: usize) -> Result<String, CliError> {
    let events = parcsr::with_processors(procs, || gio::read_temporal_edge_list_file(input))
        .map_err(|e| err(format!("reading {input}: {e}")))?;
    let t = Instant::now();
    let tcsr = parcsr_temporal::TcsrBuilder::new()
        .processors(procs)
        .build(&events);
    let ms = ms_since(t);
    let file = File::create(out).map_err(|e| err(format!("creating {out}: {e}")))?;
    let mut writer = BufWriter::new(file);
    tcsr.write_to(&mut writer)
        .map_err(|e| err(format!("writing {out}: {e}")))?;
    Ok(format!(
        "compressed {} events / {} frames over {} nodes in {ms:.1} ms ({} B packed) -> {out}",
        events.num_events(),
        tcsr.num_frames(),
        tcsr.num_nodes(),
        tcsr.packed_bytes()
    ))
}

fn temporal_query(
    input: &str,
    frame: u32,
    edges: &[(u32, u32)],
    neighbors: &[u32],
    count: bool,
) -> Result<String, CliError> {
    let file = File::open(input).map_err(|e| err(format!("opening {input}: {e}")))?;
    let tcsr = parcsr_temporal::Tcsr::read_from(&mut BufReader::new(file))
        .map_err(|e| err(format!("loading {input}: {e}")))?;
    if frame as usize >= tcsr.num_frames() {
        return Err(err(format!(
            "frame {frame} out of range ({} frames)",
            tcsr.num_frames()
        )));
    }
    let mut report = String::new();
    for &(u, v) in edges {
        let _ = writeln!(
            report,
            "edge ({u}, {v}) at T{frame}: {}",
            tcsr.edge_active_at(u, v, frame)
        );
    }
    for &u in neighbors {
        let _ = writeln!(
            report,
            "neighbors({u}) at T{frame}: {:?}",
            tcsr.neighbors_at(u, frame)
        );
    }
    if count {
        let _ = writeln!(
            report,
            "active edges at T{frame}: {}",
            tcsr.active_edge_count_at(frame)
        );
    }
    Ok(report.trim_end().to_string())
}

fn resolve_procs(procs: usize) -> usize {
    if procs == 0 {
        rayon::current_num_threads()
    } else {
        procs
    }
}

fn generate(
    model: Model,
    nodes: usize,
    edges: usize,
    seed: u64,
    out: &str,
) -> Result<String, CliError> {
    let graph: EdgeList = match model {
        Model::Rmat => rmat(RmatParams::new(nodes, edges, seed)),
        Model::ErdosRenyi => erdos_renyi(ErParams::new(nodes, edges, seed)),
        Model::BarabasiAlbert => barabasi_albert(BaParams::new(nodes, edges, seed)),
    };
    gio::write_edge_list_file(&graph, out).map_err(|e| err(format!("writing {out}: {e}")))?;
    Ok(format!(
        "generated {} nodes / {} edges ({:?}, seed {seed}) -> {out}",
        graph.num_nodes(),
        graph.num_edges(),
        model
    ))
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Node ids a graph may span per edge, on top of [`FREE_NODES`].
const NODES_PER_EDGE: usize = 8;

/// Node ids any graph may span, whatever its edge count.
const FREE_NODES: usize = 1 << 20;

/// Reads a SNAP edge-list file, parsing on `procs` threads. `compress` and
/// `stats` build arrays indexed by node, so a graph whose largest id exceeds
/// `8 × edges + 2^20` is rejected: those arrays stay proportional to the
/// input, and a one-line file cannot ask for gigabytes.
fn read_edges(input: &str, procs: usize) -> Result<EdgeList, CliError> {
    let graph = parcsr::with_processors(procs, || gio::read_edge_list_file(input))
        .map_err(|e| err(format!("reading {input}: {e}")))?;
    let cap = NODES_PER_EDGE * graph.num_edges() + FREE_NODES;
    if graph.num_nodes() > cap {
        return Err(err(format!(
            "reading {input}: node id {} is too sparse for {} edges: ids must be below \
             {cap} ({NODES_PER_EDGE} per edge + {FREE_NODES})",
            graph.num_nodes() - 1,
            graph.num_edges()
        )));
    }
    Ok(graph)
}

fn compress(input: &str, out: &str, procs: usize) -> Result<String, CliError> {
    let t = Instant::now();
    let graph = parcsr_obs::with_span("parse", || read_edges(input, procs))?;
    let parse_ms = ms_since(t);

    let t = Instant::now();
    let (csr, timings) = CsrBuilder::new().processors(procs).build_timed(&graph);
    let t_pack = Instant::now();
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, procs);
    let pack_ms = ms_since(t_pack);
    let total_ms = ms_since(t);

    let t = Instant::now();
    parcsr_obs::with_span("write", || {
        let file = File::create(out).map_err(|e| err(format!("creating {out}: {e}")))?;
        let mut writer = BufWriter::new(file);
        packed
            .write_to(&mut writer)
            .and_then(|()| writer.flush())
            .map_err(|e| err(format!("writing {out}: {e}")))
    })?;
    let write_ms = ms_since(t);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "compressed {} nodes / {} edges in {total_ms:.1} ms with {procs} processors",
        csr.num_nodes(),
        csr.num_edges()
    );
    let _ = writeln!(
        report,
        "  stages: parse {parse_ms:.1} ms, sort {:.1} ms, degrees {:.1} ms, scan {:.1} ms, \
         fill {:.1} ms, pack {pack_ms:.1} ms, write {write_ms:.1} ms",
        timings.sort_ms, timings.degree_ms, timings.scan_ms, timings.fill_ms
    );
    let _ = writeln!(
        report,
        "  sizes: edge list {} B -> packed CSR {} B ({}-bit columns)",
        graph.binary_bytes(),
        packed.packed_bytes(),
        packed.column_width()
    );
    let _ = write!(report, "  wrote {out}");
    Ok(report)
}

fn stats(input: &str) -> Result<String, CliError> {
    let graph = read_edges(input, resolve_procs(0))?;
    let s = DegreeStats::of(&graph);
    Ok(format!(
        "{input}: {} nodes, {} edges\n  max degree {}, mean degree {:.2}, isolated {}, gini {:.3}",
        s.num_nodes, s.num_edges, s.max_degree, s.mean_degree, s.isolated, s.gini
    ))
}

fn load_pcsr(input: &str) -> Result<BitPackedCsr, CliError> {
    let file = File::open(input).map_err(|e| err(format!("opening {input}: {e}")))?;
    BitPackedCsr::read_from(&mut BufReader::new(file))
        .map_err(|e| err(format!("loading {input}: {e}")))
}

fn info(input: &str) -> Result<String, CliError> {
    let packed = load_pcsr(input)?;
    Ok(format!(
        "{input}: {} nodes, {} edges\n  columns {}-bit, offsets {}-bit, {} bytes packed",
        packed.num_nodes(),
        packed.num_edges(),
        packed.column_width(),
        packed.offset_width(),
        packed.packed_bytes()
    ))
}

fn query(
    input: &str,
    neighbors: &[u32],
    edges: &[(u32, u32)],
    procs: usize,
) -> Result<String, CliError> {
    let packed = load_pcsr(input)?;
    let n = packed.num_nodes() as u32;
    for &u in neighbors
        .iter()
        .chain(edges.iter().flat_map(|(u, v)| [u, v]))
    {
        if u >= n {
            return Err(err(format!("node {u} out of range ({n} nodes)")));
        }
    }

    let mut report = String::new();
    if !neighbors.is_empty() {
        let rows = neighbors_batch(&packed, neighbors, procs);
        for (u, row) in neighbors.iter().zip(rows) {
            let preview: Vec<u32> = row.iter().copied().take(16).collect();
            let _ = writeln!(
                report,
                "neighbors({u}) [{}]: {preview:?}{}",
                row.len(),
                if row.len() > 16 { " …" } else { "" }
            );
        }
    }
    if !edges.is_empty() {
        let answers = edges_exist_batch_binary(&packed, edges, procs);
        for (&(u, v), exists) in edges.iter().zip(answers) {
            let _ = writeln!(report, "edge ({u}, {v}): {exists}");
        }
    }
    Ok(report.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Command;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("parcsr-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_compress_info_query_pipeline() {
        let txt = tmp("pipeline.txt");
        let pcsr = tmp("pipeline.pcsr");

        let report = execute(&Command::Generate {
            model: Model::Rmat,
            nodes: 256,
            edges: 2_000,
            seed: 9,
            out: txt.clone(),
        })
        .unwrap();
        assert!(report.contains("2000 edges"), "{report}");

        let report = execute(&Command::Compress {
            input: txt.clone(),
            out: pcsr.clone(),
            procs: 2,
        })
        .unwrap();
        assert!(report.contains("packed CSR"), "{report}");
        let stages = report
            .lines()
            .find(|l| l.trim_start().starts_with("stages:"))
            .unwrap_or_else(|| panic!("no stages line: {report}"));
        let names: Vec<&str> = stages
            .trim_start()
            .trim_start_matches("stages: ")
            .split(", ")
            .map(|s| s.split(' ').next().unwrap())
            .collect();
        assert_eq!(
            names,
            ["parse", "sort", "degrees", "scan", "fill", "pack", "write"],
            "{report}"
        );

        let report = execute(&Command::Info {
            input: pcsr.clone(),
        })
        .unwrap();
        assert!(report.contains("2000 edges"), "{report}");

        let report = execute(&Command::Query {
            input: pcsr.clone(),
            neighbors: vec![0, 1],
            edges: vec![(0, 1)],
            procs: 2,
        })
        .unwrap();
        assert!(report.contains("neighbors(0)"), "{report}");
        assert!(report.contains("edge (0, 1):"), "{report}");

        let report = execute(&Command::Stats { input: txt.clone() }).unwrap();
        assert!(report.contains("gini"), "{report}");
    }

    #[test]
    fn compress_output_does_not_depend_on_procs() {
        let txt = tmp("procs.txt");
        execute(&Command::Generate {
            model: Model::Rmat,
            nodes: 1 << 14,
            // More than one 1 MiB parse block of text.
            edges: 120_000,
            seed: 3,
            out: txt.clone(),
        })
        .unwrap();
        let written: Vec<Vec<u8>> = [1, 2, 3]
            .into_iter()
            .map(|procs| {
                let pcsr = tmp(&format!("procs{procs}.pcsr"));
                execute(&Command::Compress {
                    input: txt.clone(),
                    out: pcsr.clone(),
                    procs,
                })
                .unwrap();
                std::fs::read(&pcsr).unwrap()
            })
            .collect();
        assert_eq!(written[0], written[1]);
        assert_eq!(written[0], written[2]);
    }

    #[test]
    fn sparse_ids_past_the_cap_are_rejected() {
        let txt = tmp("huge-id.txt");
        std::fs::write(&txt, "0 4000000000\n").unwrap();
        // Checked on its own first: were the cap gone, the commands below
        // would ask for 16 GB of node-indexed arrays.
        let e = read_edges(&txt, 1).unwrap_err().to_string();
        assert!(
            e.contains("node id 4000000000 is too sparse for 1 edges"),
            "{e}"
        );
        let compress = execute(&Command::Compress {
            input: txt.clone(),
            out: tmp("huge-id.pcsr"),
            procs: 1,
        });
        let stats = execute(&Command::Stats { input: txt });
        for result in [compress, stats] {
            assert_eq!(result.unwrap_err().to_string(), e);
        }
    }

    #[test]
    fn sparse_ids_under_the_cap_still_compress() {
        let txt = tmp("sparse.txt");
        std::fs::write(&txt, "5 6\n").unwrap();
        let report = execute(&Command::Compress {
            input: txt.clone(),
            out: tmp("sparse.pcsr"),
            procs: 1,
        })
        .unwrap();
        assert!(report.contains("compressed 7 nodes / 1 edges"), "{report}");
        let report = execute(&Command::Stats { input: txt.clone() }).unwrap();
        assert!(report.contains("7 nodes, 1 edges"), "{report}");
        // The cap's edge: 8 ids per edge plus 2^20.
        std::fs::write(&txt, format!("0 {}\n", 8 + (1 << 20) - 1)).unwrap();
        assert_eq!(read_edges(&txt, 1).unwrap().num_nodes(), 8 + (1 << 20));
        std::fs::write(&txt, format!("0 {}\n", 8 + (1 << 20))).unwrap();
        assert!(read_edges(&txt, 1).is_err());
    }

    #[test]
    fn query_rejects_out_of_range_nodes() {
        let txt = tmp("range.txt");
        let pcsr = tmp("range.pcsr");
        execute(&Command::Generate {
            model: Model::ErdosRenyi,
            nodes: 10,
            edges: 20,
            seed: 1,
            out: txt.clone(),
        })
        .unwrap();
        execute(&Command::Compress {
            input: txt,
            out: pcsr.clone(),
            procs: 1,
        })
        .unwrap();
        let e = execute(&Command::Query {
            input: pcsr,
            neighbors: vec![500],
            edges: vec![],
            procs: 1,
        })
        .unwrap_err();
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn temporal_pipeline_end_to_end() {
        use parcsr_graph::gen::{temporal_toggles, TemporalParams};
        let events = temporal_toggles(TemporalParams::new(64, 600, 6, 3));
        let txt = tmp("events.txt");
        {
            let file = std::fs::File::create(&txt).unwrap();
            parcsr_graph::io::write_temporal_edge_list(&events, file).unwrap();
        }
        let tcsr_path = tmp("events.tcsr");
        let report = execute(&Command::TemporalCompress {
            input: txt,
            out: tcsr_path.clone(),
            procs: 2,
        })
        .unwrap();
        assert!(report.contains(" / 6 frames over "), "{report}");

        let snap = events.snapshot_at(3);
        let (u, v) = snap[0];
        let report = execute(&Command::TemporalQuery {
            input: tcsr_path,
            frame: 3,
            edges: vec![(u, v)],
            neighbors: vec![u],
            count: true,
        })
        .unwrap();
        assert!(
            report.contains(&format!("edge ({u}, {v}) at T3: true")),
            "{report}"
        );
        assert!(
            report.contains(&format!("active edges at T3: {}", snap.len())),
            "{report}"
        );
    }

    #[test]
    fn temporal_query_frame_out_of_range() {
        use parcsr_graph::gen::{temporal_toggles, TemporalParams};
        let events = temporal_toggles(TemporalParams::new(16, 100, 3, 1));
        let txt = tmp("range-events.txt");
        {
            let file = std::fs::File::create(&txt).unwrap();
            parcsr_graph::io::write_temporal_edge_list(&events, file).unwrap();
        }
        let out = tmp("range-events.tcsr");
        execute(&Command::TemporalCompress {
            input: txt,
            out: out.clone(),
            procs: 1,
        })
        .unwrap();
        let e = execute(&Command::TemporalQuery {
            input: out,
            frame: 999,
            edges: vec![],
            neighbors: vec![],
            count: true,
        })
        .unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
    }

    #[test]
    fn missing_files_error_cleanly() {
        let e = execute(&Command::Stats {
            input: "/nonexistent/g.txt".into(),
        })
        .unwrap_err();
        assert!(e.to_string().contains("reading"));
        let e = execute(&Command::Info {
            input: "/nonexistent/g.pcsr".into(),
        })
        .unwrap_err();
        assert!(e.to_string().contains("opening"));
    }

    #[test]
    fn info_rejects_non_pcsr_files() {
        let txt = tmp("not-a-pcsr.txt");
        std::fs::write(&txt, "0 1\n").unwrap();
        let e = execute(&Command::Info { input: txt }).unwrap_err();
        assert!(e.to_string().contains("loading"), "{e}");
    }
}
