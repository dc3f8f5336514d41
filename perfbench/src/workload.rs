//! Workload definitions and their seeded, pre-generated inputs.
//!
//! Every workload is fixed work: a SNAP text file that `parcsr compress`
//! ingests, and a fixed query stream served against the `.pcsr` that command
//! writes. The seed decides the inputs; the program only ever sees the
//! generated files and the stream. Answers are checked against a plain
//! [`Csr`] built here, outside every timed region.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::distr::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use parcsr::Csr;
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_graph::{io as gio, EdgeList, NodeId};

/// Query kinds, in the order of a mix's weights: Algorithm 6 neighbors,
/// Algorithm 7 scan and binary-search edge tests, Algorithm 8 split search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Neighbors,
    EdgeScan,
    EdgeBinary,
    Split,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Neighbors,
        Kind::EdgeScan,
        Kind::EdgeBinary,
        Kind::Split,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Neighbors => "neighbors",
            Kind::EdgeScan => "edge_scan",
            Kind::EdgeBinary => "edge_binary",
            Kind::Split => "split",
        }
    }
}

/// One query of a stream, with the answer the oracle expects: the digest of
/// the neighbor row for [`Kind::Neighbors`], `0`/`1` for the edge tests.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub kind: Kind,
    pub u: NodeId,
    pub v: NodeId,
    pub expect: u64,
}

/// FNV-1a over a row's length and ids: the digest both the oracle and the
/// served answer are reduced to, so a pass need not keep its answers.
pub fn row_digest(row: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in std::iter::once(row.len() as u64).chain(row.iter().map(|&v| u64::from(v))) {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// A few thousand edges, for the benchmark's own self-test.
    Tiny,
}

#[derive(Debug, Clone, Copy)]
enum GraphSpec {
    /// R-MAT with the generator's default quadrants, seeded.
    Rmat { nodes: usize, edges: usize },
    /// The closed-loop driver's hub graph: 64 rows hold about half the edges.
    Hub { scale: f64 },
}

#[derive(Debug, Clone, Copy)]
enum StreamSpec {
    /// One neighbors query per node, in id order: the read-back sweep.
    Sweep,
    /// `len` queries, sources Zipf(1.0) over degree rank, split searches on
    /// the 64 highest-degree rows.
    Skewed { len: usize, mix: [u32; 4] },
    /// `len` queries, sources uniform over the nodes.
    Uniform { len: usize, mix: [u32; 4] },
}

/// A named workload: which graph, which stream.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    graph: GraphSpec,
    stream: StreamSpec,
    /// Serve passes per ingest in a round; each opens the `.pcsr` afresh.
    pub serves_per_ingest: usize,
}

pub const WORKLOADS: [&str; 3] = ["ingest", "serve_hub", "serve_uniform"];

impl Spec {
    pub fn named(name: &str, scale: Scale) -> Option<Spec> {
        let tiny = scale == Scale::Tiny;
        // The tiny sizes still have rows of degree 1024 or more, so every
        // per-class metric exists at both scales.
        let rmat = if tiny {
            GraphSpec::Rmat {
                nodes: 1 << 12,
                edges: 1 << 16,
            }
        } else {
            GraphSpec::Rmat {
                nodes: 1 << 18,
                edges: 1 << 22,
            }
        };
        let (name, graph, stream, serves_per_ingest) = match name {
            "ingest" => ("ingest", rmat, StreamSpec::Sweep, 4),
            "serve_hub" => (
                "serve_hub",
                GraphSpec::Hub {
                    scale: if tiny { 0.07 } else { 1.0 },
                },
                StreamSpec::Skewed {
                    len: if tiny { 2_000 } else { 10_000 },
                    mix: [45, 25, 20, 10],
                },
                4,
            ),
            "serve_uniform" => (
                "serve_uniform",
                rmat,
                StreamSpec::Uniform {
                    len: if tiny { 2_000 } else { 250_000 },
                    mix: [50, 0, 50, 0],
                },
                6,
            ),
            _ => return None,
        };
        Some(Spec {
            name,
            graph,
            stream,
            serves_per_ingest,
        })
    }
}

/// The generated inputs of one workload run.
pub struct Inputs {
    /// SNAP text file `parcsr compress` reads.
    pub text: PathBuf,
    /// Where the ingest passes write the `.pcsr`.
    pub pcsr: PathBuf,
    /// Ground truth, built sequentially from the generated edges.
    pub oracle: Csr,
    pub stream: Vec<Query>,
}

impl Inputs {
    /// Generates the graph, writes its text file into `dir`, builds the
    /// oracle and the query stream. Returns the inputs and the seconds taken.
    pub fn generate(spec: &Spec, seed: u64, dir: &Path) -> std::io::Result<(Inputs, f64)> {
        let t = Instant::now();
        let graph = match spec.graph {
            GraphSpec::Rmat { nodes, edges } => rmat(RmatParams::new(nodes, edges, seed)),
            GraphSpec::Hub { scale } => parcsr_bench::closed_loop::hub_graph(scale),
        };
        let text = dir.join(format!("{}.txt", spec.name));
        gio::write_edge_list_file(&graph, &text)?;
        // The SNAP reader infers the node count from the largest id, so the
        // oracle does too.
        let oracle = Csr::from_edge_list_sequential(&EdgeList::from_pairs(graph.into_edges()));
        let stream = make_stream(spec.stream, &oracle, seed);
        let inputs = Inputs {
            text,
            pcsr: dir.join(format!("{}.pcsr", spec.name)),
            oracle,
            stream,
        };
        Ok((inputs, t.elapsed().as_secs_f64()))
    }

    /// The oracle's answer to `q`, in the form [`Query::expect`] stores.
    pub fn expected(oracle: &Csr, kind: Kind, u: NodeId, v: NodeId) -> u64 {
        match kind {
            Kind::Neighbors => row_digest(oracle.neighbors(u)),
            _ => u64::from(oracle.has_edge(u, v)),
        }
    }
}

fn make_stream(spec: StreamSpec, oracle: &Csr, seed: u64) -> Vec<Query> {
    let n = oracle.num_nodes();
    let query = |kind: Kind, u: NodeId, v: NodeId| Query {
        kind,
        u,
        v,
        expect: Inputs::expected(oracle, kind, u, v),
    };
    let (len, mix) = match spec {
        StreamSpec::Sweep => {
            return (0..n as NodeId)
                .map(|u| query(Kind::Neighbors, u, 0))
                .collect();
        }
        StreamSpec::Skewed { len, mix } | StreamSpec::Uniform { len, mix } => (len, mix),
    };
    // Degree-descending rank table, ties by id: Zipf rank 1 is the
    // highest-degree row, so the skew follows degree as in the closed loop.
    let mut ranks: Vec<NodeId> = (0..n as NodeId).collect();
    ranks.sort_by_key(|&u| (std::cmp::Reverse(oracle.degree(u)), u));
    let hub_pool = ranks.len().min(64);
    let zipf = matches!(spec, StreamSpec::Skewed { .. }).then(|| Zipf::new(n, 1.0));
    let total: u32 = mix.iter().sum();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_5eed_5eed_5eed);
    (0..len)
        .map(|_| {
            let mut pick = rng.gen_range(0..total);
            let kind = Kind::ALL
                .into_iter()
                .zip(mix)
                .find(|&(_, w)| {
                    let hit = pick < w;
                    pick = pick.wrapping_sub(w);
                    hit
                })
                .map_or(Kind::Neighbors, |(k, _)| k);
            let u = match (kind, &zipf) {
                (Kind::Split, Some(_)) => ranks[rng.gen_range(0..hub_pool)],
                (_, Some(z)) => ranks[z.sample_index(&mut rng)],
                (_, None) => rng.gen_range(0..n as NodeId),
            };
            // Half the edge tests ask for an edge that exists, so a kernel
            // that always answers "absent" fails the oracle.
            let row = oracle.neighbors(u);
            let v = if !row.is_empty() && rng.gen_bool(0.5) {
                row[rng.gen_range(0..row.len())]
            } else {
                rng.gen_range(0..n as NodeId)
            };
            query(kind, u, v)
        })
        .collect()
}
