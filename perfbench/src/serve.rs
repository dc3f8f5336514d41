//! The serve path: one closed-loop client with a width-1 pool runs the fixed
//! query stream against an opened `.pcsr`, and every answer is checked
//! against the oracle. The traced run adds direct layer probes.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use parcsr::query::{
    edge_exists_split, edges_exist_batch, edges_exist_batch_binary, neighbors_batch,
};
use parcsr::{with_processors, BitPackedCsr};
use parcsr_graph::NodeId;

use crate::stats::{median, Metrics};
use crate::workload::{row_digest, Inputs, Kind, Query};

/// What a query call returned, kept until the latency is taken.
pub enum Answer {
    Rows(Vec<Vec<NodeId>>),
    Hits(Vec<bool>),
    Hit(bool),
}

impl Answer {
    /// The answer reduced to the form [`Query::expect`] stores; `None` when a
    /// one-query batch did not return exactly one result.
    pub fn digest(&self) -> Option<u64> {
        match self {
            Answer::Rows(rows) => match rows.as_slice() {
                [row] => Some(row_digest(row)),
                _ => None,
            },
            Answer::Hits(hits) => match hits.as_slice() {
                [hit] => Some(u64::from(*hit)),
                _ => None,
            },
            Answer::Hit(hit) => Some(u64::from(*hit)),
        }
    }
}

/// Issues `q` through the public batch drivers, one query per call.
pub fn execute(packed: &BitPackedCsr, q: &Query) -> Answer {
    match q.kind {
        Kind::Neighbors => Answer::Rows(neighbors_batch(packed, &[q.u], 1)),
        Kind::EdgeScan => Answer::Hits(edges_exist_batch(packed, &[(q.u, q.v)], 1)),
        Kind::EdgeBinary => Answer::Hits(edges_exist_batch_binary(packed, &[(q.u, q.v)], 1)),
        Kind::Split => Answer::Hit(edge_exists_split(packed, q.u, q.v, 1)),
    }
}

/// `true` when the call returned and its answer matches the oracle's.
pub fn answered_right(q: &Query, answer: &std::thread::Result<Answer>) -> bool {
    matches!(answer, Ok(a) if a.digest() == Some(q.expect))
}

/// One pass over the stream.
#[derive(Default)]
pub struct ServePass {
    /// Wall time of the pass minus the answer checks between queries.
    pub wall_s: f64,
    pub failed: u64,
    /// Sum of all client-observed latencies, ns.
    pub total_ns: u64,
    /// The part of `total_ns` spent on rows of degree 1024 or more.
    pub hub_ns: u64,
}

/// Serves `stream` once. `best_ns[i]` is lowered to the latency query `i`
/// had in this pass, if that is lower.
pub fn serve_pass(packed: &BitPackedCsr, stream: &[Query], best_ns: &mut [u64]) -> ServePass {
    with_processors(1, || {
        let mut pass = ServePass::default();
        let mut check_s = 0.0;
        let start = Instant::now();
        for (q, best) in stream.iter().zip(best_ns.iter_mut()) {
            let t0 = Instant::now();
            let answer = catch_unwind(AssertUnwindSafe(|| execute(packed, q)));
            let t1 = Instant::now();
            if !answered_right(q, &answer) {
                pass.failed += 1;
            }
            drop(answer);
            let ns = (t1 - t0).as_nanos() as u64;
            *best = (*best).min(ns);
            pass.total_ns += ns;
            if packed.degree(q.u) >= 1024 {
                pass.hub_ns += ns;
            }
            check_s += t1.elapsed().as_secs_f64();
        }
        pass.wall_s = start.elapsed().as_secs_f64() - check_s;
        pass
    })
}

/// Rows per degree class the kind × class probes use.
const PROBE_ROWS: usize = 256;
/// Stream prefix the decode drain covers.
const DRAIN_QUERIES: usize = 1 << 16;

/// The degree classes the per-class probes report. `mid` (32..1024) is left
/// out: the hub graph has no such row, and every workload reports the same
/// metrics.
const CLASSES: [(&str, std::ops::Range<usize>); 2] = [("low", 0..32), ("hub", 1024..usize::MAX)];

/// Direct probes of the serve-path layers on the workload's own stream.
/// Adds the per-layer metrics to `out`; returns `(attempted, failed)`.
pub fn probe_layers(packed: &BitPackedCsr, inputs: &Inputs, out: &mut Metrics) -> (u64, u64) {
    let stream = &inputs.stream;
    let n = stream.len() as f64;
    with_processors(1, || {
        let (mut attempted, mut failed) = (0, 0);

        // harness.select: the benchmark's own per-query cost of taking the
        // next query off the pre-generated stream.
        let t = Instant::now();
        for q in stream {
            black_box(black_box(q).kind);
        }
        out.push("harness.select_ns", t.elapsed().as_nanos() as f64 / n, "ns");

        // core.packed: the offset probe behind every query.
        let t = Instant::now();
        for q in stream {
            black_box(packed.degree(black_box(q.u)));
        }
        out.push(
            "core.packed.probe_ns",
            t.elapsed().as_nanos() as f64 / n,
            "ns",
        );

        let edges: usize = stream.iter().map(|q| inputs.oracle.degree(q.u)).sum();
        out.push("query.edges_per_query", edges as f64 / n, "edge/query");

        // bitpack.decode: drain each queried row straight off the packed
        // array, no query driver in between.
        let head = &stream[..stream.len().min(DRAIN_QUERIES)];
        let t = Instant::now();
        let mut drained = 0usize;
        for q in head {
            for v in packed.row_iter(q.u) {
                black_box(v);
                drained += 1;
            }
        }
        let drain_ns = t.elapsed().as_nanos() as f64;
        out.push(
            "bitpack.decode_ns_per_edge",
            drain_ns / drained.max(1) as f64,
            "ns/edge",
        );

        for (class, degrees) in CLASSES {
            // Rows of this class in stream order, or the graph's own rows
            // if the stream has none. Each is probed for its middle
            // neighbor, an edge that exists halfway along the row.
            let of_class = |u: &NodeId| degrees.contains(&inputs.oracle.degree(*u));
            let mut rows: Vec<NodeId> = stream
                .iter()
                .map(|q| q.u)
                .filter(of_class)
                .take(PROBE_ROWS)
                .collect();
            if rows.is_empty() {
                rows = (0..inputs.oracle.num_nodes() as NodeId)
                    .filter(of_class)
                    .take(PROBE_ROWS)
                    .collect();
            }
            let rows: Vec<(NodeId, NodeId)> = rows
                .into_iter()
                .map(|u| {
                    let row = inputs.oracle.neighbors(u);
                    (u, row.get(row.len() / 2).copied().unwrap_or(0))
                })
                .collect();
            for kind in Kind::ALL {
                let mut ns = Vec::with_capacity(rows.len());
                for &(u, v) in &rows {
                    let q = Query {
                        kind,
                        u,
                        v,
                        expect: Inputs::expected(&inputs.oracle, kind, u, v),
                    };
                    let t = Instant::now();
                    let answer = catch_unwind(AssertUnwindSafe(|| execute(packed, &q)));
                    ns.push(t.elapsed().as_nanos() as f64);
                    attempted += 1;
                    if !answered_right(&q, &answer) {
                        failed += 1;
                    }
                }
                let name = format!("query.exec_ns.{}.{class}", kind.name());
                out.push(&name, median(&mut ns), "ns");
            }
            if class == "low" {
                // query.overhead: the batch driver minus a direct drain of
                // the same row, paired per row so clock cost cancels.
                let mut diff = Vec::with_capacity(rows.len() * 4);
                for _ in 0..4 {
                    for &(u, _) in &rows {
                        let t = Instant::now();
                        black_box(neighbors_batch(packed, &[u], 1));
                        let batch = t.elapsed().as_nanos() as f64;
                        let t = Instant::now();
                        for v in packed.row_iter(u) {
                            black_box(v);
                        }
                        diff.push(batch - t.elapsed().as_nanos() as f64);
                    }
                }
                out.push("query.overhead_ns", median(&mut diff), "ns");
            }
        }
        (attempted, failed)
    })
}
