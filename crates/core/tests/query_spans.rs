//! Batch spans are bounded by the parallel regions that ran. A one-chunk
//! batch (one processor, or one query at any width) runs inline and records
//! no span. A batch split across processors records one `query.*` span with
//! the batch's total degree, the planner's `plan` span, and one
//! `query.*.chunk` span per planned chunk carrying its index, length and
//! degree total. Runs only with `parcsr-obs/enabled`; its own test binary,
//! so no other test records spans alongside it.

use parcsr::query::{edges_exist_batch, edges_exist_batch_binary, neighbors_batch};
use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_obs::SpanArgs;
use parcsr_runtime::chunk_ranges_by_prefix_sum;

#[test]
fn only_split_batches_record_spans() {
    if !parcsr_obs::compiled() {
        return;
    }
    let csr = CsrBuilder::new().build(&rmat(RmatParams::new(256, 4_000, 5)));
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 1);
    let nodes = [3, 7, 7, 200];
    let pairs: Vec<(u32, u32)> = nodes.iter().map(|&u| (u, 1)).collect();
    parcsr_obs::set_enabled(true);
    let _ = parcsr_obs::drain();

    // One chunk: p = 1, and a single query at p = 4.
    neighbors_batch(&packed, &nodes, 1);
    edges_exist_batch(&packed, &pairs, 1);
    neighbors_batch(&packed, &nodes[..1], 4);
    edges_exist_batch_binary(&packed, &pairs[..1], 4);
    let spans = parcsr_obs::drain();
    assert!(spans.is_empty(), "one-chunk batches recorded {spans:?}");

    // Split across two processors.
    neighbors_batch(&packed, &nodes, 2);
    edges_exist_batch_binary(&packed, &pairs, 2);
    let spans = parcsr_obs::drain();
    parcsr_obs::set_enabled(false);

    let args = |name: &str| -> Vec<SpanArgs> {
        let mut args: Vec<SpanArgs> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.args)
            .collect();
        args.sort_by_key(|a| a.chunk);
        args
    };
    let mut prefix = vec![0u64];
    for &u in &nodes {
        prefix.push(prefix.last().unwrap() + csr.degree(u) as u64);
    }
    let edges = prefix[nodes.len()];
    let ranges = chunk_ranges_by_prefix_sum(&prefix, 2);
    assert_eq!(ranges.len(), 2, "the batch splits into two chunks");
    let chunks: Vec<SpanArgs> = ranges
        .iter()
        .enumerate()
        .map(|(i, r)| {
            SpanArgs::new()
                .chunk(i as u64)
                .chunk_len(r.len() as u64)
                .edges(prefix[r.end] - prefix[r.start])
        })
        .collect();
    let plan = SpanArgs::new().chunks(2).edges(edges);

    assert_eq!(args("query.neighbors"), [SpanArgs::new().edges(edges)]);
    assert_eq!(args("query.edges"), [SpanArgs::new().edges(edges)]);
    assert_eq!(args("plan"), [plan, plan]);
    assert_eq!(args("query.neighbors.chunk"), chunks);
    assert_eq!(args("query.edges.chunk"), chunks);
    assert_eq!(spans.len(), 2 + 2 + 2 * chunks.len());
}
