//! The one-chunk batch path records the spans a one-chunk plan records:
//! one `query.*` span and one `query.*.chunk` span, both carrying the
//! batch's total degree, the chunk span also its index and length. Runs
//! only with `parcsr-obs/enabled`; its own test binary, so no other test
//! records spans alongside it.

use parcsr::query::{edges_exist_batch, edges_exist_batch_binary, neighbors_batch};
use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_obs::SpanArgs;

#[test]
fn one_chunk_batches_keep_their_span_shape() {
    if !parcsr_obs::compiled() {
        return;
    }
    let csr = CsrBuilder::new().build(&rmat(RmatParams::new(256, 4_000, 5)));
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 1);
    let nodes = [3, 7, 7, 200];
    let edges: u64 = nodes.iter().map(|&u| csr.degree(u) as u64).sum();
    let pairs: Vec<(u32, u32)> = nodes.iter().map(|&u| (u, 1)).collect();

    parcsr_obs::set_enabled(true);
    let _ = parcsr_obs::drain();
    neighbors_batch(&packed, &nodes, 1);
    edges_exist_batch(&packed, &pairs, 1);
    edges_exist_batch_binary(&packed, &pairs[..1], 4);
    let spans = parcsr_obs::drain();
    parcsr_obs::set_enabled(false);

    let args = |name: &str| -> Vec<SpanArgs> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.args)
            .collect()
    };
    let chunk = |len: u64, edges: u64| SpanArgs::new().chunk(0).chunk_len(len).edges(edges);
    assert_eq!(args("query.neighbors"), [SpanArgs::new().edges(edges)]);
    assert_eq!(args("query.neighbors.chunk"), [chunk(4, edges)]);
    let first = csr.degree(3) as u64;
    assert_eq!(
        args("query.edges"),
        [SpanArgs::new().edges(edges), SpanArgs::new().edges(first)]
    );
    assert_eq!(
        args("query.edges.chunk"),
        [chunk(4, edges), chunk(1, first)]
    );
    assert!(args("plan").is_empty(), "a one-chunk batch builds no plan");
}
