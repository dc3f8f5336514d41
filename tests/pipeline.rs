//! End-to-end pipeline integration: SNAP text → edge list → parallel CSR →
//! bit-packed CSR → parallel queries, across all dataset profiles at small
//! scale — the exact flow the Table II harness measures.

use std::io::Cursor;

use parcsr::query::{edges_exist_batch, edges_exist_batch_binary, neighbors_batch};
use parcsr::{BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
use parcsr_graph::io::{read_edge_list, write_edge_list};
use parcsr_graph::{paper_datasets, DegreeStats};

#[test]
fn full_pipeline_on_every_dataset_profile() {
    for profile in paper_datasets() {
        // Small but non-trivial stand-in (~0.2% of published size).
        let graph = profile.synthesize(0.002, 1);
        assert!(graph.num_edges() > 100, "{}", profile.name);

        let csr = CsrBuilder::new().build(&graph);
        assert_eq!(csr.num_edges(), graph.num_edges(), "{}", profile.name);
        assert_eq!(csr.validate(), Ok(()), "{}", profile.name);

        let want = Csr::from_edge_list_sequential(&graph);
        assert_eq!(csr, want, "{}", profile.name);

        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        assert!(
            packed.packed_bytes() < csr.heap_bytes(),
            "{}: packing must shrink the structure",
            profile.name
        );
        assert_eq!(packed.unpack(), csr, "{}", profile.name);
    }
}

#[test]
fn snap_text_roundtrip_feeds_the_builder() {
    let profile = &paper_datasets()[3];
    let graph = profile.synthesize(0.01, 5);

    // Serialize to SNAP text and parse it back, as a downloaded file would
    // be.
    let mut text = Vec::new();
    write_edge_list(&graph, &mut text).expect("serialize");
    let parsed = read_edge_list(Cursor::new(text)).expect("parse");
    // Node count can shrink (trailing isolated nodes are not visible in the
    // text format), but every edge must survive.
    assert_eq!(parsed.num_edges(), graph.num_edges());

    let from_parsed = CsrBuilder::new().build(&parsed);
    let from_original = CsrBuilder::new().build(&graph);
    for u in 0..parsed.num_nodes() as u32 {
        assert_eq!(from_parsed.neighbors(u), from_original.neighbors(u));
    }
}

#[test]
fn queries_on_packed_structures_match_plain_csr() {
    let graph = paper_datasets()[3].synthesize(0.005, 9);
    let csr = CsrBuilder::new().build(&graph);
    let n = csr.num_nodes() as u32;

    let mode = PackedCsrMode::Raw;
    let packed = BitPackedCsr::from_csr(&csr, mode, 8);

    let node_queries: Vec<u32> = (0..200).map(|i| (i * 48271) % n).collect();
    let hoods = neighbors_batch(&packed, &node_queries, 4);
    for (i, &u) in node_queries.iter().enumerate() {
        assert_eq!(hoods[i], csr.neighbors(u), "{} u={u}", mode.name());
    }

    let edge_queries: Vec<(u32, u32)> = (0..400)
        .map(|i| ((i * 16807) % n, (i * 69621) % n))
        .collect();
    let want: Vec<bool> = edge_queries
        .iter()
        .map(|&(u, v)| csr.has_edge(u, v))
        .collect();
    assert_eq!(edges_exist_batch(&packed, &edge_queries, 4), want);
    assert_eq!(edges_exist_batch_binary(&packed, &edge_queries, 4), want);
}

#[test]
fn synthetic_standins_have_social_network_shape() {
    // The substitution argument of DESIGN.md §2 depends on the stand-ins
    // being degree-skewed; pin that property.
    for profile in paper_datasets() {
        let graph = profile.synthesize(0.002, 3);
        let stats = DegreeStats::of(&graph);
        assert!(
            stats.gini > 0.35,
            "{}: expected heavy-tailed degrees, gini={}",
            profile.name,
            stats.gini
        );
        assert!(
            f64::from(stats.max_degree) > 8.0 * stats.mean_degree,
            "{}: hub-free stand-in (max {}, mean {})",
            profile.name,
            stats.max_degree,
            stats.mean_degree
        );
    }
}
