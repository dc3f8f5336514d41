//! Integration tests for the persistence and streaming paths: a packed CSR
//! survives a disk round-trip, the streaming packer matches the batch
//! pipeline on realistic workloads, and the weighted pipeline carries `vA`
//! end to end.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode, StreamingCsrPacker, WeightedCsr};
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_graph::{paper_datasets, WeightedEdgeList};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("parcsr-integration");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn packed_csr_survives_disk_roundtrip_for_every_profile() {
    for profile in paper_datasets() {
        let graph = profile.synthesize(0.001, 11);
        let csr = CsrBuilder::new().build(&graph);
        let mode = PackedCsrMode::Raw;
        let packed = BitPackedCsr::from_csr(&csr, mode, 4);
        let path = tmp(&format!("{}-{}.pcsr", profile.name, mode.name()));
        packed
            .write_to(&mut BufWriter::new(File::create(&path).unwrap()))
            .unwrap();
        let loaded =
            BitPackedCsr::read_from(&mut BufReader::new(File::open(&path).unwrap())).unwrap();
        assert_eq!(loaded, packed, "{} {}", profile.name, mode.name());
        // Spot queries on the loaded structure.
        for u in (0..csr.num_nodes() as u32).step_by(97) {
            assert_eq!(loaded.row(u), csr.neighbors(u));
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn streaming_packer_matches_batch_on_profile_workload() {
    let graph = paper_datasets()[3].synthesize(0.01, 21).sorted_by_source();
    let mut packer = StreamingCsrPacker::new(graph.num_nodes());
    for &(u, v) in graph.edges() {
        packer.push(u, v).expect("sorted stream");
    }
    let streamed = packer.finish();

    let csr = CsrBuilder::new().build_from_sorted(&graph).0;
    let batch = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
    assert_eq!(streamed, batch);

    // And the streamed structure serializes like any other.
    let mut bytes = Vec::new();
    streamed.write_to(&mut bytes).unwrap();
    let loaded = BitPackedCsr::read_from(&mut bytes.as_slice()).unwrap();
    assert_eq!(loaded, streamed);
}

#[test]
fn weighted_pipeline_preserves_va_end_to_end() {
    let base = rmat(RmatParams::new(1 << 10, 1 << 14, 31));
    let weighted = WeightedEdgeList::from_unweighted(&base, 1000);
    let wcsr = WeightedCsr::from_edge_list(&weighted, 4);

    // Every (u, v, w) triple survives, attached to the right edge.
    for &(u, v, w) in weighted.edges().iter().step_by(53) {
        let (targets, weights) = wcsr.neighbors_weighted(u);
        let found = targets
            .iter()
            .zip(weights)
            .any(|(&t, &wt)| t == v && wt == w);
        assert!(found, "edge ({u}, {v}, {w}) lost its weight");
    }

    // The packed weight array is lossless and narrower than 32 bits.
    let packed = wcsr.pack_weights(4);
    assert_eq!(packed.len(), wcsr.num_edges());
    assert!(packed.width() <= 10);
}

#[test]
fn streaming_rejects_disorder_and_recovers_nothing() {
    let mut packer = StreamingCsrPacker::new(8);
    packer.push(2, 3).unwrap();
    assert!(packer.push(2, 1).is_err(), "regression within a row");
    assert!(packer.push(1, 7).is_err(), "regression across rows");
    // The rejected edges must not have been recorded.
    let packed = packer.finish();
    assert_eq!(packed.num_edges(), 1);
    assert_eq!(packed.row(2), [3]);
}
