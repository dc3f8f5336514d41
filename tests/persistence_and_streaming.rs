//! Integration test for the persistence path: a packed CSR survives a disk
//! round-trip on every paper profile.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::paper_datasets;

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
