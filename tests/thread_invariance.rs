//! Thread/processor invariance: every parallel routine in the workspace
//! must produce bit-identical output for every processor count and pool
//! width — the property that makes the Table II sweep a pure performance
//! experiment.

use parcsr::query::{edges_exist_batch, neighbors_batch};
use parcsr::{with_processors, BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_bitpack::pack_parallel;
use parcsr_graph::gen::{rmat, temporal_toggles, RmatParams, TemporalParams};
use parcsr_scan::{inclusive_scan_chunked, inclusive_scan_seq};
use parcsr_temporal::TcsrBuilder;

/// The paper's processor sweep, including oversubscription (64 > host
/// cores, as on the authors' 32-core machine).
const SWEEP: [usize; 5] = [1, 4, 8, 16, 64];

#[test]
fn csr_construction_is_processor_invariant() {
    let graph = rmat(RmatParams::new(1 << 12, 1 << 16, 3));
    let base = with_processors(1, || CsrBuilder::new().processors(1).build(&graph));
    for p in SWEEP {
        let csr = with_processors(p, || CsrBuilder::new().processors(p).build(&graph));
        assert_eq!(csr, base, "p={p}");
    }
}

#[test]
fn packing_is_processor_invariant() {
    let graph = rmat(RmatParams::new(1 << 11, 1 << 14, 5));
    let csr = CsrBuilder::new().build(&graph);
    let base = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 1);
    for p in SWEEP {
        let packed = with_processors(p, || BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, p));
        assert_eq!(packed, base, "p={p}");
    }
}

#[test]
fn raw_pack_is_processor_invariant() {
    let values: Vec<u64> = (0..100_000u64).map(|i| (i * 2654435761) % 99_991).collect();
    let base = pack_parallel(&values, 1);
    for p in SWEEP {
        assert_eq!(pack_parallel(&values, p), base, "p={p}");
    }
}

#[test]
fn scans_are_processor_invariant() {
    let data: Vec<u64> = (0..50_000u64).map(|i| i % 1000).collect();
    let mut base = data.clone();
    inclusive_scan_seq(&mut base);
    for p in SWEEP {
        let mut v = data.clone();
        with_processors(p.min(16), || inclusive_scan_chunked(&mut v, p));
        assert_eq!(v, base, "p={p}");
    }
}

#[test]
fn queries_are_processor_invariant() {
    let graph = rmat(RmatParams::new(1 << 11, 1 << 14, 7));
    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
    let n = csr.num_nodes() as u32;
    let node_queries: Vec<u32> = (0..500).map(|i| (i * 48271) % n).collect();
    let edge_queries: Vec<(u32, u32)> = (0..500).map(|i| ((i * 31) % n, (i * 17) % n)).collect();

    let hoods_base = neighbors_batch(&packed, &node_queries, 1);
    let exists_base = edges_exist_batch(&packed, &edge_queries, 1);
    for p in SWEEP {
        with_processors(p.min(16), || {
            assert_eq!(
                neighbors_batch(&packed, &node_queries, p),
                hoods_base,
                "p={p}"
            );
            assert_eq!(
                edges_exist_batch(&packed, &edge_queries, p),
                exists_base,
                "p={p}"
            );
        });
    }
}

#[test]
fn tcsr_is_processor_invariant() {
    let events = temporal_toggles(TemporalParams::new(1 << 10, 1 << 13, 16, 9));
    let base = with_processors(1, || TcsrBuilder::new().processors(1).build(&events));
    for p in SWEEP {
        let tcsr = with_processors(p.min(16), || {
            TcsrBuilder::new().processors(p).build(&events)
        });
        assert_eq!(tcsr, base, "p={p}");
        let last = (tcsr.num_frames() - 1) as u32;
        assert_eq!(tcsr.snapshot_at(last), base.snapshot_at(last), "p={p}");
        for q in [1, 3, 8] {
            assert_eq!(tcsr.snapshots_all(q), base.snapshots_all(1), "p={p} q={q}");
        }
    }
}

#[test]
fn generators_are_pool_width_invariant() {
    // Graph generation itself parallelizes; the synthetic datasets must not
    // depend on the pool width either.
    let base = with_processors(1, || rmat(RmatParams::new(1 << 10, 1 << 14, 11)));
    for p in [2, 8, 32] {
        let g = with_processors(p, || rmat(RmatParams::new(1 << 10, 1 << 14, 11)));
        assert_eq!(g, base, "p={p}");
    }
}
