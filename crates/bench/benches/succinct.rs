//! Succinct-structure comparison: the bit-packed CSR against the
//! related-work structure it competes with (Section II) — a k²-tree over
//! the adjacency matrix — on size and query latency.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use parcsr::{BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_succinct::K2Tree;

const N: usize = 1 << 13;
const M: usize = 1 << 17;

struct Fixtures {
    csr: Csr,
    packed: BitPackedCsr,
    k2: K2Tree,
    probes: Vec<(u32, u32)>,
}

fn fixtures() -> Fixtures {
    let graph = rmat(RmatParams::new(N, M, 42)).deduped();
    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 8);
    let k2 = K2Tree::from_edges(N, graph.edges());
    let probes: Vec<(u32, u32)> = (0..4096)
        .map(|i| {
            if i % 2 == 0 {
                graph.edges()[(i * 37) % graph.num_edges()]
            } else {
                (((i * 48271) % N) as u32, ((i * 16807) % N) as u32)
            }
        })
        .collect();
    eprintln!(
        "succinct sizes on {} edges: csr={} B, packed={} B, k2tree={} B (bits only)",
        csr.num_edges(),
        csr.heap_bytes(),
        packed.packed_bytes(),
        k2.packed_bytes()
    );
    Fixtures {
        csr,
        packed,
        k2,
        probes,
    }
}

fn bench_edge_probes(c: &mut Criterion) {
    let f = fixtures();
    let mut group = c.benchmark_group("succinct_edge_probe");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("csr-binary-search", |b| {
        b.iter(|| {
            f.probes
                .iter()
                .filter(|&&(u, v)| f.csr.has_edge(u, v))
                .count()
        })
    });
    group.bench_function("packed-csr", |b| {
        b.iter(|| {
            f.probes
                .iter()
                .filter(|&&(u, v)| f.packed.has_edge(u, v))
                .count()
        })
    });
    group.bench_function("k2tree", |b| {
        b.iter(|| {
            f.probes
                .iter()
                .filter(|&&(u, v)| f.k2.has_edge(u, v))
                .count()
        })
    });
    group.finish();
}

fn bench_reverse_neighbors(c: &mut Criterion) {
    // In-neighbor queries: CSR needs a transpose; the k²-tree answers
    // directly.
    let f = fixtures();
    let targets: Vec<u32> = (0..64).map(|i| (i * 251) as u32 % N as u32).collect();
    let mut group = c.benchmark_group("succinct_in_neighbors");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.bench_function("k2tree-column", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &v in &targets {
                total += black_box(f.k2.column(v)).len();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_edge_probes, bench_reverse_neighbors);
criterion_main!(benches);
