//! Analytics microbench: the downstream workloads (BFS, PageRank,
//! triangles) on the plain vs. the bit-packed CSR — the realistic measure of
//! what querying the compressed structure costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use parcsr::{BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
use parcsr_algos::{bfs_parallel, count_triangles, pagerank, PageRankConfig};
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_graph::EdgeList;

fn fixtures() -> (EdgeList, Csr, BitPackedCsr) {
    let graph = rmat(RmatParams::new(1 << 13, 1 << 17, 42)).symmetrized();
    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 8);
    (graph, csr, packed)
}

fn bench_bfs(c: &mut Criterion) {
    let (_, csr, packed) = fixtures();
    let hub = (0..csr.num_nodes() as u32)
        .max_by_key(|&u| csr.degree(u))
        .unwrap();
    let mut group = c.benchmark_group("bfs");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("plain", hub), &csr, |b, csr| {
        b.iter(|| black_box(bfs_parallel(csr, hub)));
    });
    group.bench_with_input(BenchmarkId::new("packed", hub), &packed, |b, packed| {
        b.iter(|| black_box(bfs_parallel(packed, hub)));
    });
    group.finish();
}

fn bench_pagerank(c: &mut Criterion) {
    let (_, csr, _) = fixtures();
    let mut group = c.benchmark_group("pagerank");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    let config = PageRankConfig {
        max_iterations: 20,
        tolerance: 0.0, // fixed work per iteration for stable measurements
        ..Default::default()
    };
    group.bench_function("20-iterations", |b| {
        b.iter(|| black_box(pagerank(&csr, config)));
    });
    group.finish();
}

fn bench_triangles(c: &mut Criterion) {
    let (graph, _, _) = fixtures();
    let mut group = c.benchmark_group("analytics");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.bench_function("triangles", |b| {
        b.iter(|| black_box(count_triangles(&graph)));
    });
    group.finish();
}

criterion_group!(benches, bench_bfs, bench_pagerank, bench_triangles);
criterion_main!(benches);
