//! Analytics microbench: the downstream workloads (BFS, PageRank,
//! components, triangles, SpGEMM) on the plain vs. the bit-packed CSR — the
//! realistic measure of what querying the compressed structure costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use parcsr::{BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
use parcsr_algos::{
    bfs_parallel, connected_components_parallel, count_triangles, pagerank, two_hop, PageRankConfig,
};
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

fn bench_components_and_triangles(c: &mut Criterion) {
    let (graph, csr, _) = fixtures();
    let mut group = c.benchmark_group("analytics");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.bench_function("connected-components", |b| {
        b.iter(|| black_box(connected_components_parallel(&csr)));
    });
    group.bench_function("triangles", |b| {
        b.iter(|| black_box(count_triangles(&graph)));
    });
    group.finish();
}

fn bench_spgemm(c: &mut Criterion) {
    // Smaller input: A·A is dense-ish on power-law graphs.
    let graph = rmat(RmatParams::new(1 << 11, 1 << 14, 42));
    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 8);
    let mut group = c.benchmark_group("spgemm_two_hop");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.bench_function("plain", |b| b.iter(|| black_box(two_hop(&csr))));
    group.bench_function("packed", |b| b.iter(|| black_box(two_hop(&packed))));
    group.finish();
}

fn bench_centrality(c: &mut Criterion) {
    use parcsr_algos::{betweenness_sampled, kcore_parallel};
    let graph = rmat(RmatParams::new(1 << 11, 1 << 14, 42)).symmetrized();
    let csr = CsrBuilder::new().build(&graph);
    let mut group = c.benchmark_group("centrality");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.bench_function("betweenness-64-samples", |b| {
        b.iter(|| black_box(betweenness_sampled(&csr, 64, 7)));
    });
    group.bench_function("kcore", |b| {
        b.iter(|| black_box(kcore_parallel(&csr)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bfs,
    bench_pagerank,
    bench_components_and_triangles,
    bench_spgemm,
    bench_centrality
);
criterion_main!(benches);
