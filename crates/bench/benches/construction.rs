//! End-to-end construction microbench — the Criterion counterpart of
//! Figure 6: time to build (and pack) the CSR at each processor count, on a
//! skewed R-MAT graph and an unskewed Erdős–Rényi control of equal size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use parcsr::{with_processors, BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::gen::{erdos_renyi, rmat, ErParams, RmatParams};
use parcsr_graph::EdgeList;

const N: usize = 1 << 15;
const M: usize = 1 << 19;

fn bench_construction(c: &mut Criterion) {
    let graphs: [(&str, EdgeList); 2] = [
        ("rmat", rmat(RmatParams::new(N, M, 42)).sorted_by_source()),
        (
            "er",
            erdos_renyi(ErParams::new(N, M, 42)).sorted_by_source(),
        ),
    ];
    let mut group = c.benchmark_group("construction");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(M as u64));
    for (name, graph) in &graphs {
        for &p in &[1usize, 2, 4, 8, 16] {
            group.bench_with_input(
                BenchmarkId::new(format!("csr/{name}"), p),
                graph,
                |b, graph| {
                    with_processors(p, || {
                        let builder = CsrBuilder::new().processors(p);
                        b.iter(|| black_box(builder.build_from_sorted(graph).0));
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_packing_stage(c: &mut Criterion) {
    // Algorithm 4 in isolation: packing a built CSR at each processor count.
    let graph = rmat(RmatParams::new(N, M, 42));
    let csr = CsrBuilder::new().build(&graph);
    let mut group = c.benchmark_group("pack_stage");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(M as u64));
    for &p in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &csr, |b, csr| {
            with_processors(p, || {
                b.iter(|| black_box(BitPackedCsr::from_csr(csr, PackedCsrMode::Raw, p)));
            });
        });
    }
    group.finish();
}

fn bench_sort_stage(c: &mut Criterion) {
    // The pre-processing the paper assumes away: rayon's parallel
    // comparison sort vs the LSD radix sort (DESIGN.md ablation "sort").
    let graph = rmat(RmatParams::new(N, M, 42));
    let mut group = c.benchmark_group("sort_stage");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(M as u64));
    group.bench_function("comparison", |b| {
        b.iter(|| black_box(graph.sorted_by_source()));
    });
    for &chunks in &[4usize, 16] {
        group.bench_with_input(BenchmarkId::new("radix", chunks), &graph, |b, g| {
            b.iter(|| black_box(g.sorted_by_source_radix(chunks)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_construction,
    bench_packing_stage,
    bench_sort_stage
);
criterion_main!(benches);
