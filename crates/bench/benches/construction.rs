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
    // The pre-processing the paper assumes away: sorting the edge list by
    // source and then building (Algorithms 1-4's input), against the
    // counting build that buckets an unsorted list straight into rows
    // (DESIGN.md ablation "sort"). The presorted input measures what each
    // path pays when the sort has nothing to do.
    let graph = rmat(RmatParams::new(N, M, 42));
    let presorted = graph.sorted_by_source();
    let mut group = c.benchmark_group("sort_stage");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(M as u64));
    for (input, g) in [("unsorted", &graph), ("presorted", &presorted)] {
        for &p in &[1usize, 2] {
            group.bench_with_input(
                BenchmarkId::new(format!("sort_then_build/{input}"), p),
                g,
                |b, g| {
                    with_processors(p, || {
                        let builder = CsrBuilder::new().processors(p);
                        b.iter(|| black_box(builder.build_from_sorted(&g.sorted_by_source()).0));
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("counting_build/{input}"), p),
                g,
                |b, g| {
                    with_processors(p, || {
                        let builder = CsrBuilder::new().processors(p);
                        b.iter(|| black_box(builder.build(g)));
                    });
                },
            );
        }
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
