//! Time-evolving CSR microbench (Section IV): parallel TCSR construction
//! across processor counts, differential vs. absolute storage size and query
//! cost, and snapshot reconstruction via the symmetric-difference scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use parcsr::with_processors;
use parcsr_graph::gen::{temporal_toggles, TemporalParams};
use parcsr_graph::TemporalEdgeList;
use parcsr_temporal::{AbsoluteFrames, TcsrBuilder};

fn workload() -> TemporalEdgeList {
    temporal_toggles(TemporalParams::new(1 << 12, 1 << 16, 64, 42))
}

fn bench_build(c: &mut Criterion) {
    let events = workload();
    let mut group = c.benchmark_group("tcsr_build");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.num_events() as u64));
    for &p in &[1usize, 2, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &events, |b, events| {
            with_processors(p, || {
                let builder = TcsrBuilder::new().processors(p);
                b.iter(|| black_box(builder.build(events)));
            });
        });
    }
    group.finish();
}

fn bench_snapshots(c: &mut Criterion) {
    let events = workload();
    let tcsr = TcsrBuilder::new().build(&events);
    let last = (tcsr.num_frames() - 1) as u32;
    let mut group = c.benchmark_group("tcsr_snapshot");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);

    group.bench_function("single/last-frame", |b| {
        b.iter(|| black_box(tcsr.snapshot_at(last)))
    });
    for &p in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("all-frames-scan", p), &tcsr, |b, tcsr| {
            with_processors(p, || b.iter(|| black_box(tcsr.snapshots_all(p))));
        });
    }
    group.finish();
}

fn bench_point_queries(c: &mut Criterion) {
    let events = workload();
    let diff = TcsrBuilder::new().build(&events);
    let small = temporal_toggles(TemporalParams::new(1 << 10, 1 << 13, 16, 7));
    let absolute = AbsoluteFrames::build(&small, 4);
    let diff_small = TcsrBuilder::new().build(&small);
    let t_small = (absolute.num_frames() - 1) as u32;
    let t = (diff.num_frames() - 1) as u32;

    let mut group = c.benchmark_group("tcsr_point_query");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("differential/edge_active", |b| {
        b.iter(|| black_box(diff.edge_active_at(5, 9, t)))
    });
    group.bench_function("differential-small/edge_active", |b| {
        b.iter(|| black_box(diff_small.edge_active_at(5, 9, t_small)))
    });
    group.bench_function("absolute-small/edge_active", |b| {
        b.iter(|| black_box(absolute.edge_active_at(5, 9, t_small)))
    });
    eprintln!(
        "tcsr storage: differential={} B vs absolute={} B ({} frames, small workload)",
        diff_small.packed_bytes(),
        absolute.packed_bytes(),
        absolute.num_frames()
    );
    group.finish();
}

criterion_group!(benches, bench_build, bench_snapshots, bench_point_queries);
criterion_main!(benches);
